"""Annealed importance sampling, bidirectional bounds, and sequential Monte
Carlo over annealing paths.

All three run one annealing loop, ``_anneal``: AIS is SMC that never
resamples.  Every estimator works purely on log-densities; incremental
weights are accumulated and aggregated by a max-shifted log-sum-exp so no
unbounded log-ratio is ever exponentiated on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Generator

from qanneal.hmc import HmcConfig, _block_means, _noise, hmc_step, tune_step_size


# default dual-averaging sweeps that tune the step size at each beta
_ADAPT_STEPS = 10


class WeightCollapseError(RuntimeError):
    """Raised at the step where every chain of a block carries a -inf
    weight, or where an adaptive run gives up before beta = 1.

    ``diagnostics`` holds ``beta_trace`` and the ``AnnealRun.steps`` columns
    of every step completed by then, each with its block axis.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def _log_sum_exp(log_weights) -> float:
    """log(sum(exp(lw))) shifted by the largest entry; -inf when every entry
    is -inf."""
    top = np.max(log_weights)
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(log_weights - top))))


def _ess_rows(log_weights):
    """ESS along the last axis of an array; every row needs a finite entry.
    The shifted weights are exponentiated and squared in their own buffer."""
    w = log_weights - log_weights.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    total = w.sum(axis=-1)
    w *= w
    return total * total / w.sum(axis=-1)


def ess_of_log_weights(log_weights) -> float:
    """Effective sample size (sum w)^2 / sum w^2 from log weights.

    The weights are shifted by the largest before exponentiating; -inf
    entries count as zero-weight particles.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.ndim != 1 or lw.size == 0:
        raise ValueError("log_weights must be a nonempty vector")
    if np.any(np.isnan(lw)) or np.any(lw == np.inf):
        raise ValueError("log_weights must be finite or -inf")
    if not np.any(np.isfinite(lw)):
        raise ValueError("at least one log weight must be finite")
    return float(_ess_rows(lw))


def systematic_resample(log_weights, rng: Generator) -> np.ndarray:
    """Systematic resampling indices from a single stratified uniform draw."""
    lw = np.asarray(log_weights, dtype=float)
    if not np.any(np.isfinite(lw)):
        raise ValueError("at least one log weight must be finite")
    n = lw.shape[0]
    w = np.exp(lw - _log_sum_exp(lw))
    w = w / np.sum(w)
    positions = (rng.uniform() + np.arange(n)) / n
    indices = np.searchsorted(np.cumsum(w), positions, side="right")
    return np.minimum(indices, n - 1)


@dataclass(frozen=True, eq=False)
class AnnealRun:
    """Outcome of one annealing run: AIS, either way, or SMC.

    ``log_Z_estimate`` adds, at each resampling and at the end, the
    log-mean-exp of the weights carried since the last resampling; the last
    of those are ``per_chain_log_w``.  A chain whose weight hit -inf stays
    in that mean as a zero weight, which keeps the estimate of Z unbiased.
    ``beta_trace`` holds the betas in run order, its start included, and
    ``steps`` maps the report name of each per-step column to one entry per
    later beta: ``ess_trace`` (the carried-weight ESS after its increment)
    and ``acceptance_trace`` (the mean acceptance of its moves).
    ``positions`` are the final chains.

    A run over several blocks of chains, one step size each, holds every
    block at once: each field but ``beta_trace`` and ``resample_count``,
    and each column, gains a leading block axis (``positions`` stacks the
    blocks' rows), and ``blocks()`` splits it into one run per block.  A
    sandwich's ``beta_trace`` holds one column per half of its blocks.
    """

    log_Z_estimate: float | np.ndarray
    per_chain_log_w: np.ndarray
    positions: np.ndarray
    beta_trace: np.ndarray
    steps: dict
    resample_count: int

    @property
    def n_dropped(self) -> int | np.ndarray:
        """The count of chains whose weight is -inf, per block."""
        dropped = np.sum(~np.isfinite(self.per_chain_log_w), axis=-1)
        return int(dropped) if dropped.ndim == 0 else dropped

    @property
    def schedule_used(self) -> np.ndarray:
        """The betas of the run in increasing order, per direction."""
        return np.sort(self.beta_trace, axis=0)

    def blocks(self) -> list["AnnealRun"]:
        """One run per block; a run of one block is its own."""
        if np.ndim(self.log_Z_estimate) == 0:
            return [self]
        rows, trace = np.split(self.positions, self.log_Z_estimate.size), self.beta_trace
        return [
            AnnealRun(
                float(self.log_Z_estimate[b]), self.per_chain_log_w[b], rows[b],
                trace if trace.ndim == 1 else trace[:, b * trace.shape[1] // len(rows)],
                {name: column[b] for name, column in self.steps.items()}, self.resample_count,
            )
            for b in range(len(rows))
        ]


def _betas_of(schedule, sandwich: bool = False) -> np.ndarray:
    """A grid's betas or, if ``sandwich``, also a (K+1, 2) array of a grid and its reverse."""
    betas = np.asarray(schedule, dtype=float)
    grid = betas[:, 0] if sandwich and betas.ndim == 2 and betas.shape[1] == 2 else betas
    if grid is not betas and not np.array_equal(betas[::-1, 1], grid):
        raise ValueError("a two-column schedule holds a grid and its reverse")
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("schedule must hold at least the two endpoints")
    if grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValueError("schedule must start at 0 and end at 1")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("schedule must be strictly increasing")
    return betas


def _masked_increment(lp_new: np.ndarray, lp_old: np.ndarray) -> np.ndarray:
    """Energy difference with dead evaluations mapped to -inf, never nan."""
    with np.errstate(invalid="ignore"):
        incr = lp_new - lp_old
    return np.where(np.isnan(incr) | (lp_new == -np.inf), -np.inf, incr)


def _accumulate(log_w: np.ndarray, incr: np.ndarray) -> np.ndarray:
    dead = (log_w == -np.inf) | (incr == -np.inf)
    with np.errstate(invalid="ignore"):
        return np.where(dead, -np.inf, log_w + incr)


# adaptive steps bisect to within this fraction of the particle count of the
# ESS target, in at most _BISECTIONS halvings; a run that takes more than
# _MAX_STEPS steps is abandoned
_ESS_TOL_FRACTION = 0.01
_BISECTIONS = 100
_MAX_STEPS = 10_000


def _next_beta_by_ess(incr_fn, beta_now, ess_target, tol):
    """Bisect for the smallest next beta whose incremental ESS hits the target.

    ``incr_fn(b)`` returns per-particle log incremental weights from beta_now
    to b.  Returns (beta, converged); when the cap at 1 already satisfies the
    target the cap is returned converged.  An increment with no finite entry
    has ESS 0, so a run whose every chain dies bisects down to beta_now and
    collapses there.
    """
    if not beta_now < 1.0:
        raise ValueError("beta_now must be below 1")

    def ess_at(b):
        incr = incr_fn(b)
        return ess_of_log_weights(incr) if np.any(np.isfinite(incr)) else 0.0

    if ess_at(1.0) >= ess_target:
        return 1.0, True
    lo, hi = beta_now, 1.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        ess = ess_at(mid)
        if abs(ess - ess_target) <= tol:
            return mid, True
        if ess > ess_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi), False


def _columns(steps: list[dict]) -> dict:
    """The step records as one column per name, the block axis first."""
    return {name: np.stack([s[name] for s in steps], axis=1) for name in steps[0]} if steps else {}


def _anneal(
    path, z, cfg, moves_per_step, rng, adapt_steps, betas, ess_target, resample_below
) -> AnnealRun:
    """Weight and move the chains ``z`` along the path: the one annealing loop.

    Betas follow the grid ``betas`` in run order or, if it is None, the ESS
    bisection toward ``ess_target`` up to 1.  The chains resample when the
    carried ESS falls below ``resample_below``: never at 0 (AIS), always at
    inf (adaptive SMC).  ``z`` is one block of starting chains, copied to
    every entry of ``cfg.step_size``; every block draws from the one
    generator ``rng``.  A (K+1, G) grid runs G groups of blocks, one column
    each, from G stacked blocks of ``z`` on a tuple of G generators.
    Weights are unnormalized, one row per block.  Each
    resampling, and the end of the run, adds their log-mean-exp to log Z,
    so a -inf weight counts as zero, and each block whose final weights
    hold one warns.  A row of -inf weights raises ``WeightCollapseError``
    at that step.  A run of one block returns that block, without its
    block axis.
    """
    if moves_per_step < 0:
        raise ValueError("moves_per_step must be nonnegative")
    blocks, groups = cfg.step_size.size, 1 if betas is None else betas[0].size
    n = z.shape[0] // groups
    if blocks > 1 and resample_below > 0.0:
        raise ValueError("a resampling run takes one block of chains")
    z = np.repeat(z.reshape(groups, n, -1), blocks // groups, axis=0).reshape(blocks * n, -1)
    tol = _ESS_TOL_FRACTION * n
    log_w, log_Z = np.zeros((blocks, n)), np.zeros(blocks)
    beta = 0.0 if betas is None else betas[0]
    beta_trace, steps, resamples = [beta], [], 0  # steps: one record of columns per step
    def collapse(message: str) -> WeightCollapseError:  # with the trace so far
        return WeightCollapseError(message, {"beta_trace": np.asarray(beta_trace), **_columns(steps)})
    batch = path.log_density_of(z)
    lp_old = batch(beta)
    converged = True
    while beta < 1.0 if betas is None else len(beta_trace) < len(betas):
        if betas is not None:
            beta = betas[len(beta_trace)]
        elif len(beta_trace) > _MAX_STEPS:
            raise collapse("adaptive schedule failed to reach beta = 1")
        else:
            beta, converged = _next_beta_by_ess(
                lambda b: _masked_increment(batch(b), lp_old), beta, ess_target, tol
            )
        beta_trace.append(beta)
        state = batch.value_and_grad(beta)
        log_w = _accumulate(log_w, _masked_increment(state[0], lp_old).reshape(log_w.shape))
        if not np.all(np.any(np.isfinite(log_w), axis=1)):
            raise collapse("every chain of a block carries a -inf weight")
        # a dead run raises above, so the warning names only a live one
        if not converged:
            warnings.warn(
                f"incremental ESS bisection did not converge at beta {beta_trace[-2]:.6f}",
                RuntimeWarning,
            )
        ess = _ess_rows(log_w)
        if ess[0] < resample_below:
            log_Z += _log_sum_exp(log_w) - math.log(n)
            idx = systematic_resample(log_w[0], rng)
            z, state, log_w = z[idx], (state[0][idx], state[1][idx]), np.zeros_like(log_w)
            resamples += 1
        energy = partial(path.value_and_grad, beta=beta)
        cfg, z, state = tune_step_size(z, energy, cfg, rng, n_adapt=adapt_steps, state=state)
        rates = []
        for _ in range(moves_per_step):
            z, accepted, state = hmc_step(z, energy, cfg, rng, state=state)
            rates.append(_block_means(accepted, blocks))
        acc = np.mean(np.stack(rates, axis=1), axis=1) if rates else np.full(blocks, math.nan)
        steps.append({"ess_trace": ess, "acceptance_trace": acc})
        lp_old = state[0]
        batch = path.log_density_of(z)
    log_Z += np.array([_log_sum_exp(row) for row in log_w]) - math.log(n)
    run = AnnealRun(log_Z, log_w, z, np.asarray(beta_trace), _columns(steps), resamples)
    if not np.all(np.isfinite(log_w)):  # all live: skip the count, whose kernels add peak RSS
        for dropped in run.n_dropped[run.n_dropped > 0]:
            warnings.warn(
                f"{dropped} of {n} chains hit -inf weights and count as zero weights in the estimate",
                RuntimeWarning,
            )
    return run if blocks > 1 else run.blocks()[0]


def ais_forward(
    path,
    schedule,
    chains: int,
    cfg: HmcConfig,
    moves_per_step: int,
    rng: Generator,
    adapt_steps: int = _ADAPT_STEPS,
) -> AnnealRun:
    """Forward AIS estimate of log(Z_target / Z_base).

    Per-chain weights telescope the path energy along the schedule, each
    increment evaluated before the HMC moves for that step.  The log-mean-exp
    of the weights is a stochastic lower bound in expectation.

    ``chains`` chains run per entry of ``cfg.step_size``, every block
    starting from the same base samples and drawing the same moves from
    ``rng`` (common random numbers).  The result holds one estimate per
    block, or the one block's run when there is one.

    A (K+1, 2) schedule, a grid and its reverse, runs a BDMC sandwich as one
    sweep, the first half of the blocks up the grid and the second down it
    from ``chains`` exact target draws.  Each half gets the bits, and ``rng``
    ends in the state, that this run on the grid and then ``ais_reverse``
    from ``path.target.exact_sampler(rng, chains)`` give.
    """
    betas = _betas_of(schedule, sandwich=True)
    if path.base.exact_sampler is None:
        raise ValueError("forward AIS requires an exact sampler for the base")
    if chains < 1:
        raise ValueError("chains must be positive")
    z = path.base.exact_sampler(rng, chains)
    if betas.ndim == 2:
        # the forward half draws from a copy; rng draws what it does (standard_normal
        # rejects some draws, so none can be skipped undrawn), then the reverse half's
        up = Generator(type(rng.bit_generator)(0))
        up.bit_generator.state = rng.bit_generator.state
        for _ in range((len(betas) - 1) * (adapt_steps + moves_per_step)):
            _noise(rng, chains, z.shape[1])
        z, rng = np.concatenate([z, path.target.exact_sampler(rng, chains)]), (up, rng)
    return _anneal(path, z, cfg, moves_per_step, rng, adapt_steps, betas, None, 0.0)


def ais_reverse(
    path,
    schedule,
    exact_target_samples: np.ndarray,
    cfg: HmcConfig,
    moves_per_step: int,
    rng: Generator,
    adapt_steps: int = _ADAPT_STEPS,
) -> AnnealRun:
    """Reverse AIS from exact target samples down the schedule.

    The returned ``log_Z_estimate`` is the log-mean-exp of the run-direction
    weights and so estimates log(Z_base / Z_target); negating it gives the
    stochastic upper bound on log(Z_target / Z_base) that ``bdmc_gap`` pairs
    with a forward run.  The samples, an (n, d) batch, start every block,
    as in ``ais_forward``.
    """
    betas = _betas_of(schedule)
    z = np.asarray(exact_target_samples, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError("reverse AIS requires an (n, d) batch of at least one target sample")
    return _anneal(path, z, cfg, moves_per_step, rng, adapt_steps, betas[::-1], None, 0.0)


def bdmc_gap(fwd: AnnealRun, rev: AnnealRun) -> float | np.ndarray:
    """Width of the sandwich, reverse upper bound minus forward lower bound, per block."""
    return -rev.log_Z_estimate - fwd.log_Z_estimate


def smc_run(
    path,
    schedule,
    particles: int,
    moves_per_step: int,
    cfg: HmcConfig,
    rng: Generator | int,
    ess_fraction: float = 0.5,
    adapt_steps: int = _ADAPT_STEPS,
) -> tuple[float, AnnealRun]:
    """Sequential Monte Carlo estimate of log(Z_target / Z_base).

    ``schedule`` is either a fixed beta grid (resampling triggers when the
    carried-weight ESS drops below ``ess_fraction * particles``) or the string
    "adaptive" (each step bisects for the beta whose incremental ESS matches
    the target to within ``_ESS_TOL_FRACTION * particles``, then always
    resamples); an adaptive run needs ``ess_fraction`` in (0, 1], since the
    ESS never exceeds the particle count.  Accumulation is the log of the
    weighted mean incremental weight, so the estimate of Z is unbiased when
    no adaptation is used.  ``rng`` is a generator or an integer seed, and
    the run is deterministic given the seed.
    """
    if particles < 2:
        raise ValueError("particles must be at least 2")
    gen = np.random.default_rng(rng)
    if path.base.exact_sampler is None:
        raise ValueError("SMC requires an exact sampler for the base")
    adaptive = isinstance(schedule, str)
    if adaptive and schedule != "adaptive":
        raise ValueError(f"unknown schedule rule {schedule!r}")
    if adaptive and not 0.0 < ess_fraction <= 1.0:
        raise ValueError(
            f"ess_fraction must lie in (0, 1] for an adaptive schedule, got {ess_fraction}"
        )
    betas = None if adaptive else _betas_of(schedule)
    z = path.base.exact_sampler(gen, particles)
    ess_target = ess_fraction * particles
    resample_below = math.inf if adaptive else ess_target
    run = _anneal(path, z, cfg, moves_per_step, gen, adapt_steps, betas, ess_target, resample_below)
    return run.log_Z_estimate, run
