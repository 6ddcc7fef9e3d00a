"""Annealed importance sampling, bidirectional bounds, and sequential Monte
Carlo over annealing paths.

Every estimator works purely on log-densities; incremental weights are
accumulated and aggregated by a max-shifted log-sum-exp so no unbounded
log-ratio is ever exponentiated on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from qanneal.hmc import HmcConfig, Rng, _block_means, _draw, _generators, hmc_step, tune_step_size


# default dual-averaging sweeps that tune the step size at each beta
_ADAPT_STEPS = 10


class WeightCollapseError(RuntimeError):
    """Raised when every chain or particle carries a -inf weight.

    ``diagnostics`` holds whatever trace data existed at the collapse.
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
    """ESS along the last axis; every row needs a finite entry."""
    w = np.exp(log_weights - np.max(log_weights, axis=-1, keepdims=True))
    total = np.sum(w, axis=-1)
    return total * total / np.sum(w * w, axis=-1)


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


def systematic_resample(log_weights, rng: np.random.Generator) -> np.ndarray:
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


@dataclass(frozen=True)
class AisResult:
    """Outcome of one annealed importance sampling run.

    ``log_Z_estimate`` is the log-mean-exp of the finite per-chain weights;
    chains that hit -inf stay recorded in ``per_chain_log_w`` but are dropped
    from the mean, with the count in ``n_dropped``.

    A run over several blocks of chains (``rng`` a sequence of generators)
    holds every block at once: each field but ``schedule_used`` gains a
    leading block axis, and ``blocks()`` splits it into one result per block.
    """

    log_Z_estimate: float | np.ndarray
    per_chain_log_w: np.ndarray
    schedule_used: np.ndarray
    acceptance_trace: np.ndarray
    n_dropped: int | np.ndarray = 0
    ess_trace: np.ndarray = field(default_factory=lambda: np.empty(0))

    def blocks(self) -> list["AisResult"]:
        """One result per block; a run of a single generator is its own."""
        if np.ndim(self.log_Z_estimate) == 0:
            return [self]
        return [
            AisResult(
                log_Z_estimate=float(self.log_Z_estimate[b]),
                per_chain_log_w=self.per_chain_log_w[b],
                schedule_used=self.schedule_used,
                acceptance_trace=self.acceptance_trace[b],
                n_dropped=int(self.n_dropped[b]),
                ess_trace=self.ess_trace[b],
            )
            for b in range(self.log_Z_estimate.size)
        ]


@dataclass
class SmcDiagnostics:
    """Per-step traces and the final weighted particles of an SMC run."""

    beta_trace: np.ndarray
    ess_trace: np.ndarray
    acceptance_trace: np.ndarray
    resample_count: int
    positions: np.ndarray
    log_weights: np.ndarray


def _betas_of(schedule) -> np.ndarray:
    betas = np.asarray(schedule, dtype=float)
    if betas.ndim != 1 or betas.size < 2:
        raise ValueError("schedule must hold at least the two endpoints")
    if betas[0] != 0.0 or betas[-1] != 1.0:
        raise ValueError("schedule must start at 0 and end at 1")
    if np.any(np.diff(betas) <= 0.0):
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


def _transition(path, beta, z, state, cfg, rng, adapt_steps, moves_per_step):
    """Step-size warm-up and HMC moves at fixed beta, carrying the
    (logp, grad) state from each transition to the next.

    Returns the positions, their state, the config used and the mean
    acceptance of the moves in each block of ``rng``.
    """
    energy = partial(path.value_and_grad, beta=beta)
    cfg, z, state = tune_step_size(z, energy, cfg, rng, n_adapt=adapt_steps, state=state)
    blocks = len(_generators(rng))
    rates = []
    for _ in range(moves_per_step):
        z, accepted, state = hmc_step(z, energy, cfg, rng, state=state)
        rates.append(_block_means(accepted, blocks))
    if not rates:
        return z, state, cfg, np.full(blocks, math.nan)
    return z, state, cfg, np.mean(np.stack(rates, axis=1), axis=1)


def ais_forward(
    path,
    schedule,
    chains: int,
    cfg: HmcConfig,
    moves_per_step: int,
    rng: Rng,
    adapt_steps: int = _ADAPT_STEPS,
) -> AisResult:
    """Forward AIS estimate of log(Z_target / Z_base).

    Per-chain weights telescope the path energy along the schedule, each
    increment evaluated before the HMC moves for that step.  The log-mean-exp
    of the weights is a stochastic lower bound in expectation.

    With ``rng`` a sequence of generators, ``chains`` chains run per
    generator, each block drawing its base samples and moves from its own
    generator, and the result holds one estimate per block.
    """
    betas = _betas_of(schedule)
    if path.base.exact_sampler is None:
        raise ValueError("forward AIS requires an exact sampler for the base")
    if chains < 1:
        raise ValueError("chains must be positive")
    z = _draw(rng, chains * len(_generators(rng)), path.base.exact_sampler)
    return _ais_sweep(path, betas, betas, z, cfg, moves_per_step, rng, adapt_steps)


def ais_reverse(
    path,
    schedule,
    exact_target_samples: np.ndarray,
    cfg: HmcConfig,
    moves_per_step: int,
    rng: Rng,
    adapt_steps: int = _ADAPT_STEPS,
) -> AisResult:
    """Reverse AIS from exact target samples down the schedule.

    The returned ``log_Z_estimate`` is the log-mean-exp of the run-direction
    weights and so estimates log(Z_base / Z_target); negating it gives the
    stochastic upper bound on log(Z_target / Z_base) that ``bdmc_gap`` pairs
    with a forward run.  With ``rng`` a sequence of generators the samples
    split into equal blocks, one per generator, as in ``ais_forward``.
    """
    betas = _betas_of(schedule)
    z = np.asarray(exact_target_samples, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    if z.shape[0] < 1:
        raise ValueError("reverse AIS requires at least one target sample")
    return _ais_sweep(path, betas, betas[::-1], z, cfg, moves_per_step, rng, adapt_steps)


def _ais_sweep(path, betas, run_betas, z, cfg, moves_per_step, rng, adapt_steps) -> AisResult:
    """Telescope the path energy of chains ``z`` along ``run_betas``.

    Each increment is taken before the HMC moves at its beta; the chains'
    log-density at the previous beta comes from the state the moves there
    ended on, so no point is evaluated twice.  The chains form one block per
    generator of ``rng``; weights, ESS and acceptance are kept per block,
    from row-wise reductions over a (blocks, chains) view.
    """
    blocks = len(_generators(rng))
    if z.shape[0] % blocks:
        raise ValueError("the chains must split into equal blocks, one per generator")
    log_w = np.zeros((blocks, z.shape[0] // blocks))
    acceptance = np.full((blocks, run_betas.size - 1), math.nan)
    ess = np.full((blocks, run_betas.size - 1), math.nan)
    lp_old = path.log_density_of(z)(run_betas[0])
    for t in range(1, run_betas.size):
        state = path.value_and_grad(z, run_betas[t])
        log_w = _accumulate(log_w, _masked_increment(state[0], lp_old).reshape(log_w.shape))
        alive = np.any(np.isfinite(log_w), axis=1)
        ess[alive, t - 1] = _ess_rows(log_w[alive])
        z, state, cfg, acceptance[:, t - 1] = _transition(
            path, run_betas[t], z, state, cfg, rng, adapt_steps, moves_per_step
        )
        lp_old = state[0]
    result = _finish_ais(log_w, betas, acceptance, ess)
    return result.blocks()[0] if isinstance(rng, np.random.Generator) else result


def _finish_ais(
    log_w: np.ndarray, betas: np.ndarray, acceptance: np.ndarray, ess: np.ndarray
) -> AisResult:
    """Per-block estimates from (blocks, chains) weights; every block must
    keep a finite weight."""
    finite = np.isfinite(log_w)
    n_dropped = log_w.shape[1] - np.sum(finite, axis=1)
    if np.any(n_dropped == log_w.shape[1]):
        raise WeightCollapseError("every chain carries a -inf weight")
    for dropped in n_dropped[n_dropped > 0]:
        warnings.warn(
            f"{dropped} of {log_w.shape[1]} chains hit -inf weights and were "
            "excluded from the estimate",
            RuntimeWarning,
        )
    # a block's dropped chains leave its sum, as if they had never run
    estimate = np.array(
        [_log_sum_exp(row[keep]) - math.log(int(np.sum(keep))) for row, keep in zip(log_w, finite)]
    )
    return AisResult(
        log_Z_estimate=estimate,
        per_chain_log_w=log_w,
        schedule_used=betas,
        acceptance_trace=acceptance,
        n_dropped=n_dropped,
        ess_trace=ess,
    )


def bdmc_gap(fwd: AisResult, rev: AisResult) -> float:
    """Width of the sandwich: reverse upper bound minus forward lower bound."""
    return float(-rev.log_Z_estimate - fwd.log_Z_estimate)


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
    target the cap is returned converged.
    """
    if not beta_now < 1.0:
        raise ValueError("beta_now must be below 1")
    if ess_of_log_weights(incr_fn(1.0)) >= ess_target:
        return 1.0, True
    lo, hi = beta_now, 1.0
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        ess = ess_of_log_weights(incr_fn(mid))
        if abs(ess - ess_target) <= tol:
            return mid, True
        if ess > ess_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi), False


def smc_run(
    path,
    schedule,
    particles: int,
    moves_per_step: int,
    cfg: HmcConfig,
    rng: np.random.Generator | int,
    ess_fraction: float = 0.5,
    adapt_steps: int = _ADAPT_STEPS,
) -> tuple[float, SmcDiagnostics]:
    """Sequential Monte Carlo estimate of log(Z_target / Z_base).

    ``schedule`` is either a fixed beta grid (resampling triggers when the
    carried-weight ESS drops below ``ess_fraction * particles``) or the string
    "adaptive" (each step bisects for the beta whose incremental ESS matches
    the target to within ``_ESS_TOL_FRACTION * particles``, then always
    resamples); an adaptive run needs ``ess_fraction`` in (0, 1], since the
    ESS never exceeds the particle count.  Accumulation is the log of the
    weighted mean incremental weight, so the estimate of Z is unbiased when
    no adaptation is used.  Deterministic given an integer seed.
    """
    if particles < 2:
        raise ValueError("particles must be at least 2")
    gen = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    if path.base.exact_sampler is None:
        raise ValueError("SMC requires an exact sampler for the base")

    adaptive = isinstance(schedule, str)
    if adaptive:
        if schedule != "adaptive":
            raise ValueError(f"unknown schedule rule {schedule!r}")
        if not 0.0 < ess_fraction <= 1.0:
            raise ValueError(
                f"ess_fraction must lie in (0, 1] for an adaptive schedule, got {ess_fraction}"
            )
        betas = None
    else:
        betas = _betas_of(schedule)

    z = path.base.exact_sampler(gen, particles)
    log_w = np.full(particles, -math.log(particles))
    log_Z = 0.0
    ess_target = ess_fraction * particles
    tol = _ESS_TOL_FRACTION * particles
    beta = 0.0
    beta_trace, ess_trace, acc_trace = [0.0], [], []
    resamples = 0
    step_cfg = cfg
    step = 0
    lp_old = path.log_density_of(z)(beta)
    while beta < 1.0:
        step += 1
        if step > _MAX_STEPS:
            raise WeightCollapseError(
                "adaptive schedule failed to reach beta = 1",
                {"beta_trace": np.asarray(beta_trace)},
            )
        batch = path.log_density_of(z)
        if adaptive:
            beta_next, converged = _next_beta_by_ess(
                lambda b: _masked_increment(batch(b), lp_old), beta, ess_target, tol
            )
            if not converged:
                warnings.warn(
                    f"incremental ESS bisection did not converge at beta {beta:.6f}",
                    RuntimeWarning,
                )
        else:
            beta_next = float(betas[step])
        state = batch.value_and_grad(beta_next)

        log_w_next = _accumulate(log_w, _masked_increment(state[0], lp_old))
        total_next = _log_sum_exp(log_w_next)
        if total_next == -np.inf:
            raise WeightCollapseError(
                "all particle weights collapsed to -inf",
                {
                    "beta_trace": np.asarray(beta_trace + [beta_next]),
                    "ess_trace": np.asarray(ess_trace),
                },
            )
        log_Z += total_next - _log_sum_exp(log_w)
        log_w = log_w_next - total_next
        ess = ess_of_log_weights(log_w)

        if adaptive or ess < ess_target:
            idx = systematic_resample(log_w, gen)
            z = z[idx]
            state = (state[0][idx], state[1][idx])
            log_w = np.full(particles, -math.log(particles))
            resamples += 1

        z, state, step_cfg, (acc,) = _transition(
            path, beta_next, z, state, step_cfg, gen, adapt_steps, moves_per_step
        )
        lp_old = state[0]

        beta = beta_next
        beta_trace.append(beta)
        ess_trace.append(ess)
        acc_trace.append(acc)

    diagnostics = SmcDiagnostics(
        beta_trace=np.asarray(beta_trace),
        ess_trace=np.asarray(ess_trace),
        acceptance_trace=np.asarray(acc_trace),
        resample_count=resamples,
        positions=z,
        log_weights=log_w,
    )
    return log_Z, diagnostics
