"""Annealing schedules over beta and selection of the mixing order q.

The heuristic search treats the order through rho = 1/(1-q): restarts jitter
rho around the largest observed log weight magnitude, and each restart keeps
its q and searches beta alone for the effective sample size of the deformed
importance weights to hit the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from qanneal.deformed import rho_from_log_weights
from qanneal.paths import _blend_at, _deform
from qanneal.samplers import _ess_rows


def linear_schedule(K: int) -> np.ndarray:
    """Equally spaced beta grid with K steps, so K+1 points from 0 to 1."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return np.linspace(0.0, 1.0, K + 1)


# the range of delta = 1 - q that q_grid spans
_DELTA_MIN, _DELTA_MAX = 1e-5, 0.1


def q_grid(count: int = 20) -> np.ndarray:
    """Log-spaced grid of ``count`` orders q = 1 - delta, delta from 1e-5 to
    0.1, descending in q; a grid of one order holds 1 - 1e-5 alone."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return 1.0 - np.geomspace(_DELTA_MIN, _DELTA_MAX, count)


@dataclass(frozen=True)
class HeuristicConfig:
    """Restart count, restart spread in log10(rho), and the ESS target."""

    restarts: int = 100
    log10_sd: float = 0.1
    ess_target_fraction: float = 0.5

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not 0.0 < self.log10_sd < math.inf:
            raise ValueError("log10_sd must be positive and finite")
        if not 0.0 < self.ess_target_fraction <= 1.0:
            raise ValueError("ess_target_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class HeuristicResult:
    """The chosen (q, beta1), its squared ESS error, and ``loss_evals``, the
    number of (beta, q) points the search evaluated over all restarts."""

    q: float
    beta1: float
    loss: float
    feasible: bool
    loss_evals: int = 0


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 40
_BETA_BOUNDS = (1e-6, 1.0)
_LOG10_DELTA_BOUNDS = (-12.0, 0.0)
# the search evaluates its restart rows in blocks of at most this many
# (row, particle) elements, which bounds its memory at any particle count
_LOSS_BLOCK_ELEMENTS = 1 << 16


def _golden_rows(f, bounds: tuple[float, float], rows: int):
    """Golden-section minimum of ``f`` on ``bounds`` for ``rows`` problems at
    once; ``f`` maps an (rows,) array of points to their (rows,) losses.

    Every row takes the same steps, so each row follows exactly the scalar
    search: the new point, and which end of the bracket moves, are chosen
    per row.  Returns the best point and its loss per row.
    """
    a, b = np.full(rows, bounds[0]), np.full(rows, bounds[1])
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    # the inner points with their losses, (2, rows) each: c then d
    lo, hi = np.array([c, f(c)]), np.array([d, f(d)])
    for _ in range(_GOLDEN_ITERS):
        left = lo[1] < hi[1]  # the minimum lies in [a, d]
        a, b = np.where(left, a, lo[0]), np.where(left, hi[0], b)
        step = _GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        new = np.array([x, f(x)])
        lo, hi = np.where(left, new, hi), np.where(left, lo, new)
    return tuple(np.where(lo[1] < hi[1], lo, hi))


def ess_heuristic_q(
    log_ws,
    cfg: HeuristicConfig,
    rng: np.random.Generator,
) -> HeuristicResult:
    """Pick (q, beta1) so the deformed importance weights hit the ESS target.

    ``log_ws`` are log density ratios at draws from the base.  Restarts
    sample rho in log10 space around the largest ratio magnitude, and each
    keeps the q of its draw: the loss (ESS - target)^2 is zero along a curve
    of (beta, q), so one golden-section search over beta puts a restart on
    that curve, and a search over q could only slide along it.  A restart
    keeps beta = 1 unless its search beats the loss there.  All restarts run
    together as rows of one array, in blocks of rows of at most
    ``_LOSS_BLOCK_ELEMENTS`` floats (one row each when n exceeds it; every
    row's search is the same in any block).  A block computes the blend's
    q-only terms once and then evaluates only the beta-dependent pass at
    each beta.  Feasible means the squared ESS error got within (5% of
    target)^2; ties across restarts keep the earliest.
    """
    ratios = np.asarray(log_ws, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise ValueError("log_ws must be a nonempty vector")
    if not np.all(np.isfinite(ratios)):
        raise ValueError("log_ws must be finite")
    n = ratios.size
    target = cfg.ess_target_fraction * n
    tol_sq = (0.05 * target) ** 2

    choice = rho_from_log_weights(ratios)
    if choice.degenerate:
        # All ratios zero: every (beta, q) gives equal weights.
        return HeuristicResult(q=choice.q, beta1=1.0, loss=(n - target) ** 2, feasible=False)

    # every restart starts at beta = 1, where the blend is the log ratio
    # itself for every q
    start = float(_ess_rows(ratios)) - target

    def losses(terms, beta):
        # golden-section points lie inside the open bracket, so no row is at
        # beta = 1; ``start`` holds the loss there
        err = _ess_rows(_blend_at(terms, beta[:, None])) - target
        return err * err

    def beta_search(u):
        # q is fixed along the search, so its terms are computed once
        terms = _deform(0.0, ratios, (1.0 - 10.0**u)[:, None])
        return _golden_rows(partial(losses, terms), _BETA_BOUNDS, u.size)

    log10_rho = rng.normal(math.log10(choice.rho), cfg.log10_sd, size=cfg.restarts)
    u = np.clip(-log10_rho, *_LOG10_DELTA_BOUNDS)
    block = max(1, _LOSS_BLOCK_ELEMENTS // n)
    found = [beta_search(u[lo : lo + block]) for lo in range(0, u.size, block)]
    beta, loss = (np.concatenate(parts) for parts in zip(*found))
    # a restart keeps beta = 1 unless its search beats the start
    kept = ~(loss < start * start)
    beta[kept], loss[kept] = 1.0, start * start

    # argmin keeps the earliest restart among equal losses; q goes through
    # the same array power as in beta_search(), so it reproduces the loss
    # exactly
    k = int(np.argmin(loss))
    return HeuristicResult(
        q=float((1.0 - 10.0**u)[k]),
        beta1=float(beta[k]),
        loss=float(loss[k]),
        feasible=bool(loss[k] <= tol_sq),
        # the start and the golden section's 2 + _GOLDEN_ITERS points
        loss_evals=cfg.restarts * (3 + _GOLDEN_ITERS),
    )
