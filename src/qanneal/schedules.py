"""Annealing schedules over beta and selection of the mixing order q.

The heuristic search treats the order through rho = 1/(1-q): restarts jitter
rho around the largest observed log weight magnitude, then coordinate descent
tunes (beta, q) until the effective sample size of the deformed importance
weights hits the target.
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
_MAX_SWEEPS = 50
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
    sample rho in log10 space around the largest ratio magnitude; each
    restart runs golden-section coordinate descent on (beta, log10(1-q))
    from beta = 1, one beta search then one q search per sweep, until it
    moves less than 1e-6 or has made 50 sweeps.  All restarts run together
    as rows of one array, and each search runs on blocks of rows of at most
    ``_LOSS_BLOCK_ELEMENTS`` floats (one row each when n exceeds it; every
    row's search is the same in any block).  A beta search computes the
    blend's q-only terms once per block and then evaluates only the
    beta-dependent pass at each beta.  Feasible means the squared ESS error got within
    (5% of target)^2; ties across restarts keep the earliest.
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

    block = max(1, _LOSS_BLOCK_ELEMENTS // n)
    # every restart starts at beta = 1, where the blend is the log ratio
    # itself for every q
    start = float(_ess_rows(ratios)) - target
    evals = cfg.restarts

    def terms_at(u):
        return _deform(0.0, ratios, (1.0 - 10.0**u)[:, None])

    def losses(terms, beta):
        nonlocal evals
        evals += beta.size
        # golden-section points lie inside the open bracket, so no row is at
        # beta = 1; ``start`` holds the loss there
        err = _ess_rows(_blend_at(terms, beta[:, None])) - target
        return err * err

    def beta_search(u):
        # q is fixed along the search, so its terms are computed once
        return _golden_rows(partial(losses, terms_at(u)), _BETA_BOUNDS, u.size)

    def q_search(beta):
        return _golden_rows(lambda v: losses(terms_at(v), beta), _LOG10_DELTA_BOUNDS, beta.size)

    def by_blocks(search, per_row):
        found = [search(per_row[lo : lo + block]) for lo in range(0, per_row.size, block)]
        return tuple(np.concatenate(parts) for parts in zip(*found))

    log10_rho = rng.normal(math.log10(choice.rho), cfg.log10_sd, size=cfg.restarts)
    u = np.clip(-log10_rho, *_LOG10_DELTA_BOUNDS)
    beta = np.ones(cfg.restarts)
    best_loss = np.full(cfg.restarts, start * start)
    best_beta, best_u = beta.copy(), u.copy()
    active = np.arange(cfg.restarts)
    for _ in range(_MAX_SWEEPS):
        if active.size == 0:
            break
        u_now = u[active]
        beta_new, _ = by_blocks(beta_search, u_now)
        u_new, value = by_blocks(q_search, beta_new)
        moved = np.abs(beta_new - beta[active]) + np.abs(u_new - u_now)
        beta[active], u[active] = beta_new, u_new
        better = value < best_loss[active]
        rows = active[better]
        best_loss[rows] = value[better]
        best_beta[rows], best_u[rows] = beta_new[better], u_new[better]
        active = active[~(moved < 1e-6)]

    # argmin keeps the earliest restart among equal losses; q goes through
    # the same array power as in terms_at(), so it reproduces the loss exactly
    k = int(np.argmin(best_loss))
    return HeuristicResult(
        q=float((1.0 - 10.0**best_u)[k]),
        beta1=float(best_beta[k]),
        loss=float(best_loss[k]),
        feasible=bool(best_loss[k] <= tol_sq),
        loss_evals=evals,
    )
