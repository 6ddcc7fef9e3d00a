"""Annealing schedules over beta and selection of the mixing order q.

The heuristic search treats the order through rho = 1/(1-q): restarts jitter
rho around the largest observed log weight magnitude, then coordinate descent
tunes (beta, q) until the effective sample size of the deformed importance
weights hits the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qanneal.deformed import rho_from_log_weights
from qanneal.paths import blend_log_ratio
from qanneal.samplers import _betas_of, ess_of_log_weights


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing beta grid from 0 to 1 inclusive."""

    betas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas", _betas_of(self.betas))

    @property
    def n_steps(self) -> int:
        return self.betas.size - 1


def linear_schedule(K: int) -> Schedule:
    """Equally spaced schedule with K steps, so K+1 grid points."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return Schedule(betas=np.linspace(0.0, 1.0, K + 1))


def q_grid(count: int = 20, delta_min: float = 1e-5, delta_max: float = 1e-1) -> np.ndarray:
    """Log-spaced grid of orders q = 1 - delta, descending in q."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if not 0.0 < delta_min < 1.0:
        raise ValueError("need 0 < delta_min < 1")
    if count == 1:
        return np.array([1.0 - delta_min])
    if not delta_min < delta_max < 1.0:
        raise ValueError("need delta_min < delta_max < 1")
    return 1.0 - np.geomspace(delta_min, delta_max, count)


@dataclass(frozen=True)
class HeuristicConfig:
    """Restart count, restart spread in log10(rho), and the ESS target."""

    restarts: int = 100
    log10_sd: float = 0.1
    ess_target_fraction: float = 0.5

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if not self.log10_sd > 0.0:
            raise ValueError("log10_sd must be positive")
        if not 0.0 < self.ess_target_fraction <= 1.0:
            raise ValueError("ess_target_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class HeuristicResult:
    q: float
    beta1: float
    loss: float
    feasible: bool


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BETA_BOUNDS = (1e-6, 1.0)
_LOG10_DELTA_BOUNDS = (-12.0, 0.0)


def _golden_min(f, a: float, b: float, iters: int = 40) -> tuple[float, float]:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def ess_heuristic_q(
    log_ws,
    cfg: HeuristicConfig,
    rng: np.random.Generator,
) -> HeuristicResult:
    """Pick (q, beta1) so the deformed importance weights hit the ESS target.

    ``log_ws`` are log density ratios at draws from the base.  Restarts
    sample rho in log10 space around the largest ratio magnitude; each
    restart runs golden-section coordinate descent on (beta, log10(1-q))
    from beta = 1.  Feasible means the squared ESS error got within
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

    def loss(beta: float, u: float) -> float:
        lw = blend_log_ratio(ratios, beta, 1.0 - 10.0**u)
        return (ess_of_log_weights(lw) - target) ** 2

    log10_rho0 = math.log10(choice.rho)
    rho_draws = 10.0 ** rng.normal(log10_rho0, cfg.log10_sd, size=cfg.restarts)

    best: tuple[float, float, float] | None = None
    for rho in rho_draws:
        u = min(max(-math.log10(rho), _LOG10_DELTA_BOUNDS[0]), _LOG10_DELTA_BOUNDS[1])
        beta = 1.0
        current = loss(beta, u)
        if best is None or current < best[0]:
            best = (current, beta, u)
        for _ in range(50):
            beta_new, _ = _golden_min(lambda b: loss(b, u), *_BETA_BOUNDS)
            u_new, value = _golden_min(lambda v: loss(beta_new, v), *_LOG10_DELTA_BOUNDS)
            moved = abs(beta_new - beta) + abs(u_new - u)
            beta, u = beta_new, u_new
            if value < best[0]:
                best = (value, beta, u)
            if moved < 1e-6:
                break

    loss_best, beta_best, u_best = best
    return HeuristicResult(
        q=1.0 - 10.0**u_best,
        beta1=beta_best,
        loss=loss_best,
        feasible=loss_best <= tol_sq,
    )
