"""Alpha-divergence and extended KL on finite grids, with a brute-force
certificate that the pointwise power-mean density minimizes the weighted
divergence to the endpoints.

All divergences act on unnormalized masses; none of them assume the grids
sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qanneal.deformed import is_geometric_order
from qanneal.densities import GridDensity
from qanneal.paths import blend_log_ratio


@dataclass(frozen=True)
class DivergenceWeights:
    """Endpoint weights (1-beta, beta) and the divergence order alpha.

    ``alpha = 2q - 1`` ties the divergence order to a mixing order q.
    """

    beta: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    @classmethod
    def from_mixing_order(cls, beta: float, q: float) -> "DivergenceWeights":
        return cls(beta=beta, alpha=2.0 * q - 1.0)

    @property
    def mixing_order(self) -> float:
        return (self.alpha + 1.0) / 2.0


def _check_same_support(r: GridDensity, p: GridDensity) -> None:
    if r.n_atoms != p.n_atoms:
        raise ValueError("grids must have the same number of atoms")
    if r.atoms is not None and p.atoms is not None:
        if r.atoms.shape != p.atoms.shape or not np.array_equal(r.atoms, p.atoms):
            raise ValueError("grids must share the same atoms")


def alpha_divergence(r: GridDensity, p: GridDensity, alpha: float) -> float:
    """Amari alpha-divergence between unnormalized masses.

    (4 / (1 - alpha^2)) * sum[(1-alpha)/2 * r + (1+alpha)/2 * p
                              - r^((1-alpha)/2) * p^((1+alpha)/2)]

    Atoms where both masses vanish contribute zero.  A vanishing mass under
    a negative exponent (|alpha| > 1) yields +inf, the natural extension.

    With a = (1-alpha)/2 <= b = (1+alpha)/2 (else r, a and p, b trade places)
    an atom's term is ((r - p) - p expm1(a log(r/p)) / a) / b, so no cancelled
    sum is divided by 1 - alpha^2 and alpha -> -1, 1 reach the KL limits.
    """
    _check_same_support(r, p)
    if alpha == 1.0 or alpha == -1.0:
        raise ValueError("alpha = +/-1 is an extended-KL limit; use extended_kl")
    a = 0.5 * (1.0 - alpha)
    b = 0.5 * (1.0 + alpha)
    rm, pm = r.mass, p.mass
    if a > b:
        rm, pm, a, b = pm, rm, b, a
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # a zero p contributes r / b; a zero r, p / a (+inf when a < 0)
        cross = np.where(pm > 0.0, pm * np.expm1(a * (np.log(rm) - np.log(pm))), 0.0)
        per_atom = ((rm - pm) - cross / a) / b
    return float(np.sum(per_atom))


def extended_kl(r: GridDensity, p: GridDensity) -> float:
    """KL divergence extended to unnormalized masses.

    sum r*log(r/p) - sum r + sum p, with 0*log(0/p) read as 0.
    """
    _check_same_support(r, p)
    rm, pm = r.mass, p.mass
    live = rm > 0.0
    if np.any(live & (pm == 0.0)):
        raise ValueError("second grid must be positive wherever the first is")
    log_term = float(np.sum(rm[live] * (np.log(rm[live]) - np.log(pm[live]))))
    return log_term - float(np.sum(rm)) + float(np.sum(pm))


def variational_objective(
    r: GridDensity,
    pi0: GridDensity,
    pi1: GridDensity,
    w: DivergenceWeights,
) -> float:
    """Weighted divergence from the endpoints to a candidate grid.

    (1-beta) * D[pi0 : r] + beta * D[pi1 : r] with D the alpha-divergence.
    At alpha = -1 each term is extended_kl(endpoint, r); at alpha = +1 the
    argument order flips to extended_kl(r, endpoint), matching the limits of
    the alpha-divergence in this argument order.
    """
    # Zero-weight terms are skipped entirely so an endpoint that would be
    # undefined against r (support mismatch) cannot poison a weight of 0.
    if w.alpha == -1.0:
        d0 = extended_kl(pi0, r) if w.beta < 1.0 else 0.0
        d1 = extended_kl(pi1, r) if w.beta > 0.0 else 0.0
    elif w.alpha == 1.0:
        d0 = extended_kl(r, pi0) if w.beta < 1.0 else 0.0
        d1 = extended_kl(r, pi1) if w.beta > 0.0 else 0.0
    else:
        d0 = alpha_divergence(pi0, r, w.alpha) if w.beta < 1.0 else 0.0
        d1 = alpha_divergence(pi1, r, w.alpha) if w.beta > 0.0 else 0.0
    return (1.0 - w.beta) * d0 + w.beta * d1


def grid_power_mean(pi0: GridDensity, pi1: GridDensity, beta: float, q: float) -> GridDensity:
    """Pointwise power mean of two positive grids with weights (1-beta, beta)."""
    _check_same_support(pi0, pi1)
    if np.any(pi0.mass == 0.0) or np.any(pi1.mass == 0.0):
        raise ValueError("power-mean candidate requires strictly positive grids")
    if beta == 0.0:
        return GridDensity(mass=pi0.mass.copy(), atoms=pi0.atoms)
    if beta == 1.0:
        return GridDensity(mass=pi1.mass.copy(), atoms=pi1.atoms)
    lp0 = np.log(pi0.mass)
    lp1 = np.log(pi1.mass)
    log_mass = lp0 + blend_log_ratio(lp1 - lp0, beta, q)
    return GridDensity(mass=np.exp(log_mass), atoms=pi0.atoms)


@dataclass(frozen=True)
class ArgminCertificate:
    """Outcome of the perturbation search around the power-mean candidate.

    ``min_margin`` is the smallest objective increase seen over all perturbed
    candidates; a negative value means some perturbation beat the candidate
    and is recorded in ``violation``.
    """

    passed: bool
    objective_at_candidate: float
    min_margin: float
    max_stationarity_residual: float
    n_trials: int
    violation: np.ndarray | None = None


_PERTURBATION_SCALES = (1e-3, 1e-2, 1e-1)
_STATIONARITY_TOL = 1e-10
_MARGIN_SLACK = 1e-12


def certify_argmin(
    pi0: GridDensity,
    pi1: GridDensity,
    beta: float,
    q: float,
    trials: int,
    rng: np.random.Generator | None = None,
) -> ArgminCertificate:
    """Certify the power-mean grid as the objective minimizer by brute force.

    Checks (a) no multiplicative perturbation r*exp(eps*noise) of the
    candidate attains a lower objective over ``trials`` draws at each
    perturbation scale, and (b) the per-atom stationarity residual, in nats
    of the candidate's log mass, stays below 1e-10.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    candidate = grid_power_mean(pi0, pi1, beta, q)
    w = DivergenceWeights.from_mixing_order(beta, q)
    objective = variational_objective(candidate, pi0, pi1, w)

    # Stationarity r^d = (1-beta) pi0^d + beta pi1^d, d = 1 - q, in nats of
    # t = log mass: anchored at the endpoint a of larger d*t, with weight w_b
    # on the other, t_c - t_a = log1p(w_b expm1(d (t_b - t_a))) / d, so no
    # power overflows and the residual keeps its scale as d -> 0.  At the
    # geometric order, or an endpoint beta, it is linearity in logs.
    t0, t1, tc = np.log(pi0.mass), np.log(pi1.mass), np.log(candidate.mass)
    if is_geometric_order(q) or beta in (0.0, 1.0):
        gap = (1.0 - beta) * t0 + beta * t1 - tc
    else:
        d = 1.0 - q
        swap = d * t1 > d * t0
        ta, tb, wb = np.where(swap, t1, t0), np.where(swap, t0, t1), np.where(swap, 1.0 - beta, beta)
        gap = np.log1p(wb * np.expm1(d * (tb - ta))) / d - (tc - ta)
    residual = float(np.max(np.abs(gap)))

    min_margin = np.inf
    violation = None
    for _ in range(trials):
        noise = rng.standard_normal(candidate.n_atoms)
        for eps in _PERTURBATION_SCALES:
            perturbed = GridDensity(
                mass=candidate.mass * np.exp(eps * noise), atoms=candidate.atoms
            )
            margin = variational_objective(perturbed, pi0, pi1, w) - objective
            if margin < min_margin:
                min_margin = margin
                if margin < -_MARGIN_SLACK:
                    violation = perturbed.mass
    passed = min_margin >= -_MARGIN_SLACK and residual < _STATIONARITY_TOL
    return ArgminCertificate(
        passed=passed,
        objective_at_candidate=objective,
        min_margin=float(min_margin),
        max_stationarity_residual=residual,
        n_trials=trials,
        violation=violation,
    )
