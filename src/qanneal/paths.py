"""Annealing paths between a base and an unnormalized target.

The main object is the power-mean path of order q, evaluated entirely in log
space: intermediate log densities are combined through shifted log1p/expm1
calls so that no unbounded log-ratio is ever exponentiated. A moment-averaging
path for Gaussian and Student-t endpoint families is provided for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qanneal.deformed import is_geometric_order
from qanneal.densities import (
    UnnormalizedDensity,
    gaussian,
    q_from_nu,
    sigmoid,
    student_t,
    with_log_scale,
)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


def _blend(lp0, lp1, beta, q):
    """(1/(1-q)) * log((1-beta) * p0^(1-q) + beta * p1^(1-q)) in log space,
    from endpoint log-densities at an interior beta.

    No row may have both endpoints at -inf, nor either one on the geometric
    order; ``QPath`` masks such rows around the call.  ``beta`` and ``q`` may
    be arrays that broadcast against the endpoints, one value per row; an
    array ``q`` must stay off the geometric order.
    """
    if np.ndim(q) == 0 and is_geometric_order(q):
        # difference form keeps equal endpoints bit-exact at every beta
        return lp0 + beta * (lp1 - lp0)
    d = 1.0 - q
    x = d * (lp1 - lp0)
    # anchor at whichever endpoint dominates in the deformed scale,
    # so expm1 only ever sees nonpositive arguments
    swap = x > 0.0
    lo = np.log1p(beta * np.expm1(np.where(swap, 0.0, x)))
    hi = np.log1p((1.0 - beta) * np.expm1(np.where(swap, -x, 0.0)))
    return np.where(swap, lp1 + hi / d, lp0 + lo / d)


def blend_log_ratio(log_ratios, beta: float, q: float):
    """log(path density / base density) from finite endpoint log-ratios.

    Computes (1/(1-q)) * log((1-beta) + beta * ratio^(1-q)) without forming
    the ratio; exact 0 at beta = 0 and at equal endpoints.
    """
    beta = _check_beta(beta)
    lr = np.asarray(log_ratios, dtype=float)
    if not np.all(np.isfinite(lr)):
        raise ValueError("log_ratios must be finite")
    if beta == 0.0:
        return np.zeros_like(lr)
    if beta == 1.0:
        return lr.copy()
    return _blend(0.0, lr, beta, q)


def _evaluate(density: UnnormalizedDensity, z: np.ndarray):
    """``density.value_and_grad`` of an (n, d) batch as arrays (n,), (n, d)."""
    lp, g = density.value_and_grad(z)
    return np.atleast_1d(np.asarray(lp, dtype=float)), np.atleast_2d(np.asarray(g, dtype=float))


class PathBatch:
    """One (n, d) batch ``z`` on a path, evaluated at any beta.

    ``batch(beta)`` is the path log-density (n,) and
    ``batch.value_and_grad(beta)`` the (logp, grad) pair.  Each endpoint is
    evaluated at most once, value and gradient in one call, when a beta
    first needs it, and that pair then serves every beta.
    """

    def __init__(self, path: "AnnealingPath", z):
        self.path = path
        self.z = np.atleast_2d(np.asarray(z, dtype=float))
        self._ends = [None, None]
        self._waypoint = (None, None)

    def end(self, i: int):
        """Log-density (n,) and gradient (n, d) of the base (``i`` = 0) or
        the target (1)."""
        if self._ends[i] is None:
            self._ends[i] = _evaluate(self.path.target if i else self.path.base, self.z)
        return self._ends[i]

    def waypoint(self, density: UnnormalizedDensity):
        """The pair of ``end`` for any other density on the batch, such as a
        ``MomentPath`` waypoint; only the most recent one's is kept."""
        if self._waypoint[0] is not density:
            self._waypoint = (density, _evaluate(density, self.z))
        return self._waypoint[1]

    def __call__(self, beta: float) -> np.ndarray:
        return self.path._log_density(self, _check_beta(beta))

    def value_and_grad(self, beta: float):
        """Path log-density (n,) and gradient (n, d).

        The gradient is zero on rows whose log-density is not finite, so
        leapfrog trajectories can enter dead regions and be Metropolis-
        rejected instead of raising.
        """
        beta = _check_beta(beta)
        lp = self.path._log_density(self, beta)
        live = np.isfinite(lp)
        if np.all(live):
            return lp, self.path._gradient(self, beta, slice(None))
        g = np.zeros_like(self.z)
        if np.any(live):
            g[live] = self.path._gradient(self, beta, live)
        return lp, g


class AnnealingPath:
    """Densities indexed by beta in [0, 1], from ``base`` at 0 to ``target``
    at 1, evaluated through ``PathBatch``.

    A path supplies two hooks: ``_log_density(batch, beta)``, the log-density
    (n,) of a ``PathBatch`` at a checked beta, and ``_gradient(batch, beta,
    live)``, the gradient on the rows ``live`` of the batch, where that
    log-density is finite.
    """

    def log_density_of(self, z) -> PathBatch:
        """The evaluator of the fixed batch ``z`` at any beta."""
        return PathBatch(self, z)

    def value_and_grad(self, z, beta: float):
        """``log_density_of(z).value_and_grad(beta)``."""
        return PathBatch(self, z).value_and_grad(beta)

    def log_density(self, z, beta: float):
        """Path log-density: (n,) for an (n, d) batch, a float for a (d,) point."""
        out = PathBatch(self, z)(beta)
        return float(out[0]) if np.ndim(z) == 1 else out

    def gradient(self, z, beta: float):
        """Path gradient: (n, d) for a batch, (d,) for a point; a
        ``ValueError`` where the path density vanishes."""
        lp, g = PathBatch(self, z).value_and_grad(beta)
        if np.any(lp == -np.inf):
            raise ValueError("gradient undefined where the path density vanishes")
        return g[0] if np.ndim(z) == 1 else g


@dataclass(frozen=True)
class QPath(AnnealingPath):
    """Power-mean interpolation of order q between two densities.

    q = 1 is the geometric (log-linear) path; q = 0 mixes the raw densities
    arithmetically; q > 1 behaves like a soft minimum of the endpoints.

    ``q`` may also be an (n,) array, one order per row of the batches the
    path is evaluated on, so runs at several orders share one batch.  Every
    row then gets exactly what a path of its own scalar order gives it.  An
    array ``q`` must stay off the geometric order.
    """

    base: UnnormalizedDensity
    target: UnnormalizedDensity
    q: float | np.ndarray = 1.0

    def __post_init__(self):
        if self.base.dim != self.target.dim:
            raise ValueError("endpoint dimensions differ")
        if np.ndim(self.q):
            q = np.asarray(self.q, dtype=float)
            if q.ndim != 1 or np.any(is_geometric_order(q)):
                raise ValueError("an array q must be a vector off the geometric order")
            object.__setattr__(self, "q", q)

    @property
    def _geometric(self) -> bool:
        return np.ndim(self.q) == 0 and is_geometric_order(self.q)

    def _log_density(self, batch: PathBatch, beta: float):
        if beta == 0.0 or beta == 1.0:
            return batch.end(int(beta))[0]
        lp0, lp1 = batch.end(0)[0], batch.end(1)[0]
        # the power mean vanishes where both endpoints do, or on the
        # geometric order where either does
        if self._geometric:
            dead = (lp0 == -np.inf) | (lp1 == -np.inf)
        else:
            dead = (lp0 == -np.inf) & (lp1 == -np.inf)
        out = _blend(np.where(dead, 0.0, lp0), np.where(dead, 0.0, lp1), beta, self.q)
        return np.where(dead, -np.inf, out)

    def _gradient(self, batch: PathBatch, beta: float, live):
        if beta == 0.0 or beta == 1.0:
            return batch.end(int(beta))[1][live]
        (lp0, g0), (lp1, g1) = batch.end(0), batch.end(1)
        lp0, lp1, g0, g1 = lp0[live], lp1[live], g0[live], g1[live]
        if self._geometric:
            w1 = np.full_like(lp0, beta)
        else:
            q = self.q[live] if np.ndim(self.q) else self.q
            # responsibility of the target endpoint in the power mean
            w1 = sigmoid(math.log(beta) - math.log1p(-beta) + (1.0 - q) * (lp1 - lp0))
        col = w1[:, None]
        return np.where(col == 1.0, g1, np.where(col == 0.0, g0, (1.0 - col) * g0 + col * g1))


@dataclass(frozen=True)
class QExpFamilyParams:
    """Natural parameters of a one-dimensional deformed-exponential family.

    The density is exp_q(theta . phi(z)) with polynomial sufficient statistics
    phi(z) = (1, z, z^2, ...); the constant statistic lets scale factors ride
    along in the parameter vector.
    """

    theta: np.ndarray
    q: float

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))

    def log_density(self, z):
        z = np.asarray(z, dtype=float)
        phi = np.vander(np.ravel(z), N=self.theta.size, increasing=True)
        u = phi @ self.theta
        if is_geometric_order(self.q):
            out = u
        else:
            d = 1.0 - self.q
            bracket = 1.0 + d * u
            pos = bracket > 0.0
            out = np.where(pos, np.log(np.where(pos, bracket, 1.0)) / d, -np.inf)
        return out.reshape(np.shape(z))


def same_family_qpath_params(
    p0: QExpFamilyParams, p1: QExpFamilyParams, beta: float
) -> QExpFamilyParams:
    """Path between same-family endpoints stays in the family: natural
    parameters mix linearly."""
    beta = _check_beta(beta)
    if p0.q != p1.q or p0.theta.size != p1.theta.size:
        raise ValueError("endpoints must share the family (same q and statistics)")
    return QExpFamilyParams(theta=(1.0 - beta) * p0.theta + beta * p1.theta, q=p0.q)


def gaussian_natural_params(mean: float, var: float) -> QExpFamilyParams:
    """1-d Gaussian written as exp(theta . (1, z, z^2)), constants included."""
    if not var > 0.0:
        raise ValueError("var must be positive")
    c = -0.5 * math.log(2.0 * math.pi * var)
    theta = np.array([c - 0.5 * mean**2 / var, mean / var, -0.5 / var])
    return QExpFamilyParams(theta=theta, q=1.0)


def student_t_natural_params(mean: float, scale: float, nu: float) -> QExpFamilyParams:
    """1-d Student-t written as exp_q(theta . (1, z, z^2)) at its matched q.

    The normalizer is folded into theta through the constant statistic, so the
    density equals the normalized Student-t pointwise.
    """
    if not (scale > 0.0 and nu > 0.0):
        raise ValueError("scale and nu must be positive")
    q = q_from_nu(nu, 1)
    d = 1.0 - q
    log_c = (
        math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi * scale)
    )
    cd = math.exp(d * log_c)
    theta = (
        np.array([cd - 1.0 + cd * mean**2 / (nu * scale), -2.0 * cd * mean / (nu * scale), cd / (nu * scale)])
        / d
    )
    return QExpFamilyParams(theta=theta, q=q)


def moment_path_params(mu0, cov0, mu1, cov1, beta: float, nu: float | None = None):
    """Parameters of the moment-averaged intermediate at mixing weight beta.

    Means mix linearly; covariances (scale matrices for Student-t endpoints,
    where ``nu`` is given) pick up a mean-displacement term whose coefficient
    is 1 for the Gaussian family and (nu+2)/nu for Student-t.
    """
    beta = _check_beta(beta)
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    cov0 = np.asarray(cov0, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)
    if cov0.ndim == 0:
        cov0 = np.eye(mu0.size) * cov0
    if cov1.ndim == 0:
        cov1 = np.eye(mu1.size) * cov1
    if nu is not None and not nu > 0.0:
        raise ValueError("nu must be positive when given")
    factor = 1.0 if nu is None else (nu + 2.0) / nu
    mu_b = (1.0 - beta) * mu0 + beta * mu1
    gap = mu1 - mu0
    cov_b = (1.0 - beta) * cov0 + beta * cov1 + factor * beta * (1.0 - beta) * np.outer(gap, gap)
    return mu_b, cov_b


class MomentPath(AnnealingPath):
    """Moment-averaged annealing path with Gaussian or Student-t waypoints.

    ``nu=None`` gives the Gaussian moment path; a finite ``nu`` gives the
    Student-t path whose escort expectations mix linearly. Endpoint log
    scale factors interpolate log-linearly so unnormalized targets fit.
    """

    def __init__(self, mu0, cov0, mu1, cov1, nu: float | None = None,
                 log_scale0: float = 0.0, log_scale1: float = 0.0):
        self.mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
        self.mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("endpoint dimensions differ")
        self.cov0 = np.asarray(cov0, dtype=float)
        self.cov1 = np.asarray(cov1, dtype=float)
        self.nu = nu
        self.log_scale0 = float(log_scale0)
        self.log_scale1 = float(log_scale1)
        # the endpoints stay built; of the interior waypoints only the most
        # recent is kept, which serves every evaluation at a fixed beta
        self._ends = (self._build_waypoint(0.0), self._build_waypoint(1.0))
        self._waypoints: dict[float, UnnormalizedDensity] = {}
        self.base = with_log_scale(self._ends[0], self.log_scale0)
        self.target = with_log_scale(self._ends[1], self.log_scale1)

    def _build_waypoint(self, beta: float) -> UnnormalizedDensity:
        mu_b, cov_b = moment_path_params(
            self.mu0, self.cov0, self.mu1, self.cov1, beta, nu=self.nu
        )
        if self.nu is None:
            return gaussian(mu_b, cov_b)
        return student_t(mu_b, cov_b, nu=self.nu)

    def _waypoint(self, beta: float) -> UnnormalizedDensity:
        if beta == 0.0 or beta == 1.0:
            return self._ends[int(beta)]
        if beta not in self._waypoints:
            self._waypoints = {beta: self._build_waypoint(beta)}
        return self._waypoints[beta]

    def _offset(self, beta: float) -> float:
        return (1.0 - beta) * self.log_scale0 + beta * self.log_scale1

    def _log_density(self, batch: PathBatch, beta: float):
        return batch.waypoint(self._waypoint(beta))[0] + self._offset(beta)

    def _gradient(self, batch: PathBatch, beta: float, live):
        return batch.waypoint(self._waypoint(beta))[1][live]
