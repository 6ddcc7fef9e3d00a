"""Endpoint density families: Gaussians, Student-t, generalized Pareto, logistic
regression posteriors, and finite grid densities for brute-force checks.

All log-density and gradient callables accept a single point of shape (d,) or a
batch of shape (n, d) and vectorize over the batch axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class UnnormalizedDensity:
    """A target known up to a constant, with optional exact sampling.

    Attributes
    ----------
    dim : int
        Dimension of the support.
    log_density : callable
        Log of the unnormalized density, (n, d) -> (n,) and (d,) -> scalar.
    gradient : callable
        Gradient of ``log_density`` with matching shapes.
    exact_sampler : callable or None
        ``sampler(rng, n) -> (n, d)`` drawing from the normalized density.
    known_log_normalizer : float or None
        log of the integral of the unnormalized density, when analytic.
    fused : callable or None
        ``z -> (log_density(z), gradient(z))`` in one pass, for a density
        whose two outputs share work; bit for bit what the two give apart.
        A ``replace`` that swaps ``log_density`` or ``gradient`` must swap
        or clear it too.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    exact_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    known_log_normalizer: float | None = None
    fused: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def value_and_grad(self, z):
        """Log-density and gradient at ``z`` together, with the shapes of
        ``log_density`` and ``gradient``: the one energy entry point."""
        if self.fused is not None:
            return self.fused(z)
        return self.log_density(z), self.gradient(z)


def with_log_scale(density: UnnormalizedDensity, log_c: float) -> UnnormalizedDensity:
    """Multiply an unnormalized density by exp(log_c).

    The normalized shape (and therefore the sampler) is unchanged; the known
    normalizer shifts by ``log_c``.
    """
    base_logp = density.log_density
    known = density.known_log_normalizer

    def fused(z):
        lp, g = density.value_and_grad(z)
        return lp + log_c, g

    return replace(
        density,
        log_density=lambda z: base_logp(z) + log_c,
        known_log_normalizer=None if known is None else known + log_c,
        fused=fused,
    )


def _as_batch(z, dim: int):
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        if z.shape[0] != dim:
            raise ValueError(f"point has dimension {z.shape[0]}, expected {dim}")
        return z[None, :], True
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"batch must have shape (n, {dim})")
    return z, False


def _finite_batch(z, dim: int):
    """``_as_batch`` for densities defined on all of R^d, which reject a
    nan or inf coordinate instead of giving it a density."""
    zb, squeeze = _as_batch(z, dim)
    if not np.all(np.isfinite(zb)):
        raise ValueError("points must be finite")
    return zb, squeeze


def _maybe_scalar(values: np.ndarray, squeeze: bool):
    return float(values[0]) if squeeze else values


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)): exactly 0 below about -709,
    where exp(-x) overflows to inf, and exactly 1 above about 37."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _whitened(d: int, mean, inv_chol, value_of, grad_of):
    """``log_density``, ``gradient`` and ``fused`` of a density on R^d that
    depends on z through ``white = (z - mean) @ inv_chol.T`` alone:
    ``value_of(white)`` is the log-density (n,) and ``grad_of(white)`` the
    gradient (n, d).  The fused call checks and whitens once for both."""

    def white_of(z):
        zb, squeeze = _finite_batch(z, d)
        return (zb - mean) @ inv_chol.T, squeeze

    def log_density(z):
        white, squeeze = white_of(z)
        return _maybe_scalar(value_of(white), squeeze)

    def gradient(z):
        white, squeeze = white_of(z)
        g = grad_of(white)
        return g[0] if squeeze else g

    def fused(z):
        white, squeeze = white_of(z)
        g = grad_of(white)
        return _maybe_scalar(value_of(white), squeeze), g[0] if squeeze else g

    return log_density, gradient, fused


def gaussian(mean, cov) -> UnnormalizedDensity:
    """Normalized multivariate Gaussian; scalars are accepted in one dimension.

    ``cov`` may be a scalar variance, a variance vector, or a full covariance.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.shape[0]
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = np.eye(d) * cov
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if cov.shape != (d, d):
        raise ValueError("covariance shape must match the mean")
    chol = np.linalg.cholesky(cov)
    # whitening is (z - mean) @ inv_chol.T; the precision is inv_chol.T @ inv_chol
    inv_chol = np.linalg.inv(chol)
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - np.sum(np.log(np.diag(chol)))

    log_density, gradient, fused = _whitened(
        d,
        mean,
        inv_chol,
        lambda white: log_norm - 0.5 * np.sum(white**2, axis=1),
        lambda white: -white @ inv_chol,
    )

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return mean + rng.standard_normal((n, d)) @ chol.T

    return UnnormalizedDensity(
        dim=d,
        log_density=log_density,
        gradient=gradient,
        exact_sampler=sampler,
        known_log_normalizer=0.0,
        fused=fused,
    )


def student_t(mean, scale, nu: float) -> UnnormalizedDensity:
    """Normalized multivariate Student-t with scale matrix ``scale``.

    The tail power couples to the deformation order via ``q_from_nu``.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.shape[0]
    scale = np.asarray(scale, dtype=float)
    if scale.ndim == 0:
        scale = np.eye(d) * scale
    elif scale.ndim == 1:
        scale = np.diag(scale)
    if scale.shape != (d, d):
        raise ValueError("scale shape must match the mean")
    chol = np.linalg.cholesky(scale)
    inv_chol = np.linalg.inv(chol)
    log_norm = (
        math.lgamma(0.5 * (nu + d))
        - math.lgamma(0.5 * nu)
        - 0.5 * d * math.log(nu * math.pi)
        - np.sum(np.log(np.diag(chol)))
    )

    def value_of(white):
        return log_norm - 0.5 * (nu + d) * np.log1p(np.sum(white**2, axis=1) / nu)

    def grad_of(white):
        m = np.sum(white**2, axis=1)
        return -(nu + d) * (white @ inv_chol) / (nu + m)[:, None]

    log_density, gradient, fused = _whitened(d, mean, inv_chol, value_of, grad_of)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        g = rng.standard_normal((n, d)) @ chol.T
        u = rng.chisquare(nu, size=n)
        return mean + g * np.sqrt(nu / u)[:, None]

    return UnnormalizedDensity(
        dim=d,
        log_density=log_density,
        gradient=gradient,
        exact_sampler=sampler,
        known_log_normalizer=0.0,
        fused=fused,
    )


def q_from_nu(nu: float, d: int) -> float:
    """Order matching a d-dimensional Student-t tail: q = (nu+d+2)/(nu+d)."""
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    return (nu + d + 2.0) / (nu + d)


def nu_from_q(q: float, d: int) -> float:
    """Inverse of ``q_from_nu``; requires 1 < q < (d+2)/d for a positive nu."""
    if not 1.0 < q < (d + 2.0) / d:
        raise ValueError("q outside the Student-t range for this dimension")
    return (d - d * q + 2.0) / (q - 1.0)


def pareto(x_min: float, sigma: float, xi: float) -> UnnormalizedDensity:
    """Normalized generalized Pareto density on [x_min, inf) (xi >= 0) or
    [x_min, x_min - sigma/xi] (xi < 0); exponential at xi = 0."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    upper = math.inf if xi >= 0.0 else x_min - sigma / xi

    def log_density(z):
        zb, squeeze = _as_batch(z, 1)
        x = zb[:, 0]
        t = (x - x_min) / sigma
        inside = (x >= x_min) & (x <= upper)
        if xi == 0.0:
            out = np.where(inside, -math.log(sigma) - t, -np.inf)
        else:
            arg = np.where(inside, 1.0 + xi * t, 1.0)
            out = np.where(
                inside, -math.log(sigma) - (1.0 / xi + 1.0) * np.log(arg), -np.inf
            )
        return _maybe_scalar(out, squeeze)

    def gradient(z):
        zb, squeeze = _as_batch(z, 1)
        x = zb[:, 0]
        inside = (x >= x_min) & (x <= upper)
        if xi == 0.0:
            g = np.where(inside, -1.0 / sigma, np.nan)
        else:
            g = np.where(inside, -(1.0 + xi) / (sigma + xi * (x - x_min)), np.nan)
        g = g[:, None]
        return g[0] if squeeze else g

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        if xi == 0.0:
            x = x_min - sigma * np.log1p(-u)
        else:
            x = x_min + sigma * np.expm1(-xi * np.log1p(-u)) / xi
        return x[:, None]

    return UnnormalizedDensity(
        dim=1,
        log_density=log_density,
        gradient=gradient,
        exact_sampler=sampler,
        known_log_normalizer=0.0,
    )


def q_from_xi(xi: float) -> float:
    """Order matching a generalized Pareto tail: q = (2 xi + 1)/(xi + 1)."""
    if xi == -1.0:
        raise ValueError("xi = -1 has no matching order")
    return (2.0 * xi + 1.0) / (xi + 1.0)


def xi_from_q(q: float) -> float:
    """Inverse of ``q_from_xi``; q = 2 is the pole."""
    if q == 2.0:
        raise ValueError("q = 2 has no matching shape parameter")
    return (q - 1.0) / (2.0 - q)


@dataclass(frozen=True)
class LogisticModel:
    """Design matrix (intercept included), binary labels, Gaussian prior sd."""

    X: np.ndarray
    y: np.ndarray
    prior_sd: float = 5.0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) with matching labels")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0/1")
        if not self.prior_sd > 0.0:
            raise ValueError("prior_sd must be positive")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)


def logistic_prior(model: LogisticModel) -> UnnormalizedDensity:
    """The zero-mean isotropic Gaussian prior over the weights."""
    d = model.X.shape[1]
    return gaussian(np.zeros(d), model.prior_sd**2)


def logistic_posterior(model: LogisticModel) -> UnnormalizedDensity:
    """Unnormalized posterior prior(w) * likelihood(w) for Bernoulli-sigmoid
    labels; its normalizer is the marginal likelihood being estimated.

    Each call works on the logits ``t = w @ X.T`` in two (n, rows) buffers
    that the density keeps for the batch size of its last call, so no call
    allocates an (n, rows) array.  The buffers make the density unsafe to
    call from two threads at once.
    """
    X, y = model.X, model.y
    X_T = X.T
    d = X.shape[1]
    var = model.prior_sd**2
    log_prior_norm = -0.5 * d * math.log(2.0 * math.pi * var)
    # -1 where y = 1, so row j's negative log-likelihood is softplus(u_j)
    # with u = sign * t; the sign flip is exact
    sign = 1.0 - 2.0 * y
    workspace = np.empty((2, 0, y.size))

    def logits(wb):
        """t = w @ X.T in the first buffer; the second is spare."""
        nonlocal workspace
        if workspace.shape[1] != wb.shape[0]:
            workspace = np.empty((2, wb.shape[0], y.size))
        t, spare = workspace
        np.matmul(wb, X_T, out=t)
        return t, spare

    def log_density_of(wb, u, spare):
        """Log-density from u = sign * t, overwriting u and spare."""
        # softplus(u) = max(u, 0) + log1p(exp(-|u|)), stable on both tails
        np.abs(u, out=spare)
        np.negative(spare, out=spare)
        np.exp(spare, out=spare)
        np.log1p(spare, out=spare)
        np.maximum(u, 0.0, out=u)
        u += spare
        loglik = -np.sum(u, axis=1)
        log_prior = log_prior_norm - 0.5 * np.sum(wb**2, axis=1) / var
        return log_prior + loglik

    def gradient_of(wb, t):
        """Gradient from the logits t, overwriting t with y - sigmoid(t)."""
        # sigmoid(t) = 1 / (1 + exp(-t)), exactly 0 where exp(-t) overflows
        np.negative(t, out=t)
        with np.errstate(over="ignore"):
            np.exp(t, out=t)
        t += 1.0
        np.divide(1.0, t, out=t)
        np.subtract(y, t, out=t)
        return -wb / var + t @ X

    def log_density(w):
        wb, squeeze = _as_batch(w, d)
        t, spare = logits(wb)
        np.multiply(t, sign, out=t)
        return _maybe_scalar(log_density_of(wb, t, spare), squeeze)

    def gradient(w):
        wb, squeeze = _as_batch(w, d)
        g = gradient_of(wb, logits(wb)[0])
        return g[0] if squeeze else g

    def fused(w):
        wb, squeeze = _as_batch(w, d)
        t, u = logits(wb)
        np.multiply(t, sign, out=u)
        g = gradient_of(wb, t)
        lp = log_density_of(wb, u, t)
        return _maybe_scalar(lp, squeeze), g[0] if squeeze else g

    return UnnormalizedDensity(dim=d, log_density=log_density, gradient=gradient, fused=fused)


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative masses on a finite set of atoms.

    ``atoms`` is bookkeeping only; the divergence machinery works on ``mass``.
    """

    mass: np.ndarray
    atoms: np.ndarray | None = None

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a nonempty vector")
        if np.any(mass < 0.0) or not np.all(np.isfinite(mass)):
            raise ValueError("mass must be finite and nonnegative")
        if not np.any(mass > 0.0):
            raise ValueError("mass must not be identically zero")
        object.__setattr__(self, "mass", mass)

    @property
    def n_atoms(self) -> int:
        return self.mass.shape[0]


def grid_from_density(density: UnnormalizedDensity, atoms) -> GridDensity:
    """Restrict an unnormalized density to finitely many atoms.

    Mass ratios between atoms are preserved exactly (plain exponentiation).
    """
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    logm = np.asarray(density.log_density(atoms), dtype=float)
    if np.any(np.isnan(logm)) or np.any(logm == np.inf):
        raise ValueError("log density must be finite or -inf on the atoms")
    return GridDensity(mass=np.exp(logm), atoms=atoms)
