"""Endpoint density families: Gaussians, Student-t, logistic regression
posteriors, and finite grid densities for brute-force checks.

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
    fused : callable or None
        ``z -> (log_density(z), gradient(z))`` in one call.  Each built-in
        density is one batch kernel behind ``fused``, and its
        ``log_density`` and ``gradient`` are the two projections of that
        call.  A density built from separate callables leaves it None, and
        ``value_and_grad`` then calls the two.  A ``replace`` that swaps
        ``log_density`` or ``gradient`` must swap or clear it too.
    """

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    exact_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    fused: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def value_and_grad(self, z):
        """Log-density and gradient at ``z`` together, with the shapes of
        ``log_density`` and ``gradient``: the one energy entry point.  A
        path's batch takes them as returned, so on an (n, d) batch they must
        be float arrays (n,) and (n, d)."""
        if self.fused is not None:
            return self.fused(z)
        return self.log_density(z), self.gradient(z)


def with_log_scale(density: UnnormalizedDensity, log_c: float) -> UnnormalizedDensity:
    """Multiply an unnormalized density by exp(log_c).

    The normalized shape (and therefore the sampler) is unchanged; the
    normalizer shifts by ``log_c``.
    """

    def fused(z):
        lp, g = density.value_and_grad(z)
        return lp + log_c, g

    return replace(density, **_projections(fused))


def _projections(fused):
    """The ``fused``, ``log_density`` and ``gradient`` fields of one fused
    callable: the other two are its projections."""
    return {"fused": fused, "log_density": lambda z: fused(z)[0], "gradient": lambda z: fused(z)[1]}


def _from_kernel(d: int, kernel, finite: bool = True):
    """``_projections`` of a batch-only kernel ``zb -> (logp (n,), grad (n, d))``.

    The fused call checks the shape, rejects a nan or inf coordinate when
    ``finite`` (a density on all of R^d gives it no density), and turns a
    (d,) point into a float and a (d,) gradient.
    """

    def fused(z):
        zb = np.asarray(z, dtype=float)
        point = zb.ndim == 1
        if point:
            if zb.shape[0] != d:
                raise ValueError(f"point has dimension {zb.shape[0]}, expected {d}")
            zb = zb[None, :]
        elif zb.ndim != 2 or zb.shape[1] != d:
            raise ValueError(f"batch must have shape (n, {d})")
        if finite and not np.isfinite(zb).all():
            raise ValueError("points must be finite")
        lp, g = kernel(zb)
        return (float(lp[0]), g[0]) if point else (lp, g)

    return _projections(fused)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)): exactly 0 below about -709,
    where exp(-x) overflows to inf, and exactly 1 above about 37."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _as_matrix(cov, d: int, name: str) -> np.ndarray:
    """A covariance or scale argument as its (d, d) matrix: a scalar is that
    multiple of the identity, a vector the diagonal, a matrix itself."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = np.eye(d) * cov
    elif cov.ndim == 1:
        cov = np.diag(cov)
    if cov.shape != (d, d):
        raise ValueError(f"{name} shape must match the mean")
    return cov


def _whitening(chol: np.ndarray):
    """``(op, a, b)`` with ``op(x, a) = x @ inv(chol).T``, ``op(x, b) = x @ inv(chol)``:
    on a diagonal factor the product by the diagonal, the matmul's bits in fewer
    calls but for the sign of a zero product, which the matmul's sum reads as +0."""
    inv_chol = np.linalg.inv(chol)
    diag = np.diag(inv_chol)
    if np.array_equal(inv_chol, np.diag(diag)):
        return np.multiply, diag, diag
    return np.matmul, inv_chol.T, inv_chol


def gaussian(mean, cov) -> UnnormalizedDensity:
    """Normalized multivariate Gaussian; scalars are accepted in one dimension.

    ``cov`` may be a scalar variance, a variance vector, or a full covariance.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.shape[0]
    chol = np.linalg.cholesky(_as_matrix(cov, d, "covariance"))
    op, a, b = _whitening(chol)
    log_norm = -0.5 * d * math.log(2.0 * math.pi) - np.sum(np.log(np.diag(chol)))

    def kernel(zb):
        # white is minus the whitened point, so the gradient (the precision
        # times mean - z) is one more product, +0 at z = mean as with matmuls
        white = op(mean - zb, a)
        return log_norm - 0.5 * (white * white).sum(axis=1), op(white, b)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return mean + rng.standard_normal((n, d)) @ chol.T

    return UnnormalizedDensity(dim=d, exact_sampler=sampler, **_from_kernel(d, kernel))


def student_t(mean, scale, nu: float) -> UnnormalizedDensity:
    """Normalized multivariate Student-t with scale matrix ``scale``.

    The tail power couples to the deformation order via ``q_from_nu``.
    """
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    d = mean.shape[0]
    chol = np.linalg.cholesky(_as_matrix(scale, d, "scale"))
    op, a, b = _whitening(chol)
    log_norm = (
        math.lgamma(0.5 * (nu + d))
        - math.lgamma(0.5 * nu)
        - 0.5 * d * math.log(nu * math.pi)
        - np.sum(np.log(np.diag(chol)))
    )

    def kernel(zb):
        white = op(zb - mean, a)
        m = (white * white).sum(axis=1)
        lp = log_norm - 0.5 * (nu + d) * np.log1p(m / nu)
        return lp, -(nu + d) * op(white, b) / (nu + m)[:, None]

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        g = rng.standard_normal((n, d)) @ chol.T
        u = rng.chisquare(nu, size=n)
        return mean + g * np.sqrt(nu / u)[:, None]

    return UnnormalizedDensity(dim=d, exact_sampler=sampler, **_from_kernel(d, kernel))


def q_from_nu(nu: float, d: int) -> float:
    """Order matching a d-dimensional Student-t tail: q = (nu+d+2)/(nu+d)."""
    if not nu > 0.0:
        raise ValueError("nu must be positive")
    return (nu + d + 2.0) / (nu + d)


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

    Each call works on the signed logits ``u = w @ XS.T``, where the signed
    design ``XS`` is ``X`` with the rows of label 1 negated, built once with
    the density.  Row j's negative log-likelihood is then softplus(u_j), and
    one softplus pass feeds both the log-likelihood and the sigmoid
    ``exp(u - softplus(u))`` that the gradient ``-w / var - sigmoid(u) @ XS``
    needs.  The passes run in two (n, rows) buffers that the density keeps
    for the batch size of its last call, so no call allocates an (n, rows)
    array.  The buffers make the density unsafe to call from two threads at
    once.
    """
    X, y = model.X, model.y
    d = X.shape[1]
    var = model.prior_sd**2
    log_prior_norm = -0.5 * d * math.log(2.0 * math.pi * var)
    # u = sign * (w @ X.T) with sign = -1 where y = 1: the sign flip is exact
    XS = X * (1.0 - 2.0 * y)[:, None]
    XS_T = XS.T
    workspace = np.empty((2, 0, y.size))

    def kernel(wb):
        nonlocal workspace
        if workspace.shape[1] != wb.shape[0]:
            workspace = np.empty((2, wb.shape[0], y.size))
        u, s = workspace
        np.matmul(wb, XS_T, out=u)
        # s = softplus(u) = max(u, 0) + L with L = log1p(exp(-|u|)), stable on
        # both tails, taken as max(u + L, L), the same bits in place
        np.abs(u, out=s)
        np.negative(s, out=s)
        np.exp(s, out=s)
        np.log1p(s, out=s)
        u += s
        np.maximum(u, s, out=s)
        log_prior = log_prior_norm - 0.5 * np.sum(wb**2, axis=1) / var
        lp = log_prior - np.sum(s, axis=1)
        # sigmoid(u) = exp(u - softplus(u)) on u recomputed, a d-term matmul
        # that keeps the workspace at two buffers; a row with an infinite
        # logit, whose log-density is -inf, gets inf - inf = nan
        np.matmul(wb, XS_T, out=u)
        with np.errstate(invalid="ignore"):
            np.subtract(u, s, out=u)
        np.exp(u, out=u)
        return lp, -wb / var - u @ XS

    return UnnormalizedDensity(dim=d, **_from_kernel(d, kernel, finite=False))


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
