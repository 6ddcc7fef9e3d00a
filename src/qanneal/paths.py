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
    _as_matrix,
    gaussian,
    q_from_nu,
    sigmoid,
    student_t,
    with_log_scale,
)


def _check_beta(beta):
    """``beta`` as a float, or one per group of equal, consecutive rows as a (G,) array; in [0, 1]."""
    if isinstance(beta, float) and 0.0 <= beta <= 1.0:
        return float(beta)
    grouped = isinstance(beta, np.ndarray) and beta.ndim == 1
    beta = beta if grouped else float(beta)
    if not (all(0.0 <= b <= 1.0 for b in beta.tolist()) if grouped else 0.0 <= beta <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta


class _Rows:
    """The betas ``groups``, one per group of an n-row batch's equal,
    consecutive rows, row by row: each field a float for one group, else
    (n,); all interior, or all at an endpoint (``ends``, ``at1`` at 1).
    ``key`` is the one group's beta, None for several.
    ``log``, ``log1m`` and ``logit`` are taken per group by ``math``, so each
    row gets a one-group run's bits; ``small`` is False where no row is below 1e-2."""

    def __init__(self, groups: list, n: int):
        self.groups, self.n = groups, n
        self.key = groups[0] if len(groups) == 1 else None
        ends = [b in (0.0, 1.0) for b in groups]
        if any(ends) != all(ends):
            raise ValueError("a batch's betas must all be interior or all at an endpoint")
        log, log1m = zip(*[(0.0, 0.0) if e else (math.log(b), math.log1p(-b)) for b, e in zip(groups, ends)])
        small = [0.0 < b < 1e-2 for b in groups]

        def spread(values):
            return values[0] if len(values) == 1 else np.repeat(values, n // len(values))

        self.ends, self.at1 = ends[0], spread([b == 1.0 for b in groups])
        self.beta, self.one_minus = spread(groups), spread([1.0 - b for b in groups])
        self.log, self.log1m = spread(log), spread(log1m)
        self.logit = spread([a - b for a, b in zip(log, log1m)])
        self.small = any(small) and spread(small)
        # the weights of the endpoint gradients, as columns
        self.cols = [w if len(groups) == 1 else w[:, None] for w in (self.one_minus, self.beta)]


def _at_ends(batch: "PathBatch", rows: _Rows, i: int):
    """Field ``i`` (0 log-density, 1 gradient) of ``batch``, every row at an endpoint: that endpoint's."""
    if isinstance(rows.at1, bool):
        return batch.end(int(rows.at1))[i]
    return np.where(rows.at1 if i == 0 else rows.at1[:, None], batch.end(1)[i], batch.end(0)[i])


def _deform(lp0, lp1, q):
    """The beta-free terms, off the geometric order, of the blend
    (1/(1-q)) * log((1-beta) * p0^(1-q) + beta * p1^(1-q)) in log space,
    which ``_blend_at`` takes at an interior beta.

    No row may have both endpoints at -inf, nor either one at q >= 1;
    ``QPath`` masks such rows first.  ``q`` and beta may be arrays that
    broadcast against the endpoints, one value per row.
    Returns ``(d, x, swap, em, anchor)``: d = 1 - q, the deformed gap
    x = d * (lp1 - lp0), the rows ``swap`` = x > 0 where the target
    dominates in the deformed scale, em = expm1(-|x|) and the log-density of
    the dominant endpoint, ``anchor``.  Anchoring there keeps every expm1
    argument nonpositive.
    """
    d = 1.0 - q
    x = d * (lp1 - lp0)
    swap = x > 0.0
    # -x where x > 0, not -abs(x), which would flip the sign of a zero gap
    em = np.where(swap, -x, x)
    return d, x, swap, np.expm1(em, out=em), np.where(swap, lp1, lp0)


def _blend_at(terms, beta):
    """The blend at ``beta`` from the ``_deform`` terms: one log1p per element,
    on the side each element takes, and a logaddexp at a small beta: a float
    or a ``_Rows``'s, not an array's that broadcasts into the terms' shape."""
    d, x, swap, em, anchor = terms
    rows = _Rows([beta], 1) if isinstance(beta, float) else beta
    if not isinstance(rows, _Rows):
        # np.where(swap, 1 - beta, beta) without its broadcast of beta
        side = np.empty(em.shape)
        np.copyto(side, beta)
        np.copyto(side, 1.0 - beta, where=swap)
        return _log1p_pass(side, terms)
    side = np.where(swap, rows.one_minus, rows.beta)
    if rows.small is False:
        return _log1p_pass(side, terms)
    # (1 - beta) * em is rounded to about 1e-16, and where em is near -1
    # its log1p is the log of a number as small as beta: an error of
    # about 1e-16 / beta, all of beta where 1 - beta rounds to 1.  The
    # target-side rows with em < -0.5 take log((1 - beta) exp(-x) + beta)
    far = swap & (em < -0.5) & rows.small
    near = np.log1p(side * np.where(far, 0.0, em))
    return anchor + np.where(far, np.logaddexp(rows.log, rows.log1m - x), near) / d


def _log1p_pass(side, terms):
    """anchor + log1p(side * em) / d from the ``_deform`` terms, in the
    buffer of ``side``, a fresh array of the terms' shape."""
    d, _, _, em, anchor = terms
    side *= em
    np.log1p(side, out=side)
    side /= d
    side += anchor
    return side


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
    if np.ndim(q) == 0 and is_geometric_order(q):
        # QPath's difference form lp0 + beta * (lp1 - lp0) at lp0 = 0, which
        # reads +0.0 where the product is -0.0
        return beta * lr + 0.0
    return _blend_at(_deform(0.0, lr, q), beta)


def _as_float(z) -> np.ndarray:
    """``z`` as a float array of two or more dimensions; ``z`` itself if it is a 2-d one."""
    if isinstance(z, np.ndarray) and z.dtype == np.float64 and z.ndim == 2:
        return z
    return np.atleast_2d(np.asarray(z, dtype=float))


class PathBatch:
    """One (n, d) batch ``z`` on a path, evaluated at any beta, or at one per
    group of equal, consecutive rows as a (G,) array.  ``batch(beta)`` is
    the path log-density (n,) and
    ``batch.value_and_grad(beta)`` the (logp, grad) pair.  Each endpoint is
    evaluated at most once, value and gradient in one call, when a beta
    first needs it, and that pair then serves every beta.  ``terms`` is the
    path's one slot on the batch: a ``QPath``'s beta-free blend terms, a
    ``MomentPath``'s latest interior waypoints' pair.
    """

    def __init__(self, path: "AnnealingPath", z):
        self.path = path
        self.z = _as_float(z)
        self._ends = [None, None]
        self.terms = None

    def end(self, i: int):
        """Log-density (n,) and gradient (n, d) of the base (``i`` = 0) or
        the target (1), as its ``value_and_grad`` returns them."""
        if self._ends[i] is None:
            self._ends[i] = (self.path.target if i else self.path.base).value_and_grad(self.z)
        return self._ends[i]

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
        if live.all():
            return lp, self.path._gradient(self, beta)
        # a dead row's endpoint gradients may be nonfinite; its blend is discarded
        with np.errstate(over="ignore", invalid="ignore"):
            return lp, np.where(live[:, None], self.path._gradient(self, beta), 0.0)


class AnnealingPath:
    """Densities indexed by beta in [0, 1], from ``base`` at 0 to ``target``
    at 1, evaluated through ``PathBatch``.

    A path supplies two hooks: ``_log_density(batch, beta)``, the log-density
    (n,) of a ``PathBatch`` at a checked beta (a float, or a (G,) array of
    one per group of rows), and ``_gradient(batch, beta)``,
    its gradient (n, d); ``PathBatch.value_and_grad`` zeroes the rows where
    that log-density is not finite.
    """

    def _rows(self, beta, n: int) -> _Rows:
        """The ``_Rows`` of a checked ``beta`` on n rows, kept while the betas
        stay the same: a run evaluates each step's many times."""
        kept = self.__dict__.get("_kept_rows")
        if isinstance(beta, float):
            if kept is not None and kept.key == beta and kept.n == n:
                return kept
            groups = [beta]
        else:
            groups = beta.tolist()
        if kept is None or kept.groups != groups or kept.n != n:
            kept = _Rows(groups, n)
            object.__setattr__(self, "_kept_rows", kept)  # a QPath is frozen
        return kept

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
        q = self.q
        if np.ndim(q):
            q = np.asarray(q, dtype=float)
            if q.ndim != 1 or np.any(is_geometric_order(q)):
                raise ValueError("an array q must be a vector off the geometric order")
            object.__setattr__(self, "q", q)
        # the power mean vanishes where both endpoints do or, on the geometric
        # order and above it (a soft minimum), where either does; the rule is
        # one ufunc when every row takes the same, else the "either" rows
        geometric = np.ndim(q) == 0 and is_geometric_order(q)
        either = q > 1.0 if np.ndim(q) else geometric or q > 1.0
        if np.all(either) or not np.any(either):
            rule = np.logical_or if np.all(either) else np.logical_and
        else:
            def rule(dead0, dead1):
                return np.where(either, dead0 | dead1, dead0 & dead1)
        object.__setattr__(self, "_geometric", geometric)
        object.__setattr__(self, "_dead_rule", rule)

    def _terms(self, batch: PathBatch):
        """The rows of ``batch`` where the path density vanishes (None when
        none does) and the beta-free terms of the blend on the others, kept
        on the batch: the base and the gap lp1 - lp0 on the geometric order,
        else ``_deform``'s terms, whose deformed gap the gradient reuses."""
        if batch.terms is None:
            lp0, lp1 = batch.end(0)[0], batch.end(1)[0]
            dead = self._dead_rule(lp0 == -np.inf, lp1 == -np.inf)
            if dead.any():
                lp0, lp1 = np.where(dead, 0.0, lp0), np.where(dead, 0.0, lp1)
            else:
                dead = None
            batch.terms = dead, ((lp0, lp1 - lp0) if self._geometric else _deform(lp0, lp1, self.q))
        return batch.terms

    def _log_density(self, batch: PathBatch, beta):
        rows = self._rows(beta, len(batch.z))
        if rows.ends:
            return _at_ends(batch, rows, 0)
        dead, terms = self._terms(batch)
        # the geometric order's difference form keeps equal endpoints bit-exact
        out = terms[0] + rows.beta * terms[1] if self._geometric else _blend_at(terms, rows)
        return out if dead is None else np.where(dead, -np.inf, out)

    def _gradient(self, batch: PathBatch, beta):
        rows = self._rows(beta, len(batch.z))
        if rows.ends:
            return _at_ends(batch, rows, 1)
        g0, g1 = batch.end(0)[1], batch.end(1)[1]
        if self._geometric:
            return rows.cols[0] * g0 + rows.cols[1] * g1
        _, (_, gap, *_) = self._terms(batch)
        # responsibility of the target endpoint in the power mean, which
        # rounds to exactly 0 or 1 on rows far from the crossover
        col = sigmoid(rows.logit + gap)[:, None]
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
    cov0 = _as_matrix(cov0, mu0.size, "cov0")
    cov1 = _as_matrix(cov1, mu1.size, "cov1")
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
    Student-t path whose escort expectations mix linearly. The target's log
    scale factor ``log_scale1`` enters log-linearly in beta, so unnormalized
    targets fit; the base is normalized.  ``base`` and ``target``, the
    waypoints at 0 and 1, are a ``PathBatch``'s endpoints like any path's.
    """

    def __init__(self, mu0, cov0, mu1, cov1, nu: float | None = None, log_scale1: float = 0.0):
        self.mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
        self.mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("endpoint dimensions differ")
        self.cov0 = _as_matrix(cov0, self.mu0.size, "cov0")
        self.cov1 = _as_matrix(cov1, self.mu1.size, "cov1")
        self.nu = nu
        self.log_scale1 = float(log_scale1)
        self.base = self._build_waypoint(0.0)
        self.target = with_log_scale(self._build_waypoint(1.0), self.log_scale1)
        # the waypoints of the latest evaluation by beta, one per direction
        # of a sandwich, serve each step; a batch keeps its pair in ``terms``
        self._latest = {}

    def _build_waypoint(self, beta: float) -> UnnormalizedDensity:
        mu_b, cov_b = moment_path_params(self.mu0, self.cov0, self.mu1, self.cov1, beta, nu=self.nu)
        return gaussian(mu_b, cov_b) if self.nu is None else student_t(mu_b, cov_b, nu=self.nu)

    def _pair(self, batch: PathBatch, rows: _Rows):
        """(logp, grad) of ``batch``, each group of rows at its own beta's
        waypoint, kept in ``batch.terms`` as (betas, pair), the target's log
        scale entering as beta times it."""
        if batch.terms is None or batch.terms[0] != rows.groups:
            if self._latest.keys() != set(rows.groups):
                self._latest = {b: self._latest.get(b) or self._build_waypoint(b) for b in rows.groups}
            pairs = [
                (lp + b * self.log_scale1, g)
                for b, z in zip(rows.groups, np.split(batch.z, len(rows.groups)))
                for lp, g in [self._latest[b].value_and_grad(z)]
            ]
            batch.terms = rows.groups, tuple(np.concatenate(part) for part in zip(*pairs))
        return batch.terms[1]

    def _log_density(self, batch: PathBatch, beta):
        rows = self._rows(beta, len(batch.z))
        return _at_ends(batch, rows, 0) if rows.ends else self._pair(batch, rows)[0]

    def _gradient(self, batch: PathBatch, beta):
        rows = self._rows(beta, len(batch.z))
        return _at_ends(batch, rows, 1) if rows.ends else self._pair(batch, rows)[1]
