from dataclasses import replace

import numpy as np
from scipy.special import expit, logsumexp

from qanneal.densities import LogisticModel, UnnormalizedDensity, logistic_posterior


def counted(density: UnnormalizedDensity, calls: dict, name: str) -> UnnormalizedDensity:
    """``density`` with each of its evaluations, a ``log_density`` or a
    ``value_and_grad`` call, counted in ``calls[name]``."""
    calls[name] = 0

    def log_density(z):
        calls[name] += 1
        return density.log_density(z)

    def fused(z):
        calls[name] += 1
        return density.value_and_grad(z)

    return replace(density, log_density=log_density, fused=fused)


def piecewise_density(heights) -> UnnormalizedDensity:
    """Piecewise-constant density on equal-width bins of [0, 1).

    The normalizer is the mean height, known exactly, which makes these
    densities enumerable ground truth for estimator unbiasedness checks.
    The gradient is zero everywhere, so HMC moves degenerate to volume-
    preserving straight-line proposals corrected by Metropolis.
    """
    h = np.asarray(heights, dtype=float)
    bins = h.size
    with np.errstate(divide="ignore"):
        log_h = np.where(h > 0.0, np.log(np.where(h > 0.0, h, 1.0)), -np.inf)

    def log_density(z):
        z = np.asarray(z, dtype=float)
        batch = z if z.ndim == 2 else z[None, :]
        x = batch[:, 0]
        inside = (x >= 0.0) & (x < 1.0)
        idx = np.clip((x * bins).astype(int), 0, bins - 1)
        lp = np.where(inside, log_h[idx], -np.inf)
        return lp if z.ndim == 2 else lp[0]

    def gradient(z):
        return np.zeros_like(np.asarray(z, dtype=float))

    def sampler(rng, n):
        idx = rng.choice(bins, size=n, p=h / h.sum())
        return ((idx + rng.uniform(size=n)) / bins)[:, None]

    return UnnormalizedDensity(
        dim=1,
        log_density=log_density,
        gradient=gradient,
        exact_sampler=sampler,
        known_log_normalizer=float(np.log(np.mean(h))),
    )


def fd_gradient(f, z, h=1e-5):
    """Central-difference gradient of a scalar function at a point."""
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-12)


def make_logistic_csv(path, n_rows=40, n_features=2, seed=0, header=True):
    """Write a small synthetic binary regression CSV and return its model.

    Labels are Bernoulli draws through a logistic link on standard normal
    features, so the file exercises the loader end to end while staying
    cheap enough for quadrature ground truth.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_rows, n_features))
    coef = rng.normal(0.0, 1.0, size=n_features + 1)
    logits = coef[0] + X @ coef[1:]
    y = (rng.uniform(size=n_rows) < expit(logits)).astype(int)
    lines = []
    if header:
        lines.append(",".join(["label"] + [f"x{j}" for j in range(n_features)]))
    for i in range(n_rows):
        lines.append(",".join([str(int(y[i]))] + [repr(float(v)) for v in X[i]]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def logistic_evidence_quadrature(
    model: LogisticModel, half_width=8.0, points=81, chunk=200_000
) -> float:
    """Tensor-grid rectangle-rule log evidence for a small logistic model.

    Exact up to quadrature error, which for coefficient posteriors of the
    generated toy datasets is far below 0.01 nats; only practical for
    designs of width <= 3.
    """
    d = model.X.shape[1]
    if d > 3:
        raise ValueError("quadrature oracle is intended for at most 3 coefficients")
    axis = np.linspace(-half_width, half_width, points)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    logp = logistic_posterior(model).log_density
    pieces = [logp(grid[i : i + chunk]) for i in range(0, grid.shape[0], chunk)]
    log_cell = d * np.log(axis[1] - axis[0])
    return float(logsumexp(np.concatenate(pieces)) + log_cell)
