"""Reference computations the benchmark checks qanneal's reports against.

Plain numpy, written from the definitions; nothing here imports qanneal, so a
fault in its densities, paths or samplers cannot hide in the reference.
``self_check`` tests every routine on Gaussian cases with closed-form answers.
"""

from __future__ import annotations

import math

import numpy as np

TOY = {"mu0": -4.0, "var0": 3.0, "mu1": 4.0, "var1": 1.0}
PRIOR_SD = 5.0


def gaussian_log_pdf(x, mean: float, var: float):
    """Log of the normalized 1-d Gaussian density."""
    x = np.asarray(x, dtype=float)
    return -0.5 * math.log(2.0 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


def toy_log_ratios(draws, log_scale: float = 0.0):
    """log target - log base of the toy pair at base draws of shape (n,)."""
    return (
        gaussian_log_pdf(draws, TOY["mu1"], TOY["var1"]) + log_scale
        - gaussian_log_pdf(draws, TOY["mu0"], TOY["var0"])
    )


def q_grid(count: int) -> np.ndarray:
    """The documented grid-q orders for count >= 2: q = 1 - delta, delta
    log-spaced on [1e-5, 1e-1]."""
    return 1.0 - np.geomspace(1e-5, 1e-1, count)


def blend_log_ratio(log_ratios, beta, q: float):
    """log of the order-q power mean (1-beta) * 1 + beta * r, r = exp(log_ratios).

    Defined as log((1 - beta) + beta * r^(1-q)) / (1-q), and beta * log r at
    q = 1.  ``beta`` may be an array that broadcasts against ``log_ratios``.
    """
    lr = np.asarray(log_ratios, dtype=float)
    beta = np.asarray(beta, dtype=float)
    d = 1.0 - q
    if d == 0.0:
        return beta * lr
    x = d * lr
    # log((1-b) + b e^x) is x + log1p((1-b) expm1(-x)) for x > 0 and
    # log1p(b expm1(x)) for x <= 0, so expm1 never overflows; where b expm1(x)
    # nears -1, log1p loses its digits and logaddexp takes over
    neg = np.minimum(x, 0.0)
    pos = np.maximum(x, 0.0)
    shrink = beta * np.expm1(neg)
    with np.errstate(divide="ignore"):
        far = np.logaddexp(np.log1p(-beta), np.log(beta) + neg)
    below = np.where(shrink > -0.5, np.log1p(np.maximum(shrink, -0.5)), far)
    return np.where(x > 0.0, pos + np.log1p((1.0 - beta) * np.expm1(-pos)), below) / d


def ess(log_weights, axis: int = -1):
    """(sum w)^2 / sum w^2 of the weights exp(log_weights), along ``axis``."""
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - np.max(lw, axis=axis, keepdims=True))
    return np.sum(w, axis=axis) ** 2 / np.sum(w * w, axis=axis)


def heuristic_grid_oracle(log_ratios, target_ess: float) -> float:
    """Smallest squared ESS error over a 200 x 200 (beta, 1 - q) grid.

    beta runs over linspace(1e-3, 1, 200) and 1 - q over geomspace(1e-6, 1, 200),
    the exhaustive search the heuristic's loss is judged against.
    """
    betas = np.linspace(1e-3, 1.0, 200)[:, None]
    best = math.inf
    for delta in np.geomspace(1e-6, 1.0, 200):
        values = ess(blend_log_ratio(log_ratios[None, :], betas, 1.0 - delta))
        best = min(best, float(np.min((values - target_ess) ** 2)))
    return best


def standardized_design(features) -> np.ndarray:
    """Intercept column plus features standardized by population sd, as the
    qanneal CSV loader documents; constant columns standardize to zero."""
    X = np.asarray(features, dtype=float)
    sd = X.std(axis=0)
    X = (X - X.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    return np.hstack([np.ones((X.shape[0], 1)), X])


def logistic_log_posterior(design, labels, prior_sd: float = PRIOR_SD):
    """Unnormalized log posterior w -> log N(w; 0, prior_sd^2 I) + log lik, batched."""
    d = design.shape[1]
    var = prior_sd**2

    def logp(w):
        t = w @ design.T
        loglik = np.sum(labels * t - np.logaddexp(0.0, t), axis=-1)
        return -0.5 * d * math.log(2.0 * math.pi * var) - 0.5 * np.sum(w * w, axis=-1) / var + loglik

    return logp


def logistic_mode(design, labels, prior_sd: float = PRIOR_SD):
    """Posterior mode by Newton's method, and the Laplace covariance there."""
    d = design.shape[1]
    w = np.zeros(d)
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(design @ w)))
        grad = design.T @ (labels - p) - w / prior_sd**2
        hess = design.T @ (design * (p * (1.0 - p))[:, None]) + np.eye(d) / prior_sd**2
        step = np.linalg.solve(hess, grad)
        w = w + step
        if np.max(np.abs(step)) < 1e-12:
            break
    p = 1.0 / (1.0 + np.exp(-(design @ w)))
    hess = design.T @ (design * (p * (1.0 - p))[:, None]) + np.eye(d) / prior_sd**2
    return w, np.linalg.inv(hess)


def log_evidence_quadrature(logp, mode, cov, points: int = 41, half_width: float = 7.0):
    """log of the integral of exp(logp) by a tensor-grid rectangle rule.

    The grid is centred at ``mode`` and laid along the eigenvectors of ``cov``,
    ``half_width`` standard deviations each way, ``points`` nodes per axis.
    """
    mode = np.asarray(mode, dtype=float)
    d = mode.size
    evals, evecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    scale = evecs * np.sqrt(evals)
    axis = np.linspace(-half_width, half_width, points)
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = mode + np.stack([m.ravel() for m in mesh], axis=1) @ scale.T
    values = np.concatenate([logp(chunk) for chunk in np.array_split(nodes, max(1, nodes.shape[0] // 20_000))])
    top = np.max(values)
    log_cell = d * math.log(axis[1] - axis[0]) + 0.5 * float(np.sum(np.log(evals)))
    return float(top + math.log(np.sum(np.exp(values - top))) + log_cell)


def logistic_log_evidence(features, labels) -> float:
    """log marginal likelihood of the logistic model qanneal builds from a CSV."""
    design = standardized_design(features)
    labels = np.asarray(labels, dtype=float)
    mode, cov = logistic_mode(design, labels)
    return log_evidence_quadrature(logistic_log_posterior(design, labels), mode, cov, 31, 6.0)


def _gaussian_power_mean_ess_fraction(beta: float) -> float:
    """Population ESS / n of weights (p1/p0)^beta under p0 for the toy pair.

    E[w] and E[w^2] are integrals of p0^(1-a) p1^a, a Gaussian product with
    a closed-form normalizer.
    """
    def log_moment(a):
        prec = (1.0 - a) / TOY["var0"] + a / TOY["var1"]
        lin = (1.0 - a) * TOY["mu0"] / TOY["var0"] + a * TOY["mu1"] / TOY["var1"]
        const = (
            -0.5 * (1.0 - a) * (math.log(2 * math.pi * TOY["var0"]) + TOY["mu0"] ** 2 / TOY["var0"])
            - 0.5 * a * (math.log(2 * math.pi * TOY["var1"]) + TOY["mu1"] ** 2 / TOY["var1"])
        )
        return const + 0.5 * lin**2 / prec + 0.5 * math.log(2 * math.pi / prec)

    return math.exp(2.0 * log_moment(beta) - log_moment(2.0 * beta))


def self_check() -> list[str]:
    """Check each reference on Gaussian cases with known answers; return failures."""
    failures = []
    rng = np.random.default_rng(20211)

    # toy truth: the target integrates to exp(offset)
    x = np.linspace(-40.0, 40.0, 400_001)
    log_z = math.log(np.sum(np.exp(toy_log_ratios(x, 2.5) + gaussian_log_pdf(x, TOY["mu0"], TOY["var0"]))) * (x[1] - x[0]))
    if abs(log_z - 2.5) > 1e-9:
        failures.append(f"toy offset quadrature gave {log_z!r}, expected 2.5")

    # quadrature: a correlated 3-d Gaussian with a constant offset
    cov = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
    mean = np.array([0.5, -1.0, 2.0])
    prec = np.linalg.inv(cov)
    log_norm = -0.5 * (3 * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))

    def gauss(w):
        dev = w - mean
        return log_norm - 0.5 * np.sum((dev @ prec) * dev, axis=-1) - 7.25

    got = log_evidence_quadrature(gauss, mean, 1.3 * cov)
    if abs(got + 7.25) > 1e-8:
        failures.append(f"Gaussian quadrature gave {got!r}, expected -7.25")

    # Newton mode: with no data the posterior is the prior, mode 0, cov prior_sd^2 I
    mode, laplace = logistic_mode(np.zeros((0, 3)), np.zeros(0))
    if np.max(np.abs(mode)) > 0 or np.max(np.abs(laplace - PRIOR_SD**2 * np.eye(3))) > 1e-9:
        failures.append("logistic mode without data is not the prior")

    # blend: geometric and arithmetic special cases and the q = 2 harmonic mean
    lr = rng.normal(0.0, 30.0, size=1000)
    for beta in (0.1, 0.5, 0.9):
        checks = {
            "geometric": (blend_log_ratio(lr, beta, 1.0), beta * lr),
            "arithmetic": (blend_log_ratio(lr, beta, 0.0), np.logaddexp(math.log1p(-beta), math.log(beta) + lr)),
            "harmonic": (blend_log_ratio(lr, beta, 2.0), -np.logaddexp(math.log1p(-beta), math.log(beta) - lr)),
        }
        for name, (a, b) in checks.items():
            if not np.allclose(a, b, rtol=1e-12, atol=1e-10):
                failures.append(f"{name} blend disagrees at beta {beta}")

    # ESS: equal weights give n; Gaussian weights match the population fraction
    if abs(ess(np.full(256, -3.0)) - 256.0) > 1e-9:
        failures.append("ESS of equal weights is not n")
    draws = TOY["mu0"] + math.sqrt(TOY["var0"]) * rng.standard_normal(2_000_000)
    for beta in (0.05, 0.1):
        got = ess(blend_log_ratio(toy_log_ratios(draws), beta, 1.0)) / draws.size
        want = _gaussian_power_mean_ess_fraction(beta)
        if abs(got / want - 1.0) > 0.02:
            failures.append(f"ESS fraction at beta {beta}: {got:.4f}, closed form {want:.4f}")

    # grid oracle: finds a squared error no larger than at a known grid point
    lw = toy_log_ratios(draws[:256])
    corner = float((ess(blend_log_ratio(lw, 1.0, 0.0)) - 128.0) ** 2)
    if not heuristic_grid_oracle(lw, 128.0) <= corner:
        failures.append("grid oracle misses a grid point")
    return failures
