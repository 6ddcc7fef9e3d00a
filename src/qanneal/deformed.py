"""Deformed logarithm/exponential pairs and the power-mean algebra built on them.

Everything here is elementary scalar/array math; the rest of the package leans on
these primitives for path construction and numerically safe weight handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orders closer to 1 than this are treated as the exact log/exp branch.
Q_ONE_TOL = 1e-12


def is_geometric_order(q: float) -> bool:
    """True when ``q`` falls inside the exact log/exp branch around 1."""
    return abs(q - 1.0) < Q_ONE_TOL


@dataclass(frozen=True)
class RhoChoice:
    """Result of the magnitude-based rho selection rule."""

    rho: float
    q: float
    degenerate: bool = False


def ln_q(u, q: float):
    """Deformed logarithm (u^(1-q) - 1)/(1-q); natural log at q = 1.

    Strictly increasing and concave in ``u`` for q >= 0; u must be positive.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("ln_q requires positive arguments")
    if is_geometric_order(q):
        return np.log(u)
    d = 1.0 - q
    # expm1 keeps precision when u^(1-q) is close to 1.
    return np.expm1(d * np.log(u)) / d


def exp_q(u, q: float):
    """Deformed exponential [1 + (1-q) u]_+^(1/(1-q)); standard exp at q = 1.

    For q < 1 the value is 0 where the bracket is nonpositive; for q > 1 the
    bracket hitting 0 is a pole and the value is +inf there.
    """
    u = np.asarray(u, dtype=float)
    if is_geometric_order(q):
        return np.exp(u)
    d = 1.0 - q
    x = d * u
    pos = x > -1.0
    # log1p keeps the bracket's precision; forming 1 + x first would lose
    # digits that the 1/d power then amplifies for q near 1.
    out = np.exp(np.log1p(np.where(pos, x, 0.0)) / d)
    fill = 0.0 if q < 1.0 else np.inf
    return np.where(pos, out, fill)


def power_mean(values, weights, q: float):
    """Weighted power mean with exponent 1-q.

    Arithmetic mean at q = 0, geometric at q = 1; tends to min/max of the
    inputs as q -> +/- inf. Weights must be a probability vector.
    """
    u = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if u.shape != w.shape or u.ndim != 1 or u.size == 0:
        raise ValueError("values and weights must be equal-length 1-d arrays")
    if np.any(u < 0.0) or np.any(w < 0.0):
        raise ValueError("values and weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1")
    live = w > 0.0
    u, w = u[live], w[live]
    if is_geometric_order(q):
        if np.any(u == 0.0):
            return 0.0
        return float(np.exp(np.sum(w * np.log(u))))
    d = 1.0 - q
    if q > 1.0 and np.any(u == 0.0):
        return 0.0  # u^(1-q) diverges; the mean's limit is 0
    return float(np.sum(w * np.power(u, d)) ** (1.0 / d))


def ln_q_exp(log_u, q: float):
    """ln_q(exp(log_u)) evaluated without forming exp(log_u).

    Equals rho * expm1(log_u / rho) with rho = 1/(1-q); monotone in ``log_u``.
    """
    log_u = np.asarray(log_u, dtype=float)
    if is_geometric_order(q):
        return log_u
    rho = 1.0 / (1.0 - q)
    return rho * np.expm1(log_u / rho)


def rho_from_log_weights(log_weights) -> RhoChoice:
    """Pick rho = max_i |log w_i| so deformed weights stay in a bounded range.

    The companion order is q = 1 - 1/rho. An all-zero input gives no scale to
    work with; rho falls back to 1 and the result is flagged degenerate.
    """
    lw = np.asarray(log_weights, dtype=float)
    if lw.size == 0:
        raise ValueError("log_weights must be nonempty")
    if not np.all(np.isfinite(lw)):
        raise ValueError("log_weights must be finite")
    rho = float(np.max(np.abs(lw)))
    if rho == 0.0:
        return RhoChoice(rho=1.0, q=0.0, degenerate=True)
    return RhoChoice(rho=rho, q=1.0 - 1.0 / rho)


def exp_q_sum_factored(xs, q: float) -> float:
    """Evaluate exp_q(sum(xs)) as a product of rescaled one-term factors.

    Each factor n divides its argument by 1 + (1-q) * (partial sum before n);
    a vanishing divisor is a pole of the identity.
    """
    xs = np.asarray(xs, dtype=float)
    out = 1.0
    partial = 0.0
    d = 1.0 - q
    for x in xs:
        denom = 1.0 + d * partial
        if denom == 0.0:
            raise ValueError("factored form hits a zero divisor")
        out *= float(exp_q(x / denom, q))
        partial += x
    return out


def exp_q_prod_collapsed(xs, q: float) -> float:
    """Evaluate prod_n exp_q(x_n) as a single exp_q of a weighted sum.

    Term n is scaled by prod_{i<n} (1 + (1-q) x_i).
    """
    xs = np.asarray(xs, dtype=float)
    d = 1.0 - q
    arg = 0.0
    scale = 1.0
    for x in xs:
        arg += x * scale
        scale *= 1.0 + d * x
    return float(exp_q(arg, q))


def free_energy_to_multiplicative(theta, psi_q: float, q: float):
    """Convert subtractive normalization (free energy psi_q) to multiplicative.

    Returns (beta, z) with beta = theta / (1 + (1-q)(-psi_q)) and
    z = 1/exp_q(-psi_q), so that exp_q(theta . phi - psi_q) = exp_q(beta . phi)/z
    pointwise. Requires the divisor 1 + (1-q)(-psi_q) to be positive.
    """
    theta = np.asarray(theta, dtype=float)
    if is_geometric_order(q):
        return theta, float(np.exp(psi_q))
    denom = 1.0 + (1.0 - q) * (-psi_q)
    if denom <= 0.0:
        raise ValueError("free energy outside the convertible range")
    z = 1.0 / float(exp_q(-psi_q, q))
    return theta / denom, z
