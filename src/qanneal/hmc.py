"""Hamiltonian Monte Carlo on log-density energies.

The kernel is vectorized over a batch of chains: positions have shape (n, d)
and every chain draws its own momentum and accept threshold from the one
generator of the run, in a fixed order, so results are reproducible given a
seed.

A batch holds one run per block of equal, consecutive rows, one step size
per block in ``HmcConfig.step_size``; a batch of one run is one block.  The
blocks share one stream of common random numbers: the generator draws one
block's momenta and thresholds and every block uses them, and
``tune_step_size`` adapts each block's step from that block's acceptance.
So every block reproduces bit for bit the run it would make alone on a
generator in the same state.  ``rng`` may be a tuple of generators, one per
group of equal, consecutive blocks that share its stream, as in a sandwich.

The energy is one callable, ``energy(z) -> (logp, grad)``, returning the
log-density (n,) and its gradient (n, d) together.  The kernel calls it once
per leapfrog position and never on a point it has already evaluated: a
transition takes the (logp, grad) state of its start point and returns the
state of the point it ends on, so callers carry it from one transition to
the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
# numpy loads numpy.random lazily: importing it here keeps that cost in setup, out of a solve
from numpy.random import Generator

EnergyFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
State = tuple[np.ndarray, np.ndarray]

# the mean acceptance probability that ``tune_step_size`` steers toward
_TARGET_ACCEPT = 0.65


@dataclass(frozen=True, eq=False)
class HmcConfig:
    """Leapfrog step size and trajectory length, with an identity metric.

    ``step_size`` is a (B,) array with one step per block of equal,
    consecutive rows of the batch it is used on; a float given for it is
    read as one block.  An array field makes value equality ambiguous, so
    configs compare by identity.
    """

    step_size: np.ndarray
    n_leapfrog: int

    def __post_init__(self):
        object.__setattr__(self, "step_size", np.array(self.step_size, dtype=float, ndmin=1))
        if self.step_size.ndim != 1 or not np.all(self.step_size > 0.0):
            raise ValueError("step_size must be positive, one float or one per block")
        if self.n_leapfrog < 1:
            raise ValueError("n_leapfrog must be at least 1")


def leapfrog(
    z: np.ndarray,
    momentum: np.ndarray,
    energy: EnergyFn,
    cfg: HmcConfig,
    grad0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, State]:
    """Run ``cfg.n_leapfrog`` leapfrog steps along the log-density gradient.

    ``grad0`` is the gradient at ``z``.  ``energy`` is called exactly once
    per new position, ``cfg.n_leapfrog`` times, and the (logp, grad) of the
    final position is returned with it as ``(z, p, (logp, grad))``.

    The update is volume preserving and time reversible: negating the returned
    momentum and integrating again retraces the trajectory.  Nonfinite
    gradients propagate into the outputs; callers detect divergence there.
    Each block of rows of ``z`` steps by its own entry of ``cfg.step_size``.
    """
    eps = np.repeat(cfg.step_size, z.shape[0] // cfg.step_size.size)[:, None]
    half = 0.5 * eps
    with np.errstate(over="ignore", invalid="ignore"):
        # p is updated in place; z is new each step, as the energy may keep it
        p = momentum + half * grad0
        z = z + eps * p
        logp, grad = energy(z)
        for _ in range(cfg.n_leapfrog - 1):
            p += eps * grad
            z = z + eps * p
            logp, grad = energy(z)
        p += half * grad
    return z, p, (logp, grad)


def _kinetic(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p * p).sum(axis=-1)


def _block_means(values: np.ndarray, blocks: int) -> np.ndarray:
    """Mean of each of ``blocks`` equal, consecutive runs of ``values``;
    each equals ``np.mean`` of that run alone: a float sum over the count."""
    return values.reshape(blocks, -1).sum(axis=1, dtype=float) / (values.size // blocks)


def _noise(rng: Generator, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """One transition's draws for m chains: momenta (m, d), then uniforms (m,)."""
    return rng.standard_normal((m, d)), rng.uniform(size=m)


def _hmc_core(
    positions: np.ndarray,
    energy: EnergyFn,
    cfg: HmcConfig,
    rng: Generator | tuple,
    state: State,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, State]:
    """One Metropolis-corrected HMC update for a (n, d) batch whose
    (logp, grad) is ``state``.

    Returns (positions, accepted mask, per-chain acceptance probability,
    state of the returned positions).  Divergent trajectories (nonfinite
    state or energy) are auto-rejected.
    """
    n, d = positions.shape
    blocks = cfg.step_size.size
    lp0, g0 = state
    # one block's draws per generator, copied: its blocks share the same random numbers
    rngs = rng if isinstance(rng, tuple) else (rng,)
    draws = zip(*[_noise(g, n // blocks, d) for g in rngs])
    p0, u = (np.concatenate([x for x in part for _ in range(blocks // len(rngs))]) for part in draws)
    k0 = _kinetic(p0)

    proposal, p1, (lp1, g1) = leapfrog(positions, p0, energy, cfg, g0)
    ok = np.isfinite(proposal).all(axis=1) & np.isfinite(p1).all(axis=1)
    if not ok.all():
        # -inf log-density rejects a divergent trajectory whatever its
        # kinetic energy, which a zeroed momentum keeps finite
        lp1 = np.where(ok, lp1, -np.inf)
        p1 = np.where(ok[:, None], p1, 0.0)

    # a finite momentum's square may overflow; an infinite k1 rejects the proposal
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _kinetic(p1)
        log_ratio = (lp1 - k1) - (lp0 - k0)
    log_ratio = np.where(np.isnan(log_ratio), -np.inf, log_ratio)

    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    accepted = log_u < log_ratio
    accept_prob = np.exp(np.minimum(log_ratio, 0.0))

    keep = accepted[:, None]
    out = np.where(keep, proposal, positions)
    state = (np.where(accepted, lp1, lp0), np.where(keep, g1, g0))
    return out, accepted, accept_prob, state


def hmc_step(
    z: np.ndarray,
    energy: EnergyFn,
    cfg: HmcConfig,
    rng: Generator | tuple,
    state: State,
) -> tuple[np.ndarray, np.ndarray, State]:
    """Metropolis-corrected HMC transition leaving exp(log-density) invariant.

    Takes a (n, d) batch; returns the new positions, the (n,) accepted flags
    and the (logp, grad) of the returned positions.  ``state`` is the
    (logp, grad) of ``z``, as returned by the previous transition.  The
    transition calls ``energy`` exactly ``cfg.n_leapfrog`` times, never on
    ``z``.  Proposals with -inf energy or nonfinite state are rejected in
    place.
    """
    out, accepted, _, state = _hmc_core(z, energy, cfg, rng, state)
    return out, accepted, state


def tune_step_size(
    positions: np.ndarray,
    energy: EnergyFn,
    cfg: HmcConfig,
    rng: Generator | tuple,
    n_adapt: int,
    state: State,
) -> tuple[HmcConfig, np.ndarray, State]:
    """Dual-averaging warm-up of the step size toward a mean acceptance
    probability of ``_TARGET_ACCEPT``.

    Returns the tuned config, the warmed-up positions and their (logp, grad).
    ``state`` is the (logp, grad) of ``positions``, carried in from the
    previous transition.  Each of the ``n_adapt`` transitions calls
    ``energy`` ``cfg.n_leapfrog`` times and hands its end state to the next.
    ``n_adapt = 0`` is a no-op so callers can disable adaptation entirely.

    Each block of rows keeps its own dual-averaging state in plain floats,
    fed by the mean acceptance of its own rows, and the tuned config carries
    one step per block.
    """
    if n_adapt < 0:
        raise ValueError("n_adapt must be nonnegative")
    if n_adapt == 0:
        return cfg, positions, state

    eps = [float(s) for s in cfg.step_size]
    blocks = len(eps)
    mu = [math.log(10.0 * e) for e in eps]
    log_eps_bar = [math.log(e) for e in eps]
    h_bar = [0.0] * blocks
    gamma, t0, kappa = 0.05, 10.0, 0.75
    for m in range(1, n_adapt + 1):
        positions, _, accept_prob, state = _hmc_core(
            positions, energy, replace(cfg, step_size=eps), rng, state
        )
        rates = _block_means(accept_prob, blocks)
        eta = m**-kappa
        for b in range(blocks):
            h_bar[b] += ((_TARGET_ACCEPT - float(rates[b])) - h_bar[b]) / (m + t0)
            log_eps = mu[b] - math.sqrt(m) / gamma * h_bar[b]
            log_eps = min(max(log_eps, math.log(1e-6)), math.log(1e2))
            log_eps_bar[b] = eta * log_eps + (1.0 - eta) * log_eps_bar[b]
            eps[b] = math.exp(log_eps)

    tuned = replace(cfg, step_size=[math.exp(x) for x in log_eps_bar])
    return tuned, positions, state
