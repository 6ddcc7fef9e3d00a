from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qanneal.densities import gaussian
from qanneal.hmc import HmcConfig, hmc_step, leapfrog, tune_step_size
from qanneal.paths import QPath


def standard_normal_energy():
    def logp(z):
        return -0.5 * np.sum(np.asarray(z) ** 2, axis=-1)

    def grad(z):
        return -np.asarray(z, dtype=float)

    return logp, grad


def fused(logp, grad):
    return lambda z: (logp(z), grad(z))


class TestConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0, n_leapfrog=5, mass=np.ones(1))
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.1, n_leapfrog=0, mass=np.ones(1))
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.1, n_leapfrog=5, mass=np.array([1.0, -1.0]))

    def test_mass_coerced_to_vector(self):
        cfg = HmcConfig(step_size=0.1, n_leapfrog=5, mass=2.0)
        assert cfg.mass.shape == (1,)


class TestLeapfrog:
    def test_zero_momentum_zero_gradient_is_identity(self):
        cfg = HmcConfig(step_size=0.3, n_leapfrog=7, mass=np.ones(2))
        z = np.array([[1.5, -0.25], [0.0, 2.0]])
        p = np.zeros_like(z)
        z1, p1, _ = leapfrog(z, p, lambda x: (np.zeros(len(x)), np.zeros_like(x)), cfg)
        assert np.array_equal(z1, z)
        assert np.array_equal(p1, p)

    def test_reversibility(self):
        rng = np.random.default_rng(0)
        cfg = HmcConfig(step_size=0.15, n_leapfrog=25, mass=np.array([1.0, 2.0]))
        energy = fused(*standard_normal_energy())
        z0 = rng.normal(size=(6, 2))
        p0 = rng.normal(size=(6, 2))
        z1, p1, _ = leapfrog(z0, p0, energy, cfg)
        z2, p2, _ = leapfrog(z1, -p1, energy, cfg)
        np.testing.assert_allclose(z2, z0, atol=1e-8)
        np.testing.assert_allclose(-p2, p0, atol=1e-8)

    def test_energy_error_is_second_order_in_step(self):
        rng = np.random.default_rng(1)
        logp, grad = standard_normal_energy()
        z0 = rng.normal(size=(30, 1))
        p0 = rng.normal(size=(30, 1))

        def max_energy_error(eps):
            cfg = HmcConfig(step_size=eps, n_leapfrog=int(round(2.0 / eps)), mass=np.ones(1))
            z1, p1, _ = leapfrog(z0, p0, fused(logp, grad), cfg)
            h0 = -logp(z0) + 0.5 * np.sum(p0**2, axis=1)
            h1 = -logp(z1) + 0.5 * np.sum(p1**2, axis=1)
            return float(np.max(np.abs(h1 - h0)))

        errs = [max_energy_error(eps) for eps in (0.2, 0.1, 0.05)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 < coarse / fine < 5.5


class TestHmcStep:
    def test_zero_energy_change_always_accepts(self):
        # Flat density: leapfrog conserves the Hamiltonian exactly.
        def logp(z):
            return np.zeros(np.asarray(z).shape[0])

        cfg = HmcConfig(step_size=0.5, n_leapfrog=4, mass=np.ones(1))
        rng = np.random.default_rng(2)
        z = np.zeros((64, 1))
        z1, accepted, _ = hmc_step(z, fused(logp, lambda x: np.zeros_like(x)), cfg, rng)
        assert accepted.all()
        assert not np.allclose(z1, z)

    def test_minus_inf_proposal_rejected_in_place(self):
        def logp(z):
            x = np.asarray(z)[:, 0]
            return np.where(np.abs(x) < 1.0, 0.0, -np.inf)

        cfg = HmcConfig(step_size=50.0, n_leapfrog=1, mass=np.ones(1))
        rng = np.random.default_rng(3)
        z = np.zeros((16, 1))
        z1, accepted, _ = hmc_step(z, fused(logp, lambda x: np.zeros_like(x)), cfg, rng)
        assert not accepted.any()
        assert np.array_equal(z1, z)

    def test_long_chain_moments_match_standard_normal(self):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=0.8, n_leapfrog=8, mass=np.ones(1))
        rng = np.random.default_rng(5)
        chains = 100
        z = rng.normal(size=(chains, 1))
        sums = np.zeros(chains)
        sq_sums = np.zeros(chains)
        steps = 1500
        for _ in range(steps):
            z, _, _ = hmc_step(z, fused(logp, grad), cfg, rng)
            sums += z[:, 0]
            sq_sums += z[:, 0] ** 2
        chain_means = sums / steps
        chain_vars = sq_sums / steps - chain_means**2
        se_mean = chain_means.std() / np.sqrt(chains)
        se_var = chain_vars.std() / np.sqrt(chains)
        assert abs(chain_means.mean()) < 4.0 * se_mean
        assert abs(chain_vars.mean() - 1.0) < 4.0 * se_var

    def test_deterministic_given_seed(self):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=0.4, n_leapfrog=6, mass=np.ones(2))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            z = np.zeros((8, 2))
            for _ in range(5):
                z, _, _ = hmc_step(z, fused(logp, grad), cfg, rng)
            runs.append(z)
        assert np.array_equal(runs[0], runs[1])


class TestTuneStepSize:
    @pytest.mark.parametrize("eps0", [1e-3, 3.0])
    def test_reaches_reasonable_acceptance(self, eps0):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=eps0, n_leapfrog=8, mass=np.ones(1))
        rng = np.random.default_rng(6)
        z = rng.normal(size=(64, 1))
        tuned, z, _ = tune_step_size(z, fused(logp, grad), cfg, rng, n_adapt=80)
        rates = []
        for _ in range(30):
            z, accepted, _ = hmc_step(z, fused(logp, grad), tuned, rng)
            rates.append(accepted.mean())
        assert 0.4 < np.mean(rates) < 0.95

    def test_zero_adapt_is_a_no_op(self):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=0.2, n_leapfrog=3, mass=np.ones(1))
        rng = np.random.default_rng(7)
        z = np.zeros((4, 1))
        tuned, z_out, _ = tune_step_size(z, fused(logp, grad), cfg, rng, n_adapt=0)
        assert tuned is cfg
        assert z_out is z


class TestBlocks:
    """Generators given one per block: each block runs as it would alone."""

    CHAINS = 16
    SEEDS = (3, 3, 8)
    STEPS = (0.05, 2.0, 0.5)
    # a different scale per block, so the blocks tune differently
    SCALES = (1.0, 4.0, 0.25)

    @staticmethod
    def gaussian_energy(scale):
        return lambda z: (-0.5 * np.sum(z * z / scale, axis=1), -z / scale)

    def energy(self):
        return self.gaussian_energy(np.repeat(self.SCALES, self.CHAINS)[:, None])

    def block_energy(self, b):
        return self.gaussian_energy(self.SCALES[b])

    def start(self):
        return np.random.default_rng(0).normal(size=(len(self.SEEDS) * self.CHAINS, 1))

    def test_tune_step_size_gives_each_block_its_serial_step(self):
        z = self.start()
        cfg = HmcConfig(step_size=np.repeat(self.STEPS, self.CHAINS), n_leapfrog=4, mass=np.ones(1))
        gens = [np.random.default_rng(seed) for seed in self.SEEDS]
        tuned, z_out, (lp, g) = tune_step_size(z, self.energy(), cfg, gens, n_adapt=25)
        for b, (seed, step) in enumerate(zip(self.SEEDS, self.STEPS)):
            rows = slice(b * self.CHAINS, (b + 1) * self.CHAINS)
            alone, z_b, (lp_b, g_b) = tune_step_size(
                z[rows], self.block_energy(b), replace(cfg, step_size=step),
                np.random.default_rng(seed), n_adapt=25,
            )
            assert np.all(tuned.step_size[rows] == alone.step_size)
            assert np.array_equal(z_out[rows], z_b)
            assert np.array_equal(lp[rows], lp_b) and np.array_equal(g[rows], g_b)
        assert len(set(tuned.step_size)) == len(self.SEEDS)

    def test_hmc_step_draws_each_block_from_its_own_generator(self):
        z = self.start()
        cfg = HmcConfig(step_size=np.repeat(self.STEPS, self.CHAINS), n_leapfrog=3, mass=np.ones(1))
        z_out, accepted, _ = hmc_step(z, self.energy(), cfg, [np.random.default_rng(s) for s in self.SEEDS])
        for b, (seed, step) in enumerate(zip(self.SEEDS, self.STEPS)):
            rows = slice(b * self.CHAINS, (b + 1) * self.CHAINS)
            z_b, acc_b, _ = hmc_step(z[rows], self.block_energy(b), replace(cfg, step_size=step),
                                     np.random.default_rng(seed))
            assert np.array_equal(z_out[rows], z_b)
            assert np.array_equal(accepted[rows], acc_b)


class CountingDensity:
    """Endpoint wrapper that records every batch it is evaluated on, by
    ``log_density``, ``gradient`` or ``value_and_grad``."""

    def __init__(self, density):
        self.calls = []
        self.density = replace(
            density,
            log_density=self._counted(density.log_density),
            gradient=self._counted(density.gradient),
            fused=self._counted(density.value_and_grad),
        )

    def _counted(self, fn):
        def wrapped(z):
            self.calls.append(np.array(z, copy=True))
            return fn(z)

        return wrapped


class TestEnergyContract:
    """One energy call per leapfrog position; the start state is carried."""

    L = 5

    def setup_toy(self, beta=0.4, q=0.5):
        base, target = CountingDensity(gaussian([-4.0], 3.0)), CountingDensity(gaussian([4.0], 1.0))
        path = QPath(base.density, target.density, q=q)
        rng = np.random.default_rng(12)
        z = rng.normal(size=(32, 1))
        energy = partial(path.value_and_grad, beta=beta)
        state = energy(z)
        for counter in (base, target):
            counter.calls.clear()
        cfg = HmcConfig(step_size=2.5, n_leapfrog=self.L, mass=np.ones(1))
        return path, (base, target), z, energy, state, cfg, rng

    def assert_calls(self, counters, z, expected):
        for counter in counters:
            assert len(counter.calls) == expected
            assert not any(np.array_equal(batch, z) for batch in counter.calls)

    def assert_state_fresh(self, path, z, state, beta=0.4):
        fresh = path.value_and_grad(z, beta)
        assert np.array_equal(state[0], fresh[0])
        assert np.array_equal(state[1], fresh[1])

    def test_hmc_step_evaluates_each_position_once(self):
        path, counters, z, energy, state, cfg, rng = self.setup_toy()
        z1, accepted, state1 = hmc_step(z, energy, cfg, rng, state=state)
        assert 0 < accepted.sum() < accepted.size
        self.assert_calls(counters, z, self.L)
        self.assert_state_fresh(path, z1, state1)

    def test_tune_step_size_sweep_carries_state(self):
        path, counters, z, energy, state, cfg, rng = self.setup_toy()
        n_adapt = 7
        _, z1, state1 = tune_step_size(z, energy, cfg, rng, n_adapt=n_adapt, state=state)
        self.assert_calls(counters, z, n_adapt * self.L)
        self.assert_state_fresh(path, z1, state1)
