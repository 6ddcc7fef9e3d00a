import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qanneal.densities import gaussian
from qanneal.hmc import HmcConfig, _block_means, hmc_step, leapfrog, tune_step_size
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
            HmcConfig(step_size=0.0, n_leapfrog=5)
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.1, n_leapfrog=0)

    def test_a_float_step_is_one_block(self):
        step_size = HmcConfig(0.5, 5).step_size
        assert isinstance(step_size, np.ndarray)
        assert np.array_equal(step_size, np.array([0.5]))


class TestLeapfrog:
    def test_zero_momentum_zero_gradient_is_identity(self):
        cfg = HmcConfig(step_size=0.3, n_leapfrog=7)
        z = np.array([[1.5, -0.25], [0.0, 2.0]])
        p = np.zeros_like(z)
        z1, p1, _ = leapfrog(z, p, lambda x: (np.zeros(len(x)), np.zeros_like(x)), cfg, np.zeros_like(z))
        assert np.array_equal(z1, z)
        assert np.array_equal(p1, p)

    def test_reversibility(self):
        rng = np.random.default_rng(0)
        cfg = HmcConfig(step_size=0.15, n_leapfrog=25)
        energy = fused(*standard_normal_energy())
        z0 = rng.normal(size=(6, 2))
        p0 = rng.normal(size=(6, 2))
        z1, p1, _ = leapfrog(z0, p0, energy, cfg, energy(z0)[1])
        z2, p2, _ = leapfrog(z1, -p1, energy, cfg, energy(z1)[1])
        np.testing.assert_allclose(z2, z0, atol=1e-8)
        np.testing.assert_allclose(-p2, p0, atol=1e-8)

    def test_energy_error_is_second_order_in_step(self):
        rng = np.random.default_rng(1)
        logp, grad = standard_normal_energy()
        z0 = rng.normal(size=(30, 1))
        p0 = rng.normal(size=(30, 1))

        def max_energy_error(eps):
            cfg = HmcConfig(step_size=eps, n_leapfrog=int(round(2.0 / eps)))
            z1, p1, _ = leapfrog(z0, p0, fused(logp, grad), cfg, grad(z0))
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

        cfg = HmcConfig(step_size=0.5, n_leapfrog=4)
        rng = np.random.default_rng(2)
        z = np.zeros((64, 1))
        z1, accepted, _ = hmc_step(z, fused(logp, lambda x: np.zeros_like(x)), cfg, rng,
                                   (logp(z), np.zeros_like(z)))
        assert accepted.all()
        assert not np.allclose(z1, z)

    def test_minus_inf_proposal_rejected_in_place(self):
        def logp(z):
            x = np.asarray(z)[:, 0]
            return np.where(np.abs(x) < 1.0, 0.0, -np.inf)

        cfg = HmcConfig(step_size=50.0, n_leapfrog=1)
        rng = np.random.default_rng(3)
        z = np.zeros((16, 1))
        z1, accepted, _ = hmc_step(z, fused(logp, lambda x: np.zeros_like(x)), cfg, rng,
                                   (logp(z), np.zeros_like(z)))
        assert not accepted.any()
        assert np.array_equal(z1, z)

    def test_long_chain_moments_match_standard_normal(self):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=0.8, n_leapfrog=8)
        rng = np.random.default_rng(5)
        chains = 100
        z = rng.normal(size=(chains, 1))
        sums = np.zeros(chains)
        sq_sums = np.zeros(chains)
        steps = 1500
        for _ in range(steps):
            z, _, _ = hmc_step(z, fused(logp, grad), cfg, rng, (logp(z), grad(z)))
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
        cfg = HmcConfig(step_size=0.4, n_leapfrog=6)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            z = np.zeros((8, 2))
            for _ in range(5):
                z, _, _ = hmc_step(z, fused(logp, grad), cfg, rng, (logp(z), grad(z)))
            runs.append(z)
        assert np.array_equal(runs[0], runs[1])

    def test_divergent_row_leaves_the_others_bit_identical(self):
        # a flat log-density whose gradient pushes outward: from 1.7e308 the
        # row's position overflows on the second step while its momentum and
        # log-density stay finite, so only the kernel's finiteness test can
        # reject it
        def energy(z):
            return np.zeros(len(z)), np.where(np.isfinite(z), z, 0.0)

        cfg = HmcConfig(step_size=0.3, n_leapfrog=5)
        z = np.random.default_rng(0).normal(size=(8, 2))
        bad = z.copy()
        bad[3] = 1.7e308
        runs = [hmc_step(start, energy, cfg, np.random.default_rng(7), energy(start)) for start in (z, bad)]
        (z1, acc, (lp, g)), (bad1, bad_acc, (bad_lp, bad_g)) = runs
        assert not bad_acc[3] and np.array_equal(bad1[3], bad[3])
        assert bad_lp[3] == 0.0 and np.array_equal(bad_g[3], bad[3])
        others = np.arange(8) != 3
        assert acc[others].any() and np.all(np.isfinite(z1))
        for got, want in ((bad1, z1), (bad_acc, acc), (bad_lp, lp), (bad_g, g)):
            assert np.array_equal(got[others], want[others])

    def test_an_overflowing_kinetic_energy_warns_nothing(self):
        # on N(0, 1e-30) the trajectory's last momentum is finite but its
        # square overflows: an infinite kinetic energy rejects the proposal
        den = gaussian(0.0, 1e-30)
        z = np.random.default_rng(0).normal(size=(8, 1)) * 1e-15
        state = den.value_and_grad(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z1, accepted, (lp, g) = hmc_step(z, den.value_and_grad, HmcConfig(0.5, 5),
                                             np.random.default_rng(1), state)
        assert not accepted.any()
        assert np.array_equal(z1, z)
        assert np.array_equal(lp, state[0]) and np.array_equal(g, state[1])


class TestBlockMeans:
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_each_block_is_its_np_mean(self, blocks):
        rng = np.random.default_rng(4)
        for values in (rng.uniform(size=blocks * 37), rng.uniform(size=blocks * 37) < 0.65):
            got = _block_means(values, blocks)
            want = np.array([np.mean(run) for run in np.split(values, blocks)])
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTuneStepSize:
    @pytest.mark.parametrize("eps0", [1e-3, 3.0])
    def test_reaches_reasonable_acceptance(self, eps0):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=eps0, n_leapfrog=8)
        rng = np.random.default_rng(6)
        z = rng.normal(size=(64, 1))
        tuned, z, _ = tune_step_size(z, fused(logp, grad), cfg, rng, n_adapt=80, state=(logp(z), grad(z)))
        rates = []
        for _ in range(30):
            z, accepted, _ = hmc_step(z, fused(logp, grad), tuned, rng, (logp(z), grad(z)))
            rates.append(accepted.mean())
        assert 0.4 < np.mean(rates) < 0.95

    def test_zero_adapt_is_a_no_op(self):
        logp, grad = standard_normal_energy()
        cfg = HmcConfig(step_size=0.2, n_leapfrog=3)
        rng = np.random.default_rng(7)
        z = np.zeros((4, 1))
        tuned, z_out, _ = tune_step_size(z, fused(logp, grad), cfg, rng, n_adapt=0, state=(logp(z), grad(z)))
        assert tuned is cfg
        assert z_out is z

    def test_negative_adapt_is_rejected(self):
        logp, grad = standard_normal_energy()
        with pytest.raises(ValueError, match="n_adapt"):
            tune_step_size(np.zeros((4, 1)), fused(logp, grad), HmcConfig(step_size=0.2, n_leapfrog=3),
                           np.random.default_rng(7), n_adapt=-1, state=(np.zeros(4), np.zeros((4, 1))))


class TestBlocks:
    """A step per block on one generator: the blocks share its common random
    numbers, and each block runs as it would alone."""

    CHAINS = 16
    SEED = 3
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
        return np.random.default_rng(0).normal(size=(len(self.STEPS) * self.CHAINS, 1))

    def test_tune_step_size_gives_each_block_its_serial_step(self):
        z = self.start()
        cfg = HmcConfig(step_size=np.array(self.STEPS), n_leapfrog=4)
        rng = np.random.default_rng(self.SEED)
        tuned, z_out, (lp, g) = tune_step_size(z, self.energy(), cfg, rng, n_adapt=25, state=self.energy()(z))
        for b, step in enumerate(self.STEPS):
            rows = slice(b * self.CHAINS, (b + 1) * self.CHAINS)
            alone, z_b, (lp_b, g_b) = tune_step_size(
                z[rows], self.block_energy(b), replace(cfg, step_size=step),
                np.random.default_rng(self.SEED), n_adapt=25, state=self.block_energy(b)(z[rows]),
            )
            assert tuned.step_size[b] == alone.step_size
            assert np.array_equal(z_out[rows], z_b)
            assert np.array_equal(lp[rows], lp_b) and np.array_equal(g[rows], g_b)
        assert tuned.step_size.shape == (len(self.STEPS),)
        assert len(set(tuned.step_size)) == len(self.STEPS)

    def test_hmc_step_blocks_share_one_stream(self):
        z = self.start()
        cfg = HmcConfig(step_size=np.array(self.STEPS), n_leapfrog=3)
        rng = np.random.default_rng(self.SEED)
        z_out, accepted, _ = hmc_step(z, self.energy(), cfg, rng, self.energy()(z))
        for b, step in enumerate(self.STEPS):
            rows = slice(b * self.CHAINS, (b + 1) * self.CHAINS)
            alone = np.random.default_rng(self.SEED)
            z_b, acc_b, _ = hmc_step(z[rows], self.block_energy(b), replace(cfg, step_size=step), alone,
                                     self.block_energy(b)(z[rows]))
            assert np.array_equal(z_out[rows], z_b)
            assert np.array_equal(accepted[rows], acc_b)
            # the blocks drew one block's numbers, not one set per block
            assert alone.bit_generator.state == rng.bit_generator.state


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
        cfg = HmcConfig(step_size=2.5, n_leapfrog=self.L)
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
