import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import counted, piecewise_density
from qanneal.densities import UnnormalizedDensity, gaussian, pareto, with_log_scale
from qanneal.hmc import HmcConfig
from qanneal.paths import QPath
from qanneal.samplers import (
    AisResult,
    WeightCollapseError,
    _log_sum_exp,
    ais_forward,
    ais_reverse,
    bdmc_gap,
    ess_of_log_weights,
    smc_run,
    systematic_resample,
)


def small_cfg(dim=1, step=0.4, n_leapfrog=8):
    return HmcConfig(step_size=step, n_leapfrog=n_leapfrog, mass=np.ones(dim))


def log_z_two_problem():
    # Base N(0,1) against e^2 * N(2,1): true log(Z1/Z0) = 2.
    base = gaussian(np.array([0.0]), np.array([[1.0]]))
    target = with_log_scale(gaussian(np.array([2.0]), np.array([[1.0]])), 2.0)
    return QPath(base, target, q=1.0)


def weight_se(result):
    w = np.exp(result.per_chain_log_w - result.per_chain_log_w.max())
    return w.std() / (w.mean() * math.sqrt(w.size))


class TestEss:
    def test_equal_weights_give_n(self):
        assert ess_of_log_weights(np.full(10, -3.0)) == pytest.approx(10.0, rel=1e-12)

    def test_single_finite_weight_gives_one(self):
        lw = np.array([-np.inf, 2.5, -np.inf])
        assert ess_of_log_weights(lw) == pytest.approx(1.0, abs=1e-15)

    def test_two_to_one_weights(self):
        assert ess_of_log_weights(np.log([2.0, 1.0])) == pytest.approx(1.8, rel=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            lw = rng.normal(size=7)
            w = np.exp(lw)
            direct = w.sum() ** 2 / np.sum(w**2)
            assert ess_of_log_weights(lw) == pytest.approx(direct, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            lw = rng.normal(scale=5.0, size=12)
            ess = ess_of_log_weights(lw)
            assert 1.0 <= ess <= 12.0 + 1e-9

    def test_all_minus_inf_rejected(self):
        with pytest.raises(ValueError):
            ess_of_log_weights(np.array([-np.inf, -np.inf]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ess_of_log_weights(np.array([0.0, np.nan]))

    def test_matches_the_log_sum_exp_formula(self):
        rng = np.random.default_rng(2)
        for size in (1, 2, 7, 256):
            for scale in (0.1, 3.0, 30.0):
                lw = rng.normal(scale=scale, size=size)
                lw[1:][rng.random(size - 1) < 0.3] = -np.inf
                old = math.exp(2.0 * logsumexp(lw) - logsumexp(2.0 * lw))
                assert ess_of_log_weights(lw) == pytest.approx(old, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e4, 1e300])
    def test_finite_and_bounded_at_huge_log_weights(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lw = scale * rng.standard_normal(50)
            lw[:2] = lw.max()
            lw[-1] = -np.inf
            ess = ess_of_log_weights(lw)
            assert math.isfinite(ess)
            assert 2.0 <= ess <= 50.0
        assert ess_of_log_weights(np.full(50, -scale)) == 50.0


class TestLogSumExp:
    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for scale in (0.1, 10.0, 1e4):
            lw = scale * rng.standard_normal(100)
            lw[::7] = -np.inf
            assert _log_sum_exp(lw) == pytest.approx(logsumexp(lw), rel=1e-14, abs=1e-14)

    def test_all_minus_inf_is_minus_inf(self):
        assert _log_sum_exp(np.full(3, -np.inf)) == -np.inf


class TestSystematicResample:
    def test_degenerate_weight_takes_all(self):
        rng = np.random.default_rng(2)
        lw = np.array([0.0, -np.inf, -np.inf])
        idx = systematic_resample(lw, rng)
        assert np.array_equal(idx, np.zeros(3, dtype=int))

    def test_uniform_weights_copy_each_once(self):
        rng = np.random.default_rng(3)
        idx = systematic_resample(np.zeros(5), rng)
        assert np.array_equal(np.sort(idx), np.arange(5))

    def test_three_quarter_one_quarter_counts(self):
        lw = np.log([0.75, 0.25])
        for seed in range(20):
            idx = systematic_resample(np.concatenate([lw, [-np.inf, -np.inf]]),
                                      np.random.default_rng(seed))
            # Weights (0.75, 0.25) with N=4 strata force counts (3, 1).
            counts = np.bincount(idx, minlength=4)
            assert counts[0] == 3 and counts[1] == 1

    def test_all_minus_inf_rejected(self):
        with pytest.raises(ValueError):
            systematic_resample(np.array([-np.inf, -np.inf]), np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        lw = np.random.default_rng(4).normal(size=30)
        a = systematic_resample(lw, np.random.default_rng(11))
        b = systematic_resample(lw, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_same_indices_as_log_sum_exp_normalisation(self):
        n = 64
        for seed in range(20):
            gen = np.random.default_rng(seed)
            lw = gen.normal(scale=5.0, size=n)
            lw[1:][gen.random(n - 1) < 0.2] = -np.inf
            w = np.exp(lw - logsumexp(lw))
            w = w / np.sum(w)
            positions = (np.random.default_rng(seed).uniform() + np.arange(n)) / n
            want = np.minimum(np.searchsorted(np.cumsum(w), positions, side="right"), n - 1)
            assert np.array_equal(systematic_resample(lw, np.random.default_rng(seed)), want)


class TestAisForward:
    def test_identical_endpoints_estimate_exactly_zero(self):
        g = gaussian(np.array([0.5]), np.array([[2.0]]))
        path = QPath(g, g, q=0.7)
        res = ais_forward(path, np.linspace(0.0, 1.0, 5), chains=8,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(5), adapt_steps=0)
        assert res.log_Z_estimate == 0.0
        assert np.array_equal(res.per_chain_log_w, np.zeros(8))

    def test_single_step_schedule_is_importance_sampling(self):
        path = log_z_two_problem()
        res = ais_forward(path, np.array([0.0, 1.0]), chains=64,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(7), adapt_steps=0)
        z = path.base.exact_sampler(np.random.default_rng(7), 64)
        expected = path.target.log_density(z) - path.base.log_density(z)
        assert np.array_equal(res.per_chain_log_w, expected)

    def test_recovers_constructed_log_z(self):
        path = log_z_two_problem()
        res = ais_forward(path, np.linspace(0.0, 1.0, 31), chains=300,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(11))
        se = weight_se(res)
        assert se < 0.5
        assert abs(res.log_Z_estimate - 2.0) < 3.0 * se

    def test_estimate_is_log_mean_exp_of_weights(self):
        path = log_z_two_problem()
        res = ais_forward(path, np.linspace(0.0, 1.0, 6), chains=40,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(13))
        w = res.per_chain_log_w
        m = w.max()
        recomputed = m + math.log(np.mean(np.exp(w - m)))
        assert res.log_Z_estimate == pytest.approx(recomputed, abs=1e-12)
        assert res.n_dropped == 0
        assert res.acceptance_trace.shape == (5,)

    def test_lower_bound_direction_over_seeds(self):
        path = log_z_two_problem()
        estimates = []
        for seed in range(12):
            res = ais_forward(path, np.linspace(0.0, 1.0, 11), chains=80,
                              cfg=small_cfg(), moves_per_step=1,
                              rng=np.random.default_rng(seed), adapt_steps=5)
            estimates.append(res.log_Z_estimate)
        estimates = np.asarray(estimates)
        se = estimates.std() / math.sqrt(estimates.size)
        assert estimates.mean() <= 2.0 + 2.0 * se

    def test_dead_chains_dropped_with_warning(self):
        base = gaussian(np.array([0.0]), np.array([[1.0]]))

        def trunc_lp(z):
            z = np.asarray(z, dtype=float)
            batch = z if z.ndim == 2 else z[None, :]
            x = batch[:, 0]
            lp = np.where(x > 0.0, -0.5 * (x - 1.0) ** 2, -np.inf)
            return lp if z.ndim == 2 else lp[0]

        def trunc_grad(z):
            z = np.asarray(z, dtype=float)
            batch = z if z.ndim == 2 else z[None, :]
            g = -(batch - 1.0) * (batch[:, :1] > 0.0)
            return g if z.ndim == 2 else g[0]

        target = UnnormalizedDensity(dim=1, log_density=trunc_lp, gradient=trunc_grad)
        path = QPath(base, target, q=1.0)
        with pytest.warns(RuntimeWarning, match="-inf weights"):
            res = ais_forward(path, np.linspace(0.0, 1.0, 4), chains=50,
                              cfg=small_cfg(), moves_per_step=1,
                              rng=np.random.default_rng(17), adapt_steps=0)
        assert 0 < res.n_dropped < 50
        assert math.isfinite(res.log_Z_estimate)

    def test_total_collapse_raises(self):
        base = gaussian(np.array([0.0]), np.array([[1.0]]))

        def dead_lp(z):
            z = np.asarray(z, dtype=float)
            batch = z if z.ndim == 2 else z[None, :]
            lp = np.full(batch.shape[0], -np.inf)
            return lp if z.ndim == 2 else lp[0]

        target = UnnormalizedDensity(
            dim=1, log_density=dead_lp, gradient=lambda z: np.zeros_like(z)
        )
        path = QPath(base, target, q=1.0)
        with pytest.raises(WeightCollapseError):
            ais_forward(path, np.array([0.0, 1.0]), chains=10,
                        cfg=small_cfg(), moves_per_step=0,
                        rng=np.random.default_rng(19), adapt_steps=0)

    def test_requires_base_sampler(self):
        base = gaussian(np.array([0.0]), np.array([[1.0]]))
        stripped = UnnormalizedDensity(
            dim=1, log_density=base.log_density, gradient=base.gradient
        )
        path = QPath(stripped, base, q=1.0)
        with pytest.raises(ValueError, match="exact sampler"):
            ais_forward(path, np.array([0.0, 1.0]), chains=4,
                        cfg=small_cfg(), moves_per_step=1,
                        rng=np.random.default_rng(0))


class TestAisReverseAndGap:
    def test_identical_endpoints_estimate_exactly_zero(self):
        g = gaussian(np.array([0.0]), np.array([[1.0]]))
        path = QPath(g, g, q=1.0)
        samples = g.exact_sampler(np.random.default_rng(23), 16)
        res = ais_reverse(path, np.linspace(0.0, 1.0, 5), samples,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(23), adapt_steps=0)
        assert res.log_Z_estimate == 0.0
        assert np.array_equal(res.per_chain_log_w, np.zeros(16))

    def test_gap_zero_for_identical_endpoints(self):
        g = gaussian(np.array([0.0]), np.array([[1.0]]))
        path = QPath(g, g, q=1.0)
        rng = np.random.default_rng(29)
        fwd = ais_forward(path, np.linspace(0.0, 1.0, 4), chains=8,
                          cfg=small_cfg(), moves_per_step=1, rng=rng, adapt_steps=0)
        rev = ais_reverse(path, np.linspace(0.0, 1.0, 4),
                          g.exact_sampler(rng, 8),
                          cfg=small_cfg(), moves_per_step=1, rng=rng, adapt_steps=0)
        assert bdmc_gap(fwd, rev) == 0.0

    def test_sandwich_brackets_truth_in_median(self):
        # Wide-apart endpoints keep the gap at a few tenths of a nat, far
        # above the seed-to-seed noise, so a 10-seed median is stable.
        base = gaussian(np.array([-4.0]), np.array([[3.0]]))
        target = with_log_scale(gaussian(np.array([4.0]), np.array([[1.0]])), 2.0)
        path = QPath(base, target, q=1.0)
        gaps, lowers, uppers = [], [], []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            schedule = np.linspace(0.0, 1.0, 9)
            fwd = ais_forward(path, schedule, chains=64, cfg=small_cfg(),
                              moves_per_step=1, rng=rng, adapt_steps=5)
            samples = path.target.exact_sampler(rng, 64)
            rev = ais_reverse(path, schedule, samples, cfg=small_cfg(),
                              moves_per_step=1, rng=rng, adapt_steps=5)
            lowers.append(fwd.log_Z_estimate)
            uppers.append(-rev.log_Z_estimate)
            gaps.append(bdmc_gap(fwd, rev))
        # The bound property constrains the means (Jensen direction); the
        # per-seed medians are too noisy on this pair to pin down.
        assert np.median(gaps) > 0.0
        se_low = np.std(lowers) / math.sqrt(len(lowers))
        se_up = np.std(uppers) / math.sqrt(len(uppers))
        assert np.mean(lowers) <= 2.0 + 2.0 * se_low
        assert np.mean(uppers) >= 2.0 - 2.0 * se_up


class TestAisBlocks:
    """Chains in blocks, one generator each: every block is its serial run."""

    QS = (1.5, 0.5, 2.0)
    SEEDS = (4, 4, 9)
    CHAINS = 24

    def assert_same(self, got: AisResult, want: AisResult):
        assert got.log_Z_estimate == want.log_Z_estimate
        assert got.n_dropped == want.n_dropped
        assert np.array_equal(got.per_chain_log_w, want.per_chain_log_w)
        assert np.array_equal(got.schedule_used, want.schedule_used)
        assert np.array_equal(got.acceptance_trace, want.acceptance_trace, equal_nan=True)
        assert np.array_equal(got.ess_trace, want.ess_trace, equal_nan=True)

    @pytest.mark.parametrize("adapt_steps", [0, 3])
    def test_forward_and_reverse_blocks_are_their_serial_runs(self, adapt_steps):
        # the target lives on x >= 0, so chains of the q > 1 blocks drop out
        base, target = gaussian([0.0], 1.0), pareto(0.0, 1.0, 0.0)
        path = QPath(base, target, q=np.repeat(self.QS, self.CHAINS))
        schedule, cfg = np.linspace(0.0, 1.0, 5), small_cfg()
        gens = [np.random.default_rng(seed) for seed in self.SEEDS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fwd = ais_forward(path, schedule, self.CHAINS, cfg, 2, gens, adapt_steps=adapt_steps)
            draws = np.concatenate([target.exact_sampler(g, self.CHAINS) for g in gens])
            rev = ais_reverse(path, schedule, draws, cfg, 2, gens, adapt_steps=adapt_steps)
            for b, (q, seed) in enumerate(zip(self.QS, self.SEEDS)):
                alone = QPath(base, target, q=q)
                rng = np.random.default_rng(seed)
                want_fwd = ais_forward(alone, schedule, self.CHAINS, cfg, 2, rng, adapt_steps=adapt_steps)
                want_rev = ais_reverse(alone, schedule, target.exact_sampler(rng, self.CHAINS),
                                       cfg, 2, rng, adapt_steps=adapt_steps)
                self.assert_same(fwd.blocks()[b], want_fwd)
                self.assert_same(rev.blocks()[b], want_rev)
        assert fwd.log_Z_estimate.shape == (3,)
        assert fwd.n_dropped[0] > 0

    def test_chains_must_split_into_the_blocks(self):
        g = gaussian([0.0], 1.0)
        with pytest.raises(ValueError, match="equal blocks"):
            ais_reverse(QPath(g, g, q=0.5), [0.0, 1.0], np.zeros((5, 1)), small_cfg(), 1,
                        [np.random.default_rng(0), np.random.default_rng(1)])


class TestSmc:
    def test_identical_endpoints_fixed_schedule_exactly_zero(self):
        g = gaussian(np.array([1.0]), np.array([[1.5]]))
        path = QPath(g, g, q=0.5)
        log_z, diag = smc_run(path, np.linspace(0.0, 1.0, 5), particles=16,
                              moves_per_step=1, cfg=small_cfg(),
                              rng=np.random.default_rng(31), adapt_steps=0)
        assert log_z == 0.0
        assert diag.beta_trace[0] == 0.0 and diag.beta_trace[-1] == 1.0

    @pytest.mark.parametrize("q", [1.0, 0.8])
    def test_adaptive_step_evaluates_each_endpoint_once_for_its_bisection(self, q):
        calls = {}
        two = log_z_two_problem()
        path = QPath(counted(two.base, calls, "base"), counted(two.target, calls, "target"), q=q)
        _, diag = smc_run(path, "adaptive", particles=64, moves_per_step=0,
                          cfg=small_cfg(), rng=5, adapt_steps=0)
        steps = len(diag.beta_trace) - 1
        assert steps >= 3
        # per step one evaluation that every bisection iteration blends and
        # the state at the new beta reuses; the first step reuses the base
        # evaluation of the start, and the last step's jump to beta = 1
        # needs the target alone
        assert calls["base"] == steps - 1
        assert calls["target"] == steps

    def test_identical_endpoints_adaptive_exactly_zero(self):
        g = gaussian(np.array([1.0]), np.array([[1.5]]))
        path = QPath(g, g, q=1.0)
        log_z, diag = smc_run(path, "adaptive", particles=16,
                              moves_per_step=1, cfg=small_cfg(),
                              rng=np.random.default_rng(37), adapt_steps=0)
        assert log_z == 0.0
        # The incremental ESS at beta = 1 equals N, so the cap fires at once.
        assert np.array_equal(diag.beta_trace, np.array([0.0, 1.0]))

    def test_bit_reproducible_given_seed(self):
        path = log_z_two_problem()
        out = []
        for _ in range(2):
            log_z, diag = smc_run(path, np.linspace(0.0, 1.0, 9), particles=64,
                                  moves_per_step=2, cfg=small_cfg(),
                                  rng=123, adapt_steps=4)
            out.append((log_z, diag))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][1].ess_trace, out[1][1].ess_trace)
        assert np.array_equal(out[0][1].positions, out[1][1].positions)

    def test_recovers_constructed_log_z(self):
        # Three coarse steps force the carried ESS below N/2 at least once.
        path = log_z_two_problem()
        log_z, diag = smc_run(path, np.linspace(0.0, 1.0, 4), particles=512,
                              moves_per_step=2, cfg=small_cfg(),
                              rng=np.random.default_rng(41), adapt_steps=8)
        assert abs(log_z - 2.0) < 0.4
        assert diag.resample_count >= 1

    def test_adaptive_schedule_recovers_log_z(self):
        path = log_z_two_problem()
        log_z, diag = smc_run(path, "adaptive", particles=256,
                              moves_per_step=1, cfg=small_cfg(),
                              rng=np.random.default_rng(43), adapt_steps=8)
        assert abs(log_z - 2.0) < 0.5
        assert np.all(np.diff(diag.beta_trace) > 0.0)
        assert diag.beta_trace[-1] == 1.0
        # Adaptive mode resamples after every step.
        assert diag.resample_count == diag.beta_trace.size - 1

    def test_unbiased_on_enumerable_histogram_target(self):
        heights = np.array([0.5, 2.0, 1.0, 1.5])
        base = piecewise_density(np.ones(4))
        target = piecewise_density(heights)
        path = QPath(base, target, q=1.0)
        true_z = float(np.mean(heights))
        cfg = HmcConfig(step_size=0.25, n_leapfrog=5, mass=np.ones(1))
        z_hats = []
        for seed in range(60):
            log_z, _ = smc_run(path, np.linspace(0.0, 1.0, 5), particles=64,
                               moves_per_step=2, cfg=cfg, rng=seed,
                               adapt_steps=0)
            z_hats.append(math.exp(log_z))
        z_hats = np.asarray(z_hats)
        se = z_hats.std() / math.sqrt(z_hats.size)
        assert abs(z_hats.mean() - true_z) < 4.0 * se

    def test_collapse_raises_with_diagnostics(self):
        base = gaussian(np.array([0.0]), np.array([[1.0]]))

        def dead_lp(z):
            z = np.asarray(z, dtype=float)
            batch = z if z.ndim == 2 else z[None, :]
            lp = np.full(batch.shape[0], -np.inf)
            return lp if z.ndim == 2 else lp[0]

        target = UnnormalizedDensity(
            dim=1, log_density=dead_lp, gradient=lambda z: np.zeros_like(z)
        )
        path = QPath(base, target, q=1.0)
        with pytest.raises(WeightCollapseError) as excinfo:
            smc_run(path, np.linspace(0.0, 1.0, 3), particles=8,
                    moves_per_step=1, cfg=small_cfg(),
                    rng=np.random.default_rng(47), adapt_steps=0)
        assert "beta_trace" in excinfo.value.diagnostics

    @pytest.mark.parametrize("ess_fraction", [1.5, 0.0, -0.5, math.nan])
    def test_adaptive_rejects_unreachable_ess_fraction_at_once(self, ess_fraction):
        # the ESS never exceeds N, so a target above it could never be met;
        # the call must fail before the base is sampled, without warnings
        base, target = gaussian([-4.0], 3.0), gaussian([4.0], 1.0)

        def sampler(rng, n):
            raise AssertionError("sampled before the config was checked")

        path = QPath(replace(base, exact_sampler=sampler), target, q=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ess_fraction"):
                smc_run(path, "adaptive", particles=16, moves_per_step=0,
                        cfg=small_cfg(), rng=0, ess_fraction=ess_fraction)


class TestAisResultType:
    def test_fields_round_trip(self):
        res = AisResult(
            log_Z_estimate=0.5,
            per_chain_log_w=np.array([0.4, 0.6]),
            schedule_used=np.array([0.0, 1.0]),
            acceptance_trace=np.array([0.9]),
        )
        assert res.n_dropped == 0
        assert res.schedule_used[-1] == 1.0
