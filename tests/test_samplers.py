import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr

from conftest import counted, pareto, piecewise_density
from qanneal import samplers
from qanneal.densities import UnnormalizedDensity, gaussian, student_t, with_log_scale
from qanneal.hmc import HmcConfig, _noise
from qanneal.io import TRACES
from qanneal.paths import AnnealingPath, MomentPath, QPath
from qanneal.samplers import (
    AnnealRun,
    WeightCollapseError,
    _anneal,
    _log_sum_exp,
    ais_forward,
    ais_reverse,
    bdmc_gap,
    ess_of_log_weights,
    smc_run,
    systematic_resample,
)
from qanneal.schedules import linear_schedule


def small_cfg(step=0.4, n_leapfrog=8):
    return HmcConfig(step_size=step, n_leapfrog=n_leapfrog)


def log_z_two_problem():
    # Base N(0,1) against e^2 * N(2,1): true log(Z1/Z0) = 2.
    base = gaussian(np.array([0.0]), np.array([[1.0]]))
    target = with_log_scale(gaussian(np.array([2.0]), np.array([[1.0]])), 2.0)
    return QPath(base, target, q=1.0)


def truncated_path():
    # N(0,1) toward exp(-(x-1)^2 / 2) on x > 0, whose Z is sqrt(2 pi) Phi(1);
    # chains that start at x <= 0 die at the first step
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

    @pytest.mark.parametrize("one_finite", [False, True])
    @pytest.mark.parametrize("shape", [(1,), (7,), (256,), (3, 1), (5, 64), (30, 256)])
    def test_rows_are_the_plain_formula_to_the_bit(self, shape, one_finite):
        rng = np.random.default_rng(sum(shape))
        lw = rng.normal(0.0, 5.0, shape)
        lw[..., 1:][rng.random(lw[..., 1:].shape) < 0.2] = -np.inf
        if one_finite:
            lw.reshape(-1, shape[-1])[0, 1:] = -np.inf  # the first row keeps one finite entry
        before = lw.copy()
        got = np.asarray(samplers._ess_rows(lw))
        w = np.exp(lw - np.max(lw, axis=-1, keepdims=True))
        total = np.sum(w, axis=-1)
        want = np.asarray(total * total / np.sum(w * w, axis=-1))
        assert got.shape == want.shape == shape[:-1]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the weights are squared in a buffer of their own
        assert np.array_equal(lw, before)


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
        assert res.steps["acceptance_trace"].shape == (5,)

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
        with pytest.warns(RuntimeWarning, match="-inf weights"):
            res = ais_forward(truncated_path(), np.linspace(0.0, 1.0, 4), chains=50,
                              cfg=small_cfg(), moves_per_step=1,
                              rng=np.random.default_rng(17), adapt_steps=0)
        assert 0 < res.n_dropped < 50
        assert math.isfinite(res.log_Z_estimate)

    def test_dead_chains_count_as_zero_weight(self):
        # dropping dead chains from the mean, instead of counting them as
        # zero weights, overestimates Z here by about a factor of two
        path, true_z = truncated_path(), math.sqrt(2.0 * math.pi) * ndtr(1.0)
        z_hats = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for seed in range(200):
                res = ais_forward(path, np.linspace(0.0, 1.0, 11), chains=64,
                                  cfg=small_cfg(), moves_per_step=1,
                                  rng=np.random.default_rng(seed), adapt_steps=0)
                z_hats.append(math.exp(res.log_Z_estimate))
        z_hats = np.asarray(z_hats)
        se = z_hats.std() / math.sqrt(z_hats.size)
        assert abs(z_hats.mean() - true_z) < 4.0 * se

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
        with pytest.raises(WeightCollapseError) as excinfo:
            ais_forward(path, np.linspace(0.0, 1.0, 5), chains=10,
                        cfg=small_cfg(), moves_per_step=0,
                        rng=np.random.default_rng(19), adapt_steps=0)
        # the first step kills every chain, and the run stops there
        assert np.array_equal(excinfo.value.diagnostics["beta_trace"], [0.0, 0.25])

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

    def test_samples_must_be_a_batch(self):
        path = log_z_two_problem()
        with pytest.raises(ValueError, match=r"\(n, d\) batch"):
            ais_reverse(path, np.linspace(0.0, 1.0, 3), np.zeros(8), cfg=small_cfg(),
                        moves_per_step=1, rng=np.random.default_rng(0))

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

    def test_reverse_traces_run_down_their_betas(self):
        # the traces follow the run from 1 down to 0, one entry per later beta
        path = log_z_two_problem()
        schedule = np.array([0.0, 0.2, 0.5, 1.0])
        rng = np.random.default_rng(37)
        rev = ais_reverse(path, schedule, path.target.exact_sampler(rng, 8), cfg=small_cfg(),
                          moves_per_step=1, rng=rng, adapt_steps=0)
        assert np.array_equal(rev.beta_trace, schedule[::-1])
        assert rev.steps["ess_trace"].shape == rev.steps["acceptance_trace"].shape == (3,)
        assert np.array_equal(rev.schedule_used, schedule)
        assert rev.positions.shape == (8, 1)

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
    """Chains in blocks, one step size each, on one generator: every block
    is its serial run on a generator of the same seed."""

    QS = (1.5, 0.5, 2.0)
    STEPS = (0.4, 0.25, 0.6)
    SEED = 4
    CHAINS = 24

    def assert_same(self, got: AnnealRun, want: AnnealRun):
        assert got.log_Z_estimate == want.log_Z_estimate
        assert got.n_dropped == want.n_dropped
        assert np.array_equal(got.per_chain_log_w, want.per_chain_log_w)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.beta_trace, want.beta_trace)
        assert np.array_equal(got.schedule_used, want.schedule_used)
        assert got.steps.keys() == want.steps.keys()
        for name, column in want.steps.items():
            assert np.array_equal(got.steps[name], column, equal_nan=True), name

    def sandwich(self, path, target, cfg, rng, adapt_steps):
        """Forward AIS, then reverse AIS from target draws, each block's
        draws the same: what ``grid-q`` runs."""
        schedule = np.linspace(0.0, 1.0, 5)
        fwd = ais_forward(path, schedule, self.CHAINS, cfg, 2, rng, adapt_steps=adapt_steps)
        draws = target.exact_sampler(rng, self.CHAINS)
        rev = ais_reverse(path, schedule, draws, cfg, 2, rng, adapt_steps=adapt_steps)
        return fwd, rev

    @pytest.mark.parametrize("adapt_steps", [0, 3])
    def test_forward_and_reverse_blocks_are_their_serial_runs(self, adapt_steps):
        # the target lives on x >= 0, so chains of the q > 1 blocks drop out
        base, target = gaussian([0.0], 1.0), pareto(0.0, 1.0, 0.0)
        path = QPath(base, target, q=np.repeat(self.QS, self.CHAINS))
        cfg = replace(small_cfg(), step_size=np.array(self.STEPS))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fwd, rev = self.sandwich(path, target, cfg, np.random.default_rng(self.SEED), adapt_steps)
            for b, (q, step) in enumerate(zip(self.QS, self.STEPS)):
                want_fwd, want_rev = self.sandwich(
                    QPath(base, target, q=q), target, replace(cfg, step_size=step),
                    np.random.default_rng(self.SEED), adapt_steps,
                )
                self.assert_same(fwd.blocks()[b], want_fwd)
                self.assert_same(rev.blocks()[b], want_rev)
        assert fwd.log_Z_estimate.shape == (3,)
        assert fwd.n_dropped[0] > 0

    def test_blocked_gaps_are_the_gaps_of_the_blocks(self):
        base, target = gaussian([0.0], 1.0), gaussian([1.0], 0.5)
        path = QPath(base, target, q=np.repeat(self.QS, self.CHAINS))
        cfg = replace(small_cfg(), step_size=np.array(self.STEPS))
        fwd, rev = self.sandwich(path, target, cfg, np.random.default_rng(self.SEED), 3)
        gaps = bdmc_gap(fwd, rev)
        assert gaps.shape == (3,)
        assert list(gaps) == [bdmc_gap(f, r) for f, r in zip(fwd.blocks(), rev.blocks())]
        assert all(type(bdmc_gap(f, r)) is float for f, r in zip(fwd.blocks(), rev.blocks()))

    def test_blocks_draw_one_stream_once(self):
        # the whole sandwich leaves the generator where one serial block does
        base, target = gaussian([0.0], 1.0), gaussian([1.0], 0.5)
        path = QPath(base, target, q=np.repeat(self.QS, self.CHAINS))
        cfg = replace(small_cfg(), step_size=np.array(self.STEPS))
        rng, alone = np.random.default_rng(self.SEED), np.random.default_rng(self.SEED)
        self.sandwich(path, target, cfg, rng, 3)
        self.sandwich(QPath(base, target, q=self.QS[0]), target, replace(cfg, step_size=self.STEPS[0]),
                      alone, 3)
        assert rng.bit_generator.state == alone.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(self.SEED).bit_generator.state

    def test_resampling_takes_one_generator(self):
        # one generator and one block: resampling across blocks is undefined
        g = gaussian([0.0], 1.0)
        cfg = replace(small_cfg(), step_size=np.array([0.4, 0.4]))
        with pytest.raises(ValueError, match="one block"):
            _anneal(QPath(g, g, q=0.5), np.zeros((4, 1)), cfg, 1, np.random.default_rng(0), 0,
                    np.array([0.0, 1.0]), None, 2.0)


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
        assert np.array_equal(out[0][1].steps["ess_trace"], out[1][1].steps["ess_trace"])
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
        cfg = HmcConfig(step_size=0.25, n_leapfrog=5)
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

    @pytest.mark.parametrize("schedule", [np.linspace(0.0, 1.0, 5), "adaptive"])
    def test_dead_target_collapses_on_either_schedule(self, schedule):
        # N(0,1) draws never reach z > 50, so every chain dies at the first
        # step: the adaptive bisection reads that as ESS 0, not a bad input,
        # and the collapse raises with no warning ahead of it
        base = gaussian(np.array([0.0]), np.array([[1.0]]))

        def far_lp(z):
            z = np.asarray(z, dtype=float)
            return np.where(z[..., 0] > 50.0, 0.0, -np.inf)

        target = UnnormalizedDensity(dim=1, log_density=far_lp, gradient=np.zeros_like)
        path = QPath(base, target, q=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeightCollapseError) as excinfo:
                smc_run(path, schedule, 16, moves_per_step=1, cfg=small_cfg(), rng=5)
        trace = excinfo.value.diagnostics["beta_trace"]
        assert trace[0] == 0.0 and len(trace) == 2

    def test_never_resampling_is_forward_ais(self):
        # the default toy pair at q = 0.9 with default tuning: AIS is SMC
        # with ess_fraction 0, step for step
        base = gaussian([-4.0], 3.0)
        target = with_log_scale(gaussian([4.0], 1.0), 2.0)
        path = QPath(base, target, q=0.9)
        cfg = HmcConfig(step_size=0.5, n_leapfrog=5)
        grid = np.linspace(0.0, 1.0, 17)
        for seed in range(20):
            log_z, diag = smc_run(path, grid, particles=64, moves_per_step=1, cfg=cfg,
                                  rng=seed, ess_fraction=0.0)
            ais = ais_forward(path, grid, 64, cfg, 1, np.random.default_rng(seed))
            assert diag.resample_count == 0
            assert np.array_equal(diag.beta_trace, grid)
            assert np.array_equal(diag.steps["acceptance_trace"], ais.steps["acceptance_trace"])
            assert log_z == pytest.approx(ais.log_Z_estimate, abs=1e-12, rel=0.0)
            assert np.allclose(diag.steps["ess_trace"], ais.steps["ess_trace"], rtol=0.0, atol=1e-12)

    def test_never_resampling_warns_of_dead_chains_as_ais_does(self):
        # the loop warns of a block's dead chains, whichever estimator runs it
        grid, cfg = np.linspace(0.0, 1.0, 4), small_cfg()
        with pytest.warns(RuntimeWarning, match="-inf weights") as ais_warnings:
            ais = ais_forward(truncated_path(), grid, 50, cfg, 1, np.random.default_rng(17), adapt_steps=0)
        with pytest.warns(RuntimeWarning, match="-inf weights") as smc_warnings:
            log_z, smc = smc_run(truncated_path(), grid, 50, 1, cfg, 17, ess_fraction=0.0, adapt_steps=0)
        assert [str(w.message) for w in smc_warnings] == [str(w.message) for w in ais_warnings]
        assert len(ais_warnings) == 1 and smc.n_dropped == ais.n_dropped == 27
        assert log_z == ais.log_Z_estimate

    def test_unconverged_bisection_warns_once_and_finishes(self):
        # the 31 of 64 draws below 0 die at any beta above 0, so the
        # incremental ESS falls from 64 to 33 at once, the first bisection
        # cannot meet the target of 48, and only the warning records that
        path = QPath(gaussian([0.0], 1.0), pareto(0.0, 1.0, 0.0), q=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log_z, run = smc_run(path, "adaptive", particles=64, moves_per_step=1,
                                 cfg=HmcConfig(0.5, 5), rng=0, ess_fraction=0.75)
        bisection = [w for w in caught if "bisection did not converge" in str(w.message)]
        assert [(w.category, str(w.message)) for w in bisection] == [
            (RuntimeWarning, "incremental ESS bisection did not converge at beta 0.000000")
        ]
        assert run.beta_trace[-1] == 1.0 and math.isfinite(log_z)

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


class TestNegativeCounts:
    """A negative move or tuning count is an error at every entry point,
    not a run that silently counts it as 0."""

    @pytest.mark.parametrize(
        "counts, match",
        [({"moves_per_step": -1, "adapt_steps": 0}, "moves_per_step"),
         ({"moves_per_step": 1, "adapt_steps": -1}, "n_adapt")],
    )
    @pytest.mark.parametrize("entry", ["ais_forward", "ais_reverse", "smc_linear", "smc_adaptive"])
    def test_rejected(self, entry, counts, match):
        path, grid, cfg = log_z_two_problem(), np.linspace(0.0, 1.0, 5), small_cfg()
        rng = np.random.default_rng(0)
        runs = {
            "ais_forward": lambda: ais_forward(path, grid, 8, cfg, rng=rng, **counts),
            "ais_reverse": lambda: ais_reverse(
                path, grid, path.target.exact_sampler(rng, 8), cfg, rng=rng, **counts
            ),
            "smc_linear": lambda: smc_run(path, grid, particles=8, cfg=cfg, rng=0, **counts),
            "smc_adaptive": lambda: smc_run(path, "adaptive", particles=8, cfg=cfg, rng=0, **counts),
        }
        with pytest.raises(ValueError, match=match):
            runs[entry]()


class TestAisResultType:
    def test_fields_round_trip(self):
        res = AnnealRun(
            log_Z_estimate=0.5,
            per_chain_log_w=np.array([0.4, 0.6]),
            positions=np.zeros((2, 1)),
            beta_trace=np.array([0.0, 1.0]),
            steps={"ess_trace": np.array([2.0]), "acceptance_trace": np.array([0.9])},
            resample_count=0,
        )
        assert res.n_dropped == 0
        assert res.schedule_used[-1] == 1.0


class FadingPath(AnnealingPath):
    """N(0, 1) at every beta below 0.5, and no density from 0.5 on."""

    base = gaussian(np.array([0.0]), np.array([[1.0]]))

    def _log_density(self, batch, beta):
        lp = batch.end(0)[0]
        return lp if beta < 0.5 else np.full_like(lp, -np.inf)

    def _gradient(self, batch, beta):
        return batch.end(0)[1]


class TestStepRecord:
    """The loop's per-step columns travel by name: into the run, through
    ``blocks()``, into collapse diagnostics, and onto the report's traces."""

    def test_blocks_split_every_column_row_by_row(self):
        dummy = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        run = AnnealRun(
            log_Z_estimate=np.array([0.1, 0.2]),
            per_chain_log_w=np.zeros((2, 2)),
            positions=np.zeros((4, 1)),
            beta_trace=np.array([0.0, 0.5, 0.8, 1.0]),
            steps={"ess_trace": np.ones((2, 3)), "dummy": dummy},
            resample_count=0,
        )
        blocks = run.blocks()
        assert len(blocks) == 2
        for row, block in zip(dummy, blocks):
            assert block.steps.keys() == run.steps.keys()
            assert np.array_equal(block.steps["dummy"], row)
            assert block.beta_trace is run.beta_trace

    def test_a_shared_step_run_is_its_own_block(self):
        run = ais_forward(log_z_two_problem(), np.linspace(0.0, 1.0, 4), 8, small_cfg(), 1,
                          np.random.default_rng(0))
        assert run.blocks() == [run]
        assert type(run.log_Z_estimate) is float and run.per_chain_log_w.shape == (8,)

    def test_a_float_step_and_a_one_step_array_run_alike(self):
        path, grid = log_z_two_problem(), np.linspace(0.0, 1.0, 4)
        runs = [ais_forward(path, grid, 8, HmcConfig(step, 8), 1, np.random.default_rng(0))
                for step in (0.4, np.array([0.4]))]
        for run in runs:
            assert type(run.log_Z_estimate) is float
        assert runs[0].log_Z_estimate == runs[1].log_Z_estimate
        assert np.array_equal(runs[0].per_chain_log_w, runs[1].per_chain_log_w)
        assert runs[0].steps.keys() == runs[1].steps.keys()
        for name, column in runs[0].steps.items():
            assert np.array_equal(runs[1].steps[name], column), name

    def test_columns_are_the_report_traces(self):
        path, grid = log_z_two_problem(), np.linspace(0.0, 1.0, 4)
        ais = ais_forward(path, grid, 8, small_cfg(), 1, np.random.default_rng(0))
        _, smc = smc_run(path, "adaptive", particles=8, moves_per_step=1, cfg=small_cfg(), rng=0)
        for run in (ais, smc):
            assert {"beta_trace", *run.steps} == set(TRACES)
            for column in run.steps.values():
                assert column.shape == (run.beta_trace.size - 1,)

    @pytest.mark.parametrize("entry", ["ais_forward", "smc_run"])
    def test_mid_run_collapse_carries_every_completed_column(self, entry):
        # the first step, to 0.25, completes; the second kills every chain
        grid, rng = np.linspace(0.0, 1.0, 5), np.random.default_rng(3)
        runs = {
            # two blocks, one per step size, so the block axis shows
            "ais_forward": lambda: ais_forward(
                FadingPath(), grid, 6, small_cfg(step=np.array([0.4, 0.3])), 1, rng, adapt_steps=0
            ),
            "smc_run": lambda: smc_run(FadingPath(), grid, 6, 1, small_cfg(), rng, adapt_steps=0),
        }
        with pytest.raises(WeightCollapseError, match="-inf weight") as excinfo:
            runs[entry]()
        diag = excinfo.value.diagnostics
        assert np.array_equal(diag["beta_trace"], [0.0, 0.25, 0.5])
        blocks = 2 if entry == "ais_forward" else 1
        assert diag.keys() == set(TRACES)
        assert diag["ess_trace"].shape == diag["acceptance_trace"].shape == (blocks, 1)
        # the chains all live at 0.25, so the carried weights are even
        assert np.all(diag["ess_trace"] == 6.0)

    def test_step_cap_carries_every_completed_column(self, monkeypatch):
        monkeypatch.setattr(samplers, "_MAX_STEPS", 2)
        path = log_z_two_problem()
        with pytest.raises(WeightCollapseError, match="failed to reach") as excinfo:
            smc_run(path, "adaptive", particles=16, moves_per_step=1, cfg=small_cfg(), rng=1,
                    ess_fraction=0.99)
        diag = excinfo.value.diagnostics
        assert len(diag["beta_trace"]) == 3
        assert diag.keys() == set(TRACES)
        assert diag["ess_trace"].shape == diag["acceptance_trace"].shape == (1, 2)


SANDWICH_CHAINS = 6


def toy_ends():
    return gaussian([-4.0], [[3.0]]), with_log_scale(gaussian([4.0], [[1.0]]), 1.5)


def half_dead_base():
    """N(1, 1) with its first draw moved to -1, where an exponential target
    has no density: at q = 1.5 that forward chain is dead off beta 0."""
    base = gaussian([1.0], [[1.0]])

    def sampler(rng, n):
        z = base.exact_sampler(rng, n)
        z[0] = -1.0
        return z

    return replace(base, exact_sampler=sampler)


# each path of a sandwich and its blocks per direction, built for the rows
# of one direction (copies=1) or of both (copies=2)
SANDWICH_PATHS = {
    "q-below-1": (lambda copies: QPath(*toy_ends(), q=0.9), 1),
    "q-1.5-dead-rows": (lambda copies: QPath(half_dead_base(), pareto(0.0, 1.0, 0.0), q=1.5), 1),
    "geometric": (lambda copies: QPath(*toy_ends(), q=1.0), 1),
    "array-q": (
        lambda copies: QPath(*toy_ends(), q=np.tile(np.repeat([0.5, 0.9, 1.5], SANDWICH_CHAINS), copies)),
        3,
    ),
    "moment": (lambda copies: MomentPath([-4.0], 3.0, [4.0], 1.0, log_scale1=1.5), 1),
    "escort": (lambda copies: MomentPath([-4.0], 3.0, [4.0], 1.0, nu=3.0, log_scale1=1.5), 1),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def recorded(run):
    """``run()`` and the messages of the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, [str(w.message) for w in caught]


class TestSandwichSweep:
    """A (K+1, 2) schedule runs forward and reverse AIS as one sweep, and
    gives each direction the bits of ais_forward then ais_reverse from the
    target's exact samples on one generator."""

    # 1/150 < 1e-2 takes the small-beta blend; its 150 steps take the time,
    # so it runs with moves alone and with tuning too
    @pytest.mark.parametrize("K, adapt, moves", [
        *[(K, adapt, moves) for K in (1, 4) for adapt in (0, 3) for moves in (0, 2)],
        (150, 0, 2), (150, 3, 2),
    ])
    @pytest.mark.parametrize("name", list(SANDWICH_PATHS))
    def test_each_half_is_its_serial_run(self, name, K, adapt, moves):
        make, blocks = SANDWICH_PATHS[name]
        grid, seed = linear_schedule(K), K + 10 * moves + adapt

        def serial():
            path, rng, cfg = make(1), np.random.default_rng(seed), HmcConfig(np.full(blocks, 0.5), 1)
            fwd = ais_forward(path, grid, SANDWICH_CHAINS, cfg, moves, rng, adapt)
            top = path.target.exact_sampler(rng, SANDWICH_CHAINS)
            rev = ais_reverse(path, grid, top, cfg, moves, rng, adapt)
            return fwd.blocks() + rev.blocks(), rng

        def sweep():
            rng, cfg = np.random.default_rng(seed), HmcConfig(np.full(2 * blocks, 0.5), 1)
            both = np.stack([grid, grid[::-1]], axis=1)
            return ais_forward(make(2), both, SANDWICH_CHAINS, cfg, moves, rng, adapt).blocks(), rng

        (want, want_rng), want_warned = recorded(serial)
        (got, got_rng), got_warned = recorded(sweep)
        assert got_warned == want_warned
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert len(got) == len(want) == 2 * blocks
        for g, w in zip(got, want):
            for field in ("log_Z_estimate", "per_chain_log_w", "positions", "beta_trace"):
                assert same_bits(getattr(g, field), getattr(w, field)), field
            assert g.steps.keys() == w.steps.keys() == set(TRACES) - {"beta_trace"}
            for column in g.steps:
                assert same_bits(g.steps[column], w.steps[column]), column
        if name == "q-1.5-dead-rows":
            assert got[0].per_chain_log_w[0] == -np.inf and got_warned

    def test_the_sweep_counts_one_beta_per_step_and_direction(self):
        grid = linear_schedule(4)
        run = ais_forward(QPath(*toy_ends(), q=0.9), np.stack([grid, grid[::-1]], axis=1), 4,
                          small_cfg(step=np.array([0.4, 0.4])), 1, np.random.default_rng(0))
        assert run.beta_trace.shape == run.schedule_used.shape == (5, 2)
        assert np.array_equal(run.schedule_used, np.stack([grid, grid], axis=1))
        assert [block.beta_trace.tolist() for block in run.blocks()] == [grid.tolist(), grid[::-1].tolist()]

    @pytest.mark.parametrize("make_base", [
        lambda: gaussian([0.0, 1.0], [1.0, 2.0]),
        lambda: student_t([0.0, 1.0], [1.0, 2.0], nu=3.0),
    ], ids=["gaussian", "student-t"])
    def test_skipping_a_forward_run_draws_what_it_draws(self, make_base):
        base, (K, adapt, moves, chains) = make_base(), (5, 3, 2, 7)
        path = QPath(base, gaussian([1.0, -1.0], [2.0, 1.0]), q=0.9)
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        # three blocks share one block's draws
        ais_forward(path, linear_schedule(K), chains, small_cfg(step=np.full(3, 0.4)), moves, rng, adapt)
        base.exact_sampler(twin, chains)
        for _ in range(K * (adapt + moves)):
            _noise(twin, chains, 2)
        assert twin.bit_generator.state == rng.bit_generator.state

    def test_a_two_column_schedule_is_a_grid_and_its_reverse(self):
        path, grid, rng = QPath(*toy_ends(), q=0.9), linear_schedule(4), np.random.default_rng(0)
        cfg = small_cfg(step=np.array([0.4, 0.4]))
        with pytest.raises(ValueError, match="its reverse"):
            ais_forward(path, np.stack([grid, grid], axis=1), 4, cfg, 1, rng)
        with pytest.raises(ValueError, match="two endpoints"):
            ais_reverse(path, np.stack([grid, grid[::-1]], axis=1), np.zeros((4, 1)), cfg, 1, rng)
        with pytest.raises(ValueError, match="interior or all at an endpoint"):
            path.log_density_of(np.zeros((4, 1)))(np.array([0.0, 0.5]))
