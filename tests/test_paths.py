import math
import warnings

import numpy as np
import pytest

from conftest import counted, fd_gradient, pareto, rel_err
from qanneal.deformed import exp_q, ln_q_exp, power_mean
from qanneal.densities import (
    LogisticModel,
    UnnormalizedDensity,
    gaussian,
    logistic_posterior,
    logistic_prior,
    student_t,
)
from qanneal.hmc import HmcConfig
from qanneal.paths import (
    MomentPath,
    QPath,
    _blend_at,
    _deform,
    blend_log_ratio,
    gaussian_natural_params,
    moment_path_params,
    same_family_qpath_params,
    student_t_natural_params,
)
from qanneal.samplers import smc_run


def toy_gaussian_pair():
    return gaussian([-4.0], 3.0), gaussian([4.0], 1.0)


def constant_density(log_value: float) -> UnnormalizedDensity:
    return UnnormalizedDensity(
        dim=1,
        log_density=lambda z: np.full(np.shape(np.atleast_2d(z))[0], log_value)
        if np.asarray(z).ndim > 1
        else log_value,
        gradient=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
    )


def naive_log_density(base, target, z, beta, q):
    # reference route: exponentiate, take the power mean, go back to logs
    p0 = math.exp(base.log_density(z))
    p1 = math.exp(target.log_density(z))
    m = power_mean([p0, p1], [1.0 - beta, beta], q)
    return math.log(m) if m > 0.0 else -math.inf


class TestQPathLogDensity:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
    def test_endpoints_recovered_bit_exact(self, q):
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=q)
        zs = np.linspace(-9.0, 9.0, 25)[:, None]
        assert np.array_equal(path.log_density(zs, 0.0), base.log_density(zs))
        assert np.array_equal(path.log_density(zs, 1.0), target.log_density(zs))

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0])
    def test_agrees_with_naive_power_mean(self, q):
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=q)
        for beta in (0.1, 0.5, 0.9):
            for z in np.linspace(-8.0, 8.0, 33):
                zz = np.array([z])
                stable = path.log_density(zz, beta)
                naive = naive_log_density(base, target, zz, beta, q)
                assert stable == pytest.approx(naive, abs=1e-10)

    def test_geometric_branch_is_log_linear(self):
        base, target = toy_gaussian_pair()
        path = QPath(base, target, q=1.0)
        zs = np.linspace(-8.0, 8.0, 17)[:, None]
        for beta in (0.25, 0.75):
            expect = (1.0 - beta) * base.log_density(zs) + beta * target.log_density(zs)
            assert np.allclose(path.log_density(zs, beta), expect, atol=1e-14)

    def test_arithmetic_mixture_at_q_zero(self):
        path = QPath(base=constant_density(math.log(2.0)),
                     target=constant_density(math.log(6.0)), q=0.0)
        got = path.log_density(np.array([0.0]), 0.7)
        assert got == pytest.approx(math.log(0.3 * 2.0 + 0.7 * 6.0), abs=1e-14)

    def test_continuous_in_q_at_one(self):
        # the true gap scales with (1-q) * log-ratio^2, so random moderate
        # endpoints are the regime where the limit statement is meaningful
        rng = np.random.default_rng(20)
        zs = np.linspace(-3.0, 3.0, 41)[:, None]
        for _ in range(10):
            base = gaussian([rng.uniform(-2.0, 2.0)], rng.uniform(0.8, 2.0))
            target = gaussian([rng.uniform(-2.0, 2.0)], rng.uniform(0.8, 2.0))
            geo = QPath(base, target, q=1.0)
            for beta in (0.2, 0.5, 0.8):
                ref = geo.log_density(zs, beta)
                for q in (1.0 - 1e-6, 1.0 + 1e-6):
                    near = QPath(base=base, target=target, q=q).log_density(zs, beta)
                    assert np.max(np.abs(near - ref)) < 1e-4

    def test_equal_endpoints_beta_independent(self):
        base, _ = toy_gaussian_pair()
        path = QPath(base=base, target=base, q=0.5)
        zs = np.linspace(-9.0, 9.0, 21)[:, None]
        ref = base.log_density(zs)
        for beta in (0.0, 0.3, 0.7, 1.0):
            assert np.array_equal(path.log_density(zs, beta), ref)

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
    def test_deformed_mixture_identity(self, q):
        # mixing in the deformed-log domain and mapping back must agree
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=q)
        for beta in (0.2, 0.6):
            for z in np.linspace(-6.0, 6.0, 21):
                zz = np.array([z])
                mix = (1.0 - beta) * ln_q_exp(base.log_density(zz), q) + beta * ln_q_exp(
                    target.log_density(zz), q
                )
                back = math.log(float(exp_q(mix, q)))
                assert back == pytest.approx(path.log_density(zz, beta), abs=1e-10)

    def test_vanishing_target_clamp(self):
        base = gaussian([0.0], 1.0)
        target = pareto(x_min=0.0, sigma=1.0, xi=0.0)
        z = np.array([-1.0])  # dead under the target, alive under the base
        beta = 0.4
        light = QPath(base=base, target=target, q=0.5)
        expect = base.log_density(z) + math.log(1.0 - beta) / 0.5
        assert light.log_density(z, beta) == pytest.approx(expect, rel=1e-12)
        heavy = QPath(base=base, target=target, q=1.5)
        assert heavy.log_density(z, beta) == -np.inf
        assert QPath(base, target, q=1.0).log_density(z, beta) == -np.inf

    def test_both_endpoints_dead(self):
        base = pareto(x_min=0.0, sigma=1.0, xi=-0.5)  # support [0, 2]
        target = pareto(x_min=5.0, sigma=1.0, xi=0.0)  # support [5, inf)
        z = np.array([3.0])
        for q in (0.5, 1.0, 1.5):
            path = QPath(base=base, target=target, q=q)
            assert path.log_density(z, 0.5) == -np.inf

    def test_beta_validation(self):
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=0.5)
        for beta in (-0.1, 1.1):
            with pytest.raises(ValueError):
                path.log_density(np.array([0.0]), beta)
        with pytest.raises(ValueError):
            blend_log_ratio(np.zeros(3), 1.2, 0.5)


class TestDeadRowsAtTinyBeta:
    """A row whose target is -inf is dead for q > 1 at every interior beta,
    including betas where 1 - beta rounds to 1."""

    # x = -1 is dead under the target only
    ZS = np.array([[-1.0], [-1.0], [0.5], [1.5]])

    @pytest.mark.parametrize("q", [1.5, 2.0, np.array([0.5, 2.0, 0.5, 2.0])], ids=["1.5", "2", "array"])
    @pytest.mark.parametrize("beta", [1e-300, 1e-17, 0.3])
    def test_dead_rows_read_minus_inf(self, q, beta):
        base, target = gaussian([0.0], 1.0), pareto(0.0, 1.0, 0.0)
        path = QPath(base, target, q=q)
        row_qs = np.broadcast_to(q, len(self.ZS))
        dead = (row_qs > 1.0) & (self.ZS[:, 0] < 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [path.log_density(self.ZS, beta), path.value_and_grad(self.ZS, beta)[0],
                   path.log_density_of(self.ZS)(beta)]
            want = [QPath(base, target, q=float(qi)).log_density(z, beta)
                    for qi, z in zip(row_qs[~dead], self.ZS[~dead])]
        for lp in got:
            assert np.all(lp[dead] == -np.inf)
            assert_same_bits(lp[~dead], np.array(want))

    @pytest.mark.parametrize("beta", [1e-300, 1e-17])
    def test_dead_base_below_the_geometric_order_reads_log_beta(self, beta):
        # q < 1 keeps a row whose base alone is -inf: the power mean there is
        # beta^(1/(1-q)) times the target
        base, target = pareto(0.0, 1.0, 0.0), gaussian([0.0], 1.0)
        z = np.array([[-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = QPath(base, target, q=0.5).log_density(z, beta)
        np.testing.assert_allclose(got, target.log_density(z) + math.log(beta) / 0.5, rtol=1e-12)


class TestBlendLogRatio:
    def test_matches_path_energy_difference(self):
        base, target = toy_gaussian_pair()
        zs = np.linspace(-8.0, 8.0, 33)[:, None]
        lr = target.log_density(zs) - base.log_density(zs)
        for q in (0.0, 0.9, 1.0, 1.5):
            path = QPath(base=base, target=target, q=q)
            for beta in (0.0, 0.3, 1.0):
                expect = path.log_density(zs, beta) - base.log_density(zs)
                assert np.allclose(blend_log_ratio(lr, beta, q), expect, atol=1e-10)

    def test_is_the_path_kernel_bit_exact(self):
        # with a zero base log-density, a QPath's log-density is the blended
        # log-ratio itself: both must come from one kernel, to the last bit
        lr = np.concatenate([np.linspace(-40.0, 40.0, 41), [-1e4, -1e-12, 0.0, 1e-12, 1e4]])
        zero = UnnormalizedDensity(dim=1, log_density=lambda z: np.zeros(len(z)),
                                   gradient=np.zeros_like)
        ratio = UnnormalizedDensity(dim=1, log_density=lambda z: z[:, 0],
                                    gradient=np.ones_like)
        for q in (0.0, 0.5, 0.9, 1.0 - 1e-9, 1.0, 1.5, 2.0):
            path = QPath(base=zero, target=ratio, q=q)
            for beta in (1e-6, 0.3, 0.999999):
                got = path.log_density(lr[:, None], beta)
                assert np.array_equal(got, blend_log_ratio(lr, beta, q)), (q, beta)

    @pytest.mark.parametrize("lr, q", [(-800.0, 2.0), (800.0, 0.5), (60.0, 0.5)])
    @pytest.mark.parametrize("beta", [1e-17, 1e-300])
    def test_beta_survives_where_one_minus_beta_rounds_to_one(self, lr, q, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = blend_log_ratio([lr], beta, q)
        want = np.logaddexp(math.log1p(-beta), math.log(beta) + (1.0 - q) * lr) / (1.0 - q)
        np.testing.assert_allclose(got, [want], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_within_a_few_ulp_at_every_small_beta(self, q):
        # the blend is anchored at the dominant endpoint, so its error is
        # counted in ulp of the larger of the result and the log-ratio
        lr = np.array([-800.0, -60.0, 60.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in np.logspace(-300.0, -1.0, 2991):
                got = blend_log_ratio(lr, float(beta), q)
                want = np.logaddexp(math.log1p(-beta), math.log(beta) + (1.0 - q) * lr) / (1.0 - q)
                ulp = np.spacing(np.maximum(np.abs(want), np.abs(lr)))
                assert np.all(np.abs(got - want) <= 4.0 * ulp), beta

    def test_extreme_ratios_stay_finite(self):
        lr = np.array([-1e4, -10.0, 0.0, 10.0, 1e4])
        with np.errstate(over="raise", invalid="raise"):
            out = blend_log_ratio(lr, 0.5, 1.0 - 1e-4)
        assert np.all(np.isfinite(out))


def two_branch_blend(lp0, lp1, beta, q):
    """The blend off the geometric order as first written: both branches at
    every element, and the one each element takes kept.  Below a scalar
    beta of 1e-2, the target side is log((1 - beta) * exp(-x) + beta) where
    expm1(-x) < -0.5."""
    d = 1.0 - q
    x = d * (lp1 - lp0)
    swap = x > 0.0
    lo = np.log1p(beta * np.expm1(np.where(swap, 0.0, x)))
    em = np.expm1(np.where(swap, -x, 0.0))
    if np.ndim(beta) == 0 and 0.0 < beta < 1e-2:
        far = em < -0.5
        hi = np.where(
            far,
            np.logaddexp(math.log(beta), math.log1p(-beta) - np.where(swap, x, 0.0)),
            np.log1p((1.0 - beta) * np.where(far, 0.0, em)),
        )
    else:
        hi = np.log1p((1.0 - beta) * em)
    return np.where(swap, lp1 + hi / d, lp0 + lo / d)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestOnePassBlend:
    """The one-pass kernel is the two-branch kernel to the last bit."""

    @staticmethod
    def endpoints(rng, n=64):
        lp0 = rng.normal(0.0, 30.0, n) * 10.0 ** rng.integers(-12, 3, n)
        lp1 = rng.normal(0.0, 30.0, n) * 10.0 ** rng.integers(-12, 3, n)
        lp1[:6] = lp0[:6]  # equal endpoints
        lp0[6], lp1[7] = -np.inf, -np.inf  # gaps of +inf and -inf
        lp0[8:10], lp1[8:10] = (0.0, -0.0), (-0.0, 0.0)  # gaps of -0.0 and +0.0
        return lp0, lp1

    @pytest.mark.parametrize("seed", range(25))
    def test_bit_identical_to_the_two_branch_form(self, seed):
        rng = np.random.default_rng(seed)
        lp0, lp1 = self.endpoints(rng)
        n = lp0.size
        orders = [0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 3.0,
                  rng.choice([0.3, 0.99, 1.01, 2.0], n)]
        betas = [1e-300, 1e-6, rng.uniform(), 0.5, 1.0 - 1e-16, rng.uniform(1e-9, 1.0, n)]
        for q in orders:
            for beta in betas:
                # no log1p meets -1, even where 1 - beta rounds to 1
                with np.errstate(divide="raise", invalid="raise"):
                    got = _blend_at(_deform(lp0, lp1, q), beta)
                    want = two_branch_blend(lp0, lp1, beta, q)
                assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_heuristic_form_is_bit_identical(self, seed):
        # the ESS heuristic's call: a zero base, one row of restarts per
        # (beta, q), beta = 1 included
        rng = np.random.default_rng(seed)
        ratios = self.endpoints(rng)[1]
        ratios[7] = -1e300
        rows = 8
        beta = np.append(rng.uniform(1e-6, 1.0, rows - 1), 1.0)[:, None]
        q = (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, rows))[:, None]
        for qq in (q, 2.0 - q):
            # at beta = 1, the ratio -1e300 takes log1p to -1
            with np.errstate(divide="ignore"):
                got = _blend_at(_deform(0.0, ratios, qq), beta)
                want = two_branch_blend(0.0, ratios, beta, qq)
            assert_same_bits(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_nearly_uniform_masks_are_bit_identical(self, seed):
        # the target dominates at three elements only, so every swap mask is
        # nearly all False (q < 1) or nearly all True (q > 1), with long runs
        # for an array beta's masked copy, as on the heuristic's toy draws
        rng = np.random.default_rng(seed)
        n = 2048
        lp0 = rng.normal(0.0, 30.0, n)
        lp1 = lp0 - rng.exponential(5.0, n)
        lp1[:3] = lp0[:3] + rng.exponential(5.0, 3)
        lp1[3:5] = lp0[3:5]  # equal endpoints
        lp0[5:7], lp1[5:7] = (0.0, -0.0), (-0.0, 0.0)  # gaps of -0.0 and +0.0
        rows = 6
        column = rng.uniform(1e-6, 1.0, (rows, 1))
        for q in [0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0, (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, (rows, 1)))]:
            terms = _deform(lp0, lp1, q)
            # per row, the minority side holds at most the seven elements set apart above
            assert min(np.count_nonzero(terms[2]), np.count_nonzero(~terms[2])) <= 7 * np.size(q)
            # an array beta broadcasts into the terms' shape
            for beta in [1e-300, 1e-6, 0.5, 1.0 - 1e-16, rng.uniform(1e-9, 1.0, n)] + [column] * np.ndim(q):
                with np.errstate(divide="raise", invalid="raise"):
                    got = _blend_at(terms, beta)
                    want = two_branch_blend(lp0, lp1, beta, q)
                assert_same_bits(got, want)


class TestQPathGradient:
    def _pairs(self):
        rng = np.random.default_rng(12)
        Xd = np.hstack([np.ones((25, 1)), rng.standard_normal((25, 2))])
        yd = (rng.random(25) < 0.5).astype(float)
        model = LogisticModel(X=Xd, y=yd)
        return [
            (gaussian([-4.0, 1.0], [[3.0, 0.5], [0.5, 1.0]]), gaussian([4.0, -1.0], np.eye(2)), 2),
            (student_t([-4.0], 3.0, nu=1.0), student_t([4.0], 1.0, nu=1.0), 1),
            (logistic_prior(model), logistic_posterior(model), 3),
        ]

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.97, 1.0, 2.0])
    def test_matches_finite_differences(self, q):
        rng = np.random.default_rng(13)
        for base, target, dim in self._pairs():
            path = QPath(base=base, target=target, q=q)
            for _ in range(12):
                z = rng.uniform(-5.0, 5.0, size=dim)
                beta = rng.uniform(0.05, 0.95)
                an = path.gradient(z, beta)
                fd = fd_gradient(lambda p: path.log_density(p, beta), z)
                assert rel_err(an, fd) < 1e-5, (q, beta)

    def test_is_convex_combination_of_endpoint_gradients(self):
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=0.5)
        z = np.array([1.5])
        g = path.gradient(z, 0.6)
        g0, g1 = base.gradient(z), target.gradient(z)
        lo, hi = np.minimum(g0, g1), np.maximum(g0, g1)
        assert np.all(g >= lo - 1e-12) and np.all(g <= hi + 1e-12)

    def test_vanished_density_raises(self):
        base = gaussian([0.0], 1.0)
        target = pareto(x_min=0.0, sigma=1.0, xi=0.0)
        path = QPath(base=base, target=target, q=1.5)
        with pytest.raises(ValueError):
            path.gradient(np.array([-1.0]), 0.5)

    def test_dead_endpoint_raises_at_its_own_beta(self):
        # beta = 1 is the target itself, -inf at z = -1 like every interior
        # beta of a q > 1 path
        path = QPath(gaussian([0.0], 1.0), pareto(0.0, 1.0, 0.0), q=0.5)
        with pytest.raises(ValueError, match="vanishes"):
            path.gradient(np.array([-1.0]), 1.0)

    def test_single_dead_endpoint_uses_live_gradient(self):
        base = gaussian([0.0], 1.0)
        target = pareto(x_min=0.0, sigma=1.0, xi=0.0)
        path = QPath(base=base, target=target, q=0.5)
        z = np.array([-1.0])
        assert np.allclose(path.gradient(z, 0.5), base.gradient(z))

    def test_batched_evaluation(self):
        base, target = toy_gaussian_pair()
        path = QPath(base=base, target=target, q=0.5)
        zs = np.linspace(-5.0, 5.0, 7)[:, None]
        batch = path.gradient(zs, 0.3)
        single = np.stack([path.gradient(z, 0.3) for z in zs])
        assert np.allclose(batch, single, atol=1e-14)


class TestValueAndGrad:
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_matches_separate_evaluations(self, q, beta):
        for base, target, dim in TestQPathGradient()._pairs():
            path = QPath(base=base, target=target, q=q)
            zs = np.random.default_rng(14).uniform(-5.0, 5.0, size=(9, dim))
            lp, g = path.value_and_grad(zs, beta)
            assert np.array_equal(lp, path.log_density(zs, beta))
            assert np.array_equal(g, path.gradient(zs, beta))
            fixed_lp, fixed_g = path.log_density_of(zs).value_and_grad(beta)
            assert np.array_equal(fixed_lp, lp) and np.array_equal(fixed_g, g)

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    def test_gradient_zero_where_the_path_vanishes(self, q):
        path = QPath(base=gaussian([0.0], 1.0), target=pareto(0.0, 1.0, 0.0), q=q)
        zs = np.array([[-1.0], [0.5], [-2.0], [1.5]])
        lp, g = path.value_and_grad(zs, 0.5)
        assert np.array_equal(lp, path.log_density(zs, 0.5))
        live = np.isfinite(lp)
        assert np.all(g[~live] == 0.0)
        assert np.array_equal(g[live], path.gradient(zs[live], 0.5))

    @pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("beta", [1e-6, 0.3, 0.999999])
    def test_live_rows_match_an_all_live_batch(self, q, beta):
        # x = -2 is dead under both endpoints, x = -0.5 under the target only
        path = QPath(pareto(-1.0, 1.0, 0.0), pareto(0.0, 2.0, 0.3), q=q)
        live = np.array([[0.25], [1e-3], [1.7], [4.0]])
        for dead in ([[-2.0]], [[-0.5]]):
            zs = np.concatenate([live[:2], dead, live[2:]])
            lp, g = path.value_and_grad(zs, beta)
            want_lp, want_g = path.value_and_grad(live, beta)
            keep = np.arange(len(zs)) != 2
            assert_same_bits(lp[keep], want_lp)
            assert_same_bits(g[keep], want_g)
            assert_same_bits(path.log_density_of(zs)(beta)[keep], want_lp)

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_moment_path_matches_separate_evaluations(self, nu):
        path = MomentPath([-4.0], 3.0, [4.0], 1.0, nu=nu, log_scale1=2.0)
        zs = np.linspace(-8.0, 8.0, 9)[:, None]
        for beta in (0.0, 0.4, 1.0):
            lp, g = path.value_and_grad(zs, beta)
            assert np.array_equal(lp, path.log_density(zs, beta))
            assert np.array_equal(g, path.gradient(zs, beta))
            fixed_lp, fixed_g = path.log_density_of(zs).value_and_grad(beta)
            assert np.array_equal(fixed_lp, lp) and np.array_equal(fixed_g, g)


class TestPathBatch:
    def test_each_endpoint_evaluated_once_when_first_needed(self):
        base, target = toy_gaussian_pair()
        moment = MomentPath([-4.0], 3.0, [4.0], 1.0, log_scale1=2.0)
        for path in (QPath(base, target, q=0.5), moment):
            calls = {}
            ends = path.base, path.target
            counted_ends = counted(ends[0], calls, "base"), counted(ends[1], calls, "target")
            if isinstance(path, QPath):
                path = QPath(*counted_ends, q=path.q)
            else:
                path.base, path.target = counted_ends
            zs = np.linspace(-5.0, 5.0, 7)[:, None]
            batch = path.log_density_of(zs)
            assert np.array_equal(batch(1.0), ends[1].log_density(zs))
            assert calls == {"base": 0, "target": 1}
            batch(0.0)
            batch(0.4)
            batch(0.0)
            lp, g = batch.value_and_grad(0.7)
            assert calls == {"base": 1, "target": 1}
            assert np.array_equal(lp, path.log_density(zs, 0.7))
            assert np.array_equal(g, path.gradient(zs, 0.7))


class TestArrayQ:
    """A path with one order per row equals per-row paths of scalar order."""

    QS = np.array([0.0, 0.5, 0.9, 1.0 - 1e-5, 1.5, 2.0])
    # x < -1: both endpoints -inf; -1 <= x < 0: only the target is -inf
    ZS = np.array([[-2.0], [-0.5], [-1e-3], [0.0], [0.25], [1.7], [4.0]])

    def paths(self):
        base, target = pareto(-1.0, 1.0, 0.0), pareto(0.0, 2.0, 0.3)
        rows = len(self.ZS)
        batched = QPath(base, target, q=np.repeat(self.QS, rows))
        return batched, [QPath(base, target, q=float(q)) for q in self.QS], np.tile(self.ZS, (len(self.QS), 1))

    @pytest.mark.parametrize("beta", [0.0, 1e-6, 0.3, 0.999999, 1.0])
    def test_bit_identical_to_scalar_orders(self, beta):
        batched, singles, zs = self.paths()
        lp, g = batched.value_and_grad(zs, beta)
        want = [path.value_and_grad(self.ZS, beta) for path in singles]
        assert np.array_equal(lp, np.concatenate([w[0] for w in want]))
        assert np.array_equal(g, np.concatenate([w[1] for w in want]))
        assert np.array_equal(
            batched.log_density(zs, beta),
            np.concatenate([path.log_density(self.ZS, beta) for path in singles]),
        )
        fixed = batched.log_density_of(zs)
        assert np.array_equal(
            fixed(beta),
            np.concatenate([np.atleast_1d(path.log_density(self.ZS, beta)) for path in singles]),
        )
        fixed_lp, fixed_g = fixed.value_and_grad(beta)
        assert np.array_equal(fixed_lp, lp) and np.array_equal(fixed_g, g)
        if 0.0 < beta < 1.0:
            # rows with one endpoint dead live on for q < 1 and die for q > 1
            x = zs[:, 0]
            light = np.repeat(self.QS < 1.0, len(self.ZS))
            assert np.array_equal(np.isfinite(lp), (x >= 0.0) | ((x >= -1.0) & light))

    def test_gradient_matches_on_live_rows(self):
        batched, singles, zs = self.paths()
        live = np.repeat(self.QS < 1.0, len(self.ZS)) & (zs[:, 0] >= -1.0)
        got = QPath(batched.base, batched.target, q=batched.q[live]).gradient(zs[live], 0.4)
        want = np.concatenate(
            [path.gradient(self.ZS[self.ZS[:, 0] >= -1.0], 0.4) for path in singles if path.q < 1.0]
        )
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="vanishes"):
            batched.gradient(zs, 0.4)

    def test_rejects_the_geometric_order(self):
        base, target = toy_gaussian_pair()
        with pytest.raises(ValueError, match="geometric"):
            QPath(base, target, q=np.array([0.5, 1.0]))


class TestSameFamilyClosure:
    def test_natural_param_evaluators(self):
        zs = np.linspace(-6.0, 6.0, 50)
        g = gaussian_natural_params(-4.0, 3.0)
        assert np.max(np.abs(g.log_density(zs) - gaussian([-4.0], 3.0).log_density(zs[:, None]))) < 1e-12
        t = student_t_natural_params(4.0, 1.0, nu=1.0)
        assert np.max(np.abs(t.log_density(zs) - student_t([4.0], 1.0, nu=1.0).log_density(zs[:, None]))) < 1e-12

    def test_gaussian_closure_at_q_one(self):
        zs = np.linspace(-6.0, 6.0, 50)
        base, target = toy_gaussian_pair()
        path = QPath(base, target, q=1.0)
        p0 = gaussian_natural_params(-4.0, 3.0)
        p1 = gaussian_natural_params(4.0, 1.0)
        for beta in (0.3, 0.7):
            blended = same_family_qpath_params(p0, p1, beta)
            assert np.max(np.abs(blended.log_density(zs) - path.log_density(zs[:, None], beta))) < 1e-10

    def test_student_closure_at_q_two(self):
        zs = np.linspace(-6.0, 6.0, 50)
        base = student_t([-4.0], 3.0, nu=1.0)
        target = student_t([4.0], 1.0, nu=1.0)
        path = QPath(base=base, target=target, q=2.0)
        p0 = student_t_natural_params(-4.0, 3.0, nu=1.0)
        p1 = student_t_natural_params(4.0, 1.0, nu=1.0)
        assert p0.q == pytest.approx(2.0)
        for beta in (0.3, 0.7):
            blended = same_family_qpath_params(p0, p1, beta)
            assert np.max(np.abs(blended.log_density(zs) - path.log_density(zs[:, None], beta))) < 1e-10

    def test_mismatched_families_rejected(self):
        p0 = gaussian_natural_params(0.0, 1.0)
        p1 = student_t_natural_params(0.0, 1.0, nu=1.0)
        with pytest.raises(ValueError):
            same_family_qpath_params(p0, p1, 0.5)


class TestMomentPath:
    def test_frozen_variance_values(self):
        # gaussian branch: 0.5*3 + 0.5*1 + 0.25*64 = 18
        _, cov = moment_path_params([-4.0], 3.0, [4.0], 1.0, beta=0.5)
        assert cov[0, 0] == pytest.approx(18.0, abs=1e-12)
        # heavy-tailed branch scales the displacement term by (nu+2)/nu = 3
        _, cov = moment_path_params([-4.0], 3.0, [4.0], 1.0, beta=0.5, nu=1.0)
        assert cov[0, 0] == pytest.approx(50.0, abs=1e-12)

    def test_mean_interpolates(self):
        mu, _ = moment_path_params([-4.0], 3.0, [4.0], 1.0, beta=0.25)
        assert mu[0] == pytest.approx(-2.0, abs=1e-14)

    def test_endpoints_exact(self):
        for beta, expect_mu, expect_var in ((0.0, -4.0, 3.0), (1.0, 4.0, 1.0)):
            mu, cov = moment_path_params([-4.0], 3.0, [4.0], 1.0, beta=beta, nu=2.0)
            assert mu[0] == expect_mu and cov[0, 0] == expect_var

    def test_path_endpoint_recovery_and_gradient(self):
        path = MomentPath([-4.0], 3.0, [4.0], 1.0, nu=None, log_scale1=2.0)
        zs = np.linspace(-8.0, 8.0, 9)[:, None]
        assert np.array_equal(path.log_density(zs, 0.0), path.base.log_density(zs))
        assert np.array_equal(path.log_density(zs, 1.0), path.target.log_density(zs))
        expect = gaussian([4.0], 1.0).log_density(zs) + 2.0
        assert np.allclose(path.log_density(zs, 1.0), expect, atol=1e-12)
        for beta in (0.25, 0.75):
            for z in (np.array([-2.0]), np.array([3.0])):
                fd = fd_gradient(lambda p: path.log_density(p, beta), z)
                assert rel_err(path.gradient(z, beta), fd) < 1e-5

    def test_student_waypoints(self):
        path = MomentPath([-4.0], 3.0, [4.0], 1.0, nu=1.0)
        ref = student_t([0.0], 50.0, nu=1.0)
        zs = np.linspace(-10.0, 10.0, 11)[:, None]
        assert np.allclose(path.log_density(zs, 0.5), ref.log_density(zs), atol=1e-12)

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_waypoint_cache_stays_bounded(self, nu):
        path = MomentPath([-4.0], 3.0, [4.0], 1.0, nu=nu)
        builds, build = [], path._build_waypoint
        path._build_waypoint = lambda beta: builds.append(beta) or build(beta)
        cfg = HmcConfig(step_size=0.5, n_leapfrog=5)
        _, diag = smc_run(path, "adaptive", particles=64, moves_per_step=1, cfg=cfg,
                          rng=3, ess_fraction=0.9, adapt_steps=2)
        assert len(diag.beta_trace) > 10
        # the path keeps one waypoint, which serves every evaluation at its
        # beta: no beta is built twice in a row, and every step's is built
        assert all(a != b for a, b in zip(builds, builds[1:]))
        assert set(diag.beta_trace[1:-1]) <= set(builds)
        (beta, density), = path._latest.items()
        assert beta == builds[-1] and isinstance(density, UnnormalizedDensity)

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_variance_vectors_are_diagonal_covariances(self, nu):
        mu0, var0, mu1, var1 = [0.0, 0.0], [1.0, 2.0], [1.0, 1.0], [1.0, 2.0]
        for beta in (0.0, 0.3, 1.0):
            got = moment_path_params(mu0, var0, mu1, var1, beta, nu=nu)
            want = moment_path_params(mu0, np.diag(var0), mu1, np.diag(var1), beta, nu=nu)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        zs = np.array([[0.5, -0.3], [1.0, 2.0]])
        vec = MomentPath(mu0, var0, mu1, var1, nu=nu, log_scale1=0.5)
        mat = MomentPath(mu0, np.diag(var0), mu1, np.diag(var1), nu=nu, log_scale1=0.5)
        for beta in (0.0, 0.3, 1.0):
            for got, want in zip(vec.value_and_grad(zs, beta), mat.value_and_grad(zs, beta)):
                assert np.array_equal(got, want)
        family = gaussian if nu is None else (lambda mu, var: student_t(mu, var, nu=nu))
        assert np.array_equal(vec.base.log_density(zs), family(mu0, var0).log_density(zs))
        assert np.array_equal(vec.target.log_density(zs), family(mu1, var1).log_density(zs) + 0.5)
        if nu is None:
            np.testing.assert_allclose(vec.base.log_density(zs), [-2.332, -3.684], atol=1e-3)

    def test_wrongly_shaped_covariance_rejected(self):
        calls = [
            lambda: moment_path_params([0.0, 0.0], [1.0, 2.0, 3.0], [1.0, 1.0], 1.0, 0.5),
            lambda: moment_path_params([0.0, 0.0], 1.0, [1.0, 1.0], np.ones((2, 3)), 0.5),
            lambda: MomentPath([0.0, 0.0], np.ones((3, 3)), [1.0, 1.0], 1.0),
            lambda: gaussian([0.0, 0.0], [1.0]),
            lambda: student_t([0.0], np.ones((2, 2)), nu=3.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="shape must match the mean"):
                call()

    def test_beta_validation(self):
        path = MomentPath([-4.0], 3.0, [4.0], 1.0)
        with pytest.raises(ValueError):
            path.log_density(np.array([0.0]), 1.5)
        with pytest.raises(ValueError):
            moment_path_params([-4.0], 3.0, [4.0], 1.0, beta=-0.2)
