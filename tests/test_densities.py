import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import expit

from conftest import fd_gradient, pareto, rel_err
from qanneal.densities import (
    GridDensity,
    LogisticModel,
    UnnormalizedDensity,
    gaussian,
    grid_from_density,
    logistic_posterior,
    logistic_prior,
    q_from_nu,
    sigmoid,
    student_t,
    with_log_scale,
)


class TestGaussian:
    def test_matches_scipy_logpdf(self):
        rng = np.random.default_rng(0)
        mean = np.array([1.0, -2.0, 0.5])
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3.0 * np.eye(3)
        den = gaussian(mean, cov)
        zs = rng.standard_normal((50, 3)) * 2.0
        ref = stats.multivariate_normal(mean, cov).logpdf(zs)
        assert np.max(np.abs(den.log_density(zs) - ref)) < 1e-10

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        den = gaussian([-4.0], 3.0)
        for _ in range(100):
            z = rng.uniform(-10.0, 10.0, size=1)
            assert rel_err(den.gradient(z), fd_gradient(den.log_density, z)) < 1e-5

    def test_full_covariance_gradient_is_precision_times_deviation(self):
        rng = np.random.default_rng(12)
        mean = np.array([1.0, -2.0, 0.5])
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 3.0 * np.eye(3)
        zs = rng.standard_normal((50, 3)) * 2.0
        ref = -np.linalg.solve(cov, (zs - mean).T).T
        np.testing.assert_allclose(gaussian(mean, cov).gradient(zs), ref, rtol=1e-12, atol=0.0)

    def test_sampler_moments(self):
        den = gaussian([2.0, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        draws = den.exact_sampler(np.random.default_rng(2), 100_000)
        se_mean = np.sqrt(np.array([2.0, 1.0]) / 1e5)
        assert np.all(np.abs(draws.mean(axis=0) - [2.0, -1.0]) < 4.0 * se_mean)
        cov = np.cov(draws.T)
        assert np.abs(cov[0, 1] - 0.6) < 4.0 * np.sqrt((2.0 * 1.0 + 0.6**2) / 1e5)

    def test_scalar_point_and_normalizer(self):
        den = gaussian(0.0, 1.0)
        assert den.log_density(np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi)
        )


class TestStudentT:
    def test_cauchy_density_at_origin(self):
        den = student_t([0.0], 1.0, nu=1.0)
        assert math.exp(den.log_density(np.zeros(1))) == pytest.approx(
            1.0 / math.pi, rel=1e-12
        )

    def test_matches_scipy_logpdf(self):
        rng = np.random.default_rng(3)
        mean = np.array([0.5, -1.5])
        scale = np.array([[2.0, 0.3], [0.3, 0.5]])
        den = student_t(mean, scale, nu=4.0)
        zs = rng.standard_normal((40, 2)) * 3.0
        ref = stats.multivariate_t(mean, scale, df=4.0).logpdf(zs)
        assert np.max(np.abs(den.log_density(zs) - ref)) < 1e-10

    def test_integrates_to_one(self):
        den = student_t([1.0], 2.0, nu=1.0)
        val, err = quad(lambda x: math.exp(den.log_density(np.array([x]))), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        den = student_t([1.0, -1.0], [[1.5, 0.2], [0.2, 0.8]], nu=3.0)
        for _ in range(100):
            z = rng.uniform(-6.0, 6.0, size=2)
            assert rel_err(den.gradient(z), fd_gradient(den.log_density, z)) < 1e-5

    def test_power_is_affine_in_quadratic_form(self):
        # with q matched to nu, density^(1-q) must be affine in the
        # standardized squared distance, the deformed-family signature
        nu, d = 3.0, 2
        mean = np.array([1.0, -0.5])
        scale = np.array([[2.0, 0.4], [0.4, 1.0]])
        den = student_t(mean, scale, nu=nu)
        q = q_from_nu(nu, d)
        rng = np.random.default_rng(11)
        zs = rng.standard_normal((40, 2)) * 3.0
        dev = zs - mean
        m = np.sum(dev * np.linalg.solve(scale, dev.T).T, axis=1)
        powered = np.exp((1.0 - q) * den.log_density(zs))
        slope = (powered[1] - powered[0]) / (m[1] - m[0])
        intercept = powered[0] - slope * m[0]
        assert np.max(np.abs(powered - (slope * m + intercept))) < 1e-12

    def test_sampler_moments(self):
        nu = 7.0
        den = student_t([3.0], 2.0, nu=nu)
        draws = den.exact_sampler(np.random.default_rng(5), 100_000)[:, 0]
        true_var = nu / (nu - 2.0) * 2.0
        se_mean = math.sqrt(true_var / 1e5)
        assert abs(draws.mean() - 3.0) < 4.0 * se_mean
        # variance of the sample variance via the fourth moment of the t
        kurt = 3.0 * (nu - 2.0) / (nu - 4.0)
        se_var = math.sqrt((kurt - 1.0) * true_var**2 / 1e5)
        assert abs(draws.var() - true_var) < 4.0 * se_var


def _matmul_kernel(family, mean, cov, nu):
    """The Gaussian or Student-t kernel in its matmul form: whitening by
    ``(z - mean) @ inv_chol.T`` and the gradient by one more matmul."""
    d = mean.size
    chol = np.linalg.cholesky(cov)
    inv_chol = np.linalg.inv(chol)
    log_det = np.sum(np.log(np.diag(chol)))

    def kernel(z):
        white = (z - mean) @ inv_chol.T
        m = np.sum(white**2, axis=1)
        if family == "gaussian":
            return -0.5 * d * math.log(2.0 * math.pi) - log_det - 0.5 * m, -white @ inv_chol
        log_norm = (
            math.lgamma(0.5 * (nu + d)) - math.lgamma(0.5 * nu) - 0.5 * d * math.log(nu * math.pi) - log_det
        )
        lp = log_norm - 0.5 * (nu + d) * np.log1p(m / nu)
        return lp, -(nu + d) * (white @ inv_chol) / (nu + m)[:, None]

    return kernel


@pytest.mark.parametrize("form", ["scalar", "vector", "matrix"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family", ["gaussian", "student_t"])
def test_diagonal_factor_whitens_with_the_matmul_bits(family, d, form):
    rng = np.random.default_rng(d)
    for _ in range(20):
        mean = 3.0 * rng.standard_normal(d)
        var = rng.uniform(1e-3, 10.0, size=d) if form != "scalar" else rng.uniform(1e-3, 10.0)
        cov = np.diag(var) if form == "matrix" else var
        den = gaussian(mean, cov) if family == "gaussian" else student_t(mean, cov, nu=2.5)
        z = mean + rng.uniform(0.01, 50.0) * rng.standard_normal((int(rng.integers(1, 300)), d))
        z[0] = mean
        got = den.value_and_grad(z)
        want = _matmul_kernel(family, mean, np.diag(np.broadcast_to(var, d)), nu=2.5)(z)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


_COV2 = [[2.0, 0.3], [0.3, 1.0]]

# name -> one of each built-in density, in two dimensions
_BUILT_INS = {
    "gaussian": lambda: gaussian([0.0, 1.0], _COV2),
    "student_t": lambda: student_t([0.0, 1.0], _COV2, nu=3.0),
    "logistic_posterior": lambda: logistic_posterior(_logistic_model(n=30, d=2)),
}


def _built_in(name):
    """``_BUILT_INS[name]``, or ``with_log_scale`` of it for a "log_scaled_" name."""
    base = name.removeprefix("log_scaled_")
    den = _BUILT_INS[base]()
    return den if base == name else with_log_scale(den, 1.5)


def _entry_points(den):
    return den.log_density, den.gradient, den.value_and_grad


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["gaussian", "student_t", "log_scaled_gaussian", "log_scaled_student_t"])
def test_non_finite_point_is_rejected(name, bad):
    zs = np.zeros((3, 2))
    zs[1, 0] = bad
    for fn in _entry_points(_built_in(name)):
        with pytest.raises(ValueError):
            fn(zs)
        with pytest.raises(ValueError):
            fn(zs[1])


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 2)], ids=["point", "batch", "3d"])
@pytest.mark.parametrize("name", sorted([*_BUILT_INS, *("log_scaled_" + n for n in _BUILT_INS)]))
def test_wrong_shape_is_rejected(name, shape):
    for fn in _entry_points(_built_in(name)):
        with pytest.raises(ValueError):
            fn(np.zeros(shape))


class TestSigmoid:
    def test_matches_expit_within_four_ulp(self):
        x = np.concatenate([np.linspace(-1e3, 1e3, 200_001), np.linspace(-40.0, 40.0, 80_001)])
        ref = expit(x)
        np.testing.assert_array_max_ulp(sigmoid(x), ref, maxulp=4)
        assert np.array_equal(sigmoid(x) == 0.0, ref == 0.0)

    def test_overflow_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(np.array([-1e3]))[0] == 0.0
            assert sigmoid(np.array([1e3]))[0] == 1.0


class TestTailOrderConversions:
    def test_frozen_values(self):
        assert q_from_nu(1.0, 1) == pytest.approx(2.0, abs=1e-15)
        assert q_from_nu(3.0, 2) == pytest.approx(1.4, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            q_from_nu(-1.0, 1)


class TestPareto:
    def test_exponential_branch(self):
        den = pareto(x_min=1.0, sigma=2.0, xi=0.0)
        assert den.log_density(np.array([1.0])) == pytest.approx(-math.log(2.0))
        assert den.log_density(np.array([3.0])) == pytest.approx(-math.log(2.0) - 1.0)
        assert den.log_density(np.array([0.5])) == -np.inf

    def test_support_bounds_negative_shape(self):
        den = pareto(x_min=0.0, sigma=1.0, xi=-0.5)  # support [0, 2]
        assert np.isfinite(den.log_density(np.array([1.9])))
        assert den.log_density(np.array([2.1])) == -np.inf

    def test_integrates_to_one(self):
        for xi in (-0.3, 0.0, 0.5):
            den = pareto(x_min=-1.0, sigma=1.5, xi=xi)
            hi = np.inf if xi >= 0 else -1.0 + 1.5 / 0.3
            val, _ = quad(lambda x: math.exp(den.log_density(np.array([x]))), -1.0, hi)
            assert val == pytest.approx(1.0, abs=1e-8), xi

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        for xi in (0.0, 0.4, -0.25):
            den = pareto(x_min=0.0, sigma=1.0, xi=xi)
            hi = 3.0 if xi >= 0 else 1.0 / 0.25 - 0.1
            for _ in range(100):
                z = rng.uniform(0.01, hi, size=1)
                assert rel_err(den.gradient(z), fd_gradient(den.log_density, z)) < 1e-5

    def test_sampler_against_cdf(self):
        xi, sigma = 0.2, 1.0
        den = pareto(x_min=0.0, sigma=sigma, xi=xi)
        draws = den.exact_sampler(np.random.default_rng(7), 100_000)[:, 0]
        assert np.all(draws >= 0.0)
        # exceedance of the 1 - u quantile should be close to u
        for u in (0.5, 0.1, 0.01):
            quantile = sigma * (u**-xi - 1.0) / xi
            frac = np.mean(draws > quantile)
            assert abs(frac - u) < 4.0 * math.sqrt(u * (1.0 - u) / 1e5)


def _logistic_model(n, d=3, seed=8):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, d - 1))])
    w_true = rng.standard_normal(d)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ w_true))).astype(float)
    return LogisticModel(X=X, y=y)


class TestLogisticPosterior:
    def test_gradient_matches_fd(self):
        model = _logistic_model(n=30)
        post = logistic_posterior(model)
        rng = np.random.default_rng(9)
        for _ in range(100):
            w = rng.standard_normal(3) * 2.0
            assert rel_err(post.gradient(w), fd_gradient(post.log_density, w)) < 1e-5

    def test_extreme_weights_stay_finite(self):
        model = _logistic_model(n=30)
        post = logistic_posterior(model)
        w = np.array([500.0, -500.0, 250.0])
        assert np.isfinite(post.log_density(w))
        assert np.all(np.isfinite(post.gradient(w)))

    def test_one_pass_likelihood_matches_two_logaddexp_passes(self):
        model = _logistic_model(n=30)
        post = logistic_posterior(model)
        X, y, var = model.X, model.y, model.prior_sd**2
        rng = np.random.default_rng(11)
        w = rng.standard_normal((40, 3))
        # rescale each row so its largest logit |w . x| spans 1e-3 .. 1e3
        w *= (np.logspace(-3.0, 3.0, 40) / np.max(np.abs(w @ X.T), axis=1))[:, None]
        t = w @ X.T
        assert np.max(np.abs(t)) == pytest.approx(1e3)
        two_pass = (
            -0.5 * 3 * math.log(2.0 * math.pi * var)
            - 0.5 * np.sum(w**2, axis=1) / var
            - np.sum(y * np.logaddexp(0.0, -t) + (1.0 - y) * np.logaddexp(0.0, t), axis=1)
        )
        lp = post.log_density(w)
        assert np.all(np.isfinite(lp))
        np.testing.assert_allclose(lp, two_pass, rtol=1e-12, atol=0.0)
        # the kernel's own formulas, on the signed logits u = w @ XS.T (the
        # sign flip of t to the bit): the log-likelihood sums softplus(u) =
        # max(u, 0) + log1p(exp(-|u|)) and the gradient takes the sigmoid
        # exp(u - softplus(u)); numpy's vector exp differs from libm's in the
        # last bit for about 2 % of inputs, so a reference built on scipy's
        # expit could not be compared exactly
        XS = X * (1.0 - 2.0 * y)[:, None]
        u = w @ XS.T
        assert np.array_equal(u, (1.0 - 2.0 * y) * t)
        softplus = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
        log_prior = -0.5 * 3 * math.log(2.0 * math.pi * var) - 0.5 * np.sum(w**2, axis=1) / var
        assert np.array_equal(lp, log_prior - np.sum(softplus, axis=1))
        grad = -w / var - np.exp(u - softplus) @ XS
        assert np.array_equal(post.gradient(w), grad)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 8.0, 30.0])
    def test_gradient_matches_an_extended_precision_reference(self, scale):
        model = _logistic_model(n=200)
        post = logistic_posterior(model)
        X, y, var = model.X, model.y, model.prior_sd**2
        w = np.random.default_rng(12).standard_normal((64, 3)) * scale
        # the textbook gradient in long double (64-bit significand on x86)
        ext = np.longdouble
        t = w.astype(ext) @ X.astype(ext).T
        want = -w.astype(ext) / ext(var) + (y.astype(ext) - 1.0 / (1.0 + np.exp(-t))) @ X.astype(ext)
        # error in units of the sum of the magnitudes of the gradient's
        # terms, the scale on which any float sum of them rounds
        size = np.abs(w) / var + np.sum(np.abs(X), axis=0)
        err = np.abs(post.gradient(w) - want.astype(float)) / size
        assert np.max(err) < 1e-14

    def test_non_finite_row_leaves_the_other_rows_bit_equal(self):
        post = logistic_posterior(_logistic_model(n=200))
        w = np.random.default_rng(13).standard_normal((9, 3)) * 2.0
        lp, g = post.value_and_grad(w)
        for bad in ([np.inf, 0.0, 0.0], [-np.inf, 1.0, -1.0], [np.nan, 0.5, 0.5], [0.5, np.nan, np.inf]):
            wb = w.copy()
            wb[4] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lp_bad, g_bad = post.value_and_grad(wb)
            assert not np.isfinite(lp_bad[4])
            rest = np.arange(9) != 4
            assert np.array_equal(lp_bad[rest], lp[rest]) and np.array_equal(g_bad[rest], g[rest])

    def test_prior_factor(self):
        # at the likelihood-free limit (no data) the posterior is the prior
        model = LogisticModel(X=np.empty((0, 2)), y=np.empty(0), prior_sd=5.0)
        post = logistic_posterior(model)
        prior = logistic_prior(model)
        zs = np.random.default_rng(10).standard_normal((20, 2)) * 5.0
        assert np.max(np.abs(post.log_density(zs) - prior.log_density(zs))) < 1e-12

    def test_label_validation(self):
        with pytest.raises(ValueError):
            LogisticModel(X=np.ones((2, 1)), y=np.array([0.0, -1.0]))


_FULL_COV = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])


def _separate_only(density):
    """The density rebuilt from its ``log_density`` and ``gradient`` alone."""
    return UnnormalizedDensity(dim=density.dim, log_density=density.log_density, gradient=density.gradient)


# name -> (density, draw(rng, n) of points where it is finite)
_ENERGIES = {
    "gaussian_full_cov": (
        lambda: gaussian([0.5, -1.0, 2.0], _FULL_COV),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
    "student_t": (
        lambda: student_t([0.5, -1.0, 2.0], _FULL_COV, nu=3.0),
        lambda rng, n: rng.standard_normal((n, 3)) * 3.0,
    ),
    "logistic_posterior": (
        lambda: logistic_posterior(_logistic_model(n=200)),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
    "log_scaled_logistic_posterior": (
        lambda: with_log_scale(logistic_posterior(_logistic_model(n=200)), -3.5),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
    "log_scaled_gaussian": (
        lambda: with_log_scale(gaussian([0.0, 1.0, -1.0], _FULL_COV), 2.5),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
    "pareto_inside_support": (
        lambda: pareto(-1.0, 2.0, -0.25),
        lambda rng, n: -1.0 + 7.5 * rng.random((n, 1)),
    ),
    "separate_only_gaussian": (
        lambda: _separate_only(gaussian([0.5, -1.0, 2.0], _FULL_COV)),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
    "log_scaled_separate_only_gaussian": (
        lambda: with_log_scale(_separate_only(gaussian([0.5, -1.0, 2.0], _FULL_COV)), -1.25),
        lambda rng, n: rng.standard_normal((n, 3)) * 2.0,
    ),
}


@pytest.mark.parametrize("name", sorted(_ENERGIES))
def test_value_and_grad_is_bit_identical_to_separate_calls(name):
    make, draw = _ENERGIES[name]
    den = make()
    rng = np.random.default_rng(21)
    # alternating batch sizes rebuild any per-shape workspace between calls
    batches = [draw(rng, n) for n in (7, 5, 7, 1)]
    results = []
    for z in batches:
        lp, g = den.value_and_grad(z)
        assert lp.shape == (z.shape[0],) and g.shape == z.shape
        assert np.all(np.isfinite(lp)) and np.all(np.isfinite(g))
        assert np.array_equal(lp, den.log_density(z))
        assert np.array_equal(g, den.gradient(z))
        results.append((lp, g, lp.copy(), g.copy()))
    # no returned array aliases a buffer that a later call writes
    for lp, g, lp_copy, g_copy in results:
        assert np.array_equal(lp, lp_copy) and np.array_equal(g, g_copy)
    again = den.value_and_grad(batches[0])
    assert np.array_equal(again[0], results[0][0]) and np.array_equal(again[1], results[0][1])
    point = batches[1][0]
    lp, g = den.value_and_grad(point)
    assert isinstance(lp, float) and g.shape == point.shape
    assert lp == den.log_density(point) and np.array_equal(g, den.gradient(point))


def test_logistic_value_and_grad_allocates_no_batch_by_rows_array():
    post = logistic_posterior(_logistic_model(n=200))
    w = np.random.default_rng(22).standard_normal((256, 3))
    post.value_and_grad(w)  # builds the workspace for this batch size
    tracemalloc.start()
    try:
        post.value_and_grad(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 200 * np.dtype(float).itemsize


class TestGridDensity:
    def test_ratios_preserved_exactly(self):
        den = gaussian([0.0], 1.0)
        atoms = np.linspace(-2.0, 2.0, 9)
        grid = grid_from_density(den, atoms)
        lp = den.log_density(atoms[:, None])
        ratio = grid.mass / grid.mass[4]
        assert np.allclose(ratio, np.exp(lp - lp[4]), rtol=1e-15)

    def test_zero_mass_atoms_allowed(self):
        den = pareto(x_min=0.0, sigma=1.0, xi=0.0)
        grid = grid_from_density(den, np.array([-1.0, 0.5, 1.0]))
        assert grid.mass[0] == 0.0
        assert grid.mass[1] > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDensity(mass=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            GridDensity(mass=np.array([1.0, -0.5]))


class TestLogScale:
    def test_shifts_density_and_normalizer(self):
        den = with_log_scale(gaussian([0.0], 1.0), 2.0)
        base = gaussian([0.0], 1.0)
        z = np.array([0.3])
        assert den.log_density(z) == pytest.approx(base.log_density(z) + 2.0)
