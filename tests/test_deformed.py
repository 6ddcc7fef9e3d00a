import math

import numpy as np
import pytest

from qanneal.deformed import (
    exp_q,
    exp_q_prod_collapsed,
    exp_q_sum_factored,
    free_energy_to_multiplicative,
    ln_q,
    ln_q_exp,
    power_mean,
    rho_from_log_weights,
)

Q_GRID = [-2.0, -1.25, -0.5, 0.0, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0]


class TestLnExpQ:
    def test_known_values(self):
        assert ln_q(2.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert exp_q(0.5, 2.0) == pytest.approx(2.0, abs=1e-15)
        assert ln_q(2.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
        assert exp_q(0.5, 1.0) == pytest.approx(math.exp(0.5), abs=1e-15)

    def test_near_one_close_to_log(self):
        assert ln_q(2.0, 0.999) == pytest.approx(math.log(2.0), abs=1e-3)

    def test_inversion_round_trip(self):
        # grid chosen so u^(1-q) stays well above float eps for every q here;
        # outside that range ln_q saturates and the composition is ill-conditioned
        u = np.geomspace(0.06, 40.0, 61)
        for q in Q_GRID:
            v = exp_q(ln_q(u, q), q)
            assert np.max(np.abs(v - u) / u) < 1e-12, q

    def test_q_to_one_limit_decays(self):
        u = np.linspace(0.1, 10.0, 200)
        for sign in (+1.0, -1.0):
            errs = []
            for k in range(2, 7):
                q = 1.0 + sign * 10.0 ** (-k)
                err = np.max(np.abs(ln_q(u, q) - np.log(u)))
                assert err <= 3.0 * abs(1.0 - q)
                errs.append(err)
            assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_monotone_in_u(self):
        u = np.linspace(0.05, 20.0, 300)
        for q in Q_GRID:
            assert np.all(np.diff(ln_q(u, q)) > 0.0), q

    def test_exp_q_clamp_and_pole(self):
        # q < 1: bracket <= 0 collapses to 0
        assert exp_q(-10.0, 0.5) == 0.0
        # q > 1: bracket hitting 0 is a pole
        assert exp_q(2.0, 2.0) == np.inf

    def test_ln_q_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_q(0.0, 0.5)
        with pytest.raises(ValueError):
            ln_q(np.array([1.0, -2.0]), 0.5)


class TestPowerMean:
    def test_known_values(self):
        assert power_mean([2.0, 10.0], [0.3, 0.7], 0.0) == pytest.approx(7.6, abs=1e-14)
        assert power_mean([4.0, 9.0], [0.5, 0.5], 1.0) == pytest.approx(6.0, abs=1e-14)

    def test_affine_invariance(self):
        # the generalized mean under h(u) = a u^(1-q) + b ignores (a, b)
        rng = np.random.default_rng(7)
        for q in [-1.0, 0.0, 0.5, 2.0]:
            d = 1.0 - q
            u = rng.uniform(0.2, 5.0, size=4)
            w = rng.dirichlet(np.ones(4))
            ref = power_mean(u, w, q)
            for a in (2.0, -3.0, 0.5):
                for b in (0.0, 1.0, -2.0):
                    hu = a * u**d + b
                    mean_h = ((np.sum(w * hu) - b) / a) ** (1.0 / d)
                    assert mean_h == pytest.approx(ref, rel=1e-12)

    def test_bracketed_and_monotone_in_q(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = rng.uniform(0.1, 10.0, size=5)
            w = rng.dirichlet(np.ones(5))
            means = [power_mean(u, w, q) for q in np.linspace(-6.0, 6.0, 25)]
            assert all(u.min() - 1e-12 <= m <= u.max() + 1e-12 for m in means)
            assert all(a >= b - 1e-10 for a, b in zip(means, means[1:]))

    def test_extreme_q_approaches_min_max(self):
        u = np.array([0.5, 2.0, 8.0])
        w = np.array([0.2, 0.5, 0.3])
        assert power_mean(u, w, -60.0) == pytest.approx(u.max(), rel=0.05)
        assert power_mean(u, w, 60.0) == pytest.approx(u.min(), rel=0.05)

    def test_zero_value_conventions(self):
        u = np.array([0.0, 3.0])
        w = np.array([0.4, 0.6])
        assert power_mean(u, w, 1.0) == 0.0
        assert power_mean(u, w, 2.0) == 0.0
        assert power_mean(u, w, 0.5) > 0.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            power_mean([1.0, 2.0], [0.5, 0.6], 0.0)
        with pytest.raises(ValueError):
            power_mean([1.0], [1.0, 0.0], 0.0)


class TestStableLnQExp:
    def test_matches_naive_where_finite(self):
        log_u = np.linspace(-50.0, 50.0, 101)
        for q in [-1.0, 0.0, 0.5, 0.9, 1.0, 1.1, 2.0]:
            naive = ln_q(np.exp(log_u), q)
            stable = ln_q_exp(log_u, q)
            denom = np.maximum(np.abs(naive), 1.0)
            assert np.max(np.abs(stable - naive) / denom) < 1e-10, q

    def test_large_argument_with_matched_order(self):
        # naive exp overflows here; the rho-matched order keeps the value tame
        rho = 700.0
        q = 1.0 - 1.0 / rho
        assert ln_q_exp(700.0, q) == pytest.approx(700.0 * math.expm1(1.0), rel=1e-14)

    def test_monotone(self):
        # ranges paired with orders whose rho keeps exp(log_u/rho) finite
        for span, q in [(50.0, 0.9), (500.0, 0.999), (1e4, 1.0 - 1e-4)]:
            log_u = np.linspace(-span, span, 501)
            assert np.all(np.diff(ln_q_exp(log_u, q)) > 0.0)


class TestRhoChoice:
    def test_max_magnitude_rule(self):
        choice = rho_from_log_weights([-3.0, 5.0, -10.0])
        assert choice.rho == 10.0
        assert choice.q == pytest.approx(0.9, abs=1e-15)
        assert not choice.degenerate

    def test_small_weights_give_negative_q(self):
        choice = rho_from_log_weights([0.5])
        assert choice.rho == 0.5
        assert choice.q == pytest.approx(-1.0, abs=1e-15)

    def test_all_zero_is_degenerate(self):
        choice = rho_from_log_weights([0.0, 0.0])
        assert choice.degenerate
        assert choice.rho == 1.0

    def test_bounded_deformed_weights(self):
        rng = np.random.default_rng(3)
        lw = rng.uniform(-2e3, 2e3, size=64)
        choice = rho_from_log_weights(lw)
        deformed = ln_q_exp(lw, choice.q)
        # |ln_q e^x| <= rho * (e - 1) once |x| <= rho
        assert np.all(np.abs(deformed) <= choice.rho * math.expm1(1.0) + 1e-9)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            rho_from_log_weights([])
        with pytest.raises(ValueError):
            rho_from_log_weights([1.0, -np.inf])


def _valid_tuple(xs, q):
    # both identities need every intermediate bracket strictly positive
    d = 1.0 - q
    partial = 0.0
    scale = 1.0
    for x in xs:
        if 1.0 + d * partial <= 0.05 or 1.0 + d * x <= 0.05 or scale <= 0.05:
            return False
        partial += x
        scale *= 1.0 + d * x
    return 1.0 + d * partial > 0.05


class TestSplitMergeIdentities:
    def test_geometric_branch_factorizes(self):
        assert exp_q_sum_factored([1.0, 2.0, 3.0], 1.0) == pytest.approx(math.exp(6.0), rel=1e-14)
        assert exp_q_prod_collapsed([1.0, 1.0], 1.0) == pytest.approx(math.exp(2.0), rel=1e-14)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_sum_identity(self, q):
        rng = np.random.default_rng(int(q * 10) + 1)
        checked = 0
        while checked < 40:
            n = rng.integers(1, 7)
            xs = rng.uniform(-0.5, 0.5, size=n)
            if not _valid_tuple(xs, q):
                continue
            lhs = float(exp_q(np.sum(xs), q))
            rhs = exp_q_sum_factored(xs, q)
            assert rhs == pytest.approx(lhs, rel=1e-10)
            checked += 1

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_product_identity(self, q):
        rng = np.random.default_rng(int(q * 10) + 101)
        checked = 0
        while checked < 40:
            n = rng.integers(1, 7)
            xs = rng.uniform(-0.5, 0.5, size=n)
            if not _valid_tuple(xs, q):
                continue
            lhs = float(np.prod([exp_q(x, q) for x in xs]))
            rhs = exp_q_prod_collapsed(xs, q)
            assert rhs == pytest.approx(lhs, rel=1e-10)
            checked += 1

    def test_sum_identity_zero_divisor(self):
        # partial sum 1 with q = 2 makes the divisor vanish
        with pytest.raises(ValueError):
            exp_q_sum_factored([1.0, 0.3], 2.0)


class TestFreeEnergyConversion:
    def test_known_value(self):
        beta, z = free_energy_to_multiplicative(1.0, 0.4, 0.5)
        assert beta == pytest.approx(1.25, abs=1e-14)
        assert z == pytest.approx(1.5625, abs=1e-14)

    def test_pointwise_equivalence_on_grid(self):
        # exp_q(theta*phi - psi) must equal exp_q(beta*phi)/z pointwise
        theta, psi, q = 1.0, 0.4, 0.5
        beta, z = free_energy_to_multiplicative(theta, psi, q)
        phi = np.linspace(-1.0, 2.0, 40)
        lhs = exp_q(theta * phi - psi, q)
        rhs = exp_q(beta * phi, q) / z
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_geometric_branch(self):
        beta, z = free_energy_to_multiplicative(np.array([2.0, -1.0]), 0.7, 1.0)
        assert np.allclose(beta, [2.0, -1.0])
        assert z == pytest.approx(math.exp(0.7), rel=1e-14)

    def test_rejects_out_of_range(self):
        # 1 + (1-q)(-psi) <= 0 once psi >= 2 at q = 0.5
        with pytest.raises(ValueError):
            free_energy_to_multiplicative(1.0, 2.5, 0.5)

