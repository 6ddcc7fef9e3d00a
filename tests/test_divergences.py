import math

import numpy as np
import pytest

from qanneal import divergences
from qanneal.densities import GridDensity, gaussian, grid_from_density
from qanneal.divergences import (
    ArgminCertificate,
    DivergenceWeights,
    alpha_divergence,
    certify_argmin,
    extended_kl,
    grid_power_mean,
    variational_objective,
)

E = math.e


def random_grid(rng, n_atoms):
    return GridDensity(mass=rng.uniform(0.1, 3.0, size=n_atoms))


def density_grids():
    """N(-1, 1) and N(1.5, 0.5) on 41 atoms of [-6, 6], whose tail masses
    fall to 9e-12 and 2e-25."""
    atoms = np.linspace(-6.0, 6.0, 41)
    return (grid_from_density(gaussian([-1.0], [[1.0]]), atoms),
            grid_from_density(gaussian([1.5], [[0.5]]), atoms))


class TestAlphaDivergence:
    def test_self_divergence_zero_for_many_alphas(self):
        rng = np.random.default_rng(7)
        g = random_grid(rng, 5)
        for alpha in [-3.0, -0.9, -0.5, 0.0, 0.5, 0.9, 2.0, 3.0]:
            assert abs(alpha_divergence(g, g, alpha)) < 1e-12

    def test_nonnegative_and_positive_when_different(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = random_grid(rng, 6)
            p = random_grid(rng, 6)
            for alpha in [-3.0, -0.5, 0.0, 0.5, 3.0]:
                val = alpha_divergence(r, p, alpha)
                assert val > 0.0

    def test_unnormalized_scaling_sensitivity(self):
        p = GridDensity(mass=np.array([0.4, 0.6]))
        doubled = GridDensity(mass=2.0 * p.mass)
        assert alpha_divergence(doubled, p, 0.0) > 0.0

    def test_alpha_one_rejected(self):
        g = GridDensity(mass=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            alpha_divergence(g, g, 1.0)
        with pytest.raises(ValueError):
            alpha_divergence(g, g, -1.0)

    def test_support_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            alpha_divergence(
                GridDensity(mass=np.array([1.0, 2.0])),
                GridDensity(mass=np.array([1.0, 2.0, 3.0])),
                0.0,
            )

    def test_zero_mass_under_negative_exponent_is_infinite(self):
        r = GridDensity(mass=np.array([0.0, 1.0]))
        p = GridDensity(mass=np.array([1.0, 1.0]))
        assert alpha_divergence(r, p, 3.0) == np.inf

    def test_atoms_where_both_vanish_contribute_nothing(self):
        r = GridDensity(mass=np.array([0.0, 1.0, 2.0]))
        p = GridDensity(mass=np.array([0.0, 1.0, 2.0]))
        assert abs(alpha_divergence(r, p, 0.5)) < 1e-12


class TestExtendedKl:
    def test_frozen_two_atom_value(self):
        r = GridDensity(mass=np.array([1.0, 1.0]))
        p = GridDensity(mass=np.array([E, E]))
        assert extended_kl(r, p) == pytest.approx(2.0 * E - 4.0, abs=1e-14)

    def test_self_kl_zero(self):
        g = GridDensity(mass=np.array([0.3, 1.7, 0.9]))
        assert extended_kl(g, g) == pytest.approx(0.0, abs=1e-14)

    def test_normalized_grids_reduce_to_standard_kl(self):
        rng = np.random.default_rng(5)
        rm = rng.uniform(0.1, 1.0, size=4)
        pm = rng.uniform(0.1, 1.0, size=4)
        rm /= rm.sum()
        pm /= pm.sum()
        standard = float(np.sum(rm * np.log(rm / pm)))
        got = extended_kl(GridDensity(mass=rm), GridDensity(mass=pm))
        assert got == pytest.approx(standard, abs=1e-13)

    def test_support_violation_rejected(self):
        r = GridDensity(mass=np.array([1.0, 1.0]))
        p = GridDensity(mass=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            extended_kl(r, p)

    def test_zero_atoms_in_first_argument_allowed(self):
        r = GridDensity(mass=np.array([0.0, 1.0]))
        p = GridDensity(mass=np.array([0.5, 1.0]))
        assert extended_kl(r, p) == pytest.approx(0.0 - 1.0 + 1.5, abs=1e-14)


class TestKlLimits:
    def test_alpha_to_minus_one_approaches_kl_monotonically(self):
        # Frozen example first: r=(1,1), p=(e,e) has extended KL 2e-4.
        r = GridDensity(mass=np.array([1.0, 1.0]))
        p = GridDensity(mass=np.array([E, E]))
        limit = extended_kl(r, p)
        assert limit == pytest.approx(2.0 * E - 4.0, abs=1e-14)
        gaps = [
            alpha_divergence(r, p, -(1.0 - 10.0**-k)) - limit for k in range(3, 7)
        ]
        assert all(abs(g2) < abs(g1) for g1, g2 in zip(gaps, gaps[1:]))
        assert len({np.sign(g) for g in gaps}) == 1

    def test_alpha_to_plus_one_approaches_reversed_kl(self):
        rng = np.random.default_rng(11)
        r = random_grid(rng, 5)
        p = random_grid(rng, 5)
        limit = extended_kl(p, r)
        gaps = [
            alpha_divergence(r, p, 1.0 - 10.0**-k) - limit for k in range(3, 7)
        ]
        assert all(abs(g2) < abs(g1) for g1, g2 in zip(gaps, gaps[1:]))
        assert abs(gaps[-1]) < 1e-5

    def test_alpha_to_minus_one_on_random_grids(self):
        rng = np.random.default_rng(12)
        r = random_grid(rng, 5)
        p = random_grid(rng, 5)
        limit = extended_kl(r, p)
        gaps = [
            alpha_divergence(r, p, -(1.0 - 10.0**-k)) - limit for k in range(3, 7)
        ]
        assert all(abs(g2) < abs(g1) for g1, g2 in zip(gaps, gaps[1:]))
        assert abs(gaps[-1]) < 1e-5

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_distance_to_the_limit_shrinks_with_one_minus_alpha(self, sign):
        # alpha -> -1 reaches KL(r, p) and alpha -> +1 KL(p, r), at a distance
        # proportional to 1 -+ alpha down to 1e-12: no cancelled sum is left
        r, p = density_grids()
        limit = extended_kl(r, p) if sign < 0.0 else extended_kl(p, r)
        slopes = [
            (alpha_divergence(r, p, sign * (1.0 - 10.0**-k)) - limit) / 10.0**-k
            for k in (4, 8, 12)
        ]
        assert slopes[1:] == pytest.approx([slopes[0]] * 2, rel=1e-2)


class TestVariationalObjective:
    def test_matches_direct_summation_oracle(self):
        # Three atoms, beta = 0.5, alpha = 0: spell the weighted sum out.
        r = GridDensity(mass=np.array([0.5, 1.0, 2.0]))
        pi0 = GridDensity(mass=np.array([1.0, 1.5, 0.25]))
        pi1 = GridDensity(mass=np.array([2.0, 0.5, 1.0]))

        def d_zero(u, v):
            return 4.0 * float(np.sum(0.5 * u.mass + 0.5 * v.mass - np.sqrt(u.mass * v.mass)))

        expected = 0.5 * d_zero(pi0, r) + 0.5 * d_zero(pi1, r)
        got = variational_objective(r, pi0, pi1, DivergenceWeights(beta=0.5, alpha=0.0))
        assert got == pytest.approx(expected, abs=1e-13)

    def test_all_equal_gives_zero(self):
        g = GridDensity(mass=np.array([0.7, 1.3]))
        for alpha in [-1.0, -0.5, 0.0, 1.0, 3.0]:
            w = DivergenceWeights(beta=0.4, alpha=alpha)
            assert abs(variational_objective(g, g, g, w)) < 1e-12

    def test_beta_zero_is_first_endpoint_divergence(self):
        rng = np.random.default_rng(3)
        r = random_grid(rng, 4)
        pi0 = random_grid(rng, 4)
        pi1 = random_grid(rng, 4)
        w = DivergenceWeights(beta=0.0, alpha=0.5)
        assert variational_objective(r, pi0, pi1, w) == pytest.approx(
            alpha_divergence(pi0, r, 0.5), abs=1e-13
        )

    def test_kl_weight_orders_follow_the_limits(self):
        rng = np.random.default_rng(4)
        r = random_grid(rng, 4)
        pi0 = random_grid(rng, 4)
        pi1 = random_grid(rng, 4)
        at_minus = variational_objective(r, pi0, pi1, DivergenceWeights(0.3, -1.0))
        assert at_minus == pytest.approx(
            0.7 * extended_kl(pi0, r) + 0.3 * extended_kl(pi1, r), abs=1e-13
        )
        at_plus = variational_objective(r, pi0, pi1, DivergenceWeights(0.3, 1.0))
        assert at_plus == pytest.approx(
            0.7 * extended_kl(r, pi0) + 0.3 * extended_kl(r, pi1), abs=1e-13
        )

    def test_weights_validate_beta(self):
        with pytest.raises(ValueError):
            DivergenceWeights(beta=1.5, alpha=0.0)

    def test_mixing_order_round_trip(self):
        w = DivergenceWeights.from_mixing_order(beta=0.2, q=0.75)
        assert w.alpha == pytest.approx(0.5)
        assert w.mixing_order == pytest.approx(0.75)


class TestGridPowerMean:
    def test_endpoints_recovered_exactly(self):
        rng = np.random.default_rng(9)
        pi0 = random_grid(rng, 5)
        pi1 = random_grid(rng, 5)
        assert np.array_equal(grid_power_mean(pi0, pi1, 0.0, 0.5).mass, pi0.mass)
        assert np.array_equal(grid_power_mean(pi0, pi1, 1.0, 0.5).mass, pi1.mass)

    def test_arithmetic_mixture_at_order_zero(self):
        pi0 = GridDensity(mass=np.array([1.0, 4.0]))
        pi1 = GridDensity(mass=np.array([3.0, 2.0]))
        got = grid_power_mean(pi0, pi1, 0.25, 0.0).mass
        np.testing.assert_allclose(got, 0.75 * pi0.mass + 0.25 * pi1.mass, rtol=1e-14)

    def test_geometric_mixture_at_order_one(self):
        pi0 = GridDensity(mass=np.array([1.0, 4.0]))
        pi1 = GridDensity(mass=np.array([3.0, 2.0]))
        got = grid_power_mean(pi0, pi1, 0.5, 1.0).mass
        np.testing.assert_allclose(got, np.sqrt(pi0.mass * pi1.mass), rtol=1e-14)

    def test_zero_mass_rejected(self):
        pi0 = GridDensity(mass=np.array([0.0, 1.0]))
        pi1 = GridDensity(mass=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            grid_power_mean(pi0, pi1, 0.5, 0.5)


class TestCertifyArgmin:
    def test_two_atom_case_certified(self):
        pi0 = GridDensity(mass=np.array([1.0, 0.5]))
        pi1 = GridDensity(mass=np.array([0.25, 2.0]))
        cert = certify_argmin(pi0, pi1, beta=0.5, q=0.5, trials=500)
        assert isinstance(cert, ArgminCertificate)
        assert cert.passed
        assert cert.min_margin > 0.0
        assert cert.max_stationarity_residual < 1e-10
        assert cert.violation is None

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_full_order_beta_matrix(self, q, beta):
        rng = np.random.default_rng(int(1000 * q) + int(10 * beta))
        pi0 = random_grid(rng, 6)
        pi1 = random_grid(rng, 6)
        cert = certify_argmin(pi0, pi1, beta=beta, q=q, trials=60, rng=rng)
        assert cert.passed
        assert cert.min_margin > 0.0

    def test_beta_zero_returns_first_endpoint(self):
        rng = np.random.default_rng(21)
        pi0 = random_grid(rng, 4)
        pi1 = random_grid(rng, 4)
        candidate = grid_power_mean(pi0, pi1, 0.0, 0.5)
        assert np.array_equal(candidate.mass, pi0.mass)
        w = DivergenceWeights.from_mixing_order(0.0, 0.5)
        assert abs(variational_objective(candidate, pi0, pi1, w)) < 1e-12

    def test_failure_records_the_violating_candidate(self):
        # A grid that is not the power mean must lose to some perturbation
        # of the true candidate; force a failure by certifying around a
        # wrong q and checking the stationarity residual trips.
        pi0 = GridDensity(mass=np.array([1.0, 0.5]))
        pi1 = GridDensity(mass=np.array([0.25, 2.0]))
        cert = certify_argmin(pi0, pi1, beta=0.5, q=0.5, trials=5)
        wrong = grid_power_mean(pi0, pi1, 0.5, 2.0)
        w = DivergenceWeights.from_mixing_order(0.5, 0.5)
        assert variational_objective(wrong, pi0, pi1, w) > cert.objective_at_candidate

    def test_order_zero_minimizer_is_the_mixture_not_the_moment_average(self):
        atoms = np.linspace(-9.0, 9.0, 241)
        base = gaussian(np.array([-2.0]), np.array([[1.0]]))
        target = gaussian(np.array([3.0]), np.array([[0.5]]))
        pi0 = grid_from_density(base, atoms)
        pi1 = grid_from_density(target, atoms)
        beta = 0.3

        cert = certify_argmin(pi0, pi1, beta=beta, q=0.0, trials=100)
        assert cert.passed

        mixture = grid_power_mean(pi0, pi1, beta, 0.0)
        mean_mix = (1 - beta) * -2.0 + beta * 3.0
        second_mix = (1 - beta) * (1.0 + 4.0) + beta * (0.5 + 9.0)
        var_mix = second_mix - mean_mix**2
        moment_avg = grid_from_density(
            gaussian(np.array([mean_mix]), np.array([[var_mix]])), atoms
        )
        w = DivergenceWeights.from_mixing_order(beta, 0.0)
        obj_mixture = variational_objective(mixture, pi0, pi1, w)
        obj_moment = variational_objective(moment_avg, pi0, pi1, w)
        assert obj_mixture < obj_moment

    @pytest.mark.parametrize("q", [1e-13, 0.5, 1 - 1e-11, 1 - 1e-13, 1 + 1e-13, 1.5, 2.0, 3.0])
    def test_density_grid_certified_at_every_order(self, q):
        # near q = 0 and q = 1 the objective's alpha = 2q - 1 nears -1 and +1,
        # and above q = 1 the tail masses' powers mass**(1 - q) reach 1e34
        pi0, pi1 = density_grids()
        for beta in (0.0, 0.1, 0.3, 0.9, 1.0):
            cert = certify_argmin(pi0, pi1, beta=beta, q=q, trials=20)
            assert cert.passed, (beta, cert.min_margin, cert.max_stationarity_residual)
            assert cert.max_stationarity_residual < 1e-12

    @pytest.mark.parametrize("q", [0.5, 1 - 1e-11, 2.0])
    def test_residual_reads_a_one_nat_error_in_nats(self, q, monkeypatch):
        # a candidate off by one nat at every atom reads about 1 at every
        # order, near the geometric one too, not a residual scaled by 1 - q
        pi0, pi1 = density_grids()
        power_mean = divergences.grid_power_mean
        monkeypatch.setattr(divergences, "grid_power_mean",
                            lambda *args: GridDensity(mass=power_mean(*args).mass * E, atoms=pi0.atoms))
        cert = certify_argmin(pi0, pi1, beta=0.3, q=q, trials=1)
        assert cert.max_stationarity_residual >= 0.5
        assert not cert.passed
