"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``[acceptance] <name>: PASS/FAIL`` line and
enforces its own wallclock budget, so ``pytest -s tests/test_acceptance.py``
doubles as the release checklist.  Every run below is seeded, so the
statistical gates are reproducible rather than flaky.
"""

import contextlib
import io
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import (
    fd_gradient,
    logistic_evidence_quadrature,
    make_logistic_csv,
    piecewise_density,
    rel_err,
)
from qanneal.cli import run
from qanneal.deformed import (
    exp_q,
    exp_q_prod_collapsed,
    exp_q_sum_factored,
    free_energy_to_multiplicative,
    ln_q,
    power_mean,
    rho_from_log_weights,
)
from qanneal.densities import (
    GridDensity,
    LogisticModel,
    gaussian,
    grid_from_density,
    logistic_prior,
    logistic_posterior,
    q_from_nu,
    student_t,
    with_log_scale,
)
from qanneal.divergences import (
    DivergenceWeights,
    certify_argmin,
    grid_power_mean,
    variational_objective,
)
from qanneal.hmc import HmcConfig
from qanneal.io import RunConfig, load_binary_regression_csv
from qanneal.paths import (
    MomentPath,
    QPath,
    blend_log_ratio,
    gaussian_natural_params,
    moment_path_params,
    same_family_qpath_params,
    student_t_natural_params,
)
from qanneal.samplers import ais_forward, ais_reverse, ess_of_log_weights, smc_run
from qanneal.schedules import HeuristicConfig, ess_heuristic_q


@contextmanager
def checkpoint(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s:.0f}s"
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


def quiet_run(config: RunConfig):
    # keep per-run summary lines out of the acceptance log
    with contextlib.redirect_stdout(io.StringIO()):
        return run(config)


def toy_gaussian_pair():
    return gaussian([-4.0], 3.0), gaussian([4.0], 1.0)


def small_cfg(dim=1, step=0.4, n_leapfrog=8):
    return HmcConfig(step_size=step, n_leapfrog=n_leapfrog)


def test_identity_suite():
    with checkpoint("identity-suite", budget_s=5.0):
        rng = np.random.default_rng(0)
        qs = [-1.0, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0]

        # deformed log and exponential invert each other
        u = np.concatenate([np.geomspace(0.05, 20.0, 40), [1.0]])
        for q in qs:
            assert np.max(np.abs(exp_q(ln_q(u, q), q) / u - 1.0)) < 1e-12
            v = rng.uniform(-0.9, 0.9, size=200)
            alive = 1.0 + (1.0 - q) * v > 0.05
            assert alive.sum() > 50
            va = v[alive]
            assert np.max(np.abs(ln_q(exp_q(va, q), q) - va)) < 1e-12

        # both halves collapse to log/exp as the order approaches one
        eps = 1e-11
        for q in (1.0 - eps, 1.0 + eps):
            assert np.max(np.abs(ln_q(u, q) - np.log(u))) < 1e-10
            w = np.linspace(-3.0, 3.0, 41)
            assert np.max(np.abs(exp_q(w, q) / np.exp(w) - 1.0)) < 1e-10

        # power means ignore affine reparametrizations of the generator
        for q in (-1.0, 0.0, 0.5, 2.0):
            d = 1.0 - q
            vals = rng.uniform(0.2, 5.0, size=4)
            wts = rng.dirichlet(np.ones(4))
            ref = power_mean(vals, wts, q)
            for a in (2.0, -3.0, 0.5):
                for b in (0.0, 1.0, -2.0):
                    hu = a * vals**d + b
                    mean_h = ((np.sum(wts * hu) - b) / a) ** (1.0 / d)
                    assert mean_h == pytest.approx(ref, rel=1e-12)
            # scaling the inputs scales the mean
            assert power_mean(3.0 * vals, wts, q) == pytest.approx(3.0 * ref, rel=1e-12)

        # sum factors across partial sums; products collapse to one call
        for q in (0.0, 0.5, 1.0, 1.5, 2.0):
            d = 1.0 - q
            checked = 0
            while checked < 25:
                xs = rng.uniform(-0.5, 0.5, size=int(rng.integers(1, 7)))
                partial, scale, ok = 0.0, 1.0, True
                for x in xs:
                    if 1.0 + d * partial <= 0.05 or 1.0 + d * x <= 0.05 or scale <= 0.05:
                        ok = False
                        break
                    partial += x
                    scale *= 1.0 + d * x
                if not ok or 1.0 + d * partial <= 0.05:
                    continue
                total = float(np.sum(xs))
                assert exp_q_sum_factored(xs, q) == pytest.approx(float(exp_q(total, q)), rel=1e-10)
                prod = float(np.prod([exp_q(x, q) for x in xs]))
                assert exp_q_prod_collapsed(xs, q) == pytest.approx(prod, rel=1e-10)
                checked += 1

        # subtractive free energy and multiplicative normalizer agree pointwise,
        # including the location of the q > 1 pole
        phi = np.linspace(-1.0, 2.0, 40)
        for theta, psi, q in ((1.0, 0.4, 0.5), (0.7, -0.3, 0.0), (2.0, 0.2, 1.5), (1.0, 0.6, 1.0)):
            beta, z = free_energy_to_multiplicative(theta, psi, q)
            lhs = exp_q(theta * phi - psi, q)
            rhs = exp_q(beta * phi, q) / z
            assert np.array_equal(np.isinf(lhs), np.isinf(rhs))
            finite = np.isfinite(lhs)
            gap = np.abs(lhs[finite] - rhs[finite])
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(lhs[finite])))


def test_path_algebra_suite():
    with checkpoint("path-algebra", budget_s=10.0):
        base, target = toy_gaussian_pair()
        zs = np.linspace(-9.0, 9.0, 50)[:, None]
        lp0, lp1 = base.log_density(zs), target.log_density(zs)

        # endpoints come back bit exact for every mixing order
        for q in (0.0, 0.5, 1.0, 2.0):
            path = QPath(base=base, target=target, q=q)
            assert np.array_equal(path.log_density(zs, 0.0), lp0)
            assert np.array_equal(path.log_density(zs, 1.0), lp1)

        for beta in (0.2, 0.5, 0.8):
            # order zero is the arithmetic mixture of the densities
            arith = np.log((1.0 - beta) * np.exp(lp0) + beta * np.exp(lp1))
            got = QPath(base=base, target=target, q=0.0).log_density(zs, beta)
            assert np.max(np.abs(got - arith)) < 1e-12
            # order one is the geometric mixture
            geo = (1.0 - beta) * lp0 + beta * lp1
            got = QPath(base=base, target=target, q=1.0).log_density(zs, beta)
            assert np.max(np.abs(got - geo)) < 1e-12

        # mixing in the deformed-log domain and mapping back agrees; the
        # naive reference route itself needs moderate densities to hold digits
        from qanneal.deformed import ln_q_exp

        zs_mid = np.linspace(-6.0, 6.0, 50)[:, None]
        for q in (0.0, 0.5, 0.9):
            path = QPath(base=base, target=target, q=q)
            for beta in (0.2, 0.6):
                mix = (1.0 - beta) * ln_q_exp(base.log_density(zs_mid), q) + beta * ln_q_exp(
                    target.log_density(zs_mid), q
                )
                back = np.log(exp_q(mix, q))
                assert np.max(np.abs(back - path.log_density(zs_mid, beta))) < 1e-10

        # closure inside one parametric family, checked on 50-point grids
        grid = np.linspace(-6.0, 6.0, 50)
        geo_path = QPath(base=base, target=target, q=1.0)
        p0 = gaussian_natural_params(-4.0, 3.0)
        p1 = gaussian_natural_params(4.0, 1.0)
        for beta in (0.3, 0.7):
            blended = same_family_qpath_params(p0, p1, beta)
            assert np.max(np.abs(blended.log_density(grid) - geo_path.log_density(grid[:, None], beta))) < 1e-10

        t_base = student_t([-4.0], 3.0, nu=1.0)
        t_target = student_t([4.0], 1.0, nu=1.0)
        t_path = QPath(base=t_base, target=t_target, q=2.0)
        s0 = student_t_natural_params(-4.0, 3.0, nu=1.0)
        s1 = student_t_natural_params(4.0, 1.0, nu=1.0)
        assert s0.q == pytest.approx(2.0)
        for beta in (0.3, 0.7):
            blended = same_family_qpath_params(s0, s1, beta)
            assert np.max(np.abs(blended.log_density(grid) - t_path.log_density(grid[:, None], beta))) < 1e-10


def test_variational_certification():
    with checkpoint("variational-certification", budget_s=60.0):
        # the power-mean candidate survives perturbation search on the full
        # order/weight matrix over random small grids
        for q in (0.0, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0):
            for beta in (0.1, 0.5, 0.9):
                rng = np.random.default_rng(int(1000 * q) + int(10 * beta))
                n_atoms = int(rng.integers(2, 7))
                pi0 = GridDensity(mass=rng.uniform(0.1, 3.0, size=n_atoms))
                pi1 = GridDensity(mass=rng.uniform(0.1, 3.0, size=n_atoms))
                cert = certify_argmin(pi0, pi1, beta=beta, q=q, trials=60, rng=rng)
                assert cert.passed, (q, beta)
                assert cert.min_margin > 0.0

        # at order zero the mixture wins and the moment-averaged normal loses
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
        moment_avg = grid_from_density(
            gaussian(np.array([mean_mix]), np.array([[second_mix - mean_mix**2]])), atoms
        )
        w = DivergenceWeights.from_mixing_order(beta, 0.0)
        assert variational_objective(mixture, pi0, pi1, w) < variational_objective(
            moment_avg, pi0, pi1, w
        )


def escort_stats(mu: float, scale: float, nu: float) -> tuple[float, float]:
    """Quadrature escort mean and matched second statistic of a 1-d waypoint.

    The statistic that mixes linearly along the moment path is the escort
    scale plus squared mean, i.e. nu/(nu+2) times the escort variance plus
    the squared escort mean.
    """
    q = q_from_nu(nu, 1)
    dens = student_t([mu], float(scale), nu=nu)

    def f(z, k):
        return z**k * math.exp(q * float(dens.log_density(np.array([z]))))

    norm = quad(f, -np.inf, np.inf, args=(0,), limit=400)[0]
    m1 = quad(f, -np.inf, np.inf, args=(1,), limit=400)[0] / norm
    m2 = quad(f, -np.inf, np.inf, args=(2,), limit=400)[0] / norm
    return m1, nu / (nu + 2.0) * (m2 - m1**2) + m1**2


def test_escort_moment_correctness():
    with checkpoint("escort-moment-path", budget_s=30.0):
        mu0, c0, mu1, c1 = -4.0, 3.0, 4.0, 1.0
        for nu in (1.0, 3.0, 10.0):
            em0, es0 = escort_stats(mu0, c0, nu)
            em1, es1 = escort_stats(mu1, c1, nu)
            for beta in (0.25, 0.5, 0.8):
                mu_b, cov_b = moment_path_params([mu0], c0, [mu1], c1, beta, nu=nu)
                emb, esb = escort_stats(float(mu_b[0]), float(cov_b[0, 0]), nu)
                assert abs(emb - ((1 - beta) * em0 + beta * em1)) < 1e-6
                assert abs(esb - ((1 - beta) * es0 + beta * es1)) < 1e-6

        # the light-tailed branch reproduces the plain moment average
        _, cov = moment_path_params([mu0], c0, [mu1], c1, beta=0.5)
        assert cov[0, 0] == pytest.approx(18.0, abs=1e-12)
        # and the heavy-tailed family approaches it as tails lighten
        _, cov = moment_path_params([mu0], c0, [mu1], c1, beta=0.5, nu=1e7)
        assert cov[0, 0] == pytest.approx(18.0, abs=1e-5)


def test_gradient_suite():
    with checkpoint("gradient-accuracy", budget_s=10.0):
        rng = np.random.default_rng(5)
        n_rows = 12
        features = rng.standard_normal((n_rows, 2))
        design = np.hstack([np.ones((n_rows, 1)), features])
        labels = (rng.uniform(size=n_rows) < 0.5).astype(float)
        model = LogisticModel(X=design, y=labels, prior_sd=5.0)

        pairs = [
            (gaussian([-4.0], 3.0), gaussian([4.0], 1.0), 1),
            (student_t([-1.0], 2.0, nu=3.0), student_t([2.0], 1.0, nu=5.0), 1),
            (logistic_prior(model), logistic_posterior(model), 3),
        ]
        draws = np.random.default_rng(17)
        for q in (0.0, 0.5, 0.97, 1.0, 2.0):
            for base, target, dim in pairs:
                path = QPath(base=base, target=target, q=q)
                for _ in range(100):
                    z = draws.uniform(-3.0, 3.0, size=dim)
                    beta = draws.uniform(0.05, 0.95)
                    an = path.gradient(z, beta)
                    fd = fd_gradient(lambda p: path.log_density(p, beta), z)
                    assert rel_err(an, fd) < 1e-5, (q, beta, z)


def test_estimator_sanity():
    with checkpoint("estimator-sanity", budget_s=120.0):
        # identical endpoints leave every telescoping weight at exactly zero
        g = gaussian([1.0], 1.5)
        same = QPath(base=g, target=g, q=0.5)
        res = ais_forward(same, np.linspace(0.0, 1.0, 6), chains=8, cfg=small_cfg(),
                          moves_per_step=1, rng=np.random.default_rng(3), adapt_steps=0)
        assert res.log_Z_estimate == 0.0
        log_z, _ = smc_run(same, np.linspace(0.0, 1.0, 5), particles=16,
                           moves_per_step=1, cfg=small_cfg(),
                           rng=np.random.default_rng(31), adapt_steps=0)
        assert log_z == 0.0
        log_z, _ = smc_run(same, "adaptive", particles=16, moves_per_step=1,
                           cfg=small_cfg(), rng=np.random.default_rng(37), adapt_steps=0)
        assert log_z == 0.0

        # a constructed normalizer of 2 nats is recovered within 3 SE
        base = gaussian([0.0], 1.0)
        target = with_log_scale(gaussian([2.0], 1.0), 2.0)
        path = QPath(base=base, target=target, q=1.0)
        res = ais_forward(path, np.linspace(0.0, 1.0, 101), chains=1000,
                          cfg=small_cfg(), moves_per_step=1,
                          rng=np.random.default_rng(2026), adapt_steps=5)
        w = np.exp(res.per_chain_log_w - res.per_chain_log_w.max())
        se = w.std() / (w.mean() * math.sqrt(w.size))
        assert abs(res.log_Z_estimate - 2.0) < 3.0 * se

        # the particle estimator is unbiased on an enumerable histogram target
        heights = np.array([0.5, 2.0, 1.0, 1.5])
        hist_path = QPath(base=piecewise_density(np.ones(4)),
                          target=piecewise_density(heights), q=1.0)
        true_z = float(np.mean(heights))
        cfg = HmcConfig(step_size=0.25, n_leapfrog=5)
        z_hats = []
        for seed in range(200):
            log_z, _ = smc_run(hist_path, np.linspace(0.0, 1.0, 5), particles=64,
                               moves_per_step=2, cfg=cfg, rng=seed, adapt_steps=0)
            z_hats.append(math.exp(log_z))
        z_hats = np.asarray(z_hats)
        se = z_hats.std() / math.sqrt(z_hats.size)
        assert abs(z_hats.mean() - true_z) < 3.0 * se


def test_desk_scale_study(tmp_path):
    with checkpoint("desk-scale-study", budget_s=600.0):
        seeds = range(10)

        # searching the mixing order beats the geometric path on sandwich gaps
        geo_gaps = {
            K: [
                quiet_run(RunConfig(command="bdmc", path_kind="geometric", K=K,
                                    particles=64, seed=s)).extras["bdmc_gap"]
                for s in seeds
            ]
            for K in (8, 32, 128)
        }
        best_gaps = [
            quiet_run(RunConfig(command="grid-q", path_kind="qpath", K=32,
                                particles=64, seed=s)).extras["best_gap"]
            for s in seeds
        ]
        assert np.median(best_gaps) <= np.median(geo_gaps[32])

        # more intermediate steps never widen the geometric median gap
        medians = [np.median(geo_gaps[K]) for K in (8, 32, 128)]
        assert medians[0] >= medians[1] >= medians[2]

        # schedule and move-count orderings on a generated regression problem
        csv = str(tmp_path / "toy.csv")
        make_logistic_csv(csv, n_rows=40, n_features=2, seed=0)
        truth = logistic_evidence_quadrature(load_binary_regression_csv(csv),
                                             half_width=8.0, points=81)

        def median_err(**overrides):
            errs = [
                abs(quiet_run(RunConfig(command="smc", dataset=csv,
                                        particles=256, seed=s, **overrides)).log_Z - truth)
                for s in seeds
            ]
            return float(np.median(errs))

        linear = median_err(schedule="linear", K=10, moves=1)
        adaptive = median_err(schedule="adaptive", moves=1)
        assert adaptive < linear
        # step-size tuning sweeps also move particles, so the move-count
        # contrast is run with tuning off
        one_move = median_err(schedule="linear", K=10, moves=1, extras={"adapt_steps": 0})
        six_moves = median_err(schedule="linear", K=10, moves=6, extras={"adapt_steps": 0})
        assert six_moves < one_move
        assert adaptive < 0.5


def test_heuristic_quality():
    with checkpoint("heuristic-quality", budget_s=120.0):
        rng = np.random.default_rng(7)
        base, target = toy_gaussian_pair()
        zs = base.exact_sampler(rng, 256)
        log_ws = target.log_density(zs) - base.log_density(zs)
        n = log_ws.size
        target_ess = 0.5 * n

        out = ess_heuristic_q(log_ws, HeuristicConfig(), np.random.default_rng(11))

        grid_best = np.inf
        for beta in np.linspace(1e-3, 1.0, 200):
            for delta in np.geomspace(1e-6, 1.0, 200):
                e = ess_of_log_weights(blend_log_ratio(log_ws, beta, 1.0 - delta))
                grid_best = min(grid_best, (e - target_ess) ** 2)
        assert out.loss <= 2.0 * grid_best + 1e-12

        assert out.feasible
        achieved = ess_of_log_weights(blend_log_ratio(log_ws, out.beta1, out.q))
        assert abs(achieved - target_ess) <= 0.05 * target_ess


def test_stability_stress():
    with checkpoint("stability-stress", budget_s=30.0):
        base = gaussian([0.0], 1.0)
        target = gaussian([140.0], 1.0)
        rng = np.random.default_rng(0)
        zs = base.exact_sampler(rng, 256)
        log_ws = target.log_density(zs) - base.log_density(zs)
        assert np.max(np.abs(log_ws)) >= 1e4

        choice = rho_from_log_weights(log_ws)
        assert 0.0 < choice.q < 1.0

        # any overflow warning escalates to a failure inside this block
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in (choice.q, 1.0):
                blended = blend_log_ratio(log_ws, 0.5, q)
                assert np.all(np.isfinite(blended))

            path = QPath(base=base, target=target, q=choice.q)
            grid = np.linspace(-5.0, 145.0, 61)[:, None]
            for beta in (0.0, 0.1, 0.5, 0.9, 1.0):
                ld = path.log_density(grid, beta)
                assert np.all(np.isfinite(ld) | (ld == -np.inf))
                assert np.all(np.isfinite(path.gradient(grid, beta)))

            cfg = HmcConfig(step_size=0.3, n_leapfrog=5)
            schedule = np.linspace(0.0, 1.0, 33)
            fwd = ais_forward(path, schedule, chains=16, cfg=cfg, moves_per_step=1,
                              rng=np.random.default_rng(1), adapt_steps=2)
            assert np.isfinite(fwd.log_Z_estimate)
            rev = ais_reverse(path, schedule, path.target.exact_sampler(rng, 16),
                              cfg=cfg, moves_per_step=1,
                              rng=np.random.default_rng(2), adapt_steps=2)
            assert np.isfinite(rev.log_Z_estimate)

            log_z, _ = smc_run(path, np.linspace(0.0, 1.0, 17), particles=32,
                               moves_per_step=1, cfg=cfg, rng=3, adapt_steps=2)
            assert np.isfinite(log_z)
            log_z, _ = smc_run(path, "adaptive", particles=32, moves_per_step=1,
                               cfg=cfg, rng=5, adapt_steps=2)
            assert np.isfinite(log_z)
