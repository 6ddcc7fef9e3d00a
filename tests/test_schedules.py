import math

import numpy as np
import pytest

from qanneal import schedules
from qanneal.densities import gaussian
from qanneal.hmc import HmcConfig
from qanneal.paths import QPath, blend_log_ratio
from qanneal.samplers import _next_beta_by_ess, ess_of_log_weights, smc_run
from qanneal.schedules import (
    HeuristicConfig,
    HeuristicResult,
    ess_heuristic_q,
    linear_schedule,
    q_grid,
)


class RatioPath:
    """Path stub whose log density is beta times a fixed per-point ratio."""

    def __init__(self, ratios):
        self.ratios = np.asarray(ratios, dtype=float)

    def log_density(self, z, beta):
        return beta * self.ratios


def increments(path, beta_now):
    """``incr_fn`` for _next_beta_by_ess: log incremental weights from beta_now."""
    lp_here = path.log_density(None, beta_now)
    return lambda b: path.log_density(None, b) - lp_here


class TestSchedule:
    @pytest.mark.parametrize(
        "betas",
        [[0.1, 0.5, 1.0], [0.0, 0.5, 0.9], [0.0, 0.6, 0.6, 1.0], [0.0, 0.7, 0.3, 1.0], [0.0]],
        ids=["late-start", "early-end", "repeated", "decreasing", "single-point"],
    )
    def test_samplers_reject_bad_grid(self, betas):
        base = gaussian(mean=[0.5], cov=[[1.0]])
        with pytest.raises(ValueError, match="schedule"):
            smc_run(QPath(base, base, q=0.5), betas, particles=4, moves_per_step=0,
                    cfg=HmcConfig(step_size=0.3, n_leapfrog=1), rng=0)


class TestLinearSchedule:
    def test_single_step_is_the_endpoints(self):
        assert np.array_equal(linear_schedule(1), [0.0, 1.0])

    def test_equal_spacing(self):
        assert np.array_equal(linear_schedule(4), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_point_count(self):
        assert linear_schedule(100).size == 101

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            linear_schedule(0)

    def test_feeds_smc_directly(self):
        base = gaussian(mean=[0.5], cov=[[1.0]])
        path = QPath(base=base, target=base, q=0.5)
        log_z, diag = smc_run(
            path=path,
            schedule=linear_schedule(3),
            particles=16,
            moves_per_step=1,
            cfg=HmcConfig(step_size=0.3, n_leapfrog=3),
            rng=7,
            adapt_steps=0,
        )
        assert log_z == 0.0
        assert np.array_equal(diag.beta_trace, linear_schedule(3))


class TestQGrid:
    def test_default_grid_shape_and_range(self):
        qs = q_grid()
        assert qs.size == 20
        assert qs[0] == pytest.approx(1.0 - 1e-5, abs=1e-15)
        assert qs[-1] == pytest.approx(0.9, abs=1e-15)

    def test_descending_in_q(self):
        qs = q_grid(7)
        assert np.all(np.diff(qs) < 0.0)

    def test_log_spacing_of_deltas(self):
        qs = q_grid(5)
        deltas = 1.0 - qs
        steps = np.diff(np.log(deltas))
        assert np.allclose(steps, steps[0], atol=1e-12)

    def test_two_points_are_the_bounds(self):
        qs = q_grid(2)
        assert np.allclose(qs, [1.0 - 1e-5, 1.0 - 1e-1], atol=1e-15)

    def test_single_point_uses_delta_min(self):
        assert np.array_equal(q_grid(1), [1.0 - 1e-5])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            q_grid(0)


class TestAdaptiveNextBeta:
    def test_two_particle_cap(self):
        # Weights (1, 3^beta) give ESS(beta) = (1 + 3^beta)^2 / (1 + 9^beta),
        # which is 1.6 at beta = 1, above the target of half of N = 2.
        path = RatioPath([0.0, math.log(3.0)])
        ess_at_one = ess_of_log_weights(path.log_density(None, 1.0))
        assert ess_at_one == pytest.approx(1.6, abs=1e-12)
        beta, converged = _next_beta_by_ess(increments(path, 0.0), 0.0, 1.0, 1e-3)
        assert beta == 1.0 and converged

    def test_identical_endpoints_jump_to_one(self):
        beta, converged = _next_beta_by_ess(increments(RatioPath(np.zeros(8)), 0.0), 0.0, 4.0, 1e-3)
        assert beta == 1.0 and converged

    def test_hits_target_within_tolerance(self):
        rng = np.random.default_rng(3)
        ratios = 6.0 * rng.standard_normal(64)
        path = RatioPath(ratios)
        assert ess_of_log_weights(path.log_density(None, 1.0)) < 32.0
        beta, converged = _next_beta_by_ess(increments(path, 0.0), 0.0, 32.0, 0.5)
        assert 0.0 < beta < 1.0 and converged
        achieved = ess_of_log_weights(path.log_density(None, beta))
        assert abs(achieved - 32.0) <= 0.5

    def test_progresses_from_interior_beta(self):
        rng = np.random.default_rng(4)
        path = RatioPath(5.0 * rng.standard_normal(64))
        beta, _ = _next_beta_by_ess(increments(path, 0.4), 0.4, 32.0, 0.5)
        assert beta > 0.4

    def test_impossible_target_does_not_converge(self):
        rng = np.random.default_rng(5)
        path = RatioPath(rng.standard_normal(32))
        # ESS never exceeds N, so a target above N pins the bisection
        # against beta_now and the tolerance is never met.
        beta, converged = _next_beta_by_ess(increments(path, 0.0), 0.0, 40.0, 1e-6)
        assert converged is False
        assert 0.0 <= beta < 1e-3

    def test_rejects_beta_now_at_one(self):
        with pytest.raises(ValueError):
            _next_beta_by_ess(increments(RatioPath(np.zeros(4)), 1.0), 1.0, 2.0, 1e-3)


class TestHeuristicConfig:
    def test_defaults(self):
        cfg = HeuristicConfig()
        assert cfg.restarts == 100
        assert cfg.log10_sd == 0.1
        assert cfg.ess_target_fraction == 0.5

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            HeuristicConfig(restarts=0)
        with pytest.raises(ValueError):
            HeuristicConfig(log10_sd=0.0)
        with pytest.raises(ValueError):
            HeuristicConfig(log10_sd=math.inf)
        with pytest.raises(ValueError):
            HeuristicConfig(ess_target_fraction=0.0)
        with pytest.raises(ValueError):
            HeuristicConfig(ess_target_fraction=1.2)


def target_minus_base_ratios(n, seed):
    """Log ratios of N(4, 1) over N(-4, 3) at draws from the base."""
    rng = np.random.default_rng(seed)
    base = gaussian(mean=[-4.0], cov=[[3.0]])
    tgt = gaussian(mean=[4.0], cov=[[1.0]])
    z = base.exact_sampler(rng, n)
    return tgt.log_density(z) - base.log_density(z)


class TestEssHeuristicQ:
    def test_rejects_bad_input(self):
        cfg = HeuristicConfig(restarts=2)
        with pytest.raises(ValueError):
            ess_heuristic_q([], cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ess_heuristic_q([0.0, np.inf], cfg, np.random.default_rng(0))

    def test_all_zero_ratios_are_flagged_infeasible(self):
        cfg = HeuristicConfig(restarts=3)
        out = ess_heuristic_q(np.zeros(10), cfg, np.random.default_rng(0))
        assert not out.feasible
        assert out.loss == 25.0
        assert out.q == 0.0
        assert out.beta1 == 1.0
        assert out.loss_evals == 0

    def test_constant_nonzero_ratios_are_infeasible(self):
        cfg = HeuristicConfig(restarts=3)
        out = ess_heuristic_q(np.full(10, 3.0), cfg, np.random.default_rng(0))
        assert not out.feasible
        assert out.loss == pytest.approx(25.0, rel=1e-12)

    def test_feasible_problem_hits_the_target(self):
        rng = np.random.default_rng(11)
        ratios = 5.0 * rng.standard_normal(256)
        cfg = HeuristicConfig(restarts=10)
        out = ess_heuristic_q(ratios, cfg, np.random.default_rng(1))
        assert out.feasible
        assert 0.0 < out.beta1 <= 1.0
        assert out.q < 1.0
        achieved = ess_of_log_weights(blend_log_ratio(ratios, out.beta1, out.q))
        assert abs(achieved - 128.0) <= 0.05 * 128.0

    def test_deterministic_given_seed(self):
        ratios = target_minus_base_ratios(96, seed=2)
        cfg = HeuristicConfig(restarts=8)
        a = ess_heuristic_q(ratios, cfg, np.random.default_rng(42))
        b = ess_heuristic_q(ratios, cfg, np.random.default_rng(42))
        assert a == b

    def test_matches_grid_search_oracle(self):
        ratios = target_minus_base_ratios(128, seed=6)
        target = 64.0

        def loss_at(beta, delta):
            lw = blend_log_ratio(ratios, beta, 1.0 - delta)
            return (ess_of_log_weights(lw) - target) ** 2

        betas = np.linspace(1e-3, 1.0, 80)
        deltas = np.geomspace(1e-6, 1.0, 80)
        grid_min = min(loss_at(b, d) for b in betas for d in deltas)

        out = ess_heuristic_q(ratios, HeuristicConfig(restarts=30), np.random.default_rng(9))
        assert out.loss <= 2.0 * grid_min + 1e-12

    def test_result_is_a_plain_record(self):
        out = HeuristicResult(q=0.9, beta1=0.5, loss=1.0, feasible=True)
        assert (out.q, out.beta1, out.loss, out.feasible) == (0.9, 0.5, 1.0, True)
        assert out.loss_evals == 0

    def test_single_restart_keeps_its_answer(self):
        ratios = target_minus_base_ratios(64, seed=3)
        out = ess_heuristic_q(ratios, HeuristicConfig(restarts=1), np.random.default_rng(4))
        # the answer of the scalar golden-section search on this input, at
        # the q of the restart's draw
        assert out.q == pytest.approx(0.9852242281277357, rel=1e-12)
        assert out.beta1 == pytest.approx(0.07752305680240934, rel=1e-12)
        assert out.feasible and out.loss < 1e-12
        # the start, then one beta search of 2 + 40 golden-section points
        assert out.loss_evals == 1 + 42

    @pytest.mark.parametrize("restarts", [1, 7, 30])
    def test_batched_search_is_the_serial_search(self, restarts):
        cfg = HeuristicConfig(restarts=restarts)
        for seed in range(10):
            ratios = target_minus_base_ratios(96, seed=seed)
            got = ess_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))
            want = serial_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))
            assert got == want
            assert got.loss_evals == 43 * restarts

    @pytest.mark.parametrize("seed", range(10))
    def test_benchmark_shape_is_the_serial_search(self, seed):
        # heuristic-q as the benchmark runs it: 256 toy base draws, 30
        # restarts and an ESS target of half the draws
        cfg = HeuristicConfig(restarts=30, ess_target_fraction=0.5)
        ratios = target_minus_base_ratios(256, seed=seed)
        got = ess_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))
        assert got == serial_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))

    def test_optimum_at_the_upper_beta_bound_is_the_serial_search(self):
        # ratios this close together keep the ESS above the target at beta =
        # 1, and a lower beta only flattens the weights further: every
        # restart keeps its start at beta = 1, and the searches end next to
        # it, with no row at 1 itself
        ratios = 1e-3 * np.random.default_rng(5).standard_normal(256)
        cfg = HeuristicConfig(restarts=30, ess_target_fraction=0.5)
        assert ess_of_log_weights(ratios) > 128.0
        got = ess_heuristic_q(ratios, cfg, np.random.default_rng(6))
        assert got == serial_heuristic_q(ratios, cfg, np.random.default_rng(6))
        assert got.beta1 == 1.0 and not got.feasible

    @pytest.mark.parametrize("rows_per_block", [1, 4, 13])
    def test_blocks_of_rows_are_the_serial_search(self, monkeypatch, rows_per_block):
        # 30 restarts of 96 draws span several blocks at these budgets
        monkeypatch.setattr(schedules, "_LOSS_BLOCK_ELEMENTS", rows_per_block * 96 + 95)
        cfg = HeuristicConfig(restarts=30)
        for seed in range(3):
            ratios = target_minus_base_ratios(96, seed=seed)
            got = ess_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))
            assert got == serial_heuristic_q(ratios, cfg, np.random.default_rng(100 + seed))

    def test_benchmark_search_fits_one_block(self):
        assert 30 * 256 <= schedules._LOSS_BLOCK_ELEMENTS

    # (seed, n, ratio kind, scale, ESS target fraction): inputs on which the
    # coordinate descent over (beta, q) that this search replaced was
    # feasible at 20 restarts
    VARIED = [
        (502, 32, "normal", 0.3, 0.9), (504, 32, "normal", 3.0, 0.5), (506, 32, "normal", 30.0, 0.1),
        (508, 32, "normal", 30.0, 0.9), (512, 32, "t3", 3.0, 0.1), (514, 32, "t3", 3.0, 0.9),
        (516, 32, "t3", 30.0, 0.5), (522, 32, "exp", 3.0, 0.5), (524, 32, "exp", 30.0, 0.1),
        (526, 32, "exp", 30.0, 0.9), (530, 256, "normal", 3.0, 0.1), (532, 256, "normal", 3.0, 0.9),
        (534, 256, "normal", 30.0, 0.5), (538, 256, "t3", 0.3, 0.9), (540, 256, "t3", 3.0, 0.5),
        (542, 256, "t3", 30.0, 0.1), (549, 256, "exp", 3.0, 0.5), (551, 256, "exp", 30.0, 0.1),
        (553, 256, "exp", 30.0, 0.9), (557, 1000, "normal", 3.0, 0.1), (559, 1000, "normal", 3.0, 0.9),
        (561, 1000, "normal", 30.0, 0.5), (565, 1000, "t3", 0.3, 0.9), (567, 1000, "t3", 3.0, 0.5),
        (569, 1000, "t3", 30.0, 0.1), (571, 1000, "t3", 30.0, 0.9), (577, 1000, "exp", 3.0, 0.9),
        (579, 1000, "exp", 30.0, 0.5),
    ]

    @pytest.mark.parametrize("seed, n, kind, scale, fraction", VARIED)
    def test_feasible_on_varied_inputs(self, seed, n, kind, scale, fraction):
        # one beta search at the drawn q finds the ESS target wherever a
        # search over q did
        rng = np.random.default_rng(seed)
        draw = {"normal": rng.standard_normal, "t3": lambda n: rng.standard_t(3, n),
                "exp": lambda n: -rng.exponential(1.0, n)}[kind]
        ratios = scale * draw(n)
        cfg = HeuristicConfig(restarts=20, ess_target_fraction=fraction)
        out = ess_heuristic_q(ratios, cfg, np.random.default_rng(seed + 400))
        assert out.feasible
        achieved = ess_of_log_weights(blend_log_ratio(ratios, out.beta1, out.q))
        assert abs(achieved - fraction * n) <= 0.05 * fraction * n


def serial_heuristic_q(log_ws, cfg, rng):
    """The restart-by-restart search on the public kernels: the reference the
    batched ``ess_heuristic_q`` must reproduce bit for bit.

    q = 1 - 10^u and the squared error are computed through numpy arrays, as
    the batched search computes them: Python's float ``**`` calls the C
    library's pow, whose last bit can differ from numpy's vector loops.
    """
    ratios = np.asarray(log_ws, dtype=float)
    n = ratios.size
    target = cfg.ess_target_fraction * n
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    evals = 0

    def order(u):
        return float((1.0 - 10.0 ** np.array([u]))[0])

    def loss(beta, u):
        nonlocal evals
        evals += 1
        err = ess_of_log_weights(blend_log_ratio(ratios, beta, order(u))) - target
        return err * err

    def golden_min(f, a, b):
        c = b - golden * (b - a)
        d = a + golden * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(40):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                fd = f(d)
        return (c, fc) if fc < fd else (d, fd)

    log10_rho0 = math.log10(float(np.max(np.abs(ratios))))
    best = None
    for log10_rho in rng.normal(log10_rho0, cfg.log10_sd, size=cfg.restarts):
        # each restart keeps the q of its draw and searches beta once
        u = min(max(-log10_rho, -12.0), 0.0)
        current = loss(1.0, u)
        if best is None or current < best[0]:
            best = (current, 1.0, u)
        beta, value = golden_min(lambda b: loss(b, u), 1e-6, 1.0)
        if value < best[0]:
            best = (value, beta, u)
    loss_best, beta_best, u_best = best
    return HeuristicResult(
        q=order(u_best),
        beta1=beta_best,
        loss=loss_best,
        feasible=loss_best <= (0.05 * target) ** 2,
        loss_evals=evals,
    )
