"""Experiment drivers and the command-line entry point.

Commands cover the toy Gaussian annealing studies (anneal-toy, ais, bdmc,
heuristic-q, grid-q) and marginal likelihood estimation for logistic
regression datasets (smc).  Exit codes: 0 success, 2 invalid configuration,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from qanneal.densities import (
    gaussian,
    logistic_posterior,
    logistic_prior,
    with_log_scale,
)
from qanneal.hmc import HmcConfig
from qanneal.io import (
    ConfigError,
    RunConfig,
    RunReport,
    load_binary_regression_csv,
    write_report_json,
    write_trace_csv,
)
from qanneal.paths import MomentPath, QPath
from qanneal.samplers import ais_forward, ais_reverse, bdmc_gap, smc_run
from qanneal.schedules import HeuristicConfig, ess_heuristic_q, linear_schedule, q_grid

_TOY_DEFAULTS = {
    "mu0": -4.0,
    "var0": 3.0,
    "mu1": 4.0,
    "var1": 1.0,
    "target_log_scale": 0.0,
}
_STEP_SIZE = 0.5
_HMC = HmcConfig(step_size=_STEP_SIZE, n_leapfrog=5)
# grid-q batches its orders into sweeps of at most this many chains, so
# memory stays bounded at large chain counts (one order per sweep above
# 8,192 chains); the default grids run as a single sweep
_GRID_SWEEP_CHAINS = 1 << 14

PATH_KINDS = ("geometric", "qpath", "moment", "escort")
SCHEDULE_RULES = ("linear", "adaptive")

# every setting a command line can give, with its type or its choices, in
# the order a config's extras echo them
_FLAG_TYPES = {
    "particles": int, "seed": int, "output": str, "dataset": str,
    "path_kind": PATH_KINDS, "q": float, "K": int, "schedule": SCHEDULE_RULES, "moves": int,
    "mu0": float, "var0": float, "mu1": float, "var1": float, "target_log_scale": float,
    "nu": float,
    "restarts": int, "log10_sd": float, "ess_target_fraction": float,
    "grid_count": int, "adapt_steps": int, "trace_csv": str,
}
_TOY = ("mu0", "var0", "mu1", "var1", "target_log_scale")
_AIS = ("path_kind", "q", "K", "moves", *_TOY, "nu", "adapt_steps", "trace_csv")

# each command's help, the settings it reads besides the particle count, the
# seed and the output that every command takes, and its defaults that differ
# from RunConfig's
COMMANDS = {
    "anneal-toy": ("SMC on a two-Gaussian toy problem",
                   ("path_kind", "q", "K", "schedule", "moves", *_TOY, "nu", "adapt_steps",
                    "trace_csv"), {}),
    "smc": ("SMC marginal likelihood for a logistic dataset",
            ("path_kind", "q", "K", "schedule", "moves", "dataset", "adapt_steps", "trace_csv"),
            {"particles": 256}),
    "ais": ("forward AIS on the toy problem", _AIS, {}),
    "bdmc": ("forward plus reverse AIS sandwich on the toy", _AIS, {}),
    "heuristic-q": ("ESS-matching choice of q",
                    (*_TOY, "restarts", "log10_sd", "ess_target_fraction"), {"particles": 256}),
    "grid-q": ("BDMC gap sweep over a grid of orders",
               ("K", "moves", *_TOY, "grid_count", "adapt_steps", "trace_csv"),
               {"path_kind": "qpath"}),
}
_SMC_COMMANDS = ("anneal-toy", "smc")
_AIS_COMMANDS = ("ais", "bdmc", "grid-q")


def _validate(config: RunConfig) -> list[str]:
    errors = []
    if config.command not in COMMANDS:
        errors.append(f"command: unknown command {config.command!r}")
    if config.path_kind not in PATH_KINDS:
        errors.append(f"path_kind: unknown kind {config.path_kind!r}")
    if config.schedule not in SCHEDULE_RULES:
        errors.append(f"schedule: unknown rule {config.schedule!r}")

    if config.command == "grid-q":
        if config.path_kind != "qpath":
            errors.append("path_kind: grid-q sweeps qpath orders; set path_kind to qpath")
        if config.q is not None:
            errors.append("q: grid-q chooses q itself; leave it unset")
    elif config.path_kind == "qpath":
        if config.q is None:
            errors.append("q: required when path_kind is qpath")
        elif not math.isfinite(config.q):
            errors.append("q: must be finite")
    elif config.q is not None:
        errors.append("q: only meaningful when path_kind is qpath")

    min_particles = 2 if config.command in _SMC_COMMANDS else 1
    if config.particles < min_particles:
        errors.append(f"particles: need at least {min_particles}")
    if config.K < 1:
        errors.append("K: need at least one step")
    if config.moves < 0:
        errors.append("moves: must be nonnegative")
    if config.schedule == "adaptive" and config.command in _AIS_COMMANDS:
        errors.append("schedule: AIS-style commands need a fixed schedule; use linear")

    if config.command == "smc":
        if config.dataset is None:
            errors.append("dataset: required for smc")
        elif not os.path.exists(config.dataset):
            errors.append(f"dataset: file not found: {config.dataset}")
        if config.path_kind in ("moment", "escort"):
            errors.append(
                "path_kind: moment and escort need closed-form endpoint moments; "
                "smc supports geometric and qpath"
            )
    elif config.dataset is not None:
        errors.append("dataset: only the smc command reads a dataset")

    # a non-finite value gets only this message: the checks below let nan and inf by
    for key in ("mu0", "var0", "mu1", "var1", "target_log_scale", "nu", "log10_sd"):
        value = config.extras.get(key)
        if value is not None and not math.isfinite(value):
            errors.append(f"{key}: must be finite")

    nu = config.extras.get("nu")
    if config.path_kind == "escort":
        if nu is None or nu <= 0.0:
            errors.append("nu: escort path needs a positive nu")
    elif nu is not None and math.isfinite(nu):
        errors.append("nu: only the escort path takes nu")

    for key in ("var0", "var1"):
        value = config.extras.get(key)
        if value is not None and value <= 0.0:
            errors.append(f"{key}: must be positive")

    restarts = config.extras.get("restarts")
    if restarts is not None and restarts < 1:
        errors.append("restarts: need at least one restart")
    fraction = config.extras.get("ess_target_fraction")
    if fraction is not None and not 0.0 < fraction <= 1.0:
        errors.append("ess_target_fraction: must lie in (0, 1]")
    sd = config.extras.get("log10_sd")
    if sd is not None and sd <= 0.0:
        errors.append("log10_sd: must be positive")
    count = config.extras.get("grid_count")
    if count is not None and count < 1:
        errors.append("grid_count: need at least one grid point")
    adapt = config.extras.get("adapt_steps")
    if adapt is not None and adapt < 0:
        errors.append("adapt_steps: must be nonnegative")
    trace_csv = config.extras.get("trace_csv")
    if trace_csv is not None and config.command == "heuristic-q":
        errors.append("trace_csv: heuristic-q has no per-step trace")
        trace_csv = None
    # grid-q's per-q reports go next to the output, so one check covers them
    for key, target in (("output", config.output), ("trace_csv", trace_csv)):
        if target is not None and not Path(target).parent.is_dir():
            errors.append(f"{key}: directory does not exist: {target}")
    return errors


def _toy_params(extras: dict) -> dict:
    params = dict(_TOY_DEFAULTS)
    for key in params:
        if key in extras:
            params[key] = float(extras[key])
    return params


def _toy_endpoints(extras: dict):
    p = _toy_params(extras)
    base = gaussian([p["mu0"]], [[p["var0"]]])
    target = with_log_scale(gaussian([p["mu1"]], [[p["var1"]]]), p["target_log_scale"])
    return base, target, p


def _toy_path(config: RunConfig):
    p = _toy_params(config.extras)
    if config.path_kind in ("geometric", "qpath"):
        base, target, _ = _toy_endpoints(config.extras)
        q = 1.0 if config.path_kind == "geometric" else config.q
        return QPath(base=base, target=target, q=q)
    nu = float(config.extras["nu"]) if config.path_kind == "escort" else None
    return MomentPath(
        [p["mu0"]], [[p["var0"]]], [p["mu1"]], [[p["var1"]]],
        nu=nu, log_scale1=p["target_log_scale"],
    )


def _dataset_path(config: RunConfig):
    model = load_binary_regression_csv(config.dataset)
    q = 1.0 if config.path_kind == "geometric" else config.q
    return QPath(base=logistic_prior(model), target=logistic_posterior(model), q=q)


def _given(config: RunConfig, *keys: str) -> dict:
    """The extras among ``keys`` that the run sets; a key it leaves out
    keeps the default of the function these go to."""
    return {key: config.extras[key] for key in keys if key in config.extras}


def _is_stderr(final_ess: float, n: int) -> float:
    return math.sqrt(max(n / final_ess - 1.0, 0.0) / n)


def _smc_stderr(ess_trace, n: int) -> float:
    total = sum(max(n / e - 1.0, 0.0) for e in ess_trace if e > 0.0)
    return math.sqrt(total / n)


def _drive_smc(config: RunConfig, path) -> dict:
    schedule = "adaptive" if config.schedule == "adaptive" else linear_schedule(config.K)
    log_z, diag = smc_run(
        path,
        schedule,
        particles=config.particles,
        moves_per_step=config.moves,
        cfg=_HMC,
        rng=int(config.seed),
        **_given(config, "adapt_steps"),
    )
    ess = tuple(float(x) for x in diag.ess_trace)
    return {
        "log_Z": float(log_z),
        "stderr_estimate": _smc_stderr(ess, config.particles),
        "ess_trace": ess,
        "beta_trace": tuple(float(x) for x in diag.beta_trace[1:]),
        "acceptance_trace": tuple(float(x) for x in diag.acceptance_trace),
        "extras": {"resample_count": diag.resample_count},
    }


def _ais_traces(result) -> dict:
    return {
        "ess_trace": tuple(float(x) for x in result.ess_trace),
        "beta_trace": tuple(float(x) for x in result.schedule_used[1:]),
        "acceptance_trace": tuple(float(x) for x in result.acceptance_trace),
    }


def _drive_ais(config: RunConfig, path) -> dict:
    rng = np.random.default_rng(config.seed)
    result = ais_forward(
        path, linear_schedule(config.K), config.particles, _HMC,
        config.moves, rng, **_given(config, "adapt_steps"),
    )
    return {
        "log_Z": result.log_Z_estimate,
        "stderr_estimate": _is_stderr(result.ess_trace[-1], config.particles),
        "extras": {"n_dropped": result.n_dropped},
        **_ais_traces(result),
    }


def _bdmc_bodies(config: RunConfig, path, blocks: int) -> list[dict]:
    """Forward then reverse AIS of ``blocks`` blocks of chains as one sweep
    each, every block on the common random numbers of one
    ``default_rng(seed)``: one bdmc body per block, each the body a single
    run of that block's path gives."""
    chains, moves = config.particles, config.moves
    rng = np.random.default_rng(config.seed)
    cfg = replace(_HMC, step_size=np.full(blocks, _STEP_SIZE))
    schedule = linear_schedule(config.K)
    adapt = _given(config, "adapt_steps")
    fwd = ais_forward(path, schedule, chains, cfg, moves, rng, **adapt)
    target_draws = np.tile(path.target.exact_sampler(rng, chains), (blocks, 1))
    rev = ais_reverse(path, schedule, target_draws, cfg, moves, rng, **adapt)
    return [
        {
            "log_Z": f.log_Z_estimate,
            "stderr_estimate": _is_stderr(f.ess_trace[-1], chains),
            "extras": {
                "upper_bound": float(-r.log_Z_estimate),
                "bdmc_gap": bdmc_gap(f, r),
                "n_dropped_forward": f.n_dropped,
                "n_dropped_reverse": r.n_dropped,
            },
            **_ais_traces(f),
        }
        for f, r in zip(fwd.blocks(), rev.blocks())
    ]


def _drive_bdmc(config: RunConfig, path) -> dict:
    return _bdmc_bodies(config, path, 1)[0]


def _drive_heuristic(config: RunConfig) -> dict:
    base, target, _ = _toy_endpoints(config.extras)
    rng = np.random.default_rng(config.seed)
    draws = base.exact_sampler(rng, config.particles)
    ratios = np.atleast_1d(target.log_density(draws)) - np.atleast_1d(base.log_density(draws))
    heuristic_cfg = HeuristicConfig(**_given(config, "restarts", "log10_sd", "ess_target_fraction"))
    out = ess_heuristic_q(ratios, heuristic_cfg, rng)
    return {
        "log_Z": math.nan,
        "stderr_estimate": math.nan,
        "ess_trace": (),
        "beta_trace": (),
        "acceptance_trace": (),
        "extras": {
            "q": float(out.q),
            "beta1": float(out.beta1),
            "loss": float(out.loss),
            "feasible": bool(out.feasible),
            "loss_evals": int(out.loss_evals),
        },
    }


def _drive_grid(config: RunConfig) -> tuple[dict, list[tuple[str, RunReport]]]:
    """One bdmc sandwich per order of the grid, the orders batched into one
    sweep (several only past ``_GRID_SWEEP_CHAINS`` chains).

    Every order draws the common random numbers of one ``default_rng(seed)``,
    as a bdmc run of that order would alone: they sharpen the comparison,
    and each per-q report equals that run's apart from ``wallclock_s``,
    which is the whole grid's.
    """
    start = time.perf_counter()
    qs = q_grid(*map(int, _given(config, "grid_count").values()))  # q_grid's count
    chains = config.particles
    base, target, _ = _toy_endpoints(config.extras)
    per_sweep = max(1, _GRID_SWEEP_CHAINS // chains)
    bodies = []
    for group in np.split(qs, range(per_sweep, qs.size, per_sweep)):
        path = QPath(base=base, target=target, q=np.repeat(group, chains))
        bodies += _bdmc_bodies(config, path, group.size)
    sweep_s = time.perf_counter() - start
    sub_reports = [
        _report(replace(config, command="bdmc", path_kind="qpath", q=float(q), output=None), body, sweep_s)
        for q, body in zip(qs, bodies)
    ]
    gaps = [r.extras["bdmc_gap"] for r in sub_reports]
    best = int(np.argmin(gaps))
    width = max(2, len(str(len(qs) - 1)))
    attachments = [(f".q{i:0{width}d}", r) for i, r in enumerate(sub_reports)]
    chosen = sub_reports[best]
    body = {
        "log_Z": chosen.log_Z,
        "stderr_estimate": chosen.stderr_estimate,
        "ess_trace": chosen.ess_trace,
        "beta_trace": chosen.beta_trace,
        "acceptance_trace": chosen.acceptance_trace,
        "extras": {
            "qs": [float(q) for q in qs],
            "bdmc_gaps": [float(g) for g in gaps],
            "best_q": float(qs[best]),
            "best_gap": float(gaps[best]),
            # the gaps are noisy estimates and can fall below 0
            "negative_gaps": sum(g < 0.0 for g in gaps),
        },
    }
    return body, attachments


def _report(config: RunConfig, body: dict, wallclock_s: float) -> RunReport:
    if config.command != "smc" and config.command != "grid-q":
        body.setdefault("extras", {})
        body["extras"]["true_log_Z"] = _toy_params(config.extras)["target_log_scale"]
    return RunReport(
        log_Z=body["log_Z"],
        stderr_estimate=body["stderr_estimate"],
        ess_trace=body["ess_trace"],
        beta_trace=body["beta_trace"],
        acceptance_trace=body["acceptance_trace"],
        wallclock_s=wallclock_s,
        config_echo=config,
        extras=body["extras"],
    )


def _execute(config: RunConfig) -> tuple[RunReport, list[tuple[str, RunReport]]]:
    start = time.perf_counter()
    attachments: list[tuple[str, RunReport]] = []
    if config.command == "grid-q":
        body, attachments = _drive_grid(config)
    elif config.command == "heuristic-q":
        body = _drive_heuristic(config)
    elif config.command == "smc":
        body = _drive_smc(config, _dataset_path(config))
    elif config.command == "anneal-toy":
        body = _drive_smc(config, _toy_path(config))
    elif config.command == "ais":
        body = _drive_ais(config, _toy_path(config))
    elif config.command == "bdmc":
        body = _drive_bdmc(config, _toy_path(config))
    else:
        raise ConfigError([f"command: unknown command {config.command!r}"])
    return _report(config, body, time.perf_counter() - start), attachments


def _summary_line(report: RunReport) -> str:
    command = report.config_echo.command
    extras = report.extras
    if command == "heuristic-q":
        return (
            f"heuristic-q: q={extras['q']:.6g} beta1={extras['beta1']:.6g} "
            f"loss={extras['loss']:.6g} feasible={extras['feasible']}"
        )
    if command == "grid-q":
        return (
            f"grid-q: best_q={extras['best_q']:.10g} best_gap={extras['best_gap']:.6g} "
            f"log_Z={report.log_Z:.6g}"
        )
    if command == "bdmc":
        return (
            f"bdmc: log_Z={report.log_Z:.6g} upper={extras['upper_bound']:.6g} "
            f"gap={extras['bdmc_gap']:.6g} wallclock_s={report.wallclock_s:.3f}"
        )
    return (
        f"{command}: log_Z={report.log_Z:.6g} stderr={report.stderr_estimate:.6g} "
        f"steps={len(report.beta_trace)} wallclock_s={report.wallclock_s:.3f}"
    )


def run(config: RunConfig) -> RunReport:
    """Validate, execute, write the JSON report, and print a summary line."""
    errors = _validate(config)
    if errors:
        raise ConfigError(errors)
    report, attachments = _execute(config)
    if config.output is not None:
        out = Path(config.output)
        for suffix, sub in attachments:
            write_report_json(sub, out.with_name(out.stem + suffix + out.suffix))
        write_report_json(report, out)
    trace_csv = config.extras.get("trace_csv")
    if trace_csv is not None:
        write_trace_csv(report, trace_csv)
    print(_summary_line(report))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qanneal",
        description="Annealed estimators of log normalizing constants over power-mean paths.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, settings, defaults) in COMMANDS.items():
        # an unset flag is left out of the namespace, so RunConfig's default holds
        sub = commands.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for key in ("particles", "seed", "output", *settings):
            kind = _FLAG_TYPES[key]
            names = ["--" + key.lower().replace("_", "-")]
            if key == "particles":
                names.append("--chains")
            spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument(*names, dest=key, **spec)
        sub.set_defaults(**defaults)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    settings = {key: given[key] for key in _FLAG_TYPES if key in given}
    config_fields = {f.name: settings.pop(f.name) for f in fields(RunConfig) if f.name in settings}
    return RunConfig(command=args.command, **config_fields, extras=settings)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        run(config)
    except ConfigError as err:
        for message in err.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except Exception as err:  # CLI boundary: anything else is a runtime failure
        print(f"runtime failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
