"""Experiment drivers and the command-line entry point.

Commands cover the toy Gaussian annealing studies (anneal-toy, ais, bdmc,
heuristic-q, grid-q) and marginal likelihood estimation for logistic
regression datasets (smc).  Each is one row of ``COMMANDS``: the settings it
reads, its driver, its summary line and its defaults.  Exit codes: 0
success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from qanneal.densities import gaussian, logistic_posterior, logistic_prior, with_log_scale
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
from qanneal.samplers import ais_forward, bdmc_gap, smc_run
from qanneal.schedules import HeuristicConfig, ess_heuristic_q, linear_schedule, q_grid

_TOY_DEFAULTS = {
    "mu0": -4.0,
    "var0": 3.0,
    "mu1": 4.0,
    "var1": 1.0,
    "target_log_scale": 0.0,
}
_HMC = HmcConfig(step_size=0.5, n_leapfrog=5)
# grid-q batches its orders into sweeps of at most this many chains, both
# directions counted, so memory stays bounded at large chain counts (one
# order per sweep above 4,096 chains); the default grids run as a single sweep
_GRID_SWEEP_CHAINS = 1 << 14

PATH_KINDS = ("geometric", "qpath", "moment", "escort")
SCHEDULE_RULES = ("linear", "adaptive")

_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")


def _choice(choices: tuple) -> tuple:
    """A setting's entry in ``_SETTINGS`` when it takes one of ``choices``."""
    return choices, (choices.__contains__, "must be one of " + ", ".join(choices))


# every setting a command can read: its type or its choices, then its checks
# as (predicate, message) in order.  The first that fails is its one message,
# so a value that is not finite gets only "must be finite".  The settings that
# are not RunConfig fields ride in a config's extras, in this order.
_SETTINGS = {
    "particles": (int,), "seed": (int,), "output": (str,), "dataset": (str,),
    "path_kind": _choice(PATH_KINDS), "q": (float, _FINITE),
    "K": (int, (lambda v: v >= 1, "need at least one step")),
    "schedule": _choice(SCHEDULE_RULES), "moves": (int, _NONNEGATIVE),
    "mu0": (float, _FINITE), "var0": (float, _FINITE, _POSITIVE), "mu1": (float, _FINITE),
    "var1": (float, _FINITE, _POSITIVE), "target_log_scale": (float, _FINITE),
    "nu": (float, _FINITE),
    "restarts": (int, (lambda v: v >= 1, "need at least one restart")),
    "log10_sd": (float, _FINITE, _POSITIVE),
    "ess_target_fraction": (float, (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")),
    "grid_count": (int, (lambda v: v >= 1, "need at least one grid point")),
    "adapt_steps": (int, _NONNEGATIVE), "trace_csv": (str,),
}
# the class a set value of each setting type must be an instance of, checked
# ahead of the setting's checks; a bool counts as neither number
_TYPE_CHECKS = {
    int: (numbers.Integral, "must be an integer"),
    float: (numbers.Real, "must be a real number"),
    str: (str, "must be a string"),
}
# RunConfig's defaults of the settings that are its fields; the rest are extras
_FIELD_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name in _SETTINGS}
_EXTRAS = tuple(key for key in _SETTINGS if key not in _FIELD_DEFAULTS)
_TOY = tuple(_TOY_DEFAULTS)
_AIS = ("path_kind", "q", "K", "moves", *_TOY, "nu", "adapt_steps", "trace_csv")
_SMC_COMMANDS = ("anneal-toy", "smc")


def _fault(key: str, value) -> str | None:
    """The message of the first check that ``value`` fails as ``key``, its
    type's ahead of those in ``_SETTINGS``; None when it meets them all."""
    kind, *checks = _SETTINGS[key]
    if kind in _TYPE_CHECKS:
        cls, message = _TYPE_CHECKS[kind]
        if isinstance(value, bool) or not isinstance(value, cls):
            return message
    return next((message for ok, message in checks if not ok(value)), None)


def _validate(config: RunConfig) -> list[str]:
    """One message per setting at fault, the first rule it breaks.

    A setting the command's row does not list keeps the command's default,
    and an extra it does not list is left out; a listed setting that is set
    meets its checks in ``_SETTINGS``.  An unknown command lists every one.
    """
    row = COMMANDS.get(config.command)
    problems = {} if row else {"command": f"unknown command {config.command!r}"}
    listed = ("particles", "seed", "output", *row.settings) if row else _SETTINGS
    defaults = {**_FIELD_DEFAULTS, **(row.defaults if row else {})}
    # an unread q (off the qpath) or K (off the linear schedule) gets its rule ahead of its checks
    reads_path = "path_kind" in listed
    if reads_path and (config.q is None) == (config.path_kind == "qpath"):
        need = "required" if config.q is None else "only meaningful"
        problems.setdefault("q", f"{need} when path_kind is qpath")
    if "schedule" in listed and config.schedule == "adaptive" and config.K != defaults["K"]:
        problems.setdefault("K", f"the adaptive schedule does not read it; leave it at {defaults['K']!r}")
    # a wrongly typed setting gets its type's message below, and no rule
    # here or after the checks compares it
    min_particles = 2 if config.command in _SMC_COMMANDS else 1
    if _fault("particles", config.particles) is None and config.particles < min_particles:
        problems.setdefault("particles", f"need at least {min_particles}")
    # (key, value, known): the listed fields that are set and the fields off
    # the command's default, then every extra; a float equal to an integer
    # default is still checked as the integer it must be
    values = {key: getattr(config, key) for key in defaults}
    given = [
        (key, value, True) for key, value in values.items()
        if value != defaults[key] or (key in listed and value is not None)
    ]
    given += [(key, value, key in _EXTRAS) for key, value in config.extras.items()]
    for key, value, known in given:
        if not known:
            fault = "unknown setting"
        elif key not in listed:
            unread = "has no per-step trace" if key == "trace_csv" else "does not read it"
            keep = f"; leave it at {defaults[key]!r}" if key in defaults else ""
            fault = f"{config.command} {unread}{keep}"
        else:
            fault = _fault(key, value)
        if fault is not None:
            problems.setdefault(key, fault)
    nu = config.extras.get("nu")
    if reads_path and "nu" not in problems:
        if config.path_kind == "escort" and (nu is None or nu <= 0.0):
            problems["nu"] = "escort path needs a positive nu"
        elif config.path_kind != "escort" and nu is not None:
            problems["nu"] = "only the escort path takes nu"
    if config.command == "smc":
        if config.dataset is None:
            problems.setdefault("dataset", "required for smc")
        elif "dataset" not in problems and not os.path.exists(config.dataset):
            problems.setdefault("dataset", f"file not found: {config.dataset}")
        if config.path_kind in ("moment", "escort"):
            problems.setdefault(
                "path_kind",
                "moment and escort need closed-form endpoint moments; "
                "smc supports geometric and qpath",
            )
    # grid-q's per-q reports go next to the output, so one check covers them
    for key, target in (("output", config.output), ("trace_csv", config.extras.get("trace_csv"))):
        if target is not None and key not in problems and not Path(target).parent.is_dir():
            problems.setdefault(key, f"directory does not exist: {target}")
    return [f"{key}: {message}" for key, message in problems.items()]


def _toy_params(extras: dict) -> dict:
    return {key: float(extras.get(key, default)) for key, default in _TOY_DEFAULTS.items()}


def _endpoints(config: RunConfig):
    """A run's base and target: the dataset's logistic prior and posterior,
    else the toy Gaussians, the target with its log scale."""
    if config.dataset:
        model = load_binary_regression_csv(config.dataset)
        return logistic_prior(model), logistic_posterior(model)
    p = _toy_params(config.extras)
    base = gaussian([p["mu0"]], [[p["var0"]]])
    return base, with_log_scale(gaussian([p["mu1"]], [[p["var1"]]]), p["target_log_scale"])


def _path(config: RunConfig):
    """A run's path: the toy's moment or escort path, else the q-path between its endpoints."""
    if config.path_kind in ("moment", "escort"):
        p = _toy_params(config.extras)
        nu = float(config.extras["nu"]) if config.path_kind == "escort" else None
        return MomentPath(
            [p["mu0"]], [[p["var0"]]], [p["mu1"]], [[p["var1"]]],
            nu=nu, log_scale1=p["target_log_scale"],
        )
    return QPath(*_endpoints(config), q=1.0 if config.path_kind == "geometric" else config.q)


def _given(config: RunConfig, *keys: str) -> dict:
    """The extras among ``keys`` that the run sets; a key it leaves out
    keeps the default of the function these go to."""
    return {key: config.extras[key] for key in keys if key in config.extras}


def _truth(config: RunConfig) -> dict:
    """The report extra holding a toy run's true log Z; a dataset's is unknown."""
    return {} if config.dataset else {"true_log_Z": _toy_params(config.extras)["target_log_scale"]}


def _stderr(ess_trace, n: int) -> float:
    """sqrt(sum(n / ESS - 1) / n) over ``ess_trace``.  On a final ESS alone
    it is the delta-method SE of log Z, CV(w) / sqrt(n) of the final weights,
    since n / ESS - 1 = var(w) / mean(w)^2."""
    total = sum(max(n / e - 1.0, 0.0) for e in ess_trace if e > 0.0)
    return math.sqrt(total / n)


def _body(config: RunConfig, run, stderr_ess, **extras) -> dict:
    """The report body of ``run``, one block of ``config.particles`` chains:
    its beta trace (its start left out) and each of its step columns, in run
    order, the stderr over ``stderr_ess``, and ``extras`` ahead of the true
    log Z."""
    traces = {"beta_trace": run.beta_trace[1:], **run.steps}
    return {
        "log_Z": float(run.log_Z_estimate),
        "stderr_estimate": _stderr(stderr_ess, config.particles),
        **{key: tuple(float(x) for x in trace) for key, trace in traces.items()},
        "extras": {**extras, **_truth(config)},
    }


def _drive_smc(config: RunConfig) -> dict:
    schedule = "adaptive" if config.schedule == "adaptive" else linear_schedule(config.K)
    _, run = smc_run(
        _path(config),
        schedule,
        particles=config.particles,
        moves_per_step=config.moves,
        cfg=_HMC,
        rng=int(config.seed),
        **_given(config, "adapt_steps"),
    )
    return _body(config, run, run.steps["ess_trace"], resample_count=run.resample_count)


def _drive_ais(config: RunConfig) -> dict:
    result = ais_forward(
        _path(config), linear_schedule(config.K), config.particles, _HMC,
        config.moves, np.random.default_rng(config.seed), **_given(config, "adapt_steps"),
    )
    return _body(config, result, result.steps["ess_trace"][-1:], n_dropped=result.n_dropped)


def _bdmc_bodies(config: RunConfig, path, blocks: int) -> list[dict]:
    """Forward and reverse AIS of ``blocks`` blocks of chains each as one
    sweep over ``path``'s 2 x ``blocks`` x ``particles`` rows, each direction
    on the draws it makes in a serial pair on one ``default_rng(seed)``: one
    bdmc body per block, each the body a single run of that block's path gives."""
    schedule = linear_schedule(config.K)
    runs = ais_forward(
        path, np.stack([schedule, schedule[::-1]], axis=1), config.particles,
        replace(_HMC, step_size=np.repeat(_HMC.step_size, 2 * blocks)), config.moves,
        np.random.default_rng(config.seed), **_given(config, "adapt_steps"),
    ).blocks()
    return [
        _body(
            config, f, f.steps["ess_trace"][-1:], upper_bound=float(-r.log_Z_estimate),
            bdmc_gap=bdmc_gap(f, r), n_dropped_forward=f.n_dropped, n_dropped_reverse=r.n_dropped,
        )
        for f, r in zip(runs[:blocks], runs[blocks:])
    ]


def _drive_heuristic(config: RunConfig) -> dict:
    base, target = _endpoints(config)
    rng = np.random.default_rng(config.seed)
    draws = base.exact_sampler(rng, config.particles)
    ratios = target.log_density(draws) - base.log_density(draws)
    heuristic_cfg = HeuristicConfig(**_given(config, "restarts", "log10_sd", "ess_target_fraction"))
    out = ess_heuristic_q(ratios, heuristic_cfg, rng)
    return {
        "log_Z": math.nan,
        "stderr_estimate": math.nan,
        "extras": {
            "q": float(out.q),
            "beta1": float(out.beta1),
            "loss": float(out.loss),
            "feasible": bool(out.feasible),
            "loss_evals": int(out.loss_evals),
            **_truth(config),
        },
    }


def _drive_grid(config: RunConfig) -> dict:
    """One bdmc sandwich per order of the grid, the orders batched into one
    sweep (several only past ``_GRID_SWEEP_CHAINS`` chains).

    Every order draws the common random numbers of one ``default_rng(seed)``,
    as a bdmc run of that order would alone: they sharpen the comparison,
    and each per-q report, attached to the body, equals that run's apart
    from ``wallclock_s``, which is the whole grid's.
    """
    start = time.perf_counter()
    count = config.extras.get("grid_count")
    qs = q_grid() if count is None else q_grid(int(count))
    chains = config.particles
    base, target = _endpoints(config)
    per_sweep = max(1, _GRID_SWEEP_CHAINS // (2 * chains))
    bodies = []
    for group in np.split(qs, range(per_sweep, qs.size, per_sweep)):
        path = QPath(base=base, target=target, q=np.tile(np.repeat(group, chains), 2))
        bodies += _bdmc_bodies(config, path, group.size)
    sweep_s = time.perf_counter() - start
    # each order echoes the bdmc config that reruns it alone
    read = COMMANDS["bdmc"].settings
    extras = {key: value for key, value in config.extras.items() if key in read}
    bdmc = replace(config, command="bdmc", path_kind="qpath", output=None, extras=extras)
    width = max(2, len(str(len(qs) - 1)))
    attachments = [
        (f".q{i:0{width}d}", RunReport(wallclock_s=sweep_s, config_echo=replace(bdmc, q=float(q)), **body))
        for i, (q, body) in enumerate(zip(qs, bodies))
    ]
    gaps = [body["extras"]["bdmc_gap"] for body in bodies]
    best = int(np.argmin(gaps))
    return {
        **bodies[best],
        "extras": {
            "qs": [float(q) for q in qs],
            "bdmc_gaps": [float(g) for g in gaps],
            "best_q": float(qs[best]),
            "best_gap": float(gaps[best]),
            # the gaps are noisy estimates and can fall below 0
            "negative_gaps": sum(g < 0.0 for g in gaps),
        },
        "attachments": attachments,
    }


class _Command(NamedTuple):
    """One subcommand: its help; the settings it reads besides the particle
    count, the seed and the output that every command takes (every other
    setting keeps its default); its driver, from a config to the report
    body; its summary line, a format over the report's fields, its extras
    and ``steps``; its defaults that differ from RunConfig's."""

    help: str
    settings: tuple
    drive: Callable[[RunConfig], dict]
    summary: str
    defaults: dict = {}


_RUN_LINE = "log_Z={log_Z:.6g} stderr={stderr_estimate:.6g} steps={steps} wallclock_s={wallclock_s:.3f}"
COMMANDS = {
    "anneal-toy": _Command(
        "SMC on a two-Gaussian toy problem",
        ("path_kind", "q", "K", "schedule", "moves", *_TOY, "nu", "adapt_steps", "trace_csv"),
        _drive_smc, _RUN_LINE,
    ),
    "smc": _Command(
        "SMC marginal likelihood for a logistic dataset",
        ("path_kind", "q", "K", "schedule", "moves", "dataset", "adapt_steps", "trace_csv"),
        _drive_smc, _RUN_LINE, {"particles": 256},
    ),
    "ais": _Command("forward AIS on the toy problem", _AIS, _drive_ais, _RUN_LINE),
    "bdmc": _Command(
        "forward plus reverse AIS sandwich on the toy", _AIS,
        lambda config: _bdmc_bodies(config, _path(config), 1)[0],
        "log_Z={log_Z:.6g} upper={upper_bound:.6g} gap={bdmc_gap:.6g} wallclock_s={wallclock_s:.3f}",
    ),
    "heuristic-q": _Command(
        "ESS-matching choice of q", (*_TOY, "restarts", "log10_sd", "ess_target_fraction"),
        _drive_heuristic, "q={q:.6g} beta1={beta1:.6g} loss={loss:.6g} feasible={feasible}",
        {"particles": 256},
    ),
    "grid-q": _Command(
        "BDMC gap sweep over a grid of orders",
        ("K", "moves", *_TOY, "grid_count", "adapt_steps", "trace_csv"),
        _drive_grid, "best_q={best_q:.10g} best_gap={best_gap:.6g} log_Z={log_Z:.6g}",
        {"path_kind": "qpath"},
    ),
}


def run(config: RunConfig) -> RunReport:
    """Validate, execute, write the JSON report, and print a summary line."""
    errors = _validate(config)
    if errors:
        raise ConfigError(errors)
    row = COMMANDS[config.command]
    start = time.perf_counter()
    body = row.drive(config)
    attachments = body.pop("attachments", [])  # grid-q's per-q reports
    report = RunReport(wallclock_s=time.perf_counter() - start, config_echo=config, **body)
    if config.output is not None:
        out = Path(config.output)
        for suffix, sub in attachments:
            write_report_json(sub, out.with_name(out.stem + suffix + out.suffix))
        write_report_json(report, out)
    trace_csv = config.extras.get("trace_csv")
    if trace_csv is not None:
        write_trace_csv(report, trace_csv)
    print(f"{config.command}: " + row.summary.format(
        **vars(report), **report.extras, steps=len(report.beta_trace)
    ))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qanneal",
        description="Annealed estimators of log normalizing constants over power-mean paths.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, row in COMMANDS.items():
        # an unset flag is left out of the namespace, so RunConfig's default holds
        sub = commands.add_parser(command, help=row.help, argument_default=argparse.SUPPRESS)
        for key in ("particles", "seed", "output", *row.settings):
            kind = _SETTINGS[key][0]
            names = ["--" + key.lower().replace("_", "-")]
            if key == "particles":
                names.append("--chains")
            spec = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            sub.add_argument(*names, dest=key, **spec)
        sub.set_defaults(**row.defaults)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = {key: value for key, value in vars(args).items() if key in _SETTINGS}
    extras = {key: given.pop(key) for key in _EXTRAS if key in given}
    return RunConfig(command=args.command, **given, extras=extras)


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
