"""Span recording around qanneal's public functions, from outside the package.

``install`` wraps each traced name where its callers look it up: every
``qanneal.*`` module attribute that holds the original function (so both
``qanneal.samplers.ess_of_log_weights`` and the copy imported into
``qanneal.schedules``), the ``QPath`` methods, and the endpoint callables
returned by the density factories the CLI calls.  A span is a name, a parent
span, a start and an end; spans stay in memory until ``write_csv``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from dataclasses import replace

import numpy as np

# (defining module, attribute, span name); a QPath method is "QPath.method"
TRACED = (
    ("qanneal.io", "load_binary_regression_csv", "io.load_binary_regression_csv"),
    ("qanneal.io", "write_report_json", "io.write_report_json"),
    ("qanneal.paths", "QPath.log_density", "paths.log_density"),
    ("qanneal.paths", "QPath.gradient", "paths.gradient"),
    ("qanneal.paths", "blend_log_ratio", "paths.blend_log_ratio"),
    ("qanneal.hmc", "leapfrog", "hmc.leapfrog"),
    ("qanneal.hmc", "hmc_step", "hmc.hmc_step"),
    ("qanneal.hmc", "tune_step_size", "hmc.tune_step_size"),
    ("qanneal.samplers", "ais_forward", "samplers.ais_forward"),
    ("qanneal.samplers", "ais_reverse", "samplers.ais_reverse"),
    ("qanneal.samplers", "smc_run", "samplers.smc_run"),
    ("qanneal.samplers", "_next_beta_by_ess", "samplers.next_beta_by_ess"),
    ("qanneal.samplers", "ess_of_log_weights", "samplers.ess_of_log_weights"),
    ("qanneal.samplers", "systematic_resample", "samplers.systematic_resample"),
    ("qanneal.schedules", "ess_heuristic_q", "schedules.ess_heuristic_q"),
)
# density factories, wrapped only in the CLI's namespace: logistic_prior
# builds its density with densities.gaussian, which must not count twice
FACTORIES = ("gaussian", "logistic_prior", "logistic_posterior")

_ROOT = -1


class Tracer:
    """Keeps spans in parallel arrays: name id, parent index, start, end, rows."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [_ROOT]
        self.missing: list[str] = []

    def wrap(self, fn, name: str, rows: bool = False, on_result=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.rows.append(_rows(args[0]) if rows else 0)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name in the imported qanneal modules."""
        import qanneal.cli as cli

        for module_name, attr, span in TRACED:
            owner = sys.modules.get(module_name)
            if attr.startswith("QPath."):
                owner, attr = getattr(owner, "QPath", None), attr.split(".", 1)[1]
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, span, on_result=_HOOKS.get(span))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for name, loaded in list(sys.modules.items()):
                if name == "qanneal" or name.startswith("qanneal."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, wrapped)
        for factory in FACTORIES:
            original = getattr(cli, factory, None)
            if original is None:
                self.missing.append(f"qanneal.cli.{factory}")
                continue
            setattr(cli, factory, self.wrap(self._endpoint_factory(original), "densities.build"))

    def _endpoint_factory(self, factory):
        def build(*args, **kwargs):
            density = factory(*args, **kwargs)
            return replace(
                density,
                log_density=self.wrap(density.log_density, "densities.log_density", rows=True),
                gradient=self.wrap(density.gradient, "densities.gradient", rows=True),
            )

        return build

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, rows; plus calls
        per (name, parent name) and the counters the result hooks kept."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != _ROOT:
                child[p] += self.end[i] - self.start[i]
        per_name = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0} for name in self.names}
        by_parent: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            entry = per_name[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
            entry["rows"] += self.rows[i]
            p = self.parent[i]
            parent = self.names[self.name_id[p]] if p != _ROOT else ""
            by_parent[f"{name}<{parent}"] += 1
        return {"spans": per_name, "by_parent": dict(by_parent), "counts": dict(self.counts)}

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end,rows\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.rows[i]}\n"
                )


def _rows(z) -> int:
    shape = getattr(z, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_accepted(counts, result) -> None:
    accepted = np.asarray(result[1])
    counts["hmc.accepted"] += int(accepted.sum())
    counts["hmc.proposed"] += accepted.size


def _count_ais_steps(counts, result) -> None:
    counts["samplers.annealing_steps"] += len(result.schedule_used) - 1


def _count_smc_steps(counts, result) -> None:
    counts["samplers.annealing_steps"] += len(result[1].beta_trace) - 1


_HOOKS = {
    "hmc.hmc_step": _count_accepted,
    "samplers.ais_forward": _count_ais_steps,
    "samplers.ais_reverse": _count_ais_steps,
    "samplers.smc_run": _count_smc_steps,
}

# Per-layer metrics in report order.  "<span>.<field>" reads a span total:
# calls, s (inclusive seconds), self_s (minus child spans) or rows (batch rows
# evaluated); the rest are derived in layer_metrics.  Values are per solve.
LAYER_METRICS = (
    "cli.self_s",
    "io.load_binary_regression_csv.s",
    "io.write_report_json.calls", "io.write_report_json.s",
    "densities.log_density.calls", "densities.log_density.rows", "densities.log_density.self_s",
    "densities.gradient.calls", "densities.gradient.rows", "densities.gradient.self_s",
    "densities.log_density_rows_per_gradient_row",
    "densities.build_s",
    "paths.log_density.calls", "paths.log_density.self_s",
    "paths.gradient.calls", "paths.gradient.self_s",
    "paths.blend_log_ratio.calls", "paths.blend_log_ratio.self_s",
    "hmc.leapfrog.calls", "hmc.leapfrog.self_s",
    "hmc.tune_step_size.calls", "hmc.tune_step_size.s",
    "hmc.hmc_step.calls", "hmc.hmc_step.s",
    "hmc.accept_rate",
    "samplers.ais_forward.self_s", "samplers.ais_reverse.self_s",
    "samplers.smc_run.self_s", "samplers.annealing_steps", "samplers.bisection_iters",
    "samplers.systematic_resample.calls", "samplers.systematic_resample.self_s",
    "samplers.ess_of_log_weights.calls", "samplers.ess_of_log_weights.self_s",
    "schedules.ess_heuristic_q.self_s", "schedules.loss_evals",
)
RATIOS = ("densities.log_density_rows_per_gradient_row", "hmc.accept_rate")


def unit_of(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced solve; a layer it did not use reads 0."""
    spans, by_parent, counts = summary["spans"], summary["by_parent"], summary["counts"]

    def get(span, field):
        return spans.get(span, {}).get(field, 0)

    log_rows, grad_rows = get("densities.log_density", "rows"), get("densities.gradient", "rows")
    proposed = counts.get("hmc.proposed", 0)
    derived = {
        "densities.log_density_rows_per_gradient_row": log_rows / grad_rows if grad_rows else 0.0,
        "densities.build_s": get("densities.build", "s"),
        "hmc.accept_rate": counts.get("hmc.accepted", 0) / proposed if proposed else 0.0,
        "samplers.annealing_steps": counts.get("samplers.annealing_steps", 0),
        # each bisection first tries beta = 1, then makes one ESS call per halving
        "samplers.bisection_iters": by_parent.get("samplers.ess_of_log_weights<samplers.next_beta_by_ess", 0)
        - get("samplers.next_beta_by_ess", "calls"),
        # each loss evaluation of the heuristic makes one ESS call
        "schedules.loss_evals": by_parent.get("samplers.ess_of_log_weights<schedules.ess_heuristic_q", 0),
    }
    return {
        name: derived[name] if name in derived else get(*name.rsplit(".", 1))
        for name in LAYER_METRICS
    }
