"""Spread of each workload's answers over seeds, which sets the check tolerances.

    python3 perfbench/calibrate.py --workload grid-q-toy --seeds 60

Solves the workload's first input of each seed in this process, untimed, and
prints the error of every checked quantity against the reference: for
grid-q-toy the per-q forward estimates and reverse bounds minus the offset,
for smc-logistic log_Z minus the quadrature, for heuristic-q the ESS error
and the loss over the grid oracle's.  The errors, per seed, are written to
.perfbench_out/calibrate-<workload>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run  # first: it sets the BLAS thread count before numpy loads

import numpy as np

import reference


def errors(name: str, op: run.Op) -> dict[str, list[float]]:
    report = run._load(op.output)
    if name == "grid-q-toy":
        truth, subs = op.check["truth"], run.grid_sub_reports(op, run.GRID["grid_count"])
        return {
            "forward - truth": [float(s["log_Z"]) - truth for s in subs],
            "reverse - truth": [float(s["extras"]["upper_bound"]) - truth for s in subs],
        }
    if name == "smc-logistic":
        return {"log_Z - quadrature": [float(report["log_Z"]) - op.check["truth"]]}
    extras = report["extras"]
    achieved = reference.ess(reference.blend_log_ratio(op.check["log_ratios"], float(extras["beta1"]),
                                                       float(extras["q"])))
    return {
        "ESS / target - 1": [float(achieved) / op.check["target"] - 1.0],
        "loss / oracle": [float(extras["loss"]) / op.check["oracle"]],
        "infeasible": [float(extras["feasible"] is not True)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=50)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    from qanneal.cli import main as qanneal_main

    workdir = run.OUT / f"calibrate-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    collected: dict[str, list[float]] = {}
    per_seed: dict[int, dict[str, list[float]]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        op = run.WORKLOADS[args.workload].make_op(np.random.default_rng([seed, 0]), workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = qanneal_main(op.argv)
        if code != 0:
            print(f"seed {seed}: qanneal exited {code}")
            continue
        per_seed[seed] = errors(args.workload, op)
        for key, values in per_seed[seed].items():
            collected.setdefault(key, []).extend(values)
    for key, values in collected.items():
        v = np.asarray(values)
        print(f"{args.workload} {key}: n={v.size} mean={v.mean():.4g} sd={v.std(ddof=1):.4g} "
              f"min={v.min():.4g} max={v.max():.4g} max|.|={np.abs(v).max():.4g}")
    (run.OUT / f"calibrate-{args.workload}.json").write_text(json.dumps(per_seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
