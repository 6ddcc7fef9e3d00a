"""Run each workload repeatedly and print the spread of every metric.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload grid-q-toy --first-seed 101
    python3 perfbench/steady.py --runs 1       # every workload once

Run i uses ``--seed first_seed + i`` and measures for BENCHMARK.json's
``run_seconds``.  Each run's line shows its metrics, whether its answers were
correct and its attempted and failed solves.  For each workload and metric
this prints the median and quartiles of the runs' values
(``statistics.quantiles`` with n=4), the spread (Q3 - Q1) / median, the bound
from BENCHMARK.json and whether the spread is under a third of it, and the
share of failed solves.
Raw results go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid-q-toy", "smc-logistic", "heuristic-q")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "log": lines[:-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workload or WORKLOADS:
        runs = []
        for i in range(args.runs):
            result = one_run(workload, args.first_seed + i, spec["run_seconds"])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {args.first_seed + i}: {values} "
                  f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            print(f"{workload} {name}: median={median:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
