"""Benchmark of the qanneal command line on seeded workloads.

    python3 perfbench/run.py --workload grid-q-toy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each operation is one fresh process that
imports qanneal from the checkout's ``src/``, builds the workload's inputs
(``setup_s``), then solves once through ``qanneal.cli.main`` with ``--output``
(``solve_s``) and reports its peak resident memory (``peak_rss_mb``).  A
second fresh process per solve only sets up, for more ``setup_s`` samples.
Every report is checked against the computations in ``reference.py``.  A solve
that exits nonzero or fails its check counts as failed, and one that fails its
check also makes the run's ``correct`` false.  Operations run in
whole rounds of the workload's seeded inputs until ``--seconds`` is spent, and
each metric is the median over the operations that did not fail.

With ``--trace 1`` each of the first half of the inputs is solved twice,
untraced and then traced (``spans.py``), and the per-layer metrics are the
per-solve means over the traced solves; ``trace.overhead_s`` is the mean
traced minus untraced solve_s.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, here and in the workers that inherit it: on these small
# arrays a second OpenBLAS thread only spins, doubling CPU time for no
# wall-time gain and adding noise on a shared machine.  Set before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 120.0

# grid-q-toy: --k 8 keeps a solve near 3 s.  A forward estimate below the truth
# or a reverse bound above it is the sandwich's bias, with a thin tail: over 600
# seeds (calibrate.py) neither passed 2.02 nats, so ``tol`` is 3.  The other
# sides are log-means of weights with a mean of exactly Z or 1/Z, so only
# Markov's P(error > t) <= e^-t bounds them; 4.07 nats was seen, so ``tail``
# is 10.  Offsets start above ``tol``, so a dropped offset fails.
GRID = {"k": 8, "chains": 64, "grid_count": 10, "offset": (6.0, 12.0), "tol": 3.0, "tail": 10.0}
# smc-logistic: a 200-row, 2-feature CSV with labels drawn through these
# coefficients (intercept first); the tolerance is 6 spreads of log_Z - truth.
SMC = {"rows": 200, "coef": (0.5, 1.5, -1.0), "particles": 128, "moves": 2, "tol": 1.5}
HEURISTIC = {"particles": 256, "restarts": 30, "ess_fraction": 0.5}


@dataclass
class Op:
    """One seeded solve: the CLI arguments, what set-up builds, and the data
    its check needs."""

    argv: list[str]
    setup: dict
    output: Path
    check: dict


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def grid_op(rng, workdir: Path) -> Op:
    offset = float(rng.uniform(*GRID["offset"]))
    out = workdir / "grid.json"
    argv = [
        "grid-q", "--k", str(GRID["k"]), "--chains", str(GRID["chains"]),
        "--grid-count", str(GRID["grid_count"]), "--seed", str(_cli_seed(rng)),
        "--target-log-scale", repr(offset), "--output", str(out),
    ]
    setup = {"kind": "toy", "toy": reference.TOY, "log_scale": offset,
             "qs": list(reference.q_grid(GRID["grid_count"]))}
    return Op(argv, setup, out, {"truth": offset})


def smc_op(rng, workdir: Path) -> Op:
    coef = np.asarray(SMC["coef"])
    features = rng.standard_normal((SMC["rows"], coef.size - 1))
    logits = coef[0] + features @ coef[1:]
    labels = (rng.uniform(size=SMC["rows"]) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    csv = workdir / "data.csv"
    lines = ["label," + ",".join(f"x{j}" for j in range(features.shape[1]))]
    lines += [f"{y}," + ",".join(repr(float(v)) for v in row) for y, row in zip(labels, features)]
    csv.write_text("\n".join(lines) + "\n")
    out = workdir / "smc.json"
    argv = [
        "smc", "--dataset", str(csv), "--schedule", "adaptive", "--moves", str(SMC["moves"]),
        "--particles", str(SMC["particles"]), "--seed", str(_cli_seed(rng)), "--output", str(out),
    ]
    truth = reference.logistic_log_evidence(features, labels)
    return Op(argv, {"kind": "dataset", "csv": str(csv)}, out, {"truth": truth})


def heuristic_op(rng, workdir: Path) -> Op:
    seed = _cli_seed(rng)
    out = workdir / "heuristic.json"
    argv = [
        "heuristic-q", "--particles", str(HEURISTIC["particles"]),
        "--restarts", str(HEURISTIC["restarts"]), "--ess-target-fraction", str(HEURISTIC["ess_fraction"]),
        "--seed", str(seed), "--output", str(out),
    ]
    # the CLI's base draws: mu0 + sd0 * N(0, 1) from default_rng(seed)
    draws = reference.TOY["mu0"] + math.sqrt(reference.TOY["var0"]) * np.random.default_rng(
        seed).standard_normal(HEURISTIC["particles"])
    log_ratios = reference.toy_log_ratios(draws)
    target = HEURISTIC["ess_fraction"] * HEURISTIC["particles"]
    check = {"log_ratios": log_ratios, "target": target,
             "oracle": reference.heuristic_grid_oracle(log_ratios, target)}
    return Op(argv, {"kind": "toy", "toy": reference.TOY, "log_scale": 0.0, "qs": []}, out, check)


def _load(path: Path) -> dict:
    # reports write non-finite floats as "nan"/"inf"/"-inf", which float() reads
    return json.loads(path.read_text())


def grid_sub_reports(op: Op, count: int) -> list[dict]:
    """The per-q BDMC reports grid-q writes beside its report: <stem>.qNN<suffix>."""
    width = max(2, len(str(count - 1)))
    out = op.output
    return [_load(out.with_name(f"{out.stem}.q{i:0{width}d}{out.suffix}")) for i in range(count)]


def check_grid(op: Op) -> tuple[list[str], str]:
    report = _load(op.output)
    extras = report["extras"]
    truth = op.check["truth"]
    forward_range = (truth - GRID["tol"], truth + GRID["tail"])
    reverse_range = (truth - GRID["tail"], truth + GRID["tol"])
    qs = [float(q) for q in extras["qs"]]
    gaps = [float(g) for g in extras["bdmc_gaps"]]
    errors = []
    if not np.allclose(qs, reference.q_grid(GRID["grid_count"]), rtol=0.0, atol=1e-12):
        errors.append("qs are not the documented grid")
    lowers = []
    for i, (q, sub) in enumerate(zip(qs, grid_sub_reports(op, len(qs)))):
        lower, upper = float(sub["log_Z"]), float(sub["extras"]["upper_bound"])
        lowers.append(lower)
        if not forward_range[0] <= lower <= forward_range[1]:
            errors.append(f"q={q:.6g}: forward estimate {lower:.4f} is not in [{forward_range[0]:.4f}, "
                          f"{forward_range[1]:.4f}]")
        if not reverse_range[0] <= upper <= reverse_range[1]:
            errors.append(f"q={q:.6g}: reverse bound {upper:.4f} is not in [{reverse_range[0]:.4f}, "
                          f"{reverse_range[1]:.4f}]")
        if not math.isclose(upper - lower, gaps[i], rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"q={q:.6g}: gap {gaps[i]!r} is not upper - lower")
    best = int(np.argmin(gaps))
    if float(extras["best_q"]) != qs[best] or float(extras["best_gap"]) != gaps[best]:
        errors.append("best_q/best_gap are not the argmin of the reported gaps")
    if float(report["log_Z"]) != lowers[best]:
        errors.append("log_Z is not the forward estimate at best_q")
    line = f"log_Z={float(report['log_Z']):.4f} reference={truth:.4f} best_gap={gaps[best]:.4f}"
    return errors, line


def check_smc(op: Op) -> tuple[list[str], str]:
    report = _load(op.output)
    log_z, truth, tol = float(report["log_Z"]), op.check["truth"], SMC["tol"]
    betas = [float(b) for b in report["beta_trace"]]
    errors = []
    if not abs(log_z - truth) <= tol:
        errors.append(f"log_Z {log_z:.4f} is not within {tol} of the quadrature {truth:.4f}")
    if not betas or betas[-1] != 1.0 or any(b >= c for b, c in zip(betas, betas[1:])):
        errors.append("beta_trace does not rise to 1")
    return errors, f"log_Z={log_z:.4f} reference={truth:.4f} steps={len(betas)}"


def check_heuristic(op: Op) -> tuple[list[str], str]:
    extras = _load(op.output)["extras"]
    q, beta1, loss = float(extras["q"]), float(extras["beta1"]), float(extras["loss"])
    target, oracle = op.check["target"], op.check["oracle"]
    achieved = float(reference.ess(reference.blend_log_ratio(op.check["log_ratios"], beta1, q)))
    errors = []
    if extras["feasible"] is not True:
        errors.append("result is not feasible")
    if not abs(achieved - target) <= 0.05 * target:
        errors.append(f"ESS at (beta1, q) is {achieved:.3f}, not within 5% of {target}")
    if not loss <= 2.0 * oracle + 1e-12:
        errors.append(f"loss {loss:.3g} exceeds twice the grid oracle's {oracle:.3g}")
    return errors, f"q={q:.8f} beta1={beta1:.6f} ess={achieved:.3f} target={target} loss={loss:.3g} oracle={oracle:.3g}"


@dataclass(frozen=True)
class Workload:
    make_op: Callable[[np.random.Generator, Path], Op]
    check: Callable[[Op], tuple[list[str], str]]
    round_size: int


# A round holds about 30 s of solves, so a run is mostly one round of
# distinct inputs, and its medians average over inputs, over processes and
# over the several-second swings in speed of a shared machine.  A traced run
# solves each of the first half of the inputs untraced and traced.
WORKLOADS = {
    "grid-q-toy": Workload(grid_op, check_grid, 7),
    "smc-logistic": Workload(smc_op, check_smc, 9),
    "heuristic-q": Workload(heuristic_op, check_heuristic, 12),
}

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def make_round(workload: Workload, seed: int, outdir: Path, count: int) -> list[Op]:
    """The round's operations; input i depends only on (seed, i)."""
    ops = []
    for i in range(count):
        workdir = outdir / f"op{i}"
        workdir.mkdir(parents=True)
        ops.append(workload.make_op(np.random.default_rng([seed, i]), workdir))
    return ops


def run_worker(op: Op, trace: bool, spans_csv: Path | None = None, solve: bool = True) -> dict:
    """Set up and solve ``op`` in a fresh process, or only set up; returns the
    worker's JSON result, or an ``error`` entry when the process failed."""
    for stale in op.output.parent.glob("*.json") if solve else ():
        stale.unlink()
    spec = {"src": str(SRC), "setup": op.setup, "argv": op.argv if solve else None, "trace": trace,
            "spans_csv": str(spans_csv) if spans_csv else None}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is None:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if result.get("exit_code", 0) != 0:
        result["error"] = f"qanneal exited {result['exit_code']}: {proc.stderr.strip()[-500:]}"
    return result


def measure(workload: Workload, ops: list[Op], seconds: float, trace: bool,
            outdir: Path) -> tuple[list[dict], list[float]]:
    """Whole rounds over ``ops`` until ``seconds`` are spent; a round is not
    started when the last one says it would end past the limit.  Untraced,
    each solve is followed by a set-up-only process, a second setup_s sample.
    Returns the solves' results and the extra setup_s samples."""
    results, setups = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            passes = [False, True] if trace else [False]
            for traced in passes:
                first_traced = traced and not any(r["traced"] for r in results)
                result = run_worker(op, traced, outdir / "spans.csv" if first_traced else None)
                result.update(op=i, traced=traced)
                if "error" not in result:
                    try:
                        errors, result["line"] = workload.check(op)
                    except (OSError, LookupError, TypeError, ValueError) as err:
                        errors = [f"unreadable report: {err!r}"]
                    if errors:
                        result["error"] = "; ".join(errors)
                        result["wrong"] = True
                results.append(result)
                _print_op(result)
            if not trace:
                extra = run_worker(op, False, solve=False)
                if "setup_s" in extra:
                    setups.append(extra["setup_s"])
                    print(f"op {i} set-up only: setup_s={extra['setup_s']:.4f}", flush=True)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return results, setups


def _print_op(r: dict) -> None:
    head = f"op {r['op']}{' traced' if r['traced'] else ''}:"
    if "solve_s" in r:
        head += f" solve_s={r['solve_s']:.4f} setup_s={r['setup_s']:.4f} peak_rss_mb={r['peak_rss_mb']:.1f}"
    tail = f"FAILED {r['error']}" if "error" in r else f"{r['line']} ok"
    print(f"{head} {tail}", flush=True)


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    good = [r for r in results if "error" not in r]
    samples = {name: [r[name] for r in good] for name in E2E_UNITS}
    samples["setup_s"] += setups
    return {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(results: list[dict]) -> dict:
    traced = [r for r in results if r["traced"] and "error" not in r]
    plain = {r["op"]: r for r in results if not r["traced"] and "error" not in r}
    metrics = {
        name: {"value": statistics.fmean(r["layers"][name] for r in traced), "unit": spans.unit_of(name)}
        for name in spans.LAYER_METRICS
    }
    overheads = [r["solve_s"] - plain[r["op"]]["solve_s"] for r in traced if r["op"] in plain]
    metrics["trace.overhead_s"] = {"value": statistics.fmean(overheads) if overheads else 0.0, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qanneal" / "cli.py").is_file():
        print(f"no qanneal sources at {SRC}; run from the root of a qanneal checkout", file=sys.stderr)
        return 2
    # the build: byte-compile the sources so no solve pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    failures = reference.self_check()
    if failures:
        print("reference self-check failed: " + "; ".join(failures), file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    count = max(1, workload.round_size // 2) if args.trace else workload.round_size
    ops = make_round(workload, args.seed, outdir, count)
    results, setups = measure(workload, ops, args.seconds, bool(args.trace), outdir)

    failed = sum("error" in r for r in results)
    if failed == len(results) or (args.trace and not any(r["traced"] and "error" not in r for r in results)):
        print("no operation succeeded", file=sys.stderr)
        return 4
    missing = sorted({name for r in results for name in r.get("missing", ())})
    if missing:
        print(f"not traced (absent from qanneal): {', '.join(missing)}", flush=True)
    metrics = per_layer(results) if args.trace else end_to_end(results, setups)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    correct = not any(r.get("wrong") for r in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
