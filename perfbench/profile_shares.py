"""cProfile self time of one solve, grouped by module.

    python3 perfbench/profile_shares.py --workload smc-logistic --seed 1

Solves the workload's first input in this process under cProfile and prints
each group's share of the total self time: a qanneal module, numpy, scipy, or
other.  cProfile charges every Python call, so pure-Python layers read larger
than they run unprofiled; use it to find where time goes, not to time it.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
from collections import defaultdict

import run  # first: it sets the BLAS thread count before numpy loads

import numpy as np


def group_of(filename: str, function: str) -> str:
    """qanneal.<module>, numpy, scipy or other; C functions (filename "~")
    go by the package their name mentions."""
    if "/qanneal/" in filename:
        return "qanneal." + filename.rsplit("/", 1)[1].removesuffix(".py")
    where = function if filename == "~" else filename
    for package in ("numpy", "scipy"):
        if package in where:
            return package
    return "other"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    from qanneal.cli import main as qanneal_main

    workdir = run.OUT / f"profile-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    op = run.WORKLOADS[args.workload].make_op(np.random.default_rng([args.seed, 0]), workdir)
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profiler.runcall(qanneal_main, op.argv)
    stats = pstats.Stats(profiler).stats
    self_time: dict[str, float] = defaultdict(float)
    for (filename, _, function), (_, _, tottime, _, _) in stats.items():
        self_time[group_of(filename, function)] += tottime
    total = sum(self_time.values())
    for group, seconds in sorted(self_time.items(), key=lambda kv: -kv[1]):
        print(f"{args.workload} {group}: {100.0 * seconds / total:.1f}% ({seconds:.3f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
