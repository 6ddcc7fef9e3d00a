"""One benchmark operation in a fresh process: set up, solve once, report.

Run by ``run.py`` as ``python3 perfbench/worker.py SPEC`` with SPEC a JSON
object: ``src`` (the checkout's source directory), ``setup`` (what to build),
``argv`` (the qanneal command line, or null to set up only), ``trace``
(record spans) and an optional ``spans_csv`` to write them to.  The last line
of stdout is one JSON object: setup_s, solve_s, qanneal's exit code, peak RSS,
and the per-layer metrics when traced.  qanneal's own summary line is
discarded.
"""

import contextlib
import io
import json
import sys
import time


def _build_inputs(setup: dict):
    """What the CLI builds before it solves: for a dataset the parsed CSV and
    its path; for the toy pair (``setup["toy"]``, the parameters the CLI
    defaults to) the endpoint densities and one path per order in
    ``setup["qs"]``."""
    from qanneal.densities import gaussian, logistic_posterior, logistic_prior, with_log_scale
    from qanneal.io import load_binary_regression_csv
    from qanneal.paths import QPath

    if setup["kind"] == "dataset":
        model = load_binary_regression_csv(setup["csv"])
        return [QPath(base=logistic_prior(model), target=logistic_posterior(model), q=1.0)]
    toy = setup["toy"]
    base = gaussian([toy["mu0"]], [[toy["var0"]]])
    target = with_log_scale(gaussian([toy["mu1"]], [[toy["var1"]]]), setup["log_scale"])
    return [QPath(base=base, target=target, q=q) for q in setup["qs"]]


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, VmHWM.

    ru_maxrss would also count the parent's resident set at fork, which Linux
    carries across exec; VmHWM belongs to the image exec built.  Where it is
    missing the worker fails rather than report another figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import qanneal.cli as cli

    _build_inputs(spec["setup"])
    setup_s = time.perf_counter() - start
    if spec["argv"] is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    entry = cli.main
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli")

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry(spec["argv"])
    solve_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "exit_code": code,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.summary())
        result["missing"] = tracer.missing
        if spec.get("spans_csv"):
            tracer.write_csv(spec["spans_csv"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
