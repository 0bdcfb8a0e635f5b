"""One `cvqoc solve` in its own process, with phase timers and optional tracing.

Run from the root of a cvqoc checkout:

    python3 perfbench/worker.py --config CFG --output DIR --result OUT.json [--trace FILE]

The solve goes through `cli.main(["solve", ...])`.  Phase timers wrap
`cli.build_problem` (which then also makes the first residual evaluation, so
that set-up includes filling the lazy feature cache) and `optimize.train`;
the artifact phase runs from the end of training until `cli.main` returns.
Without --trace, SETUP_REPEATS - 1 extra set-ups run first and setup_s is
the median of all of them.  With --trace every public layer function is
wrapped in a span as well, and the spans are written to FILE when the solve
ends.  Times are reported both as wall seconds and as reference-speed
seconds (see speed.py).  The worker exits with the solve's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import cvqoc  # noqa: E402  (imports are excluded from every timing)
from cvqoc import cli, optimize  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_REPEATS = 5


def setup(build_problem, cfg):
    out = build_problem(cfg)
    problem = out[0]
    problem.residual(problem.decision.values)
    return out


def install_phase_timers(patcher: tracing.Patcher, marks: dict) -> None:
    def timed_build(fn):
        def build_problem(cfg):
            marks["setup_start"] = time.perf_counter()
            out = setup(fn, cfg)
            marks["setup_end"] = time.perf_counter()
            return out
        return build_problem

    def timed_train(fn):
        def train(problem, schedule, callback=None):
            marks["train_start"] = time.perf_counter()
            report = fn(problem, schedule, callback=callback)
            marks["train_end"] = time.perf_counter()
            marks["iterations"] = report.iterations
            return report
        return train

    patcher.patch(cli, "build_problem", timed_build)
    patcher.patch(optimize, "train", timed_train)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None, help="write spans to this file")
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.abspath(cvqoc.__file__).startswith(src + os.sep):
        print(f"cvqoc imported from {cvqoc.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(args.config) as fh:
        n_features = int(json.load(fh)["qnn"]["n_features"])

    probe = SpeedProbe()
    probe.start()
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            t0 = time.perf_counter()
            setup(cli.build_problem, cli.load_config(args.config))
            setups.append((t0, time.perf_counter()))
    patcher = tracing.Patcher()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_layers(tracer, patcher)
    marks = {}
    install_phase_timers(patcher, marks)
    try:
        code = cli.main(["solve", "--config", args.config, "--output", args.output])
        marks["end"] = time.perf_counter()
    finally:
        patcher.restore()
        probe.stop()

    result = {"exit_code": code}
    if code == 0:
        setups.append((marks["setup_start"], marks["setup_end"]))
        phases = {
            "train_s": (marks["train_start"], marks["train_end"]),
            "verify_s": (marks["train_end"], marks["end"]),
            "solve_s": (marks["setup_start"], marks["end"]),
        }
        wall = {k: b - a for k, (a, b) in phases.items()}
        ref = {k: probe.reference_seconds(a, b) for k, (a, b) in phases.items()}
        wall["setup_s"] = statistics.median(b - a for a, b in setups)
        ref["setup_s"] = statistics.median(probe.reference_seconds(a, b) for a, b in setups)
        iterations = max(marks["iterations"], 1)
        for times in (wall, ref):
            times["train_s_per_iter"] = times["train_s"] / iterations
        result.update({
            "metrics": ref,
            "wall": wall,
            "iterations": marks["iterations"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "probe_median_s": statistics.median(probe.durations),
        })
        if tracer is not None:
            spans = tracer.spans()
            layers = tracing.layer_metrics(spans, tracer.events(), marks, n_features)
            result["layers"] = {k: list(v) for k, v in layers.items()}
            result["spans"] = len(spans)
            tracer.write(args.trace, {k: v for k, v in marks.items() if k != "iterations"})
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
