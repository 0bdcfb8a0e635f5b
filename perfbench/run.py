"""Benchmark of `cvqoc solve`: phase-split end-to-end times and a traced
per-layer breakdown.  Run from the root of a cvqoc checkout:

    python3 perfbench/run.py --workload two_level_xi --seed 1 --seconds 36 --trace 0

The load is a closed loop with one client: solves of one generated config
run back to back, each in its own process (perfbench/worker.py) with
CVQOC_THREADS=1, until --seconds have passed.  Every solve's outputs are
checked; a solve that fails a check counts as failed.  With --trace 0 the
last line reports the end-to-end metrics (medians over the passing solves);
with --trace 1 untraced and traced solves alternate and the last line
reports the per-layer metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_solve

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = os.path.join(ROOT, "src", "cvqoc", "presets")
RUNS = os.path.join(ROOT, ".bench_runs")

# name -> (shipped preset, train overrides); see perfbench/README.md
WORKLOADS = {
    "two_level_xi": ("two_level_ground_to_excited", {"mode": "xi", "gn_max_iter": 6}),
    "three_level_xi": ("three_level_pop_inversion", {"mode": "xi", "gn_max_iter": 3}),
    "two_level_joint": ("two_level_ground_to_excited", {
        "mode": "joint", "joint_rounds": 1, "joint_gn_steps": 4,
        "joint_adam_steps": 2, "adam_lr": 1e-6}),
}
END_TO_END = {
    "setup_s": "s", "train_s": "s", "train_s_per_iter": "s", "verify_s": "s",
    "solve_s": "s", "final_loss": "L2", "terminal_error_rk4": "L2", "peak_rss_mb": "MB",
}
SOLVE_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def make_config(workload: str, seed: int) -> dict:
    preset, train = WORKLOADS[workload]
    with open(os.path.join(PRESETS, preset + ".json")) as fh:
        cfg = json.load(fh)
    cfg["qnn"]["seed"] = seed % 2**32
    cfg["train"].update(train)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            commit = fh.read().strip()
        ref = os.path.join(ROOT, ".git", commit[5:]) if commit.startswith("ref: ") else ""
        if os.path.isfile(ref):
            with open(ref) as fh:
                commit = fh.read().strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "CVQOC_THREADS": "1", "git_commit": commit,
    }


def run_solve(rundir: str, index: int, traced: bool, monotone_loss: bool) -> dict:
    outdir = os.path.join(rundir, f"solve-{index}")
    result_path = os.path.join(rundir, f"solve-{index}.json")
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"),
           "--config", os.path.join(rundir, "config.json"),
           "--output", outdir, "--result", result_path]
    if traced:
        cmd += ["--trace", os.path.join(rundir, "trace.txt.gz")]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["CVQOC_THREADS"] = "1"
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=SOLVE_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        code, output = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        code, output = "timeout", exc.stdout or ""
    rec = {"index": index, "traced": traced, "exit_code": code,
           "process_s": time.perf_counter() - started}
    try:
        with open(result_path) as fh:
            rec.update(json.load(fh))
    except (OSError, ValueError):
        rec["exit_code"] = code if code != 0 else "no result file"
    problems = check_solve(outdir, rec["exit_code"], monotone_loss)
    if not problems:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        rec["e2e"] = dict(rec["metrics"], peak_rss_mb=rec["peak_rss_mb"],
                          final_loss=report["report"]["final_loss"],
                          terminal_error_rk4=report["terminal_error_rk4"])
    elif output:
        problems.append("output: " + output.strip().splitlines()[-1])
    rec["problems"] = problems
    shutil.rmtree(outdir, ignore_errors=True)
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cvqoc", "cli.py")):
        print(f"error: no cvqoc sources under {ROOT}/src", file=sys.stderr)
        return 2
    cfg = make_config(args.workload, args.seed)
    rundir = os.path.join(RUNS, args.workload)
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    with open(os.path.join(rundir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    record = {"workload": args.workload, "seed": args.seed,
              "config_sha256": config_hash(cfg), "env": environment()}
    print("input " + json.dumps({k: record[k] for k in ("workload", "seed", "config_sha256")}))
    print("env " + json.dumps(record["env"]))

    start = time.perf_counter()
    solves = []
    while True:
        traced = bool(args.trace) and len(solves) % 2 == 1
        rec = run_solve(rundir, len(solves), traced, cfg["train"]["mode"] == "xi")
        solves.append(rec)
        print(f"solve {rec['index']} traced={int(traced)} exit={rec['exit_code']} "
              f"process_s={rec['process_s']:.2f} wall={json.dumps(rec.get('wall'))} "
              f"problems={rec['problems']}", flush=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["process_s"] for r in solves)
        need = 2 if args.trace else 1
        if len(solves) >= need and elapsed + typical > args.seconds:
            break

    # a repeat must reproduce the first passing solve's loss exactly
    passing = [r for r in solves if not r["problems"]]
    for r in passing[1:]:
        first, this = passing[0]["e2e"]["final_loss"], r["e2e"]["final_loss"]
        if this != first:
            r["problems"].append(f"final_loss {this!r} differs from {first!r} "
                                 "of the same config")
    passing = [r for r in solves if not r["problems"]]
    plain = [r for r in passing if not r["traced"]]
    traced = [r for r in passing if r["traced"]]

    metrics = {}
    if args.trace == 0 and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(r["e2e"][name] for r in plain),
                             "unit": unit}
    elif args.trace == 1 and plain and traced:
        for name in traced[0]["layers"]:
            unit = traced[0]["layers"][name][1]
            metrics[name] = {"value": statistics.median(r["layers"][name][0] for r in traced),
                             "unit": unit}
        untraced_s = statistics.median(r["metrics"]["solve_s"] for r in plain)
        traced_s = statistics.median(r["metrics"]["solve_s"] for r in traced)
        metrics["trace.solve_s.untraced"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.solve_s.traced"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
        metrics["trace.spans"] = {"value": statistics.median(r["spans"] for r in traced),
                                  "unit": "count"}

    failed = len(solves) - len(passing)
    correct = failed == 0 and bool(metrics)
    record.update({"solves": solves, "metrics": metrics})
    with open(os.path.join(rundir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(solves), "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
