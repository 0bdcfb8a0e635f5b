"""Output checks applied to every solve of the cvqoc benchmark.

A solve that fails any check counts as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import os

ARTIFACTS = ("report.json", "trajectory.csv", "verify.csv", "train.jsonl")
BOUNDARY_TOL = 1e-9   # terminal_error_trained: exact by construction
TRACE_TOL = 1e-9      # verify.csv trace column, written with 13 significant digits


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("no data rows")
    header, body = rows[0], rows[1:]
    data = [[float(v) for v in row] for row in body]
    if any(len(row) != len(header) for row in data):
        raise ValueError("ragged rows")
    return header, data


def check_solve(outdir: str, exit_code: int, monotone_loss: bool) -> list:
    """Problems found with one solve's outputs; empty when it passes.

    monotone_loss: require a non-increasing loss history (Gauss-Newton only).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = [f"missing {name}" for name in ARTIFACTS
                if not os.path.isfile(os.path.join(outdir, name))]
    if problems:
        return problems
    try:
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(outdir, "train.jsonl")) as fh:
            for line in fh:
                json.loads(line)
        _read_csv(os.path.join(outdir, "trajectory.csv"))
        header, rows = _read_csv(os.path.join(outdir, "verify.csv"))
        final_loss = float(report["report"]["final_loss"])
        history = [float(v) for v in report["report"]["loss_history"]]
        boundary = float(report["terminal_error_trained"])
        float(report["terminal_error_rk4"])
        trace_col = header.index("trace")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"]

    if not math.isfinite(final_loss):
        problems.append(f"final_loss {final_loss} is not finite")
    if not boundary <= BOUNDARY_TOL:
        problems.append(f"terminal_error_trained {boundary:.3e} exceeds {BOUNDARY_TOL:g}")
    drift = max(abs(row[trace_col] - 1.0) for row in rows)
    if not drift <= TRACE_TOL:
        problems.append(f"verify.csv trace drifts {drift:.3e} from 1")
    if monotone_loss and any(b > a for a, b in zip(history, history[1:])):
        problems.append("Gauss-Newton loss history increases")
    return problems
