"""Tests of the benchmark's own logic: speed rescaling, span arithmetic,
output checks and wrapper restoration."""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


def test_reference_seconds_rescale_wall_time_by_probe_speed():
    probe = speed.SpeedProbe()
    # probes every 0.1 s; twice as slow as the reference for t >= 1
    probe.starts = [0.1 * k for k in range(20)]
    probe.durations = [speed.REF_S * (1 if t < 1.0 else 2) for t in probe.starts]
    # [0.05, 0.95]: 9 probes at reference speed, probing time subtracted
    assert probe.reference_seconds(0.05, 0.95) == pytest.approx(0.9 - 9 * speed.REF_S)
    # [1.05, 1.95]: 9 probes at half speed
    assert probe.reference_seconds(1.05, 1.95) == pytest.approx((0.9 - 18 * speed.REF_S) / 2)
    # a short interval borrows the nearest probes around its middle
    assert probe.reference_seconds(0.42, 0.44) == pytest.approx(0.02)


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("d", 6.0, 8.0, 0),     # overlaps b: [5, 8] is covered once
        Span("e", 9.5, 11.0, 0),    # runs past its parent: only [9.5, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_layer_metrics_split_by_phase_and_parent():
    marks = {"setup_end": 1.0, "train_end": 10.0}
    spans = [
        Span("problems.residual", 0.1, 0.5, -1),          # setup
        Span("optimize.gauss_newton", 2.0, 9.0, -1),       # train
        Span("problems.residual", 2.0, 2.1, 1),            # initial evaluation
        Span("problems.residual", 2.2, 2.3, 1),            # iteration 1: r
        Span("optimize.jacobian_fd", 2.3, 3.0, 1),
        Span("problems.residual", 2.4, 2.5, 4),
        Span("problems.residual", 2.6, 2.7, 4),
        Span("problems.residual", 3.0, 3.1, 1),            # trial, rejected
        Span("problems.residual", 3.1, 3.2, 1),            # trial, accepted
        Span("problems.features", 11.0, 12.0, -1),         # verify
        Span("cvqnn.unitary", 11.1, 11.2, 9),
        Span("cvqnn.unitary", 11.3, 11.4, 9),
    ]
    events = [
        tracing.Event("optimize.gn.iterations", 8.9, 1, 1),
        tracing.Event("optimize.gn.accepted", 8.9, 1, 1),
        tracing.Event("cvqnn.unitary.build", 11.1, 1, 10),
    ]
    m = tracing.layer_metrics(spans, events, marks, n_features=2)
    assert m["setup.problems.residual.calls"] == (1, "count")
    assert m["train.problems.residual.calls"] == (6, "count")
    assert m["train.optimize.jacobian_fd.residual_calls"] == (2, "count")
    assert m["train.optimize.gn.trials"] == (2, "count")
    assert m["train.optimize.gn.accept_ratio"] == (0.5, "ratio")
    assert m["train.optimize.jacobian_fd.self_s"][0] == pytest.approx(0.5)
    assert m["verify.cvqnn.unitary.builds"] == (1, "count")
    assert m["verify.cvqnn.unitary.hit_ratio"] == (0.5, "ratio")
    assert m["verify.problems.features.miss_ratio"] == (2 / (3 * 2 * 1), "ratio")
    assert m["train.cvqnn.unitary.hit_ratio"] == (0.0, "ratio")   # zero base


def _write_artifacts(outdir, trace=1.0, history=(3.0, 2.0, 1.5), final=1.5):
    os.makedirs(outdir, exist_ok=True)
    report = {"report": {"final_loss": final, "loss_history": list(history)},
              "terminal_error_trained": 1e-16, "terminal_error_rk4": 0.9}
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh)
    with open(os.path.join(outdir, "train.jsonl"), "w") as fh:
        fh.write('{"epoch": 1, "L2_total": 2.0}\n')
    head = "t,x1,x2,x3,x4,u,trace\n"
    rows = [f"{t:.12e},{1 - t:.12e},{t:.12e},0,0,0.5,{v:.12e}\n"
            for t, v in [(0.0, 1.0), (0.5, 1.0), (1.0, trace)]]
    for name in ("trajectory.csv", "verify.csv"):
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(head + "".join(rows))


def test_checker_accepts_good_artifacts(tmp_path):
    _write_artifacts(tmp_path)
    assert checks.check_solve(str(tmp_path), 0, monotone_loss=True) == []


@pytest.mark.parametrize("corrupt, expect", [
    (lambda d: _write_artifacts(d, trace=1.0 + 1e-6), "trace drifts"),
    (lambda d: os.remove(os.path.join(d, "verify.csv")), "missing verify.csv"),
    (lambda d: open(os.path.join(d, "train.jsonl"), "a").write("{not json\n"), "unreadable"),
    (lambda d: _write_artifacts(d, history=(3.0, 1.0, 1.5)), "loss history increases"),
    (lambda d: _write_artifacts(d, final=math.nan, history=(3.0, math.nan)), "not finite"),
])
def test_checker_rejects_corrupted_artifacts(tmp_path, corrupt, expect):
    _write_artifacts(tmp_path)
    corrupt(str(tmp_path))
    problems = checks.check_solve(str(tmp_path), 0, monotone_loss=True)
    assert any(expect in p for p in problems), problems


def test_checker_rejects_failed_exit_and_allows_joint_loss_rise(tmp_path):
    _write_artifacts(tmp_path, history=(3.0, 1.0, 1.5))
    assert checks.check_solve(str(tmp_path), 3, monotone_loss=False) == ["exit code 3"]
    assert checks.check_solve(str(tmp_path), 0, monotone_loss=False) == []


def _patched_names():
    from cvqoc import cli, cvqnn, fock, lindblad, optimize, pmp, problems, tfc
    return [
        (fock, "gate_matrix"), (fock, "expm"), (cvqnn, "encode_input"),
        (cvqnn.QnnCircuit, "unitary"), (problems.QocProblem, "residual_vector"),
        (problems.FeatureCache, "features"), (tfc.ConstrainedExpression, "eval"),
        (pmp, "residuals"), (lindblad, "two_level_generator"),
        (lindblad, "three_level_generator"), (lindblad, "propagate_rk4"),
        (optimize, "jacobian_fd"), (optimize, "adam"), (optimize, "gauss_newton"),
        (optimize, "train"), (cli, "build_problem"), (cli, "write_csv")]


def test_wrappers_trace_a_residual_and_are_all_restored():
    from cvqoc import cli
    names = _patched_names()
    before = [vars(owner)[name] for owner, name in names]
    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    tracing.install_layers(tracer, patcher)
    try:
        assert all(vars(o)[n] is not b for (o, n), b in zip(names, before))
        cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
        problem = cli.build_problem(cfg)[0]
        problem.residual(problem.decision.values)
    finally:
        patcher.restore()
    assert all(vars(o)[n] is b for (o, n), b in zip(names, before))
    spans = tracer.spans()
    m = tracing.layer_metrics(spans, tracer.events(),
                              {"setup_end": math.inf, "train_end": math.inf}, 6)
    assert m["setup.cli.build_problem.s"][0] > 0
    assert m["setup.problems.residual.calls"] == (1, "count")
    assert m["setup.cvqnn.unitary.builds"] == (6, "count")   # one per circuit
    assert m["setup.tfc.eval.calls"] == (16 * 5, "count")    # nodes x unknowns
    assert m["setup.lindblad.generator.calls"][0] == 17      # nodes + terminal row
