import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from cvqoc import cli, lindblad, optimize, pmp, problems


def run(argv):
    return cli.main(argv)


def test_gates_kerr_csv_round_trip(tmp_path):
    out = tmp_path / "kerr.csv"
    assert run(["gates", "--kind", "kerr", "--param", "0.3", "--cutoff", "6",
                "--output", str(out)]) == 0
    _, data = cli.read_csv(str(out))
    assert data.shape == (6, 12)
    mat = data[:, 0::2] + 1j * data[:, 1::2]
    ns = np.arange(6)
    assert np.max(np.abs(np.diag(mat) - np.exp(1j * 0.3 * ns**2))) < 1e-10


def test_gates_displacement_complex_param(capsys):
    assert run(["gates", "--kind", "displacement", "--param", "0.2+0.1j",
                "--cutoff", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_gates_bad_kind_and_param(capsys):
    for kind in ("warp", "beamsplitter"):
        assert run(["gates", "--kind", kind, "--param", "1", "--cutoff", "4"]) == 2
        assert kind in capsys.readouterr().err
    assert run(["gates", "--kind", "squeeze", "--param", "abc", "--cutoff", "4"]) == 2


@pytest.mark.parametrize("argv, word", [
    (["gates", "--kind", "kerr", "--param", "0.1", "--cutoff", "1"], "cutoff"),
    (["gates", "--kind", "squeeze", "--param", "nan", "--cutoff", "4"], "non-finite"),
    (["qnn-eval", "--tau", "nan"], "non-finite"),
])
def test_bad_argument_value_exits_2(argv, word, tmp_path, capsys):
    # a value the gate or circuit code rejects is a config error, not a traceback
    if argv[0] == "qnn-eval":
        cfg = tmp_path / "qnn.json"
        cfg.write_text(json.dumps({"qnn": {"n_features": 3, "depth": 1,
                                           "cutoff": 8, "seed": 1}}))
        argv = argv + ["--config", str(cfg)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and word in err


def test_qnn_eval(tmp_path, capsys):
    cfg = tmp_path / "qnn.json"
    cfg.write_text(json.dumps({"qnn": {"n_features": 3, "depth": 1,
                                       "cutoff": 8, "seed": 1}}))
    assert run(["qnn-eval", "--config", str(cfg), "--tau", "0.3"]) == 0
    values = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    assert len(values) == 3


def test_missing_system_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"qnn": {}, "tfc": {}, "train": {}}))
    assert run(["solve", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 2
    assert "system" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = json.loads(open(cli.preset_path("linear_ode_benchmark")).read())
    cfg["qnn"]["wobble"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve", "--config", str(path), "--output", str(tmp_path / "o")]) == 2
    assert "wobble" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["solve", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_solve_needs_exactly_one_config_source(both, tmp_path, capsys):
    # a --config beside --preset used to be ignored, even an unreadable one
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    out = tmp_path / "o"
    source = ["--preset", "linear_ode_benchmark", "--config", str(cfg)] if both else []
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--output", str(out)] + source)
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_preset_exits_2(capsys):
    assert run(["solve", "--preset", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_threads_env_validated(monkeypatch, capsys):
    monkeypatch.setenv("CVQOC_THREADS", "zero")
    assert run(["gates", "--kind", "kerr", "--param", "0.1", "--cutoff", "4"]) == 2
    monkeypatch.setenv("CVQOC_THREADS", "2")
    assert run(["gates", "--kind", "kerr", "--param", "0.1", "--cutoff", "4"]) == 0


def test_solve_benchmark_artifacts(tmp_path):
    out = tmp_path / "bench"
    assert run(["solve", "--preset", "linear_ode_benchmark",
                "--output", str(out)]) == 0
    for name in ("trajectory.csv", "verify.csv", "train.jsonl", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["converged"] is True
    assert report["report"]["stop_reason"] == "converged"
    assert report["max_grid_error"] < 1e-2
    header, data = cli.read_csv(str(out / "trajectory.csv"))
    assert header == ["t", "y"]
    assert data.shape[0] >= 200
    # verify.csv is the exact solution y0 exp(rate (t - t0)) on the same grid
    bench = json.loads(open(cli.preset_path("linear_ode_benchmark")).read())["benchmark"]
    header, exact = cli.read_csv(str(out / "verify.csv"))
    assert header == ["t", "y"]
    assert np.array_equal(exact[:, 0], data[:, 0])
    expect = bench["y0"] * np.exp(bench["rate"] * (exact[:, 0] - exact[0, 0]))
    assert np.allclose(exact[:, 1], expect, rtol=1e-11, atol=0)
    with open(out / "train.jsonl") as fh:
        entries = [json.loads(ln) for ln in fh]
    assert entries and "L2_total" in entries[-1]


@pytest.mark.parametrize("preset", ["linear_ode_benchmark", "two_level_ground_to_excited"])
def test_solve_reports_phase_seconds(preset, tmp_path):
    cfg = cli.load_config(cli.preset_path(preset))
    cfg["train"]["gn_max_iter"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["solve", "--config", str(path), "--output", str(out)]) == 0
    phases = json.loads((out / "report.json").read_text())["phase_seconds"]
    assert sorted(phases) == ["artifacts", "setup", "train"]
    assert all(np.isfinite(s) and s >= 0.0 for s in phases.values())


def test_solve_nonfinite_residual_exits_3(tmp_path, monkeypatch, capsys):
    # the residual is finite at the initial weights; Gauss-Newton rejects a
    # non-finite trial step, so the NaN comes through the ODE's Jacobian
    orig = problems.OdeBenchmarkProblem.jacobian

    def jacobian(self, values, mask=None):
        return np.full_like(orig(self, values, mask), np.nan)

    monkeypatch.setattr(problems.OdeBenchmarkProblem, "jacobian", jacobian)
    assert run(["solve", "--preset", "linear_ode_benchmark",
                "--output", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_solve_nonfinite_jacobian_exits_3(tmp_path, monkeypatch, capsys):
    def jacobian(self, values, mask=None):
        return np.full((1, int(self.xi_mask.sum())), np.nan)

    monkeypatch.setattr(problems.QocProblem, "jacobian", jacobian)
    assert run(["solve", "--preset", "two_level_ground_to_excited",
                "--output", str(tmp_path / "out")]) == 3
    assert "non-finite Jacobian" in capsys.readouterr().err


def test_solve_nonfinite_theta_jacobian_exits_3(tmp_path, monkeypatch, capsys):
    # the theta feature rows feed only the theta columns, so the xi columns
    # stay finite and joint training fails in its first Adam epoch
    orig = problems.FeatureCache.theta_features

    def theta_features(self, tau, derivative=True):
        sig, dsig = orig(self, tau, derivative)
        return np.full_like(sig, np.nan), dsig

    monkeypatch.setattr(problems.FeatureCache, "theta_features", theta_features)
    assert run(["solve", "--preset", "two_level_ground_to_excited", "--mode", "joint",
                "--output", str(tmp_path / "out")]) == 3
    assert "non-finite gradient entry in epoch 1" in capsys.readouterr().err


def test_solve_nonfinite_terminal_row_exits_3(tmp_path, monkeypatch, capsys):
    # a non-finite loss at the starting point, with the closed-form Jacobian finite
    orig = problems.QocProblem.residual

    def residual(self, values):
        r = orig(self, values)
        r[-1] = np.nan
        return r

    monkeypatch.setattr(problems.QocProblem, "residual", residual)
    assert run(["solve", "--preset", "two_level_ground_to_excited",
                "--output", str(tmp_path / "out")]) == 3
    assert "non-finite loss at the starting point" in capsys.readouterr().err


def test_solve_theta_overflow_exits_3(tmp_path, capsys):
    # a finite learning rate whose first Adam step overflows theta: the
    # optimizer stops before the next loss would build a unit from it
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    cfg["train"].update(mode="joint", adam_lr=1e308, joint_rounds=1,
                        joint_gn_steps=1, joint_adam_steps=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["solve", "--config", str(path), "--output", str(tmp_path / "out")]) == 3
    assert "non-finite parameter after epoch 1" in capsys.readouterr().err


def test_solve_joint_at_the_default_learning_rate_ends_below_its_start(tmp_path):
    # at adam_lr 0.01 the first Adam burst took this preset from 3.75 to ~1e4
    out = tmp_path / "out"
    assert run(["solve", "--preset", "two_level_ground_to_excited", "--mode", "joint",
                "--output", str(out)]) == 0
    history = json.loads((out / "report.json").read_text())["report"]["loss_history"]
    assert history[-1] < history[0]
    assert max(history) == history[0]


def test_solve_qoc_reports_jacobian_conditioning(tmp_path):
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    cfg["train"]["gn_max_iter"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["solve", "--config", str(path), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    largest, smallest = report["jacobian_singular_values"]
    assert np.isfinite([largest, smallest, report["jacobian_cond"]]).all()
    assert largest >= smallest > 0
    assert report["jacobian_cond"] == pytest.approx(largest / smallest)


@pytest.mark.parametrize("preset", ["two_level_ground_to_excited", "linear_ode_benchmark"])
def test_solve_reports_feature_basis(preset, tmp_path):
    cfg = cli.load_config(cli.preset_path(preset))
    cfg["train"]["gn_max_iter"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["solve", "--config", str(path), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    n_nodes, n_features = cfg["tfc"]["n_nodes"], cfg["qnn"]["n_features"]
    sv = np.array(report["feature_singular_values"])
    assert sv.shape == (min(n_nodes, n_features),)
    assert np.all(np.diff(sv) <= 0)
    assert sv[0] == 1.0
    assert 1 <= report["feature_rank"] <= n_features


@pytest.mark.parametrize("mode", ["xi", "joint"])
def test_solve_benchmark_log_matches_report(mode, tmp_path):
    # every mode logs the loss it reports: the residual norm
    out = tmp_path / mode
    assert run(["solve", "--preset", "linear_ode_benchmark", "--mode", mode,
                "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    history = report["loss_history"]
    with open(out / "train.jsonl") as fh:
        entries = [json.loads(ln) for ln in fh]
    assert entries
    for entry in entries:
        assert entry["L2_total"] == history[entry["epoch"]]
    # the starting loss, then one entry per iteration
    assert len(history) == report["iterations"] + 1


def test_solve_benchmark_deterministic(tmp_path):
    reports = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["solve", "--preset", "linear_ode_benchmark",
                    "--output", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        rep["report"].pop("wall_time")
        rep.pop("phase_seconds")   # wall times, like wall_time
        reports.append(rep)
    assert reports[0] == reports[1]


def test_propagate_frozen_populations(tmp_path):
    # no damping, no transverse drive, zero control: populations constant
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {"gamma_eg": 0.0, "gamma_ge": 0.0,
                          "omega_x": 0.0, "omega_z": 2.0},
        "propagate": {"x0": [0.3, 0.7, 0.1, 0.0], "t0": 0.0, "tf": 4.0,
                      "steps": 100},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0\n4.0,0.0\n")
    out = tmp_path / "traj.csv"
    assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(out)]) == 0
    header, data = cli.read_csv(str(out))
    assert header[:3] == ["t", "x1", "x2"]
    assert np.max(np.abs(data[:, 1] - 0.3)) < 1e-12
    assert np.max(np.abs(data[:, 2] - 0.7)) < 1e-12
    assert np.max(np.abs(data[:, -1] - 1.0)) < 1e-12


def test_propagate_interpolates_each_control(tmp_path):
    # a ramp in the pump and a constant Stokes control on the lambda system
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {"delta": 0.1, "delta1": 1.0},
        "propagate": {"x0": [1.0, 0, 0, 0, 0, 0, 0, 0, 0], "t0": 0.0, "tf": 2.0,
                      "steps": 40},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("t,u,u_s\n0.0,0.0,0.5\n2.0,2.0,0.5\n")
    out = tmp_path / "traj.csv"
    assert run(["propagate", "--system", "three-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(out)]) == 0
    _, data = cli.read_csv(str(out))
    model = lindblad.three_level_model(lindblad.ThreeLevelParams())
    _, xs = lindblad.propagate_rk4(model, data[0, 1:10],
                                   lambda t: np.column_stack([t, 0.5 + 0 * t]),
                                   0.0, 2.0, 40)
    assert np.max(np.abs(data[:, 1:10] - xs)) < 1e-11


def test_propagate_bad_control_shape(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0,
                      "steps": 50},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0,0.0\n1.0,0.0,0.0\n")
    assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(tmp_path / "o.csv")]) == 2


def test_propagate_nonfinite_control_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0,
                      "steps": 50},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0\n0.5,nan\n1.0,0.0\n")
    out = tmp_path / "o.csv"
    assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(out)]) == 2
    assert "bad propagate section: control must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_propagate_blow_up_exits_3(tmp_path, capsys):
    # a finite control far outside RK4's stable range: the states overflow,
    # which is a numerical failure, not a NaN CSV
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 10.0,
                      "steps": 200},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,1e6\n10.0,1e6\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                    "--control", str(ctrl), "--output", str(out)]) == 3
    assert "numerical failure: RK4 state not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times", [{"tf": float("inf")}, {"t0": float("-inf")}])
def test_propagate_nonfinite_time_exits_2(times, tmp_path, capsys):
    # tf = inf passes `tf > t0`, so it must be caught before it reaches the control
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0,
                      "steps": 50, **times},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0\n1.0,0.0\n")
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                    "--control", str(ctrl), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad propagate section: t0 and tf must be finite" in err
    assert "control" not in err
    assert not out.exists()


def test_propagate_nonfinite_initial_state_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [float("nan"), 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0,
                      "steps": 50},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0\n1.0,0.0\n")
    out = tmp_path / "o.csv"
    assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(out)]) == 2
    assert "bad propagate section: initial state must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times", [{"tf": 5.0}, {"t0": -0.5}],
                         ids=["tf_after_table", "t0_before_table"])
def test_propagate_horizon_outside_control_times_exits_2(times, tmp_path, capsys):
    # outside its table the interpolated control would be held at an end value
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0,
                      "steps": 100, **times},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,0.0\n0.5,1.0\n1.0,0.0\n")
    out = tmp_path / "o.csv"
    assert run(["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(out)]) == 2
    span = f"[{times.get('t0', 0.0)}, {times.get('tf', 1.0)}]"
    err = capsys.readouterr().err
    assert err.startswith("error: bad propagate section:")
    assert span in err and "control times [0.0, 1.0]" in err
    assert not out.exists()


def test_verify_self_and_perturbed(tmp_path, capsys):
    traj = tmp_path / "a.csv"
    cli.write_csv(str(traj), ["t", "x1", "x2", "u", "trace"],
                  [[i * 0.1, 0.5, 0.5, 0.0, 1.0] for i in range(11)])
    assert run(["verify", "--trajectory", str(traj), "--verify", str(traj),
                "--tol", "0.05"]) == 0
    assert "PASS" in capsys.readouterr().out

    rows = [[i * 0.1, 0.5, 0.5, 0.0, 1.0] for i in range(11)]
    rows[5][2] += 0.1
    other = tmp_path / "b.csv"
    cli.write_csv(str(other), ["t", "x1", "x2", "u", "trace"], rows)
    assert run(["verify", "--trajectory", str(traj), "--verify", str(other),
                "--tol", "0.05"]) == 4
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "1.000000e-01" in out  # max deviation reported


def test_verify_grid_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.write_csv(str(a), ["t", "x1"], [[0.0, 1.0], [1.0, 1.0]])
    cli.write_csv(str(b), ["t", "x1"], [[0.0, 1.0]])
    assert run(["verify", "--trajectory", str(a), "--verify", str(b),
                "--tol", "0.1"]) == 2


@pytest.mark.parametrize("head", [["t", "u"], ["t", "u", "u_s", "trace"], ["t"]])
def test_verify_without_a_state_column_exits_2(head, tmp_path, capsys):
    # nothing to compare is no pass: the files' controls differ and no
    # state column would show it
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    cli.write_csv(str(a), head, [[0.0] + [1.0] * (len(head) - 1), [1.0] * len(head)])
    cli.write_csv(str(b), head, [[0.0] + [2.0] * (len(head) - 1), [1.0] * len(head)])
    assert run(["verify", "--trajectory", str(a), "--verify", str(b),
                "--tol", "0.1"]) == 2
    captured = capsys.readouterr()
    assert "no state column" in captured.err
    assert "PASS" not in captured.out


def test_verify_names_headerless_columns_as_it_prints_them(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0.0,1.0,0.5\n1.0,1.0,0.5\n")
    b.write_text("0.0,1.0,0.5\n1.0,1.0,0.25\n")
    assert run(["verify", "--trajectory", str(a), "--verify", str(b),
                "--tol", "0.1"]) == 4
    out = capsys.readouterr().out
    assert "max deviation col1: 0.000000e+00" in out
    assert "max deviation col2: 2.500000e-01" in out


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_verify_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    traj = tmp_path / "a.csv"
    cli.write_csv(str(traj), ["t", "x1"], [[0.0, 1.0], [1.0, 1.0]])
    assert run(["verify", "--trajectory", str(traj), "--verify", str(traj),
                "--tol", tol]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    ("t,u\n0.0,0.0\n\n0.5,abc\n1.0,0.0\n", 4),   # a non-numeric cell
    ("0.0,0.0\n0.5\n1.0,0.0\n", 2),                # a ragged row
    ("0.0,abc\n1.0,0.0\n", 1),                      # a first row that is no header
], ids=["non_numeric_cell", "ragged_row", "half_numeric_first_row"])
def test_malformed_csv_exits_2_naming_file_and_line(text, line, tmp_path, capsys):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0, "steps": 50},
    }))
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = tmp_path / "good.csv"
    cli.write_csv(str(good), ["t", "u"], [[0.0, 0.0], [1.0, 0.0]])
    for argv in (["propagate", "--system", "two-level", "--config", str(cfg),
                  "--control", str(bad), "--output", str(tmp_path / "o.csv")],
                 ["verify", "--trajectory", str(good), "--verify", str(bad), "--tol", "0.1"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{bad} line {line}:" in err
    assert not (tmp_path / "o.csv").exists()


def test_unusable_path_exits_2(tmp_path, capsys):
    # a path under a regular file can be neither opened nor created, and a
    # directory cannot be read as a file
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps({
        "system_params": {},
        "propagate": {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0, "steps": 50},
    }))
    ctrl = tmp_path / "u.csv"
    ctrl.write_text(CONTROL_CSV)
    out = str(blocker / "x")
    for argv in (["gates", "--kind", "kerr", "--param", "0.1", "--cutoff", "4", "--output", out],
                 ["propagate", "--system", "two-level", "--config", str(cfg),
                  "--control", str(ctrl), "--output", out],
                 ["solve", "--preset", "linear_ode_benchmark", "--output", out]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err
    for argv in (["solve", "--config", str(tmp_path)],
                 ["propagate", "--system", "two-level", "--config", str(cfg),
                  "--control", str(tmp_path), "--output", str(tmp_path / "o.csv")]):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot open {tmp_path}:")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    rows = [[0.0, 1.25, -3.5], [0.1, 2.0, 4.75]]
    cli.write_csv(str(path), ["t", "a", "b"], rows)
    header, data = cli.read_csv(str(path))
    assert header == ["t", "a", "b"]
    assert np.array_equal(data, np.array(rows))


def test_csv_table_matches_per_value_format(tmp_path):
    rows = np.random.default_rng(4).normal(0.0, 1e3, (7, 5))
    rows[0, :3] = (0.0, -0.0, 1e-300)
    rows[1, :2] = (np.nan, -np.inf)
    expected = "t,a,b,c,d\n" + "".join(",".join(f"{v:.12e}" for v in row) + "\n"
                                      for row in rows.tolist())
    for given in (rows, list(rows), [list(r) for r in rows], zip(*rows.T)):
        path = tmp_path / "t.csv"
        cli.write_csv(str(path), ["t", "a", "b", "c", "d"], given)
        assert path.read_text() == expected
    cli.write_csv(str(path), ["t"], [])
    assert path.read_text() == "t\n"


def test_presets_all_parse():
    for name in ("linear_ode_benchmark", "two_level_ground_to_excited",
                 "two_level_to_superposition", "three_level_pop_inversion"):
        cfg = cli.load_config(cli.preset_path(name))
        problem, schedule, system = cli.build_problem(cfg)
        assert schedule.mode in ("xi", "joint")


@pytest.mark.parametrize("pin", [None, False, True])
def test_costate_terminal_constraint_key(pin):
    # lambda(t_f) is free; the key that pinned it is a config error, even
    # set to false
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    if pin is not None:
        cfg["ocp"]["costate_terminal_constraint"] = pin
        with pytest.raises(cli.ConfigError, match="'ocp': costate_terminal_constraint"):
            cli.build_problem(cfg)
        return
    problem, _, _ = cli.build_problem(cfg)
    values = problem.decision.values.copy()
    values[problem.decision.blocks["xi_costate"]] = 1.0
    problem._sync(values)
    lam_f, _ = problem.unknowns.expr_costate.eval(problem.morph.tauf)
    assert np.max(np.abs(lam_f)) > 1e-3


@pytest.mark.parametrize("section, owner, name", [
    ("train", optimize, "TrainSchedule"), ("ocp", pmp, "OcpConfig")])
def test_every_schedule_and_ocp_field_is_set_from_its_own_key(section, owner, name,
                                                              monkeypatch):
    # a field no config key reaches is an option no input can use
    cls = getattr(owner, name)
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    cfg[section] = {f.name: cfg[section].get(f.name, f.default)
                    for f in dataclasses.fields(cls)}
    seen = {}

    def recorded(**kwargs):
        seen.update(kwargs)
        return cls(**kwargs)

    monkeypatch.setattr(owner, name, recorded)
    cli.build_problem(cfg)
    assert sorted(seen) == sorted(cfg[section])
    for key, value in cfg[section].items():
        assert np.array_equal(seen[key], value)


def test_solve_mode_theta_exits_2(capsys):
    # Adam on the circuit parameters alone is no mode: at the zero weights
    # a solve starts from, the residual does not depend on them
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--preset", "two_level_ground_to_excited", "--mode", "theta"])
    assert exc.value.code == 2
    assert "'theta'" in capsys.readouterr().err



# (section, key, bad value) on the two-level preset
BAD_SOLVE_CONFIGS = {
    "no_features": ("qnn", "n_features", 0),
    "no_units": ("qnn", "depth", 0),
    "cutoff_1": ("qnn", "cutoff", 1),
    "negative_gamma": ("system_params", "gamma_eg", -0.1),
    "one_node": ("tfc", "n_nodes", 1),
    "tau0_at_tauf": ("tfc", "tau0", 0.8),
    "tau0_past_tauf": ("tfc", "tau0", 1.0),
    "zero_c_map": ("tfc", "c_map_init", 0.0),
    "negative_c_map": ("tfc", "c_map_init", -0.4),
    # outside QocProblem.c_map_bounds, where training would clip it unseen
    "c_map_below_bounds": ("tfc", "c_map_init", 0.01),
    "c_map_above_bounds": ("tfc", "c_map_init", 100.0),
    "zero_tolerance": ("train", "tolerance", 0.0),
    "negative_tolerance": ("train", "tolerance", -1e-3),
    "zero_adam_lr": ("train", "adam_lr", 0.0),
    "negative_adam_lr": ("train", "adam_lr", -0.01),
    "negative_gn_max_iter": ("train", "gn_max_iter", -1),
    "fractional_gn_max_iter": ("train", "gn_max_iter", 2.5),
    "fractional_joint_rounds": ("train", "joint_rounds", 1.5),
    "removed_adam_epochs": ("train", "adam_epochs", 200),
    "removed_theta_mode": ("train", "mode", "theta"),
    "negative_joint_rounds": ("train", "joint_rounds", -1),
    "zero_joint_rounds": ("train", "joint_rounds", 0),
    "negative_joint_gn_steps": ("train", "joint_gn_steps", -1),
    "negative_joint_adam_steps": ("train", "joint_adam_steps", -1),
    "removed_fd_h": ("train", "fd_h", 1e-6),
    "removed_costate_terminal_constraint": ("ocp", "costate_terminal_constraint", True),
    "infinite_tolerance": ("train", "tolerance", np.inf),
    "infinite_adam_lr": ("train", "adam_lr", np.inf),
    "removed_gn_damping": ("train", "gn_damping", 1e-8),
    # a bad damping is still a config error, now as an unknown key
    "nan_gn_damping": ("train", "gn_damping", np.nan),
    "negative_gn_damping": ("train", "gn_damping", -1.0),
    "nan_t0": ("tfc", "t0", np.nan),
    "fractional_n_nodes": ("tfc", "n_nodes", 16.5),
    "removed_passive_high": ("qnn", "passive_high", 2 * np.pi),
    "nan_squeeze_scale": ("qnn", "squeeze_scale", np.nan),
    "fractional_seed": ("qnn", "seed", 7.5),
    "fractional_n_features": ("qnn", "n_features", 6.5),
    "fractional_depth": ("qnn", "depth", 2.5),
    "fractional_cutoff": ("qnn", "cutoff", 10.5),
    "nan_u_min": ("ocp", "u_min", np.nan),
    "infinite_u_max": ("ocp", "u_max", np.inf),
    "nan_time_weight": ("ocp", "time_weight", np.nan),
    "infinite_energy_weight": ("ocp", "energy_weight", np.inf),
    "nan_sat_steepness": ("ocp", "sat_steepness", np.nan),
    "nan_rho_target": ("ocp", "rho_target", [0.05, 0.95, np.nan, 0.0]),
    "nan_omega_x": ("system_params", "omega_x", np.nan),
    "infinite_omega_z": ("system_params", "omega_z", np.inf),
    "nan_gamma_eg": ("system_params", "gamma_eg", np.nan),
    # a JSON bool or string is not a number, even where it would convert
    "bool_tolerance": ("train", "tolerance", True),
    "bool_adam_lr": ("train", "adam_lr", True),
    "bool_time_weight": ("ocp", "time_weight", True),
    "bool_rho_init_entry": ("ocp", "rho_init", [True, 0.0, 0.0, 0.0]),
    "string_rho_target_entry": ("ocp", "rho_target", [0.05, "0.95", 0.0, 0.0]),
    "bool_t0": ("tfc", "t0", True),
    "bool_c_map_init": ("tfc", "c_map_init", True),
    "bool_omega_x": ("system_params", "omega_x", True),
    "string_squeeze_scale": ("qnn", "squeeze_scale", "0.1"),
    # an integer no float can hold is a config value out of range, not a
    # numerical failure
    "huge_integer_t0": ("tfc", "t0", 10**400),
}


CONTROL_CSV = "0.0,0.0\n1.0,0.0\n"

# (system_params, propagate overrides, control CSV, section and word named
# in the error)
BAD_PROPAGATE_CONFIGS = {
    "propagate_unknown_param": ({"bogus": 1}, {}, CONTROL_CSV, "system_params", "bogus"),
    "propagate_few_steps": ({}, {"steps": 5}, CONTROL_CSV, "propagate", "steps"),
    "propagate_tf_at_t0": ({}, {"tf": 0.0}, CONTROL_CSV, "propagate", "tf"),
    "propagate_fractional_steps": ({}, {"steps": 20.7}, CONTROL_CSV, "propagate", "steps"),
    "propagate_unsorted_times": ({}, {}, "1.0,0.0\n0.0,0.0\n0.5,0.0\n", "propagate",
                                 "increasing"),
    "propagate_nan_time": ({}, {}, "0.0,0.0\nnan,0.0\n1.0,0.0\n", "propagate",
                           "increasing"),
    "propagate_bool_tf": ({}, {"tf": True}, CONTROL_CSV, "propagate", "tf"),
    "propagate_string_x0_entry": ({}, {"x0": [1.0, 0.0, 0.0, "0"]}, CONTROL_CSV,
                                  "propagate", "x0"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOLVE_CONFIGS) + sorted(BAD_PROPAGATE_CONFIGS))
def test_bad_config_value_exits_2(case, tmp_path, capsys):
    # a bad value is a config error (exit 2) naming its section, not a traceback
    if case in BAD_PROPAGATE_CONFIGS:
        params, over, control, section, key = BAD_PROPAGATE_CONFIGS[case]
        prop = {"x0": [1.0, 0.0, 0.0, 0.0], "t0": 0.0, "tf": 1.0, "steps": 50}
        cfg = tmp_path / "sys.json"
        cfg.write_text(json.dumps({"system_params": params, "propagate": {**prop, **over}}))
        ctrl = tmp_path / "u.csv"
        ctrl.write_text(control)
        argv = ["propagate", "--system", "two-level", "--config", str(cfg),
                "--control", str(ctrl), "--output", str(tmp_path / "o.csv")]
    else:
        section, key, value = BAD_SOLVE_CONFIGS[case]
        cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
        cfg[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["solve", "--config", str(path), "--output", str(tmp_path / "o")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"'{section}'" in err or f"bad {section} section" in err
    if case in BAD_PROPAGATE_CONFIGS or case.startswith("removed_"):
        assert key in err


def test_solve_reports_each_gauss_newton_iteration(tmp_path):
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    cfg["train"]["gn_max_iter"] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["solve", "--config", str(path), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    log = report["gn_iterations"]
    assert len(log) == report["iterations"] == 3
    hist = report["loss_history"]
    for entry, before, after in zip(log, hist, hist[1:]):
        assert entry["accepted"] == (after < before)
        assert 1 <= entry["trials"] <= 9 and entry["damping"] > 0
        assert entry["step_scale"] == 0.5 ** (entry["trials"] - 1)
    calls = [1] + [entry["residual_calls"] for entry in log]
    assert [b - a for a, b in zip(calls, calls[1:])] == [e["trials"] for e in log]


# (c_map, on its bound, max |lambda|, max |u| at the nodes) where each shipped
# QOC preset ends; the two-level values move with flat-tail rounding
DEGENERATE_ENDS = {
    "three_level_pop_inversion": (0.05, True, 0.0, 0.0),
    "two_level_ground_to_excited": (0.2676, False, 2.093, 0.07538),
}


@pytest.mark.parametrize("preset", sorted(DEGENERATE_ENDS))
def test_solve_reports_a_degenerate_end(preset, tmp_path):
    out = tmp_path / "out"
    assert run(["solve", "--preset", preset, "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    c_map, on_bound, costate, control = DEGENERATE_ENDS[preset]
    assert report["c_map"] == pytest.approx(c_map, rel=1e-3, abs=0)
    assert report["c_map_on_bound"] is on_bound
    assert report["max_abs_costate_nodes"] == pytest.approx(costate, rel=1e-3, abs=0)
    assert report["max_abs_control_nodes"] == pytest.approx(control, rel=1e-3, abs=0)


# (final loss, stop reason) where each shipped preset's training ends; a
# refactor of the solvers or the training loop must leave them unchanged.
# Iteration counts are not pinned: in the two-level flat tails they move
# with last-digit rounding.
PRESET_ENDS = {
    "linear_ode_benchmark": (0.031084479413491278, "converged"),
    "three_level_pop_inversion": (1.0090230133173639, "max_iter"),
    "two_level_ground_to_excited": (1.4089512093457355, "no_descent"),
    "two_level_to_superposition": (1.573674302060843, "no_descent"),
}


@pytest.mark.parametrize("preset", sorted(PRESET_ENDS))
def test_shipped_preset_training_ends_unchanged(preset):
    problem, schedule, _ = cli.build_problem(cli.load_config(cli.preset_path(preset)))
    report = optimize.train(problem, schedule)
    final_loss, stop_reason = PRESET_ENDS[preset]
    assert report.final_loss == pytest.approx(final_loss, rel=1e-9, abs=0)
    assert report.stop_reason == stop_reason


@pytest.mark.parametrize("preset", sorted(set(PRESET_ENDS) - {"linear_ode_benchmark"}))
def test_solve_verifies_within_the_tolerance_of_a_4000_step_run(preset, tmp_path):
    # linear_ode_benchmark's verify.csv is its exact solution, so no RK4 runs
    out = tmp_path / "out"
    assert run(["solve", "--preset", preset, "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rk4_steps"] % problems.RK4_BASE_STEPS == 0
    assert report["rk4_error_estimate"] <= problems.RK4_TOLERANCE
    problem, schedule, _ = cli.build_problem(cli.load_config(cli.preset_path(preset)))
    optimize.train(problem, schedule)
    _, xs, gap = problem.verify_rk4(4000)
    _, verify = cli.read_csv(str(out / "verify.csv"))
    states = verify[:, 1:1 + problem.model.dim]
    assert np.max(np.abs(states - xs[::4000 // problems.RK4_BASE_STEPS])) <= 1e-8
    assert abs(report["terminal_error_rk4"] - gap) <= 1e-8


def test_solve_evaluates_no_residual_beyond_gauss_newton(tmp_path, monkeypatch):
    # the preset stops at no_descent, so its last iteration accepts no step
    # and the train.jsonl callback asks again for the point still held
    calls = []
    residuals = pmp.residuals
    monkeypatch.setattr(pmp, "residuals", lambda *a: calls.append(1) or residuals(*a))
    out = tmp_path / "out"
    assert run(["solve", "--preset", "two_level_ground_to_excited", "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["stop_reason"] == "no_descent"
    assert len(calls) == report["gn_iterations"][-1]["residual_calls"]
