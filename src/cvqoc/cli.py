"""Experiment driver: gate dumps, feature evaluation, propagation, training.

Configs are strict JSON: unknown keys are rejected and missing keys are
named in the error.  Exit codes: 0 success (even when training does not
converge), 2 config error, 3 numerical failure, 4 check failed (verify).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import cvqnn, fock, lindblad, optimize, pmp, problems, tfc

PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


class ConfigError(Exception):
    pass


# --- strict config parsing ----------------------------------------------

def _check_keys(section: dict, name: str, required, optional=()):
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {', '.join(unknown)}")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"missing key(s) in {name!r}: {', '.join(missing)}")


def _open(path: str, mode: str = "r"):
    """open(path, mode), with an OSError (a missing file or directory, a path
    under a regular file, no permission) reported as a ConfigError."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror}")


def load_config(path: str) -> dict:
    with _open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")


def preset_path(name: str) -> str:
    path = os.path.join(PRESET_DIR, name + ".json")
    if not os.path.exists(path):
        shipped = sorted(p[:-5] for p in os.listdir(PRESET_DIR) if p.endswith(".json"))
        raise ConfigError(f"unknown preset {name!r}; shipped presets: {', '.join(shipped)}")
    return path


@contextlib.contextmanager
def _building(what: str):
    """Report a ValueError, TypeError or OSError raised while building objects
    from a config section or command-line arguments as a ConfigError naming
    them."""
    try:
        yield
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}")


def _count(section: dict, key: str) -> int:
    """An int config value; a float, even a whole one, or a bool is an error."""
    if type(value := section[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _build_bank(qnn: dict) -> cvqnn.QnnBank:
    _check_keys(qnn, "qnn", ["n_features", "depth", "cutoff", "seed"],
                ["passive_high", "squeeze_scale", "disp_scale", "kerr_scale"])
    with _building("qnn section"):
        rng = np.random.default_rng(_count(qnn, "seed"))
        kwargs = {k: float(qnn[k]) for k in
                  ("passive_high", "squeeze_scale", "disp_scale", "kerr_scale")
                  if k in qnn}
        return cvqnn.random_bank(_count(qnn, "n_features"), _count(qnn, "depth"),
                                 _count(qnn, "cutoff"), rng, **kwargs)


def _build_model(system: str, params: dict) -> lindblad.SuperOperatorModel:
    """The two- or three-level model from a strictly checked system_params."""
    if system == "two-level":
        _check_keys(params, "system_params", [],
                    ["gamma_eg", "gamma_ge", "omega_x", "omega_z"])
        with _building("system_params section"):
            return lindblad.two_level_model(lindblad.TwoLevelParams(**params))
    _check_keys(params, "system_params", [], ["delta", "delta1"])
    with _building("system_params section"):
        return lindblad.three_level_model(lindblad.ThreeLevelParams(**params))


def _build_schedule(train: dict) -> optimize.TrainSchedule:
    _check_keys(train, "train", ["mode"],
                ["tolerance", "gn_max_iter", "gn_damping", "adam_lr",
                 "adam_epochs", "joint_rounds", "joint_gn_steps",
                 "joint_adam_steps"])
    with _building("train section"):
        return optimize.TrainSchedule(**train)


def build_problem(cfg: dict):
    """Returns (problem, schedule, system_name).  Only construction runs
    here, so a config error exits 2 and a failure in training still exits 3."""
    _check_keys(cfg, "<top level>", ["system", "qnn", "tfc", "train"],
                ["system_params", "ocp", "benchmark"])
    system = cfg["system"]
    bank = _build_bank(cfg["qnn"])
    tfc_cfg = cfg["tfc"]

    if system == "linear-ode-benchmark":
        _check_keys(tfc_cfg, "tfc", ["n_nodes", "tau0", "tauf", "t0", "t_final"])
        _check_keys(cfg.get("benchmark", {}), "benchmark", ["rate", "y0"])
        with _building("benchmark section"):
            rate, y0 = float(cfg["benchmark"]["rate"]), float(cfg["benchmark"]["y0"])
        with _building("tfc section"):
            morph = tfc.TimeMorph.from_times(float(tfc_cfg["t0"]), float(tfc_cfg["t_final"]),
                                             float(tfc_cfg["tau0"]), float(tfc_cfg["tauf"]))
            problem = problems.OdeBenchmarkProblem(bank, morph, _count(tfc_cfg, "n_nodes"),
                                                   rate=rate, y0=y0)
    elif system in ("two-level", "three-level"):
        _check_keys(tfc_cfg, "tfc", ["n_nodes", "tau0", "tauf", "t0", "c_map_init"])
        model = _build_model(system, cfg.get("system_params", {}))
        ocp = dict(cfg.get("ocp", {}))
        _check_keys(ocp, "ocp",
                    ["time_weight", "energy_weight", "reg_weight",
                     "u_min", "u_max", "sat_steepness", "rho_init", "rho_target"],
                    ["costate_terminal_constraint"])
        with _building("ocp section"):
            ocp["rho_init"] = np.asarray(ocp["rho_init"], dtype=float)
            ocp["rho_target"] = np.asarray(ocp["rho_target"], dtype=float)
            if ocp["rho_init"].shape != (model.dim,) or ocp["rho_target"].shape != (model.dim,):
                raise ConfigError(f"ocp boundary states must have length {model.dim}")
            lindblad.RealDensityVector(ocp["rho_init"])
            lindblad.RealDensityVector(ocp["rho_target"])
            cfg_ocp = pmp.OcpConfig(t0=float(tfc_cfg["t0"]), **ocp)
        with _building("tfc section"):
            morph = tfc.TimeMorph(float(tfc_cfg["t0"]), float(tfc_cfg["tau0"]),
                                  float(tfc_cfg["tauf"]), float(tfc_cfg["c_map_init"]))
            problem = problems.QocProblem(bank, cfg_ocp, model, morph,
                                          _count(tfc_cfg, "n_nodes"))
    else:
        raise ConfigError(f"unknown system {system!r}; expected two-level, "
                          "three-level, or linear-ode-benchmark")
    return problem, _build_schedule(cfg["train"]), system


# --- CSV helpers --------------------------------------------------------

def write_csv(path: str, header, rows) -> None:
    """Write rows (a 2-D array or an iterable of equal-length rows) as
    %.12e values, formatted in one pass with one row template."""
    table = np.asarray(list(rows), dtype=float)
    with _open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        if table.size:
            line = ",".join(["%.12e"] * table.shape[1]) + "\n"
            fh.write((line * table.shape[0]) % tuple(table.ravel().tolist()))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def read_csv(path: str):
    """(header list or None, float matrix).  The first non-blank line is
    the header if none of its cells is a number; every line must have as
    many cells as the first, and every other line only numbers, or a
    ConfigError names the file and line."""
    with _open(path) as fh:
        lines = [(n, ln.strip().split(",")) for n, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ConfigError(f"empty CSV file {path}")
    header = None
    rows = []
    for n, cells in lines:
        if len(cells) != len(lines[0][1]):
            raise ConfigError(f"{path} line {n}: {len(cells)} cells, "
                              f"expected {len(lines[0][1])}")
        values = [_number(v) for v in cells]
        if None not in values:
            rows.append(values)
        elif n == lines[0][0] and all(v is None for v in values):
            header = cells
        else:
            raise ConfigError(f"{path} line {n}: not a number in {','.join(cells)!r}")
    if not rows:
        raise ConfigError(f"no data rows in CSV file {path}")
    return header, np.array(rows)


# --- subcommands --------------------------------------------------------

GATE_KINDS = {
    "displacement": lambda v: fock.Displacement(complex(v)),
    "rotation": lambda v: fock.Rotation(float(v)),
    "squeeze": lambda v: fock.Squeeze(float(v)),
    "kerr": lambda v: fock.Kerr(float(v)),
}


def cmd_gates(args) -> int:
    try:
        make = GATE_KINDS[args.kind]
    except KeyError:
        raise ConfigError(f"unknown gate kind {args.kind!r}; "
                          f"expected one of {', '.join(sorted(GATE_KINDS))}")
    try:
        gate = make(args.param)
    except ValueError:
        raise ConfigError(f"cannot parse parameter {args.param!r} for {args.kind}")
    with _building("gate arguments"):
        mat = fock.gate_matrix(gate, args.cutoff).entries
    out = sys.stdout if args.output is None else _open(args.output, "w")
    try:
        for row in mat:
            cells = []
            for v in row:
                cells.extend((f"{v.real:.12e}", f"{v.imag:.12e}"))
            out.write(",".join(cells) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_qnn_eval(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, "<top level>", ["qnn"])
    bank = _build_bank(cfg["qnn"])
    with _building("--tau"):
        sigma = cvqnn.forward(bank, args.tau)
    print(",".join(f"{v:.12e}" for v in sigma))
    return 0


def cmd_propagate(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, "<top level>", ["system_params", "propagate"])
    prop = cfg["propagate"]
    _check_keys(prop, "propagate", ["x0", "t0", "tf", "steps"])
    model = _build_model(args.system, cfg["system_params"])
    x0 = np.asarray(prop["x0"], dtype=float)
    if x0.shape != (model.dim,):
        raise ConfigError(f"x0 must have length {model.dim}")
    header, data = read_csv(args.control)
    if data.shape[1] != 1 + model.n_controls:
        raise ConfigError(f"control CSV needs {1 + model.n_controls} columns "
                          f"(t plus {model.n_controls} control(s))")
    t_ctrl = data[:, 0]

    def u_of_t(t):
        return np.column_stack([np.interp(t, t_ctrl, data[:, 1 + c])
                                for c in range(model.n_controls)])

    with _building("propagate section"):
        # np.interp needs increasing sample times
        if not (np.all(np.isfinite(t_ctrl)) and np.all(np.diff(t_ctrl) > 0)):
            raise ValueError("control times must be finite and strictly increasing")
        ts, xs = lindblad.propagate_rk4(model, x0, u_of_t,
                                        float(prop["t0"]), float(prop["tf"]),
                                        _count(prop, "steps"))
    n_pop = int(round(np.sqrt(model.dim)))
    head = ["t"] + [f"x{i + 1}" for i in range(model.dim)] + ["trace"]
    write_csv(args.output, head, np.column_stack([ts, xs, xs[:, :n_pop].sum(axis=1)]))
    print(f"wrote {args.output} ({len(ts)} samples)")
    return 0


def _sample_grid(t0: float, tf: float, n: int = 201) -> np.ndarray:
    return np.linspace(t0, tf, n)


def _feature_basis(problem) -> dict:
    """The singular values of the node table phi(nodes), over the largest,
    and its numerical rank at a fixed relative cutoff of 1e-8."""
    sv = np.linalg.svd(problem.cache.features(problem.nodes, False)[0], compute_uv=False)
    return {"feature_singular_values": (sv / sv[0]).tolist(),
            "feature_rank": int(np.sum(sv > 1e-8 * sv[0]))}


def _solve_artifacts_qoc(problem, report, outdir: str, system: str) -> dict:
    model = problem.model
    grid = _sample_grid(problem.cfg.t0, problem.final_time())
    xs = problem.state_trajectory(grid)
    us = problem.control_trajectory(grid)
    n_pop = int(round(np.sqrt(model.dim)))
    u_names = ["u"] if model.n_controls == 1 else ["u", "u_s"]
    head = (["t"] + [f"x{i + 1}" for i in range(model.dim)]
            + u_names + ["trace"])
    write_csv(os.path.join(outdir, "trajectory.csv"), head,
              np.column_stack([grid, xs, us, xs[:, :n_pop].sum(axis=1)]))

    # RK4 verification on the same grid (20 substeps per sample interval)
    sub = 20
    _, vx, gap = problem.verify_rk4(sub * (grid.shape[0] - 1))
    vx = vx[::sub]
    write_csv(os.path.join(outdir, "verify.csv"), head,
              np.column_stack([grid, vx, us, vx[:, :n_pop].sum(axis=1)]))

    # conditioning of the closed-form Gauss-Newton Jacobian at the solution
    sv = np.linalg.svd(problem.jacobian(problem.decision.values), compute_uv=False)
    return {
        "system": system,
        "report": report.to_dict(),
        "tf": problem.final_time(),
        "c_map": problem.morph.c_map,
        "terminal_error_trained": problem.terminal_state_error(),
        "terminal_error_rk4": gap,
        "loss_breakdown": problem.residual_vector(problem.decision.values).breakdown(),
        "jacobian_singular_values": [float(sv[0]), float(sv[-1])],
        "jacobian_cond": float(sv[0] / sv[-1]),
        **_feature_basis(problem),
    }


def _solve_artifacts_benchmark(problem, report, outdir: str) -> dict:
    grid = _sample_grid(problem.morph.t0, problem.morph.tf)
    y = problem.solution(grid)
    write_csv(os.path.join(outdir, "trajectory.csv"), ["t", "y"], np.column_stack([grid, y]))
    exact = y[0] * np.exp(problem.rate * (grid - grid[0]))
    write_csv(os.path.join(outdir, "verify.csv"), ["t", "y"], np.column_stack([grid, exact]))
    return {
        "system": "linear-ode-benchmark",
        "report": report.to_dict(),
        "tf": problem.morph.tf,
        "terminal_error_trained": float(abs(y[-1] - exact[-1])),
        "max_grid_error": float(np.max(np.abs(y - exact))),
        **_feature_basis(problem),
    }


def cmd_solve(args) -> int:
    cfg = load_config(args.config if args.preset is None else preset_path(args.preset))
    if args.mode is not None:
        cfg.setdefault("train", {})["mode"] = args.mode
    problem, schedule, system = build_problem(cfg)
    with _building("--output"):
        os.makedirs(args.output, exist_ok=True)

    log_path = os.path.join(args.output, "train.jsonl")
    with _open(log_path, "w") as log:
        def callback(epoch, values, loss):
            entry = {"epoch": epoch}
            if system == "linear-ode-benchmark":
                entry["L2_total"] = loss
            else:
                rv = problem.residual_vector(values)
                entry.update(rv.breakdown())
                entry["c_map"] = problem.morph.c_map
                entry["tf"] = problem.morph.tf
            log.write(json.dumps(entry) + "\n")

        report = optimize.train(problem, schedule, callback=callback)

    if system == "linear-ode-benchmark":
        summary = _solve_artifacts_benchmark(problem, report, args.output)
    else:
        summary = _solve_artifacts_qoc(problem, report, args.output, system)
    with _open(os.path.join(args.output, "report.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{system}: converged={report.converged} stop_reason={report.stop_reason} "
          f"final_loss={report.final_loss:.6e} iterations={report.iterations}")
    print(f"artifacts in {args.output}")
    return 0


def cmd_verify(args) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol!r}")
    head_a, traj = read_csv(args.trajectory)
    head_b, ver = read_csv(args.verify)
    if head_a != head_b:
        raise ConfigError("trajectory and verify headers differ")
    if traj.shape != ver.shape:
        raise ConfigError(f"grid mismatch: {traj.shape} vs {ver.shape}")
    if np.max(np.abs(traj[:, 0] - ver[:, 0])) > 1e-9:
        raise ConfigError("time grids differ")
    names = head_a[1:] if head_a else [f"c{i}" for i in range(1, traj.shape[1])]
    state_cols = [i for i, n in enumerate(names, start=1)
                  if n not in ("trace",) and not n.startswith("u")]
    max_dev = 0.0
    for i in state_cols:
        dev = float(np.max(np.abs(traj[:, i] - ver[:, i])))
        name = names[i - 1] if head_a else f"col{i}"
        print(f"max deviation {name}: {dev:.6e}")
        max_dev = max(max_dev, dev)
    drift = 0.0
    if head_a and "trace" in names:
        tr = ver[:, 1 + names.index("trace")]
        drift = float(np.max(np.abs(tr - 1.0)))
        print(f"trace drift: {drift:.6e}")
    terminal = float(np.linalg.norm(traj[-1, state_cols] - ver[-1, state_cols]))
    print(f"terminal error: {terminal:.6e}")
    ok = max_dev < args.tol and drift < args.tol and terminal < args.tol
    print("PASS" if ok else f"FAIL (tolerance {args.tol:g})")
    return 0 if ok else 4


# --- entry point --------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvqoc",
                                     description="quantum optimal control experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gates", help="dump a gate matrix as CSV (re/im columns)")
    p.add_argument("--kind", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gates)

    p = sub.add_parser("qnn-eval", help="print the feature vector sigma(tau)")
    p.add_argument("--config", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(func=cmd_qnn_eval)

    p = sub.add_parser("propagate", help="RK4 propagation under a tabulated control")
    p.add_argument("--system", required=True, choices=["two-level", "three-level"])
    p.add_argument("--config", required=True)
    p.add_argument("--control", required=True, help="CSV with columns t,u[,u_s]")
    p.add_argument("--output", default="propagate.csv")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("solve", help="train a problem and write artifacts")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config")
    source.add_argument("--preset")
    p.add_argument("--mode", default=None, choices=["xi", "theta", "joint"])
    p.add_argument("--output", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="compare a trajectory against its RK4 check")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--verify", required=True)
    p.add_argument("--tol", type=float, required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("CVQOC_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print(f"error: CVQOC_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
