import numpy as np
import pytest

from cvqoc import cli, cvqnn, lindblad, optimize, pmp, problems, tfc
from cvqoc.tfc import TimeMorph

import oracles


def small_bank(seed=28, n=4):
    return cvqnn.random_bank(n, 2, 10, np.random.default_rng(seed),
                             squeeze_scale=0.1, disp_scale=0.3, kerr_scale=0.15)


def ode_problem(seed=28):
    morph = TimeMorph.from_times(0.0, 1.0, -0.8, 0.8)
    return problems.OdeBenchmarkProblem(small_bank(seed), morph, 20,
                                        rate=-2.0, y0=1.0)


def dsigma_oracle(bank, tau, h=1e-3):
    """Richardson extrapolation of two central differences, error O(h^4)."""
    return (4.0 * oracles.forward_dtau(bank, tau, h / 2) - oracles.forward_dtau(bank, tau, h)) / 3.0


def qoc_problem(seed=7, n_nodes=8, t0=0.0):
    bank = cvqnn.random_bank(6, 2, 10, np.random.default_rng(seed),
                             squeeze_scale=0.1, disp_scale=0.3, kerr_scale=0.15)
    cfg = pmp.OcpConfig(time_weight=1.0, energy_weight=1.0, reg_weight=1e-2,
                        u_min=-2.0, u_max=2.0, sat_steepness=1.0,
                        rho_init=np.array([1.0, 0.0, 0.0, 0.0]),
                        rho_target=np.array([0.05, 0.95, 0.0, 0.0]))
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    morph = TimeMorph(t0, -0.8, 0.8, 0.4)
    return problems.QocProblem(bank, cfg, model, morph, n_nodes)


def test_feature_cache_reuses_unitaries(monkeypatch):
    calls = {"n": 0}
    orig = cvqnn.QnnCircuit.unitary

    def counting(self):
        calls["n"] += 1
        return orig(self)

    monkeypatch.setattr(cvqnn.QnnCircuit, "unitary", counting)
    # the first residual tabulates the node features
    prob = ode_problem()
    values = prob.decision.values.copy()
    prob.residual(values)
    after_first = calls["n"]
    assert after_first > 0
    # xi-only change: circuits untouched, cached features reused
    values[0] += 0.5
    prob.residual(values)
    assert calls["n"] == after_first
    # theta change in every circuit's slice: QnnBank.set_flat rewrites and
    # re-versions each circuit, so every feature column is recomputed
    values[prob.decision.blocks["theta"]] = values[prob.decision.blocks["theta"]] + 1e-3
    prob.residual(values)
    assert calls["n"] > after_first


def test_feature_cache_derivative_matches_forward_dtau():
    # off-table scalar path
    bank = small_bank()
    cache = problems.FeatureCache(bank)
    sig, dsig = cache.features(0.3)
    assert np.allclose(sig, oracles.forward(bank, 0.3), atol=1e-12)
    assert np.allclose(dsig, dsigma_oracle(bank, 0.3), rtol=0, atol=1e-10)
    values, none = cache.features(0.3, derivative=False)
    assert none is None
    assert np.array_equal(values, sig)


def test_ode_benchmark_trains_to_analytic_solution():
    prob = ode_problem()
    rep = optimize.train(prob, optimize.TrainSchedule(mode="xi", tolerance=5e-2,
                                                      gn_max_iter=50))
    assert rep.converged
    grid = np.linspace(0.0, 1.0, 200)
    err = np.abs(prob.solution(grid) - np.exp(-2.0 * grid))
    assert np.max(err) < 1e-2
    # initial condition is exact by construction
    assert abs(prob.solution(np.array([0.0]))[0] - 1.0) < 1e-12


def test_ode_benchmark_deterministic():
    rep1 = optimize.train(ode_problem(), optimize.TrainSchedule(mode="xi",
                                                                tolerance=5e-2))
    rep2 = optimize.train(ode_problem(), optimize.TrainSchedule(mode="xi",
                                                                tolerance=5e-2))
    assert rep1.loss_history == rep2.loss_history


def test_qoc_decision_layout():
    prob = qoc_problem()
    blocks = prob.decision.blocks
    L, dim, nc = 6, 4, 1
    assert blocks["xi_state"] == slice(0, L * dim)
    assert blocks["c_map"].stop - blocks["c_map"].start == 1
    theta_len = prob.bank.get_flat().shape[0]
    assert blocks["theta"].stop - blocks["theta"].start == theta_len
    total = 2 * L * dim + 3 * L * nc + theta_len + 1
    assert prob.decision.values.shape[0] == total
    assert prob.xi_mask.sum() == total - theta_len
    assert prob.theta_mask.sum() == theta_len


def test_qoc_boundaries_exact_for_any_decision():
    prob = qoc_problem()
    rng = np.random.default_rng(0)
    values = prob.decision.values.copy()
    values[prob.xi_mask] = rng.normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob._sync(values)
    assert prob.terminal_state_error() < 1e-10
    x0, _ = prob.unknowns.expr_state.eval(prob.morph.tau0)
    assert np.max(np.abs(x0 - prob.cfg.rho_init)) < 1e-12


def test_qoc_residual_matches_pmp_contract():
    prob = qoc_problem(n_nodes=6)
    r = prob.residual(prob.decision.values)
    assert r.shape[0] == 6 * (2 * 4 + 3) + 1
    # all-zero unknowns: terminal row is the time weight
    assert r[-1] == pytest.approx(1.0, abs=1e-12)


def test_qoc_c_map_bound_projection():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.decision.blocks["c_map"]] = 1e-6
    prob._sync(values)
    assert prob.morph.c_map == pytest.approx(0.05)
    idx, lo, hi = prob.bounds()[0]
    assert (lo, hi) == (0.05, 20.0)
    assert idx == prob.decision.blocks["c_map"].start


def test_qoc_verify_rk4_runs():
    prob = qoc_problem(n_nodes=6)
    ts, xs, gap = prob.verify_rk4(steps=200)
    assert ts.shape[0] == xs.shape[0] == 201
    assert np.max(np.abs(xs[:, 0] + xs[:, 1] - 1.0)) < 1e-9
    assert gap >= 0.0


def test_qoc_verify_rk4_spans_the_trained_horizon():
    # the horizon starts at the time morph's t0, whatever it is
    prob = qoc_problem(n_nodes=6, t0=1.0)
    ts, _, _ = prob.verify_rk4(steps=200)
    morph = prob.morph
    assert ts[0] == morph.t0 == 1.0
    assert ts[-1] - ts[0] == morph.tf - morph.t0


def test_verify_rk4_stops_where_a_known_fourth_order_error_meets_the_tolerance(monkeypatch):
    # a closed qubit under a constant control: the coherence turns at
    # omega = 2 omega_z + u with radius r, so RK4's error after N steps is
    # r (omega T)^5 / (120 N^4) to leading order.  omega T = 23 puts it at
    # 6.4e-8 for 800 steps and 4.0e-9 for 1600, either side of the tolerance.
    params = lindblad.TwoLevelParams(gamma_eg=0.0, gamma_ge=0.0, omega_x=0.0, omega_z=2.0)
    u, span, r = 1.75, 4.0, 0.5
    x0 = np.array([0.5, 0.5, r, 0.0])
    cfg = pmp.OcpConfig(time_weight=1.0, energy_weight=1.0, reg_weight=1e-2,
                        u_min=-2.0, u_max=2.0, sat_steepness=1.0,
                        rho_init=x0, rho_target=np.array([0.5, 0.5, 0.0, r]))
    prob = problems.QocProblem(small_bank(), cfg, lindblad.two_level_model(params),
                               TimeMorph(0.0, -0.8, 0.8, 1.6 / span), 8)
    monkeypatch.setattr(prob, "control_function", lambda: lambda t: np.full(1, u))
    ts, xs, gap, estimate = prob.verify_rk4()
    steps = xs.shape[0] - 1
    assert steps == 1600 and ts[-1] == span
    predicted = r * ((2 * params.omega_z + u) * span) ** 5 / (120 * steps ** 4)
    assert estimate == pytest.approx(predicted, rel=1e-3)
    # the exact states, exp(G t) x0, against the grid states the estimate covers
    w, v = np.linalg.eig(prob.model.drift + u * prob.model.generator_du[0])
    grid = np.linspace(0.0, span, problems.RK4_BASE_STEPS + 1)
    exact = np.real(np.einsum("ij,kj,j->ki", v, np.exp(np.multiply.outer(grid, w)),
                              np.linalg.solve(v, x0)))
    error = np.max(np.linalg.norm(xs[::steps // problems.RK4_BASE_STEPS] - exact, axis=1))
    assert error == pytest.approx(estimate, rel=1e-3)
    assert error <= problems.RK4_TOLERANCE
    assert gap == np.linalg.norm(xs[-1] - cfg.rho_target)


def fast_control_problem():
    """qoc_problem with every control weight 50: |u| reaches about 70 over
    the horizon of 4."""
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.decision.blocks["xi_u"]] = 50.0
    prob.decision.replace(values)
    return prob


def test_verify_rk4_doubles_past_4000_steps_for_a_fast_control():
    prob = fast_control_problem()
    _, xs, _, estimate = prob.verify_rk4()
    steps = xs.shape[0] - 1
    assert steps > 4000 and steps % problems.RK4_BASE_STEPS == 0
    assert estimate <= problems.RK4_TOLERANCE
    _, finer, _ = prob.verify_rk4(2 * steps)
    stride = steps // problems.RK4_BASE_STEPS
    assert np.max(np.linalg.norm(xs[::stride] - finer[::2 * stride], axis=1)) \
        <= 2 * problems.RK4_TOLERANCE


def three_level_problem(seed=1):
    """A three-level point whose two controls are nonzero: its xi_u weights
    are drawn at scale 5."""
    bank = cvqnn.random_bank(6, 2, 10, np.random.default_rng(seed),
                             squeeze_scale=0.1, disp_scale=0.3, kerr_scale=0.15)
    cfg = pmp.OcpConfig(time_weight=1.0, energy_weight=1.0, reg_weight=1e-2,
                        u_min=-2.0, u_max=2.0, sat_steepness=1.0,
                        rho_init=np.eye(9)[0], rho_target=np.eye(9)[8])
    prob = problems.QocProblem(bank, cfg, lindblad.three_level_model(lindblad.ThreeLevelParams()),
                               TimeMorph(0.0, -0.8, 0.8, 0.4), 8)
    values = prob.decision.values.copy()
    block = prob.decision.blocks["xi_u"]
    values[block] = np.random.default_rng(seed).normal(0.0, 5.0, block.stop - block.start)
    prob.decision.replace(values)
    return prob


def trained_two_level_preset():
    problem, schedule, _ = cli.build_problem(
        cli.load_config(cli.preset_path("two_level_ground_to_excited")))
    optimize.train(problem, schedule)
    return problem


@pytest.mark.parametrize("make, steps", [(trained_two_level_preset, 1600),
                                         (fast_control_problem, 12800)])
def test_verify_rk4_asks_for_each_stage_time_once(monkeypatch, make, steps):
    # each run after the first tabulates only its odd stage times, so the
    # ladder asks 2 steps + 1 times in all: 3201 and 25 601, where fresh
    # runs of 200, 400, ... steps ask 6004 and 50 807
    prob = make()
    asked, u = [], prob.control_function()
    monkeypatch.setattr(prob, "control_function",
                        lambda: lambda t: asked.append(np.array(t, ndmin=1)) or u(t))
    ts, xs, _, _ = prob.verify_rk4()
    assert xs.shape[0] - 1 == steps
    times = np.concatenate(asked)
    assert times.size == np.unique(times).size == 2 * steps + 1
    assert np.array_equal(np.sort(times), np.linspace(ts[0], ts[-1], 2 * steps + 1))


@pytest.mark.parametrize("make, cap", [(fast_control_problem, None), (three_level_problem, None),
                                       (trained_two_level_preset, 6400)])
def test_verify_rk4_ladder_equals_a_fresh_run_at_its_step_count(monkeypatch, make, cap):
    # the reused control rows are bit for bit what one tabulation gives,
    # also at 6400 steps, where one tabulation's 12 801 stage times would
    # end in a one-row block
    if cap is not None:
        monkeypatch.setattr(problems, "RK4_TOLERANCE", 0.0)
        monkeypatch.setattr(problems, "RK4_MAX_STEPS", cap)
    prob = make()
    ts, xs, gap, _ = prob.verify_rk4()
    steps = xs.shape[0] - 1
    assert steps > 2 * problems.RK4_BASE_STEPS and np.any(prob.control_trajectory(ts) != 0)
    fresh_ts, fresh_xs, fresh_gap = prob.verify_rk4(steps)
    assert np.array_equal(ts, fresh_ts)
    assert np.array_equal(xs, fresh_xs)
    assert gap == fresh_gap


def test_verify_rk4_stops_at_its_cap_whatever_the_estimate(monkeypatch):
    # with a cap of 800 steps the fast control above cannot meet the
    # tolerance: the ladder stops there and reports what it estimates
    monkeypatch.setattr(problems, "RK4_MAX_STEPS", 4 * problems.RK4_BASE_STEPS)
    _, xs, _, estimate = fast_control_problem().verify_rk4()
    assert xs.shape[0] - 1 == 800
    assert estimate > problems.RK4_TOLERANCE


def test_verify_rk4_raises_at_its_first_run_when_the_states_blow_up(monkeypatch):
    # a NaN estimate never meets the tolerance, so without the raise the
    # ladder would run on to RK4_MAX_STEPS and report a NaN gap
    prob = qoc_problem()
    monkeypatch.setattr(prob, "control_function", lambda: lambda t: np.full(1, 1e6))
    runs, propagate = [], lindblad.propagate_rk4
    monkeypatch.setattr(lindblad, "propagate_rk4",
                        lambda *args: runs.append(args[-1]) or propagate(*args))
    with pytest.raises(FloatingPointError, match="RK4 state not finite"):
        prob.verify_rk4()
    assert runs == [problems.RK4_BASE_STEPS]


def test_qoc_control_function_clamps_endpoints():
    prob = qoc_problem()
    u = prob.control_function()
    tf = prob.final_time()
    # tiny rounding past the horizon must not raise
    assert np.isfinite(u(tf + 1e-12)[0])
    assert np.isfinite(u(-1e-12)[0])


def test_feature_cache_batch_matches_scalar_oracles():
    bank = small_bank()
    taus = np.random.default_rng(3).uniform(-0.8, 0.8, 25)
    cache = problems.FeatureCache(bank)
    sig, dsig = cache.features(taus)
    assert sig.shape == dsig.shape == (25, bank.n_features)
    assert np.allclose(sig, [oracles.forward(bank, t) for t in taus], atol=1e-12)
    assert np.allclose(dsig, [dsigma_oracle(bank, t) for t in taus], rtol=0, atol=1e-10)
    values, none = cache.features(taus, derivative=False)
    assert none is None
    assert np.allclose(values, sig, atol=1e-14)
    # tabulated points are lookups with the same values, one by one or as an array
    table = problems.FeatureCache(bank, taus[:5])
    for t in taus[:5]:
        row, drow = table.features(t)
        assert np.allclose(row, oracles.forward(bank, t), atol=1e-12)
        assert np.allclose(drow, dsigma_oracle(bank, t), rtol=0, atol=1e-10)
    rows, drows = table.features(taus[:5])
    assert np.allclose(rows, sig[:5], rtol=0, atol=1e-14)
    assert np.allclose(drows, dsig[:5], rtol=0, atol=1e-14)


def test_feature_cache_partial_and_past_table_arrays_match_batch(monkeypatch):
    bank = small_bank()
    table_taus = np.linspace(-0.8, 0.4, 7)
    table = problems.FeatureCache(bank, table_taus)
    batch = problems.FeatureCache(bank)
    mixed = np.array([table_taus[2], 0.05, table_taus[0], -0.77, table_taus[6]])
    above = np.array([table_taus[3], 0.6])   # 0.6 sorts past the last entry
    assert np.searchsorted(table_taus, 0.6) == table_taus.size
    for taus in (mixed, above, np.array([0.7])):
        sig, dsig = table.features(taus)
        ref, dref = batch.features(taus)
        assert sig.shape == dsig.shape == (taus.size, bank.n_features)
        assert np.allclose(sig, ref, rtol=0, atol=1e-12)
        assert np.allclose(dsig, dref, rtol=0, atol=1e-12)
        values, none = table.features(taus, derivative=False)
        assert none is None
        assert np.allclose(values, ref, rtol=0, atol=1e-12)
    # tabulated tau, a float64 or a plain float, alone or in an array, are lookups
    monkeypatch.setattr(table, "_quadratic", None)
    for taus in (table_taus[3], float(table_taus[0]), table_taus[[6, 1, 4]]):
        sig, dsig = table.features(taus)
        ref, dref = batch.features(taus)
        assert np.allclose(sig, ref, rtol=0, atol=1e-12)
        assert np.allclose(dsig, dref, rtol=0, atol=1e-12)


def test_tabulated_tau_matches_the_same_tau_off_the_table():
    bank = small_bank()
    taus = np.random.default_rng(4).uniform(-0.8, 0.8, 9)
    table = problems.FeatureCache(bank, taus)
    free = problems.FeatureCache(bank)
    for _ in range(2):   # at the first revision, then after a theta write
        for t in (*taus, taus):
            for got, ref in zip(table.features(t), free.features(t)):
                assert np.allclose(got, ref, rtol=0, atol=1e-15)
        flat = bank.get_flat()
        flat[3] += 0.05
        bank.set_flat(flat)


def test_weighted_kernel_matches_table_and_forward():
    bank = small_bank()
    taus = np.linspace(-0.8, 0.8, 8001)
    table = problems.FeatureCache(bank, taus)
    sig, dsig = table.features(taus)
    # the table against the state-vector oracles, on a subsample
    sub = taus[::400]
    assert np.allclose(sig[::400], [oracles.forward(bank, t) for t in sub], rtol=0, atol=1e-12)
    assert np.allclose(dsig[::400], [dsigma_oracle(bank, t) for t in sub], rtol=0, atol=1e-10)
    w = np.random.default_rng(6).normal(0.0, 1.0, (bank.n_features, 3))
    weighted = table.weighted(w)
    val, dval = weighted(taus)
    assert val.shape == dval.shape == (taus.size, 3)
    assert np.allclose(val, sig @ w, rtol=0, atol=1e-13)
    assert np.allclose(dval, dsig @ w, rtol=0, atol=1e-13)
    # without the derivative, over the whole grid: several row blocks of the kernel
    assert taus.size > 2 * problems._BLOCK_BYTES // (8 * w.shape[1] * 2 * bank.cutoff)
    full, none = weighted(taus, derivative=False)
    assert none is None and full.shape == (taus.size, 3)
    assert np.array_equal(full, val)
    row, none = weighted(taus[17], derivative=False)
    assert none is None and row.shape == (3,)
    assert np.allclose(row, val[17], rtol=0, atol=1e-15)
    # the weights are read on every call, and a new bank revision rebuilds the forms
    w[:, 1] = 0.0
    assert np.array_equal(weighted(taus[:5], False)[0][:, 1], np.zeros(5))
    flat = bank.get_flat()
    flat[1] += 0.05
    bank.set_flat(flat)
    sig, dsig = table.features(taus)
    val, dval = weighted(taus)
    assert np.allclose(val, sig @ w, rtol=0, atol=1e-13)
    assert np.allclose(dval, dsig @ w, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        weighted(np.array([0.1, np.nan]))


def test_state_through_weighted_kernel_matches_amplitude_path():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(8).normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob.decision.replace(values)
    t_grid = np.linspace(0.0, prob.final_time(), 8001)
    taus = prob.morph.to_tau(t_grid)
    state = prob.state_trajectory(t_grid)
    expr = prob.unknowns.expr_state
    assert np.allclose(state, expr.eval(taus, derivative=False)[0], rtol=0, atol=1e-13)
    table = problems.FeatureCache(prob.bank, taus)
    psi, _, b, _ = expr.affine(taus, derivative=False, features=table.features)
    assert np.allclose(state, psi @ expr.weights + b, rtol=0, atol=1e-13)
    assert np.allclose(state[0], prob.cfg.rho_init, rtol=0, atol=1e-13)
    assert np.allclose(state[-1], prob.cfg.rho_target, rtol=0, atol=1e-13)


def test_control_function_on_scalar_and_array_times():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(9).normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob.decision.replace(values)
    u = prob.control_function()
    ts = np.linspace(0.0, prob.final_time(), 41)
    table = u(ts)
    assert table.shape == (41, 1)
    ref = prob.unknowns.expr_control.eval(prob.morph.to_tau(ts), derivative=False)[0]
    assert np.allclose(table, ref, rtol=0, atol=1e-13)
    for k in (0, 7, 40):
        row = u(float(ts[k]))
        assert row.shape == (1,)
        assert np.allclose(row, table[k], rtol=0, atol=1e-14)


def test_control_function_and_trajectory_tabulate_by_one_path():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(10).normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob.decision.replace(values)
    tf = prob.final_time()
    # the solve's 201-point grid, and a time just past tf that both clamp
    ts = np.append(np.linspace(prob.morph.t0, tf, 201), tf + 1e-12)
    assert np.array_equal(prob.control_function()(ts), prob.control_trajectory(ts))


def test_array_eval_matches_scalar_calls_and_boundaries():
    prob = qoc_problem()
    rng = np.random.default_rng(2)
    values = prob.decision.values.copy()
    values[prob.xi_mask] = rng.normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob._sync(values)
    m = prob.morph
    taus = np.concatenate([[m.tau0], rng.uniform(m.tau0, m.tauf, 12), prob.nodes, [m.tauf]])
    u = prob.unknowns
    for expr in (u.expr_state, u.expr_costate, u.expr_control,
                 u.expr_sat_input, u.expr_multiplier):
        y, ydot = expr.eval(taus)
        rows = [expr.eval(t) for t in taus]
        assert np.allclose(y, [r[0] for r in rows], rtol=0, atol=1e-12)
        assert np.allclose(ydot, [r[1] for r in rows], rtol=0, atol=1e-10)
        y_only, none = expr.eval(taus, derivative=False)
        assert none is None
        assert np.allclose(y_only, y, rtol=0, atol=1e-14)
    x = u.expr_state.eval(taus)[0]
    assert np.max(np.abs(x[0] - prob.cfg.rho_init)) < 1e-12
    assert np.max(np.abs(x[-1] - prob.cfg.rho_target)) < 1e-12
    with pytest.raises(ValueError):
        u.expr_state.eval(np.array([0.0, m.tauf + 1e-6]))


def test_one_theta_coordinate_rebuilds_one_circuit(monkeypatch):
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(5).normal(0.0, 0.3, int(prob.xi_mask.sum()))
    prob.residual(values)
    circuits = prob.bank.circuits
    versions = [c.version for c in circuits]
    cached = [c._unitary_cache for c in circuits]
    builds = {"n": 0}
    orig = cvqnn._unit

    def counting(rows, cutoff, derivatives):   # units built, not kernel calls
        builds["n"] += len(rows)
        return orig(rows, cutoff, derivatives)

    monkeypatch.setattr(cvqnn, "_unit", counting)
    theta = prob.decision.blocks["theta"]
    per_circuit = cvqnn.PARAMS_PER_UNIT * circuits[0].depth
    values[theta.start + 2 * per_circuit + 4] += 1e-3   # Im disp of circuit 2, unit 0
    r = prob.residual(values)
    assert builds["n"] == circuits[2].depth
    assert circuits[2].version == versions[2] + 1
    for l in (0, 1, 3, 4, 5):
        assert circuits[l].version == versions[l]
        assert circuits[l]._unitary_cache is cached[l]
    fresh = qoc_problem()
    assert np.allclose(r, fresh.residual(values), rtol=0, atol=1e-12)


def _preset_problem(name):
    from cvqoc import cli
    return cli.build_problem(cli.load_config(cli.preset_path(name)))[0]


def _jacobian_fd_on_xi(prob, values):
    idx = np.flatnonzero(prob.xi_mask)

    def res(sub):
        full = values.copy()
        full[idx] = sub
        return prob.residual(full)

    return optimize.jacobian_fd(res, values[idx]), res


@pytest.mark.parametrize("preset", ["two_level_ground_to_excited",
                                    "two_level_to_superposition",
                                    "three_level_pop_inversion",
                                    "linear_ode_benchmark"])
def test_closed_form_jacobian_matches_finite_differences(preset):
    prob = _preset_problem(preset)
    values = prob.decision.values.copy()
    values[prob.xi_mask] += np.random.default_rng(17).normal(0.0, 0.3, int(prob.xi_mask.sum()))
    r = prob.residual(values)
    jac = prob.jacobian(values)
    # the Jacobian evaluates no residual and leaves the residual untouched
    assert np.array_equal(prob.residual(values), r)
    fd, _ = _jacobian_fd_on_xi(prob, values)
    assert jac.shape == fd.shape == (r.shape[0], int(prob.xi_mask.sum()))
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_closed_form_c_map_column_is_one_sided_on_the_bound():
    # the three-level solve ends with c_map on its lower bound
    prob = _preset_problem("three_level_pop_inversion")
    c = prob.decision.blocks["c_map"].start
    values = prob.decision.values.copy()
    values[prob.xi_mask] += np.random.default_rng(5).normal(0.0, 0.3, int(prob.xi_mask.sum()))
    values[c] = prob.c_map_bounds[0]
    jac = prob.jacobian(values)
    fd, res = _jacobian_fd_on_xi(prob, values)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(jac[:, :-1] - fd[:, :-1])) <= 1e-6 * scale
    # closed form: the derivative from inside, xdot / c and lamdot / c; the
    # residual is affine in c, so a forward difference reproduces it
    sub = values[prob.xi_mask]
    h = 1e-6
    step = np.zeros_like(sub)
    step[-1] = h
    forward = (res(sub + step) - res(sub)) / h
    assert np.max(np.abs(jac[:, -1] - forward)) <= 1e-6 * scale
    assert np.max(np.abs(jac[:, -1])) > 1e-3
    # the central difference steps below the bound, where _sync clips c_map
    # and the residual does not move, so it returns half the column
    assert np.max(np.abs(fd[:, -1] - 0.5 * jac[:, -1])) <= 1e-6 * scale


def test_affine_map_reproduces_expression_values():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(9).normal(0.0, 0.5, int(prob.xi_mask.sum()))
    prob._sync(values)
    m = prob.morph
    u = prob.unknowns
    for expr, name in ((u.expr_state, "xi_state"), (u.expr_costate, "xi_costate"),
                       (u.expr_control, "xi_u")):
        amap = expr.affine(prob.nodes)
        y, ydot = expr.eval(prob.nodes)
        xi = prob._xi[name]
        assert expr.weights is xi
        assert np.allclose(amap.psi @ xi + amap.b, y, rtol=0, atol=1e-12)
        assert np.allclose(m.c_map * (amap.dpsi @ xi + amap.db), ydot, rtol=0, atol=1e-12)


def _theta_richardson(bank, fn, taus, p, h):
    """Richardson extrapolation of two central differences of the feature
    vector fn(tau) along theta_p, one row per tau, error O(h^4)."""
    theta = bank.get_flat()

    def central(step_size):
        step = np.zeros_like(theta)
        step[p] = step_size
        bank.set_flat(theta + step)
        plus = np.array([fn(t) for t in taus])
        bank.set_flat(theta - step)
        minus = np.array([fn(t) for t in taus])
        bank.set_flat(theta)
        return (plus - minus) / (2.0 * step_size)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def _check_theta_rows(bank, cache, taus):
    dsig, ddsig = cache.theta_features(taus)
    assert dsig.shape == ddsig.shape == (taus.size, bank.get_flat().size)
    for p, owner in enumerate(cache.theta_owner):
        fd = _theta_richardson(bank, lambda t: oracles.forward(bank, t), taus, p, 1e-4)
        assert np.allclose(dsig[:, p], fd[:, owner], rtol=0, atol=1e-9)
        fd = _theta_richardson(bank, lambda t: dsigma_oracle(bank, t), taus, p, 1e-3)
        assert np.allclose(ddsig[:, p], fd[:, owner], rtol=0, atol=1e-7)
    return dsig, ddsig


def test_feature_cache_theta_rows_match_differences_of_forward():
    bank = small_bank()
    taus = np.array([-0.8, -0.31, 0.0, 0.55, 0.8])
    cache = problems.FeatureCache(bank, taus)
    assert np.array_equal(cache.theta_owner, np.repeat(np.arange(4), 12))
    dsig, ddsig = _check_theta_rows(bank, cache, taus)
    # scalar lookups give the same rows; a tau off the table has none
    row, drow = cache.theta_features(float(taus[3]))
    assert np.array_equal(row, dsig[3]) and np.array_equal(drow, ddsig[3])
    with pytest.raises(ValueError):
        cache.theta_features(0.1)
    # a new circuit version refills the rows of that circuit only
    theta = bank.get_flat()
    theta[0] += 0.1
    bank.set_flat(theta)
    moved, _ = cache.theta_features(taus)
    assert not np.array_equal(moved[:, :12], dsig[:, :12])
    assert np.array_equal(moved[:, 12:], dsig[:, 12:])


def _mixed_depth_bank(depths=(2, 0, 1, 2), seed=13):
    rng = np.random.default_rng(seed)
    return cvqnn.QnnBank([cvqnn.QnnCircuit(rng.normal(0.0, 0.3, (d, cvqnn.PARAMS_PER_UNIT)), 10)
                          for d in depths])


def test_feature_cache_theta_rows_of_mixed_depths_match_differences_of_forward():
    # the stacked kernel pads shallower circuits with zero rows, identity units
    bank = _mixed_depth_bank()
    taus = np.array([-0.8, -0.2, 0.45, 0.8])
    cache = problems.FeatureCache(bank, taus)
    assert np.array_equal(cache.theta_owner, np.repeat([0, 2, 3], [12, 6, 12]))
    dsig, ddsig = _check_theta_rows(bank, cache, taus)
    # each circuit alone gives its own columns
    for l, circ in enumerate(bank.circuits):
        alone = problems.FeatureCache(cvqnn.QnnBank([cvqnn.QnnCircuit(circ.params.copy(), 10)]),
                                      taus)
        cols = cache.theta_owner == l
        for got, want in zip((dsig, ddsig), alone.theta_features(taus)):
            assert np.allclose(got[:, cols], want, rtol=0, atol=1e-14 * np.abs(want).max(initial=1))
    # a bank of depth-0 circuits has no theta rows
    empty = problems.FeatureCache(_mixed_depth_bank((0, 0)), taus)
    assert empty.theta_features(taus)[0].shape == (taus.size, 0)


@pytest.mark.parametrize("index", [0, 13, 20, 29])   # circuits 0, 2, 2 and 3
def test_nonfinite_theta_in_any_circuit_raises_from_the_theta_table(index):
    bank = _mixed_depth_bank()
    taus = np.array([-0.8, 0.8])
    cache = problems.FeatureCache(bank, taus)
    cache.theta_features(taus)
    theta = bank.get_flat()
    theta[index] = np.inf if index % 2 else np.nan
    bank.set_flat(theta)
    with pytest.raises(ValueError):
        cache.theta_features(taus)
    with pytest.raises(ValueError):
        cvqnn.chain_derivatives([c.params for c in bank.circuits], bank.cutoff)


def _fd_on(prob, values, mask):
    idx = np.flatnonzero(mask)

    def res(sub):
        full = values.copy()
        full[idx] = sub
        return prob.residual(full)

    return optimize.jacobian_fd(res, values[idx])


@pytest.mark.parametrize("preset", ["two_level_ground_to_excited",
                                    "two_level_to_superposition",
                                    "three_level_pop_inversion",
                                    "linear_ode_benchmark"])
def test_closed_form_theta_columns_match_finite_differences(preset):
    prob = _preset_problem(preset)
    rng = np.random.default_rng(23)
    values = prob.decision.values.copy()
    values[prob.xi_mask] += rng.normal(0.0, 0.3, int(prob.xi_mask.sum()))
    values[prob.theta_mask] += rng.normal(0.0, 0.05, int(prob.theta_mask.sum()))
    r = prob.residual(values)
    jac = prob.jacobian(values, prob.theta_mask)
    assert np.array_equal(prob.residual(values), r)
    fd = _fd_on(prob, values, prob.theta_mask)
    assert jac.shape == fd.shape == (r.shape[0], int(prob.theta_mask.sum()))
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))
    # asking for every coordinate stacks the same columns in decision order
    full = prob.jacobian(values, np.ones_like(prob.xi_mask))
    assert np.array_equal(full[:, prob.theta_mask], jac)
    assert np.array_equal(full[:, prob.xi_mask], prob.jacobian(values))


def test_closed_form_jacobian_on_every_coordinate_matches_finite_differences():
    # the state's two-point constraints carry switching terms, in the
    # weight, theta and c_map columns alike
    prob = qoc_problem()
    rng = np.random.default_rng(41)
    values = prob.decision.values.copy()
    values[prob.xi_mask] += rng.normal(0.0, 0.3, int(prob.xi_mask.sum()))
    values[prob.theta_mask] += rng.normal(0.0, 0.05, int(prob.theta_mask.sum()))
    every = np.ones_like(prob.xi_mask)
    jac = prob.jacobian(values, every)
    fd = _fd_on(prob, values, every)
    assert jac.shape == fd.shape == (prob.residual(values).shape[0], every.size)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


def _counting(monkeypatch, owner, name):
    calls = {"n": 0}
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _two_level(**train):
    from cvqoc import cli
    cfg = cli.load_config(cli.preset_path("two_level_ground_to_excited"))
    cfg["train"].update(train)
    prob, schedule, _ = cli.build_problem(cfg)
    return prob, schedule


def test_xi_training_evaluates_each_point_once_and_builds_no_circuit(monkeypatch):
    prob, schedule = _two_level(mode="xi", gn_max_iter=6)
    prob.cache.features(prob.nodes)   # set-up: tabulate the features
    direct = {"n": 0}
    residual = prob.residual

    def counted_residual(values):
        direct["n"] += 1
        return residual(values)

    prob.residual = counted_residual
    evaluations = _counting(monkeypatch, pmp, "residuals")
    units = _counting(monkeypatch, cvqnn, "_unit")
    # the CLI's train.jsonl callback reads the residual at each accepted point
    seen = []
    report = optimize.train(prob, schedule, callback=lambda k, values, loss: seen.append(
        prob.residual_vector(values).breakdown()["L2_total"] == loss))
    assert report.iterations == 6 and all(seen) and len(seen) == 6
    # Gauss-Newton calls the residual at the start and at each trial point,
    # every one new
    assert evaluations["n"] == direct["n"] == report.gn_iterations[-1]["residual_calls"]
    assert units["n"] == 0   # no unit matrix, with or without derivatives


def test_joint_training_costs_one_residual_and_one_jacobian_per_adam_epoch(monkeypatch):
    prob, schedule = _two_level(mode="joint", joint_rounds=1, joint_gn_steps=2,
                                joint_adam_steps=3, adam_lr=1e-3)
    evaluations = _counting(monkeypatch, pmp, "residuals")
    masks = []
    jacobian = prob.jacobian

    def recorded(values, mask=None):
        masks.append("theta" if mask is prob.theta_mask else "xi")
        return jacobian(values, mask)

    prob.jacobian = recorded
    bursts = []
    adam = optimize.adam

    def counted_adam(*args, **kwargs):
        before = (evaluations["n"], len(masks))
        z, report = adam(*args, **kwargs)
        bursts.append((report.iterations, evaluations["n"] - before[0],
                       masks[before[1]:]))
        return z, report

    monkeypatch.setattr(optimize, "adam", counted_adam)
    report = optimize.train(prob, schedule, callback=lambda k, values, loss: prob.residual_vector(values))
    assert report.iterations == 5
    # the Gauss-Newton burst ends on an accepted point, where Adam starts
    assert report.loss_history[2] < report.loss_history[1] < report.loss_history[0]
    assert bursts == [(3, 3, ["theta"] * 3)]


@pytest.mark.parametrize("mode", ["joint"])
def test_train_hands_adam_the_gradient_of_its_loss(mode, monkeypatch):
    # Adam's steps barely depend on the gradient's scale, so compare the
    # gradient itself with differences of the loss Adam is given
    prob, schedule = _two_level(mode=mode, joint_rounds=1, joint_gn_steps=0,
                                joint_adam_steps=1)
    xi = prob.xi_mask
    prob.decision.values[xi] = np.random.default_rng(29).normal(0.0, 0.3, int(xi.sum()))
    values = prob.decision.values.copy()
    seen = []
    adam = optimize.adam

    def checked(loss_fn, z0, **kwargs):
        diff = optimize.jacobian_fd(lambda z: np.array([loss_fn(z)]), z0)[0]
        seen.append((loss_fn(z0), kwargs["grad_fn"](z0), diff))
        return adam(loss_fn, z0, **kwargs)

    monkeypatch.setattr(optimize, "adam", checked)
    optimize.train(prob, schedule)
    (loss, exact, diff), = seen
    assert np.max(np.abs(exact - diff)) <= 1e-6 * np.max(np.abs(diff))
    # Adam descends the residual norm: J^T r / ||r||
    r = prob.residual(values)
    assert loss == np.linalg.norm(r)
    jac = prob.jacobian(values, prob.theta_mask)
    assert np.allclose(exact, jac.T @ r / np.linalg.norm(r), rtol=1e-12, atol=0)


def test_jacobian_from_memoised_node_maps_equals_one_from_fresh_maps():
    # one problem keeps its node maps between points of a revision; a fresh
    # problem at each point builds them anew, so J must agree bit for bit
    prob = _preset_problem("two_level_ground_to_excited")
    rng = np.random.default_rng(31)
    n_xi, n_theta = int(prob.xi_mask.sum()), int(prob.theta_mask.sum())
    first = prob.decision.values.copy()
    first[prob.xi_mask] += rng.normal(0.0, 0.3, n_xi)
    second = first.copy()
    second[prob.xi_mask] += rng.normal(0.0, 0.3, n_xi)
    third = second.copy()   # a theta write: a new bank revision
    third[prob.theta_mask] += rng.normal(0.0, 0.05, n_theta)
    every = np.ones_like(prob.xi_mask)
    revisions = []
    for point in (first, second, third):
        for mask in (prob.xi_mask, every):
            fresh = _preset_problem("two_level_ground_to_excited")
            assert np.array_equal(prob.jacobian(point, mask), fresh.jacobian(point, mask))
        revisions.append(prob.bank.revision)
        for name, amap in prob.node_maps().items():
            for kept, built in zip(amap, prob._exprs[name].affine(prob.nodes)):
                assert np.array_equal(kept, built)
    assert revisions[0] == revisions[1] != revisions[2]


def test_xi_training_builds_each_node_map_once_per_revision(monkeypatch):
    prob, schedule = _two_level(mode="xi", gn_max_iter=6)
    built = []
    affine = tfc.ConstrainedExpression.affine

    def recorded(self, tau, *args, **kwargs):
        if isinstance(tau, np.ndarray) and np.array_equal(tau, prob.nodes):
            built.append(self)
        return affine(self, tau, *args, **kwargs)

    monkeypatch.setattr(tfc.ConstrainedExpression, "affine", recorded)
    jacobians = _counting(monkeypatch, problems._Collocation, "jacobian")
    revision = prob.bank.revision
    report = optimize.train(prob, schedule)
    assert report.iterations == 6 and jacobians["n"] == 6
    assert prob.bank.revision == revision
    assert sorted(map(id, built)) == sorted(map(id, prob._exprs.values()))


def test_memoised_node_maps_are_read_only_and_dropped_with_the_revision():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    maps = prob.node_maps()
    arrays = [part for amap in maps.values() for part in amap if isinstance(part, np.ndarray)]
    # psi and dpsi of all five unknowns, b and db of the constrained state
    assert len(arrays) == 2 * 5 + 2
    for part in arrays:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[...] = 0.0
    values[prob.xi_mask] += 1.0
    prob._sync(values)
    assert prob.node_maps() is maps
    values[prob.theta_mask] += 1e-3
    prob._sync(values)
    assert prob.node_maps() is not maps


def test_node_values_match_the_expressions_and_evaluate_no_residual(monkeypatch):
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(37).normal(0.0, 0.5, int(prob.xi_mask.sum()))
    evaluations = _counting(monkeypatch, pmp, "residuals")
    got = prob.node_values(values)
    assert evaluations["n"] == 0
    assert list(got) == list(prob._exprs)
    for name, expr in prob._exprs.items():
        assert np.allclose(got[name], expr.eval(prob.nodes)[0], rtol=0, atol=1e-12)


def _blockwise_reference(cache, taus, forms):
    """The tabulation written out per row block of _BLOCK_BYTES, a one-row
    tail joined to the block before it: the phase rows, y R and dy, then the
    two row-wise dots."""
    n, m = forms.shape[:2]
    rows = problems._BLOCK_BYTES // (8 * n * m)
    firsts = list(range(0, taus.size, rows))
    if len(firsts) > 1 and taus.size - firsts[-1] == 1:
        firsts.pop()
    vals, dvals = [], []
    for first, end in zip(firsts, firsts[1:] + [taus.size]):
        phase = np.multiply.outer(taus[first:end], cache._w)
        y = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        yr = (y @ forms.transpose(1, 0, 2).reshape(m, n * m)).reshape(len(y), n, m)
        dy = np.concatenate([-cache._w * y[:, m // 2:], cache._w * y[:, :m // 2]], axis=1)
        vals.append(np.einsum("kjm,km->kj", yr, y))
        dvals.append(2.0 * np.einsum("kjm,km->kj", yr, dy))
    return np.concatenate(vals), np.concatenate(dvals)


@pytest.mark.parametrize("columns", [None, 1, 3])
def test_tabulation_matches_the_blockwise_formula(columns):
    bank = small_bank()
    cache = problems.FeatureCache(bank)
    rng = np.random.default_rng(41)
    forms = cache._current()["forms"]
    weights = None if columns is None else rng.normal(0.0, 1.0, (bank.n_features, columns))
    if weights is not None:
        forms = np.tensordot(weights, forms, axes=(0, 0))
    rows = problems._BLOCK_BYTES // (8 * forms.shape[0] * forms.shape[1])
    # more than two blocks with a ragged last one, two blocks and a one-row
    # tail, a single point, a scalar
    taus = np.sort(rng.uniform(-0.8, 0.8, 2 * rows + rows // 3))
    for points in (taus, taus[:2 * rows + 1], taus[:1]):
        ref, dref = _blockwise_reference(cache, points, forms)
        val, dval = cache._quadratic(points, weights, True)
        assert np.array_equal(val, ref) and np.array_equal(dval, dref)
        val, none = cache._quadratic(points, weights, False)
        assert none is None and np.array_equal(val, ref)
    val, dval = cache._quadratic(taus[5], weights, True)
    ref, dref = _blockwise_reference(cache, taus[5:6], forms)
    assert np.array_equal(val, ref[0]) and np.array_equal(dval, dref[0])


def test_xi_training_builds_the_xi_directions_once(monkeypatch):
    prob, schedule = _two_level(mode="xi", gn_max_iter=6)
    built = _counting(monkeypatch, problems._Collocation, "_xi_directions")
    jacobians = _counting(monkeypatch, problems._Collocation, "jacobian")
    report = optimize.train(prob, schedule)
    assert report.iterations == 6 and jacobians["n"] == 6
    assert built["n"] == 1


def test_memoised_xi_directions_are_read_only_and_dropped_with_the_revision():
    prob = qoc_problem()
    values = prob.decision.values.copy()
    values[prob.xi_mask] = np.random.default_rng(43).normal(0.0, 0.5, int(prob.xi_mask.sum()))

    def kept():
        return prob.cache.memoised("xi_directions", lambda: pytest.fail("not memoised"))

    prob.jacobian(values)
    a = kept()
    assert a.shape == (prob.nodes.size, prob._n_values, int(prob.xi_mask.sum()))
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[...] = 0.0
    values[prob.xi_mask] += 1.0
    prob.jacobian(values)
    assert kept() is a
    values[prob.theta_mask] += 1e-3
    prob.jacobian(values)
    assert kept() is not a
    # the new revision's directions are those a fresh build gives
    assert np.array_equal(kept(), prob._xi_directions())


@pytest.mark.parametrize("preset", ["two_level_ground_to_excited",
                                    "three_level_pop_inversion"])
def test_jacobian_on_a_xi_sub_mask_is_those_columns_of_the_full_one(preset):
    prob = _preset_problem(preset)
    rng = np.random.default_rng(47)
    values = prob.decision.values.copy()
    values[prob.xi_mask] += rng.normal(0.0, 0.3, int(prob.xi_mask.sum()))
    full = prob.jacobian(values)
    xi = np.flatnonzero(prob.xi_mask)
    c_map = prob.decision.blocks["c_map"].start
    # a weight block, a random pick with c_map, and c_map alone
    for cols in (xi[prob.decision.blocks["xi_u"]],
                 np.union1d(rng.choice(xi, xi.size // 3, replace=False), [c_map]),
                 np.array([c_map])):
        mask = np.zeros_like(prob.xi_mask)
        mask[cols] = True
        assert np.array_equal(prob.jacobian(values, mask), full[:, np.searchsorted(xi, cols)])
