import numpy as np
import pytest

from cvqoc import cli, lindblad, pmp
from cvqoc.tfc import BoundaryConstraint, ConstrainedExpression, TimeMorph, chebyshev_lobatto_nodes


def make_cfg(**over):
    base = dict(time_weight=1.0, energy_weight=1.0, reg_weight=1e-2,
                u_min=-2.0, u_max=2.0, sat_steepness=1.0,
                rho_init=np.array([1.0, 0.0, 0.0, 0.0]),
                rho_target=np.array([0.05, 0.95, 0.0, 0.0]))
    base.update(over)
    return pmp.OcpConfig(**base)


def const_features(values):
    """One-row feature function of constant rows; with identity weights the
    expression's free part is the constant."""
    values = np.atleast_1d(np.asarray(values, dtype=float))

    def f(tau, derivative=True):
        return values.copy(), np.zeros_like(values)

    return f


def make_unknowns(cfg, morph, u_val=0.0, nu_val=0.0, beta_val=0.0, state_features=None):
    dim = cfg.rho_init.shape[0]
    return pmp.UnknownSet(
        expr_state=ConstrainedExpression(
            state_features or const_features(np.zeros(dim)), np.eye(dim),
            [BoundaryConstraint("initial", cfg.rho_init),
             BoundaryConstraint("final", cfg.rho_target)], morph),
        expr_costate=ConstrainedExpression(const_features(np.zeros(dim)), np.eye(dim), [],
                                           morph),
        expr_control=ConstrainedExpression(const_features([u_val]), np.eye(1), [], morph),
        expr_sat_input=ConstrainedExpression(const_features([nu_val]), np.eye(1), [], morph),
        expr_multiplier=ConstrainedExpression(const_features([beta_val]), np.eye(1), [],
                                              morph),
    )


MORPH = TimeMorph(0.0, -0.8, 0.8, 0.4)


def test_saturation_midpoint_and_limits():
    cfg = make_cfg()
    assert pmp.saturation(0.0, cfg) == pytest.approx(0.0, abs=1e-14)
    assert pmp.saturation(1e6, cfg) == pytest.approx(2.0, abs=1e-9)
    assert pmp.saturation(-1e6, cfg) == pytest.approx(-2.0, abs=1e-9)


def test_saturation_reference_value():
    cfg = make_cfg(u_min=-1.0, u_max=1.0, sat_steepness=1.0)
    # 1 - 2/(1+e) at nu = 2
    assert pmp.saturation(2.0, cfg) == pytest.approx(1.0 - 2.0 / (1.0 + np.e), abs=1e-12)
    assert pmp.saturation(2.0, cfg) == pytest.approx(0.462117, abs=1e-6)


def test_saturation_dnu():
    cfg = make_cfg(sat_steepness=1.3)
    assert pmp.saturation_dnu(0.0, cfg) == pytest.approx(1.3 / 4.0, abs=1e-14)
    rng = np.random.default_rng(0)
    for nu in rng.normal(0.0, 2.0, 8):
        h = 1e-6
        fd = (pmp.saturation(nu + h, cfg) - pmp.saturation(nu - h, cfg)) / (2 * h)
        assert pmp.saturation_dnu(nu, cfg) == pytest.approx(fd, abs=1e-8)
        assert pmp.saturation_dnu(nu, cfg) > 0


def test_saturation_d2nu():
    cfg = make_cfg(sat_steepness=1.3, u_min=-1.0, u_max=3.0)
    assert pmp.saturation_d2nu(0.0, cfg) == pytest.approx(0.0, abs=1e-15)
    for nu in np.random.default_rng(1).normal(0.0, 3.0, 8):
        h = 1e-5
        fd = (pmp.saturation_dnu(nu + h, cfg) - pmp.saturation_dnu(nu - h, cfg)) / (2 * h)
        assert pmp.saturation_d2nu(nu, cfg) == pytest.approx(fd, abs=1e-9)
    assert np.all(pmp.saturation_d2nu(np.ones(3), make_cfg(u_min=0.5, u_max=0.5)) == 0.0)


def test_saturation_inverse_round_trip():
    cfg = make_cfg()
    for u in (-1.9, -0.3, 0.0, 1.5):
        nu = pmp.saturation_inverse(u, cfg)
        assert pmp.saturation(nu, cfg) == pytest.approx(u, abs=1e-12)
    with pytest.raises(ValueError):
        pmp.saturation_inverse(2.0, cfg)


def test_collapsed_interval_pins_control():
    cfg = make_cfg(u_min=0.0, u_max=0.0)
    assert pmp.saturation(3.7, cfg) == 0.0
    assert pmp.saturation_dnu(3.7, cfg) == 0.0


def test_ocp_config_validation():
    with pytest.raises(ValueError):
        make_cfg(time_weight=0.0)
    with pytest.raises(ValueError):
        make_cfg(u_min=1.0, u_max=-1.0)
    with pytest.raises(ValueError):
        make_cfg(sat_steepness=0.0)


def test_hamiltonian_trivial_cases():
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    zeros = np.zeros(4)
    assert pmp.hamiltonian(zeros, zeros, 0.0, 0.0, 0.0, cfg, model) == 0.0
    # lambda = beta = 0 leaves the running cost only (phi(0) = 0 here)
    val = pmp.hamiltonian(np.array([1.0, 0, 0, 0]), zeros, 0.7, 0.4, 0.0, cfg, model)
    assert val == pytest.approx(1.0 * 0.49 + 1e-2 * 0.16, abs=1e-14)


def test_hamiltonian_random_reimplementation():
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=4)
        lam = rng.normal(size=4)
        u, nu, beta = rng.normal(size=3)
        want = (cfg.energy_weight * u**2 + cfg.reg_weight * nu**2
                + lam @ (model.generator([u]) @ x)
                + beta * (u - pmp.saturation(nu, cfg)))
        got = pmp.hamiltonian(x, lam, u, nu, beta, cfg, model)
        assert got == pytest.approx(want, abs=1e-12)


def test_residual_vector_length():
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    nodes = chebyshev_lobatto_nodes(12, MORPH)
    rv = pmp.residuals(make_unknowns(cfg, MORPH), cfg, model, nodes)
    assert rv.concat().shape[0] == 12 * (2 * 4 + 3) + 1


def test_zero_unknowns_terminal_residual_is_gamma():
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    nodes = chebyshev_lobatto_nodes(8, MORPH)
    rv = pmp.residuals(make_unknowns(cfg, MORPH), cfg, model, nodes)
    assert rv.terminal == pytest.approx(cfg.time_weight, abs=1e-12)
    assert np.max(np.abs(rv.costate)) < 1e-12   # lambda identically zero
    assert np.max(np.abs(rv.control)) < 1e-12
    assert np.max(np.abs(rv.sat_input)) < 1e-12
    assert np.max(np.abs(rv.constraint)) < 1e-12


def test_doubling_energy_weight_doubles_stationarity_term():
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    nodes = chebyshev_lobatto_nodes(5, MORPH)
    u_val = 0.8
    r1 = pmp.residuals(make_unknowns(make_cfg(), MORPH, u_val=u_val),
                       make_cfg(), model, nodes)
    r2 = pmp.residuals(make_unknowns(make_cfg(energy_weight=2.0), MORPH, u_val=u_val),
                       make_cfg(energy_weight=2.0), model, nodes)
    # beta = lambda = 0, so the control residual is exactly 2*eta*u
    assert np.allclose(r1.control, 2.0 * u_val)
    assert np.allclose(r2.control, 4.0 * u_val)


def test_stationarity_matches_hamiltonian_gradient():
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(10):
        x = rng.normal(size=4)
        lam = rng.normal(size=4)
        u, nu, beta = rng.normal(size=3)
        xi_u = lam @ (model.generator_du[0] @ x) + 2 * cfg.energy_weight * u + beta
        fd_u = (pmp.hamiltonian(x, lam, u + h, nu, beta, cfg, model)
                - pmp.hamiltonian(x, lam, u - h, nu, beta, cfg, model)) / (2 * h)
        assert xi_u == pytest.approx(fd_u, abs=1e-8)
        xi_nu = 2 * cfg.reg_weight * nu - beta * pmp.saturation_dnu(nu, cfg)
        fd_nu = (pmp.hamiltonian(x, lam, u, nu + h, beta, cfg, model)
                 - pmp.hamiltonian(x, lam, u, nu - h, beta, cfg, model)) / (2 * h)
        assert xi_nu == pytest.approx(fd_nu, abs=1e-8)


def test_manufactured_solution_residuals():
    """u* = 0, rho* from RK4, lambda* = beta* = 0, nu* = phi^-1(0): the
    dynamics residual is limited only by interpolation, the rest vanish."""
    cfg = make_cfg()
    model = lindblad.two_level_model(lindblad.TwoLevelParams())
    morph = TimeMorph(0.0, -0.8, 0.8, 0.4)  # tf = 4
    ts, xs = lindblad.propagate_rk4(model, cfg.rho_init, lambda t: np.zeros(1),
                                    0.0, morph.tf, 4000)

    def state_features(tau, derivative=True):
        t = float(morph.to_time(tau))
        x = np.array([np.interp(t, ts, xs[:, i]) for i in range(4)])
        return x, (model.generator(np.zeros(1)) @ x) / morph.c_map

    target = np.array([np.interp(morph.tf, ts, xs[:, i]) for i in range(4)])
    cfg_end = make_cfg(rho_target=target / target[:2].sum())
    unknowns = make_unknowns(cfg_end, morph, nu_val=0.0, state_features=state_features)
    nodes = chebyshev_lobatto_nodes(10, morph)
    rv = pmp.residuals(unknowns, cfg_end, model, nodes)
    assert np.max(np.abs(rv.state)) < 1e-4
    assert np.max(np.abs(rv.costate)) < 1e-12
    assert np.max(np.abs(rv.control)) < 1e-12
    assert np.max(np.abs(rv.constraint)) < 1e-12


def test_boundary_rows_have_no_boundary_error():
    # at the endpoints the state equals the boundary data exactly
    cfg = make_cfg()
    unknowns = make_unknowns(cfg, MORPH)
    x0, _ = unknowns.expr_state.eval(MORPH.tau0)
    xf, _ = unknowns.expr_state.eval(MORPH.tauf)
    assert np.max(np.abs(x0 - cfg.rho_init)) < 1e-12
    assert np.max(np.abs(xf - cfg.rho_target)) < 1e-12


def monomial_features(n_rows):
    """Rows 1, tau, ..., tau^(n_rows - 1) and their tau-derivatives."""
    powers = np.arange(n_rows)

    def f(tau, derivative=True):
        tau = np.asarray(tau, dtype=float)[..., None]
        return tau ** powers, powers * tau ** np.maximum(powers - 1, 0)

    return f


@pytest.mark.parametrize("system", ["two_level", "three_level"])
def test_residuals_match_per_node_reference(system):
    """Every family at a random point, node by node: the dynamics rows from
    G(u) itself, the stationarity rows as central differences of H."""
    if system == "two_level":
        model = lindblad.two_level_model(lindblad.TwoLevelParams())
        cfg = make_cfg()
    else:
        model = lindblad.three_level_model(lindblad.ThreeLevelParams())
        rho0, rho1 = np.zeros(9), np.zeros(9)
        rho0[0], rho1[1] = 1.0, 1.0
        cfg = make_cfg(rho_init=rho0, rho_target=rho1)
    dim, nc = model.dim, model.n_controls
    rng = np.random.default_rng(4)
    feats = monomial_features(4)

    def expr(width, constraints=()):
        return ConstrainedExpression(feats, rng.normal(size=(4, width)), list(constraints),
                                     MORPH)

    unknowns = pmp.UnknownSet(
        expr(dim, [BoundaryConstraint("initial", cfg.rho_init),
                   BoundaryConstraint("final", cfg.rho_target)]),
        expr(dim), expr(nc), expr(nc), expr(nc))
    nodes = chebyshev_lobatto_nodes(7, MORPH)
    rv = pmp.residuals(unknowns, cfg, model, nodes)
    h = 1e-6
    for i, tau in enumerate(nodes):
        x, xdot = unknowns.expr_state.eval(tau)
        lam, lamdot = unknowns.expr_costate.eval(tau)
        u, nu, beta = (e.eval(tau)[0] for e in (unknowns.expr_control,
                                                 unknowns.expr_sat_input,
                                                 unknowns.expr_multiplier))
        assert np.min(np.abs(np.concatenate([lam, u, nu, beta]))) > 1e-3
        gen = model.generator(u)
        assert np.allclose(rv.state[i], xdot - gen @ x, rtol=1e-12, atol=1e-12)
        assert np.allclose(rv.costate[i], lamdot + gen.T @ lam, rtol=1e-12, atol=1e-12)
        for c in range(nc):
            e = np.eye(nc)[c] * h
            fd_u = (pmp.hamiltonian(x, lam, u + e, nu, beta, cfg, model)
                    - pmp.hamiltonian(x, lam, u - e, nu, beta, cfg, model)) / (2 * h)
            fd_nu = (pmp.hamiltonian(x, lam, u, nu + e, beta, cfg, model)
                     - pmp.hamiltonian(x, lam, u, nu - e, beta, cfg, model)) / (2 * h)
            assert rv.control[i, c] == pytest.approx(fd_u, rel=1e-6, abs=1e-7)
            assert rv.sat_input[i, c] == pytest.approx(fd_nu, rel=1e-6, abs=1e-7)
        assert np.allclose(rv.constraint[i], u - pmp.saturation(nu, cfg), rtol=1e-12,
                           atol=1e-14)
    assert rv.terminal == pytest.approx(
        pmp.hamiltonian(x, lam, u, nu, beta, cfg, model) + cfg.time_weight, rel=1e-12)


def test_residual_asks_only_the_state_and_costate_for_tau_derivatives(monkeypatch):
    # only x' and lambda' enter the residual: u, nu and beta are read as values
    problem = cli.build_problem(cli.load_config(cli.preset_path("two_level_ground_to_excited")))[0]
    asked = []
    evaluate = ConstrainedExpression.eval

    def recorded(self, tau, derivative=True):
        asked.append((self, derivative))
        return evaluate(self, tau, derivative)

    monkeypatch.setattr(ConstrainedExpression, "eval", recorded)
    problem.residual(problem.decision.values)
    unknowns = problem.unknowns
    assert len(asked) == 16 * 5   # nodes x unknowns
    with_rate = [e for e, derivative in asked if derivative]
    assert len(with_rate) == 16 * 2
    assert {id(e) for e in with_rate} == {id(unknowns.expr_state), id(unknowns.expr_costate)}
