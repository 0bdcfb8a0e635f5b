import tracemalloc
import warnings

import numpy as np
import pytest

from cvqoc import cli, lindblad
from cvqoc.lindblad import (RealDensityVector, ThreeLevelParams, TwoLevelParams,
                            from_real, lindblad_vectorize, master_equation,
                            propagate_rk4, three_level_generator,
                            three_level_hamiltonian, three_level_model, to_real,
                            two_level_generator, two_level_hamiltonian,
                            two_level_jumps, two_level_model)


P = TwoLevelParams()


# --- the hand-derived generators: the independent oracle for the models that
# lindblad builds from their Hamiltonians and jumps


def hand_two_level(p: TwoLevelParams, u: float) -> np.ndarray:
    """Qubit superoperator for drift (omega_x, omega_z), phase-damping
    control u on |e><e|, and absorption/emission jumps."""
    geg, gge, wx, wz = p.gamma_eg, p.gamma_ge, p.omega_x, p.omega_z
    gbar = 0.5 * (gge + geg)
    rot = 2.0 * wz + u
    return np.array([
        [-geg,  gge,  0.0,  -2.0 * wx],
        [geg,  -gge,  0.0,   2.0 * wx],
        [0.0,   0.0, -gbar, -rot],
        [wx,   -wx,   rot,  -gbar],
    ])


def hand_two_level_du() -> np.ndarray:
    out = np.zeros((4, 4))
    out[2, 3] = -1.0
    out[3, 2] = 1.0
    return out


def hand_three_level(p: ThreeLevelParams, u_p: float, u_s: float) -> np.ndarray:
    """Closed lambda-system generator, hand-derived from rho_dot = -i[H, rho].

    Coordinates: (r11, r22, r33, Re r12, Im r12, Re r13, Im r13, Re r23, Im r23).
    H couples 1-3 with u_p/2 and 2-3 with u_s/2; levels 2 and 3 sit at the
    detunings delta and delta1.
    """
    d, d1 = p.delta, p.delta1
    hp, hs = 0.5 * u_p, 0.5 * u_s
    g = np.zeros((9, 9))
    # populations
    g[0, 6] = -2.0 * hp          # r11' = -u_p Im r13
    g[1, 8] = -2.0 * hs          # r22' = -u_s Im r23
    g[2, 6] = 2.0 * hp           # r33' = u_p Im r13 + u_s Im r23
    g[2, 8] = 2.0 * hs
    # r12 = a + ib
    g[3, 4] = -d                 # a' = -delta b - hp Im r23 - hs Im r13
    g[3, 8] = -hp
    g[3, 6] = -hs
    g[4, 3] = d                  # b' = delta a + hs Re r13 - hp Re r23
    g[4, 5] = hs
    g[4, 7] = -hp
    # r13 = c + id
    g[5, 4] = -hs                # c' = -hs Im r12 - delta1 Im r13
    g[5, 6] = -d1
    g[6, 0] = hp                 # d' = hp (r11 - r33) + hs Re r12 + delta1 Re r13
    g[6, 2] = -hp
    g[6, 3] = hs
    g[6, 5] = d1
    # r23 = e + if
    g[7, 8] = d - d1             # e' = (delta - delta1) Im r23 + hp Im r12
    g[7, 4] = hp
    g[8, 7] = d1 - d             # f' = (delta1 - delta) Re r23 + hs (r22 - r33) + hp Re r12
    g[8, 1] = hs
    g[8, 2] = -hs
    g[8, 3] = hp
    return g


def _preset_params(name):
    cfg = cli.load_config(cli.preset_path(name))
    kind = TwoLevelParams if cfg["system"] == "two-level" else ThreeLevelParams
    return kind(**cfg["system_params"])


# every parameter set this file builds a model at, plus the presets'
TWO_LEVEL_PARAMS = [P, _preset_params("two_level_ground_to_excited"),
                    _preset_params("two_level_to_superposition"),
                    TwoLevelParams(0.2, 0.05, 0.7, -1.3),
                    TwoLevelParams(0.1, 0.3, 0.0, 0.0),
                    TwoLevelParams(0.0, 0.0, 0.0, 2.0)]
THREE_LEVEL_PARAMS = [ThreeLevelParams(), _preset_params("three_level_pop_inversion"),
                      ThreeLevelParams(0.1, 1.0), ThreeLevelParams(0.0, 0.0),
                      ThreeLevelParams(0.3, -0.8)]


@pytest.mark.parametrize("p", TWO_LEVEL_PARAMS)
def test_two_level_drift_and_control_equal_the_hand_oracle(p):
    model = two_level_model(p)
    assert np.array_equal(model.drift, hand_two_level(p, 0.0))
    assert model.generator_du.shape == (1, 4, 4)
    assert np.array_equal(model.generator_du[0], hand_two_level_du())


@pytest.mark.parametrize("p", THREE_LEVEL_PARAMS)
def test_three_level_drift_and_controls_equal_the_hand_oracle(p):
    model = three_level_model(p)
    drift = hand_three_level(p, 0.0, 0.0)
    assert np.array_equal(model.drift, drift)
    # the hand matrix writes -2 hp at u_p = 0 as -0.0; the built drift's
    # zeros are all +0.0, so the two differ only in the sign of zeros
    flipped = np.signbit(model.drift) != np.signbit(drift)
    assert np.all(model.drift[flipped] == 0.0)
    assert not np.any(np.signbit(model.drift[model.drift == 0.0]))
    assert model.generator_du.shape == (2, 9, 9)
    for du, unit in zip(model.generator_du, ((1.0, 0.0), (0.0, 1.0))):
        assert np.array_equal(du, hand_three_level(p, *unit) - drift)


@pytest.mark.parametrize("system", ["two-level", "three-level"])
def test_model_generator_equals_the_hand_oracle_at_random_controls(system):
    rng = np.random.default_rng(25)
    if system == "two-level":
        cases = [(two_level_model(p), lambda u, p=p: hand_two_level(p, u[0]))
                 for p in TWO_LEVEL_PARAMS]
    else:
        cases = [(three_level_model(p), lambda u, p=p: hand_three_level(p, *u))
                 for p in THREE_LEVEL_PARAMS]
    for model, hand in cases:
        for _ in range(200):
            u = rng.normal(scale=rng.choice([0.1, 1.0, 3.0]), size=model.n_controls)
            assert np.array_equal(model.generator(u), hand(u))


@pytest.mark.parametrize("u", [-2.0, 0.0, 2.0])
def test_two_level_matches_vectorizer(u):
    direct = two_level_generator(P, u)
    generic = lindblad_vectorize(two_level_hamiltonian(P, u), two_level_jumps(P))
    assert np.max(np.abs(direct - generic)) < 1e-12


def test_two_level_population_rows_sum_zero():
    g = two_level_generator(P, 0.7)
    assert np.max(np.abs(g[0] + g[1])) == 0.0


def test_two_level_affine_in_control():
    model = two_level_model(P)
    g0, du = model.drift, model.generator_du[0]
    for u in (-1.3, 0.4, 2.0):
        assert np.array_equal(two_level_generator(P, u), g0 + u * du)
    # finite difference of the generator reproduces du exactly
    fd = (two_level_generator(P, 1e-3) - two_level_generator(P, -1e-3)) / 2e-3
    assert np.max(np.abs(fd - du)) < 1e-12
    assert np.linalg.norm(du) == pytest.approx(np.sqrt(2.0))


def test_three_level_matches_vectorizer():
    p = ThreeLevelParams(delta=0.1, delta1=1.0)
    for up, us in [(0.0, 0.0), (0.5, -0.3), (-2.0, 2.0)]:
        direct = three_level_generator(p, up, us)
        generic = lindblad_vectorize(three_level_hamiltonian(p, up, us), [])
        assert np.max(np.abs(direct - generic)) < 1e-12
    assert np.array_equal(three_level_model(p).drift, three_level_generator(p, 0.0, 0.0))


def test_three_level_zero_hamiltonian():
    p = ThreeLevelParams(delta=0.0, delta1=0.0)
    assert np.max(np.abs(three_level_generator(p, 0.0, 0.0))) == 0.0
    assert np.max(np.abs(three_level_model(p).drift)) == 0.0


def test_three_level_population_rows():
    p = ThreeLevelParams()
    g = three_level_generator(p, 0.7, -1.1)
    assert np.max(np.abs(g[0] + g[1] + g[2])) < 1e-14
    model = three_level_model(p)
    for m in (model.drift, *model.generator_du):
        assert np.max(np.abs(m[0] + m[1] + m[2])) == 0.0


def test_master_equation_splits_drift_jumps_and_controls():
    # jumps enter the drift only; each control's derivative is its commutator
    h0, hc = two_level_hamiltonian(P, 0.0), np.diag([0.0, 1.0]).astype(complex)
    drift, du = master_equation(h0, [hc], two_level_jumps(P))
    assert np.array_equal(drift, lindblad_vectorize(h0, two_level_jumps(P)))
    assert np.array_equal(du, lindblad_vectorize(hc, [])[None])
    assert not (drift.flags.writeable or du.flags.writeable)
    assert not np.any(np.signbit(drift[drift == 0.0])) and not np.any(np.signbit(du[du == 0.0]))


def test_control_derivative_is_exact_where_a_difference_of_generators_rounds():
    # at omega_z = 0.65, 2 omega_z + 1 rounds, so G(1) - G(0) misses the unit
    # entries of G_c by an ulp; the commutator with sigma_ee alone does not
    p = TwoLevelParams(omega_z=0.65)
    h0, h1 = two_level_hamiltonian(p, 0.0), two_level_hamiltonian(p, 1.0)
    difference = lindblad_vectorize(h1, []) - lindblad_vectorize(h0, [])
    assert not np.array_equal(difference, hand_two_level_du())
    assert np.array_equal(two_level_model(p).generator_du[0], hand_two_level_du())


def test_vectorizer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lindblad_vectorize(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
    h = np.zeros((2, 2))
    with pytest.raises(ValueError):
        lindblad_vectorize(h, [(np.eye(2, dtype=complex), -0.1)])


def test_vectorizer_trace_preserving_random():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = m + m.conj().T
    jump = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = lindblad_vectorize(h, [(jump, 0.4)])
    assert np.max(np.abs(g[0] + g[1] + g[2])) < 1e-12


def test_real_coordinate_round_trip():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m + m.conj().T
        back = from_real(to_real(rho))
        assert np.max(np.abs(back - rho)) < 1e-14
        assert np.max(np.abs(back - back.conj().T)) == 0.0


def test_density_vector_validation():
    RealDensityVector(np.array([0.4, 0.6, 0.1, -0.2]))
    with pytest.raises(ValueError):
        RealDensityVector(np.array([0.4, 0.4, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RealDensityVector(np.array([1.2, -0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        RealDensityVector(np.zeros(5))


def test_relaxation_fixed_point():
    # no drive: populations relax to gamma_ge/(gamma_eg+gamma_ge) = 0.75 ground
    p = TwoLevelParams(gamma_eg=0.1, gamma_ge=0.3, omega_x=0.0, omega_z=0.0)
    model = two_level_model(p)
    _, xs = propagate_rk4(model, np.array([0.0, 1.0, 0.0, 0.0]),
                          lambda t: np.zeros(1), 0.0, 60.0, 2000)
    assert abs(xs[-1, 0] - 0.75) < 1e-4
    assert abs(xs[-1, 1] - 0.25) < 1e-4


def test_rk4_trace_conserved():
    model = two_level_model(P)
    _, xs = propagate_rk4(model, np.array([1.0, 0.0, 0.0, 0.0]),
                          lambda t: np.sin(t)[:, None], 0.0, 10.0, 500)
    assert np.max(np.abs(xs[:, 0] + xs[:, 1] - 1.0)) < 1e-9


def test_rk4_fourth_order():
    model = two_level_model(P)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    u = lambda t: np.array([0.5])
    _, xs1 = propagate_rk4(model, x0, u, 0.0, 2.0, 50)
    _, xs2 = propagate_rk4(model, x0, u, 0.0, 2.0, 100)
    _, xs4 = propagate_rk4(model, x0, u, 0.0, 2.0, 200)
    e1 = np.linalg.norm(xs1[-1] - xs4[-1])
    e2 = np.linalg.norm(xs2[-1] - xs4[-1])
    assert e2 < e1 / 8.0  # at least ~order 3 observed; RK4 gives ~16x


def test_rk4_diagonal_drift_keeps_populations():
    p = TwoLevelParams(gamma_eg=0.0, gamma_ge=0.0, omega_x=0.0, omega_z=2.0)
    model = two_level_model(p)
    x0 = np.array([0.3, 0.7, 0.2, -0.1])
    _, xs = propagate_rk4(model, x0, lambda t: np.zeros(1), 0.0, 5.0, 200)
    assert np.max(np.abs(xs[:, 0] - 0.3)) < 1e-12
    assert np.max(np.abs(xs[:, 1] - 0.7)) < 1e-12


def test_rk4_input_validation():
    model = two_level_model(P)
    with pytest.raises(ValueError):
        propagate_rk4(model, np.zeros(4), lambda t: np.zeros(1), 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        propagate_rk4(model, np.zeros(4), lambda t: np.zeros(1), 1.0, 1.0, 50)
    with pytest.raises(ValueError):
        propagate_rk4(model, np.zeros(3), lambda t: np.zeros(1), 0.0, 1.0, 50)
    # tf = inf passes `tf > t0`; it would give NaN states, so the times are checked
    for t0, tf in ((0.0, np.inf), (-np.inf, 1.0), (0.0, -np.inf), (np.inf, np.inf)):
        with pytest.raises(ValueError, match="t0 and tf must be finite"):
            propagate_rk4(model, np.array([1.0, 0.0, 0.0, 0.0]), lambda t: np.zeros(1),
                          t0, tf, 50)


@pytest.mark.parametrize("model", [two_level_model(TwoLevelParams(0.2, 0.05, 0.7, -1.3)),
                                   three_level_model(ThreeLevelParams(0.3, -0.8))])
def test_shipped_models_are_affine(model):
    # propagate_rk4 and the pmp Jacobian build G(u) as G(0) + sum_c u_c G_c
    rng = np.random.default_rng(3)
    g0 = model.drift
    assert np.array_equal(model.generator(np.zeros(model.n_controls)), g0)
    for _ in range(5):
        u = rng.normal(scale=3.0, size=model.n_controls)
        affine = g0 + sum(uc * gc for uc, gc in zip(u, model.generator_du))
        assert np.max(np.abs(model.generator(u) - affine)) < 1e-15


def test_model_holds_generator_du_as_one_read_only_array():
    for model in (two_level_model(P), three_level_model(ThreeLevelParams())):
        du = model.generator_du
        assert du.dtype == float and du.shape == (model.n_controls, model.dim, model.dim)
        assert model.drift.dtype == float and model.drift.shape == (model.dim, model.dim)
        with pytest.raises(ValueError):
            du[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            model.drift[0, 0] = 1.0

    def never(u):   # the model checks its arrays without building a generator
        raise AssertionError("generator called")

    drift, du = hand_two_level(P, 0.0), hand_two_level_du()
    model = lindblad.SuperOperatorModel(generator=never, drift=drift, generator_du=[du])
    assert (model.dim, model.n_controls) == (4, 1)
    # the control count is read off the stack's length
    assert lindblad.SuperOperatorModel(never, drift, [du, du]).n_controls == 2
    for bad in (du, [du[:3, :3]], [np.where(du == 0.0, np.nan, du)], [1j * du]):
        with pytest.raises(ValueError, match="generator_du"):
            lindblad.SuperOperatorModel(generator=never, drift=drift, generator_du=bad)
    for bad in (drift[:3, :3], np.zeros((4, 9)), np.zeros(4), 1j * drift,
                np.where(drift == 0.0, np.inf, drift)):
        with pytest.raises(ValueError, match="drift"):
            lindblad.SuperOperatorModel(generator=never, drift=bad, generator_du=[du])


def test_no_vectorizer_call_per_residual_jacobian_or_equal_rebuild(monkeypatch):
    # one vectorizer call costs about 0.1 ms, against 17 generator calls per
    # residual: the models build their (G(0), G_c) once per parameter set
    calls = []
    vectorize = lindblad.lindblad_vectorize
    monkeypatch.setattr(lindblad, "lindblad_vectorize",
                        lambda *a: calls.append(1) or vectorize(*a))
    for name in ("two_level_ground_to_excited", "two_level_to_superposition",
                 "three_level_pop_inversion"):
        prob = cli.build_problem(cli.load_config(cli.preset_path(name)))[0]
        values = prob.decision.values.copy()   # off the set-up's memoised point
        values[prob.xi_mask] += 1e-3
        del calls[:]
        prob.residual(values)
        assert calls == []
        prob.jacobian(values)
        assert calls == []
    p = TwoLevelParams(0.0123, 0.0456, 0.789, -1.011)   # one no other test builds
    two_level_model(p)
    assert len(calls) == 2                             # G(0) and one G_c
    two_level_model(TwoLevelParams(0.0123, 0.0456, 0.789, -1.011))
    assert len(calls) == 2
    q = ThreeLevelParams(0.0123, -0.456)
    three_level_model(q)
    three_level_model(ThreeLevelParams(0.0123, -0.456))
    assert len(calls) == 2 + 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rk4_rejects_nonfinite_control(bad):
    model = three_level_model(ThreeLevelParams())
    x0 = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0])

    def u_table(t):
        u = np.column_stack([np.sin(t), np.cos(t)])
        u[len(t) // 2, 1] = bad
        return u

    with pytest.raises(ValueError, match="control must be finite"):
        propagate_rk4(model, x0, u_table, 0.0, 1.0, 600)
    with pytest.raises(ValueError, match="control must be finite"):
        propagate_rk4(two_level_model(P), np.array([1.0, 0.0, 0.0, 0.0]),
                      lambda t: np.array([bad]), 0.0, 1.0, 50)


def test_rk4_names_a_control_of_the_wrong_shape():
    # 50 steps have 101 stage times; a flat vector for the one control and
    # three columns for the model's two are named, not left to broadcasting
    with pytest.raises(ValueError, match=r"control has shape \(101,\), expected \(101, 1\)"):
        propagate_rk4(two_level_model(P), np.array([1.0, 0.0, 0.0, 0.0]),
                      np.sin, 0.0, 1.0, 50)
    with pytest.raises(ValueError, match=r"shape \(101, 3\), expected \(101, 2\) .* or \(2,\)"):
        propagate_rk4(three_level_model(ThreeLevelParams()), np.eye(9)[0],
                      lambda t: np.column_stack([t, t, t]), 0.0, 1.0, 50)


def test_rk4_builds_the_generator_once_whatever_the_step_count():
    x0 = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0])
    counts = []
    for steps in (50, 2000):
        model = three_level_model(ThreeLevelParams())
        build, calls = model.generator, []
        model.generator = lambda u: calls.append(u) or build(u)
        propagate_rk4(model, x0, lambda t: np.column_stack([np.sin(t), np.cos(t)]),
                      0.0, 2.0, steps)
        counts.append(len(calls))
    # the drift and the G_c are the model's arrays: no generator is built
    assert counts == [0, 0]


def test_two_level_params_validation():
    with pytest.raises(ValueError):
        TwoLevelParams(gamma_eg=-0.1)


def _rk4_reference(model, x0, u_scalar, t0, tf, steps):
    """Textbook RK4 evaluating the control and generator at every stage."""
    h = (tf - t0) / steps
    x = np.asarray(x0, dtype=float)
    out = [x]
    for i in range(steps):
        t = t0 + i * h

        def f(ti, xi):
            return model.generator(np.atleast_1d(u_scalar(ti))) @ xi

        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    return np.array(out)


# 10 steps: shorter than one scan chunk; 260 and 500: one batch ending in a
# ragged chunk; 1030: a full batch, then a batch shorter than one chunk;
# 4000: three full batches and a shorter last one, as in a long verification
@pytest.mark.parametrize("steps", [10, 260, 500, 1030, 4000])
@pytest.mark.parametrize("system", ["two-level", "three-level"])
def test_rk4_tabulated_control_matches_per_step_reference(system, steps):
    # a fixed step, so every count stays in RK4's stable range
    calls = []
    if system == "two-level":
        model, tf = two_level_model(P), 0.02 * steps
        x0 = np.array([1.0, 0.0, 0.0, 0.0])

        def u_scalar(t):
            return np.array([np.sin(t)])
    else:
        model, tf = three_level_model(ThreeLevelParams()), 0.01 * steps
        x0 = np.array([1.0, 0, 0, 0, 0, 0, 0, 0, 0])

        def u_scalar(t):
            return np.array([np.sin(3.0 * t), 0.5 * np.cos(t)])

    def u_table(t):
        calls.append(np.shape(t))
        return np.column_stack(u_scalar(t))

    ts, xs = propagate_rk4(model, x0, u_table, 0.0, tf, steps)
    assert calls == [(2 * steps + 1,)]
    assert xs.shape == (steps + 1, model.dim)
    assert np.allclose(ts, np.linspace(0.0, tf, steps + 1), rtol=0, atol=1e-15)
    ref = _rk4_reference(model, x0, u_scalar, 0.0, tf, steps)
    assert np.max(np.abs(xs - ref)) < 1e-13


def _classic_step_matrix(model, u_s, u_m, u_e, h):
    """The RK4 step x <- M x at start, middle and end controls u_s, u_m, u_e,
    stage by stage: P2 = A_m (I + h/2 A_s), P3 = A_m (I + h/2 P2),
    P4 = A_e (I + h P3), M = I + h/6 (A_s + 2 P2 + 2 P3 + P4)."""
    eye = np.eye(model.dim)
    a_s, a_m, a_e = (model.generator(u) for u in (u_s, u_m, u_e))
    p2 = a_m @ (eye + (0.5 * h) * a_s)
    p3 = a_m @ (eye + (0.5 * h) * p2)
    p4 = a_e @ (eye + h * p3)
    return eye + (h / 6.0) * (a_s + 2.0 * p2 + 2.0 * p3 + p4)


# |u| up to 70 is the fast-control fixture of test_problems; h = 0.02 puts
# h |G(u)| near 1 there
@pytest.mark.parametrize("scale, h", [(1.0, 0.02), (70.0, 0.02), (70.0, 3e-4)])
@pytest.mark.parametrize("model", [two_level_model(P), three_level_model(ThreeLevelParams())],
                         ids=["two-level", "three-level"])
def test_step_tensor_gives_the_classic_step_matrix(model, scale, h):
    # M - I is the row of monomials v_e[a] v_m[b] v_m[c] v_s[d] of the stage
    # vectors v = (1, u) times the tensor, (n_controls + 1)^4 rows: 16 and 81
    rng = np.random.default_rng(17)
    k = model.n_controls + 1
    tensor = lindblad._rk4_step_tensor(model, h)
    assert tensor.shape == (k ** 4, model.dim ** 2)
    for _ in range(50):
        u_s, u_m, u_e = rng.uniform(-scale, scale, (3, k - 1))
        v_s, v_m, v_e = (np.concatenate([[1.0], u]) for u in (u_s, u_m, u_e))
        monomials = np.einsum("a,b,c,d->abcd", v_e, v_m, v_m, v_s).reshape(k ** 4)
        step = (monomials @ tensor).reshape(model.dim, model.dim) + np.eye(model.dim)
        classic = _classic_step_matrix(model, u_s, u_m, u_e, h)
        assert np.max(np.abs(step - classic)) <= 4 * np.finfo(float).eps * np.max(np.abs(classic))


def _rk4_step_tensor_form(model, x0, us, t0, tf, steps):
    """propagate_rk4's batch formula with a fresh temporary for every
    product and sum: each step's monomials, one column per step, times the
    step tensor plus the identity; one scan per batch."""
    dim, block, chunk = model.dim, lindblad._BLOCK_STEPS, lindblad._CHUNK
    k = model.n_controls + 1
    tensor = lindblad._rk4_step_tensor(model, (tf - t0) / steps)
    v = np.vstack([np.ones(len(us)), us.T])
    eye = np.eye(dim)
    x = np.asarray(x0, dtype=float)
    xs = [x]
    for first in range(0, steps, block):
        last = min(first + block, steps)
        n = last - first
        n_chunks = -(-n // chunk)
        batch = v[:, 2 * first:2 * last + 1]
        v_s, v_m, v_e = batch[:, :-1:2], batch[:, 1::2], batch[:, 2::2]
        monomials = (v_e[:, None] * v_m)[:, :, None, None] * (v_m[:, None] * v_s)
        prefix = np.empty((n_chunks * chunk, dim, dim))
        prefix[:n] = (monomials.reshape(k ** 4, n).T @ tensor).reshape(n, dim, dim) + eye
        prefix[n:] = eye
        prefix = prefix.reshape(n_chunks, chunk, dim, dim)
        for j in range(1, chunk):
            prefix[:, j] = prefix[:, j] @ prefix[:, j - 1]
        starts = np.empty((n_chunks, dim))
        for c in range(n_chunks):
            starts[c] = x
            x = prefix[c, -1].dot(x)
        states = prefix.reshape(n_chunks, chunk * dim, dim) @ starts[:, :, None]
        xs.extend(states.reshape(-1, dim)[:n])
    return np.array(xs)


@pytest.mark.parametrize("steps", [10, 260, 500, 1030, 4000])
@pytest.mark.parametrize("system", ["two-level", "three-level"])
def test_rk4_states_are_bit_identical_to_the_matrix_form(system, steps):
    # the batch buffers are reused in place; every operation and its order
    # is that of the formula above, so the states agree bit for bit
    if system == "two-level":
        model, x0 = two_level_model(P), np.array([1.0, 0.0, 0.0, 0.0])

        def u_table(t):
            return np.column_stack([3.0 * np.sin(5.0 * t)])
    else:
        model, x0 = three_level_model(ThreeLevelParams()), np.eye(9)[0]

        def u_table(t):
            return np.column_stack([2.0 * np.sin(3.0 * t), np.cos(7.0 * t)])
    tf = 3.0
    _, xs = propagate_rk4(model, x0, u_table, 0.0, tf, steps)
    us = u_table(np.linspace(0.0, tf, 2 * steps + 1))
    assert np.array_equal(xs, _rk4_step_tensor_form(model, x0, us, 0.0, tf, steps))


def test_rk4_blow_up_raises_instead_of_returning_nan():
    # u = 1e6 with h = 0.05 is far outside RK4's stable range: the states
    # overflow within the first batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"RK4 state not finite at t = .* of 200"):
            propagate_rk4(two_level_model(P), np.array([1.0, 0.0, 0.0, 0.0]),
                          lambda t: np.array([1e6]), 0.0, 10.0, 200)


def test_rk4_transient_memory_is_bounded_by_a_batch():
    # every batch reuses buffers of _BLOCK_STEPS steps, so what a call holds
    # beyond its outputs is one stack of 9 x 9 step matrices, the batch's 81
    # monomials per step and the stage times; one (steps, 9, 9) array of
    # step matrices would be 2.6 MB at 4000 steps and 26 MB at 40 000
    model, x0 = three_level_model(ThreeLevelParams()), np.eye(9)[0]
    control = np.array([0.5, -0.3])
    for steps in (4000, 40000):
        tracemalloc.start()
        try:
            ts, xs = propagate_rk4(model, x0, lambda t: control, 0.0, 1e-3 * steps, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - ts.nbytes - xs.nbytes < 3e6
