import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqoc.tfc import (BoundaryConstraint, ConstrainedExpression, TimeMorph,
                       chebyshev_lobatto_nodes, omega, omega_prime)


MORPH = TimeMorph(t0=0.0, tau0=-0.8, tauf=0.8, c_map=1.6)


def test_morph_round_trip():
    m = TimeMorph.from_times(1.0, 3.0, -0.8, 0.8)
    assert m.c_map == pytest.approx(0.8)
    assert m.tf == pytest.approx(3.0)
    ts = np.linspace(1.0, 3.0, 11)
    assert np.allclose(m.to_time(m.to_tau(ts)), ts, atol=1e-14)
    assert m.to_tau(1.0) == pytest.approx(-0.8)
    assert m.to_tau(3.0) == pytest.approx(0.8)


def test_morph_validation():
    with pytest.raises(ValueError):
        TimeMorph(0.0, 0.8, -0.8, 1.0)
    with pytest.raises(ValueError):
        TimeMorph(0.0, -0.8, 0.8, -1.0)
    with pytest.raises(ValueError):
        TimeMorph.from_times(2.0, 1.0, -0.8, 0.8)
    for t0, tau0, tauf in ((np.nan, -0.8, 0.8), (0.0, -np.inf, 0.8), (0.0, -0.8, np.nan)):
        with pytest.raises(ValueError):
            TimeMorph(t0, tau0, tauf, 1.0)


def test_omega_partition_of_unity():
    taus = np.linspace(MORPH.tau0, MORPH.tauf, 57)
    total = omega(1, taus, MORPH) + omega(2, taus, MORPH)
    assert np.max(np.abs(total - 1.0)) < 1e-14


def test_omega_endpoint_values_and_slopes():
    for k, at0, atf in [(1, 1.0, 0.0), (2, 0.0, 1.0)]:
        assert omega(k, MORPH.tau0, MORPH) == pytest.approx(at0, abs=1e-14)
        assert omega(k, MORPH.tauf, MORPH) == pytest.approx(atf, abs=1e-14)
        assert omega_prime(k, MORPH.tau0, MORPH) == pytest.approx(0.0, abs=1e-14)
        assert omega_prime(k, MORPH.tauf, MORPH) == pytest.approx(0.0, abs=1e-14)


def test_omega_prime_matches_finite_difference():
    h = 1e-6
    for k in (1, 2):
        for tau in (-0.5, 0.0, 0.6):
            fd = (omega(k, tau + h, MORPH) - omega(k, tau - h, MORPH)) / (2 * h)
            assert omega_prime(k, tau, MORPH) == pytest.approx(fd, abs=1e-8)


def test_omega_rejects_bad_index_and_domain():
    with pytest.raises(ValueError):
        omega(3, 0.0, MORPH)
    with pytest.raises(ValueError):
        omega(1, 0.9, MORPH)


def poly_features(coeffs):
    """One-row feature function phi(tau) = polynomial, with analytic
    tau-derivative; with identity weights the expression's free part is phi."""
    c = np.asarray(coeffs, dtype=float)
    d = np.polyder(c)

    def f(tau, derivative=True):
        return np.atleast_1d(np.polyval(c, tau)), np.atleast_1d(np.polyval(d, tau))

    return f


def monomial_features(tau, derivative=True):
    """Rows (1, tau, tau^2) and their tau-derivatives, for a scalar or an array."""
    tau = np.asarray(tau, dtype=float)
    phi = np.stack([np.ones_like(tau), tau, tau**2], axis=-1)
    dphi = np.stack([np.zeros_like(tau), np.ones_like(tau), 2.0 * tau], axis=-1)
    return phi, dphi if derivative else None


def test_two_point_boundaries_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y0, yf = rng.normal(size=2)
        expr = ConstrainedExpression(
            poly_features(rng.normal(size=4)), np.eye(1),
            [BoundaryConstraint("initial", [y0]), BoundaryConstraint("final", [yf])],
            MORPH)
        assert abs(expr.eval(MORPH.tau0)[0][0] - y0) < 1e-12
        assert abs(expr.eval(MORPH.tauf)[0][0] - yf) < 1e-12


def test_single_point_constraints():
    expr_i = ConstrainedExpression(poly_features([1.0, 0.5]), np.eye(1),
                                   [BoundaryConstraint("initial", [2.0])], MORPH)
    assert abs(expr_i.eval(MORPH.tau0)[0][0] - 2.0) < 1e-12
    expr_f = ConstrainedExpression(poly_features([1.0, 0.5]), np.eye(1),
                                   [BoundaryConstraint("final", [-1.0])], MORPH)
    assert abs(expr_f.eval(MORPH.tauf)[0][0] + 1.0) < 1e-12


def test_free_expression_is_free_function():
    f = poly_features([2.0, -1.0, 0.3])
    expr = ConstrainedExpression(f, np.eye(1), [], MORPH)
    for tau in (-0.8, -0.1, 0.44, 0.8):
        val, dval = expr.eval(tau)
        ft, dft = f(tau)
        assert val[0] == pytest.approx(ft[0], abs=1e-14)
        assert dval[0] == pytest.approx(MORPH.c_map * dft[0], abs=1e-14)


def test_time_derivative_channel():
    # d/dt of the constrained expression equals a finite difference in t
    expr = ConstrainedExpression(
        poly_features([1.5, 0.2, -0.7]), np.eye(1),
        [BoundaryConstraint("initial", [0.3]), BoundaryConstraint("final", [1.1])],
        MORPH)
    h = 1e-6
    for t in (0.2, 0.5, 0.8):
        tau_p, tau_m = MORPH.to_tau(t + h), MORPH.to_tau(t - h)
        fd = (expr.eval(tau_p)[0][0] - expr.eval(tau_m)[0][0]) / (2 * h)
        assert expr.eval(MORPH.to_tau(t))[1][0] == pytest.approx(fd, abs=1e-7)


def test_vector_valued_constraints():
    y0 = np.array([1.0, -2.0, 0.5])
    yf = np.array([0.0, 3.0, 1.0])
    f = poly_features([0.4, 0.1])

    def vec_features(tau, derivative=True):
        v, d = f(tau)
        return np.repeat(v, 3), np.repeat(d, 3)

    expr = ConstrainedExpression(
        vec_features, np.eye(3), [BoundaryConstraint("initial", y0), BoundaryConstraint("final", yf)],
        MORPH)
    assert np.max(np.abs(expr.eval(MORPH.tau0)[0] - y0)) < 1e-12
    assert np.max(np.abs(expr.eval(MORPH.tauf)[0] - yf)) < 1e-12


def test_duplicate_constraint_rejected():
    with pytest.raises(ValueError):
        ConstrainedExpression(poly_features([1.0]), np.eye(1),
                              [BoundaryConstraint("initial", [0.0]),
                               BoundaryConstraint("initial", [1.0])], MORPH)


def test_in_place_weight_write_is_seen_by_next_eval():
    y0, yf = np.array([1.0, -0.5]), np.array([0.25, 2.0])
    constraints = [BoundaryConstraint("initial", y0), BoundaryConstraint("final", yf)]
    weights = np.zeros((3, 2))
    expr = ConstrainedExpression(monomial_features, weights, constraints, MORPH)
    taus = np.linspace(MORPH.tau0, MORPH.tauf, 9)
    before = expr.eval(taus)
    weights[...] = np.random.default_rng(4).normal(size=weights.shape)
    # no call between the write and the eval
    after = expr.eval(taus)
    fresh = ConstrainedExpression(monomial_features, weights.copy(), constraints, MORPH).eval(taus)
    assert np.max(np.abs(after[0][1:-1] - before[0][1:-1])) > 1e-3
    assert np.array_equal(after[0], fresh[0]) and np.array_equal(after[1], fresh[1])
    for y, at in ((y0, MORPH.tau0), (yf, MORPH.tauf)):
        assert np.max(np.abs(expr.eval(at)[0] - y)) < 1e-12
    assert np.max(np.abs(after[0][0] - y0)) < 1e-12
    assert np.max(np.abs(after[0][-1] - yf)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(y0=st.floats(-10, 10), yf=st.floats(-10, 10),
       c0=st.floats(-2, 2), c1=st.floats(-2, 2))
def test_boundaries_exact_property(y0, yf, c0, c1):
    expr = ConstrainedExpression(
        poly_features([c1, c0]), np.eye(1),
        [BoundaryConstraint("initial", [y0]), BoundaryConstraint("final", [yf])],
        MORPH)
    assert abs(expr.eval(MORPH.tau0)[0][0] - y0) < 1e-12
    assert abs(expr.eval(MORPH.tauf)[0][0] - yf) < 1e-12


def test_chebyshev_lobatto_nodes():
    nodes = chebyshev_lobatto_nodes(9, MORPH)
    assert nodes.shape == (9,)
    assert nodes[0] == pytest.approx(MORPH.tau0, abs=1e-14)
    assert nodes[-1] == pytest.approx(MORPH.tauf, abs=1e-14)
    assert np.all(np.diff(nodes) > 0)
    # denser near the edges than the middle
    assert nodes[1] - nodes[0] < nodes[5] - nodes[4]
    with pytest.raises(ValueError):
        chebyshev_lobatto_nodes(1, MORPH)
