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


def poly_free(coeffs):
    """Free function theta(tau) = polynomial, with analytic tau-derivative."""
    c = np.asarray(coeffs, dtype=float)
    d = np.polyder(c)

    def f(tau):
        return np.atleast_1d(np.polyval(c, tau)), np.atleast_1d(np.polyval(d, tau))

    return f


def test_two_point_boundaries_exact():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y0, yf = rng.normal(size=2)
        expr = ConstrainedExpression(
            poly_free(rng.normal(size=4)),
            [BoundaryConstraint("initial", [y0]), BoundaryConstraint("final", [yf])],
            MORPH)
        assert abs(expr.eval(MORPH.tau0)[0][0] - y0) < 1e-12
        assert abs(expr.eval(MORPH.tauf)[0][0] - yf) < 1e-12


def test_single_point_constraints():
    expr_i = ConstrainedExpression(poly_free([1.0, 0.5]),
                                   [BoundaryConstraint("initial", [2.0])], MORPH)
    assert abs(expr_i.eval(MORPH.tau0)[0][0] - 2.0) < 1e-12
    expr_f = ConstrainedExpression(poly_free([1.0, 0.5]),
                                   [BoundaryConstraint("final", [-1.0])], MORPH)
    assert abs(expr_f.eval(MORPH.tauf)[0][0] + 1.0) < 1e-12


def test_free_expression_is_free_function():
    f = poly_free([2.0, -1.0, 0.3])
    expr = ConstrainedExpression(f, [], MORPH)
    for tau in (-0.8, -0.1, 0.44, 0.8):
        val, dval = expr.eval(tau)
        ft, dft = f(tau)
        assert val[0] == pytest.approx(ft[0], abs=1e-14)
        assert dval[0] == pytest.approx(MORPH.c_map * dft[0], abs=1e-14)


def test_time_derivative_channel():
    # d/dt of the constrained expression equals a finite difference in t
    expr = ConstrainedExpression(
        poly_free([1.5, 0.2, -0.7]),
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
    f = poly_free([0.4, 0.1])

    def vec_free(tau):
        v, d = f(tau)
        return np.repeat(v, 3), np.repeat(d, 3)

    expr = ConstrainedExpression(
        vec_free, [BoundaryConstraint("initial", y0), BoundaryConstraint("final", yf)],
        MORPH)
    assert np.max(np.abs(expr.eval(MORPH.tau0)[0] - y0)) < 1e-12
    assert np.max(np.abs(expr.eval(MORPH.tauf)[0] - yf)) < 1e-12


def test_duplicate_constraint_rejected():
    with pytest.raises(ValueError):
        ConstrainedExpression(poly_free([1.0]),
                              [BoundaryConstraint("initial", [0.0]),
                               BoundaryConstraint("initial", [1.0])], MORPH)


def test_refresh_updates_endpoint_cache():
    state = {"offset": 0.0}

    def free(tau):
        return np.atleast_1d(state["offset"]), np.atleast_1d(0.0)

    expr = ConstrainedExpression(free, [BoundaryConstraint("initial", [1.0])], MORPH)
    assert expr.eval(MORPH.tau0)[0][0] == pytest.approx(1.0, abs=1e-14)
    state["offset"] = 5.0
    # the cached endpoint is stale until refresh() ...
    assert expr.eval(MORPH.tau0)[0][0] == pytest.approx(6.0, abs=1e-14)
    # ... which restores the exact boundary
    expr.refresh()
    assert expr.eval(MORPH.tau0)[0][0] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=50, deadline=None)
@given(y0=st.floats(-10, 10), yf=st.floats(-10, 10),
       c0=st.floats(-2, 2), c1=st.floats(-2, 2))
def test_boundaries_exact_property(y0, yf, c0, c1):
    expr = ConstrainedExpression(
        poly_free([c1, c0]),
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
