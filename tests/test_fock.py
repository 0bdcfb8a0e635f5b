import numpy as np
import pytest

from cvqoc import fock


def taylor_expm(m):
    """exp(m) by scaling and squaring around a Taylor polynomial: numpy only,
    and independent of the spectral kernel under test."""
    s = 0
    while np.abs(m).sum(axis=0).max() > 0.5 * 2**s:
        s += 1
    x = m / 2**s
    term = out = np.eye(len(m), dtype=complex)
    for k in range(1, 25):
        term = term @ x / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def taylor_frechet(x, e):
    """(exp(x), Frechet derivative of exp at x along e), read off the top
    block row of exp([[x, e], [0, x]])."""
    d = len(x)
    top = taylor_expm(np.block([[x, e], [np.zeros_like(x), x]]))[:d]
    return top[:, :d], top[:, d:]


_rng = np.random.default_rng(17)
# (alpha, r): the zero gates, a tiny amplitude, then random gates
ORACLE_GATES = [(0j, 0.0), (1e-12 * np.exp(0.7j), 1e-12)] + [
    (complex(*_rng.normal(0.0, 0.5, 2)), _rng.normal(0.0, 0.2)) for _ in range(20)]


@pytest.mark.parametrize("cutoff", [10, 40])
def test_gates_and_derivatives_match_taylor_oracle(cutoff):
    a = fock.ladder(cutoff)[0].entries
    g, y = a.T - a, 1j * (a.T + a)
    sq_gen = 0.5 * (a @ a - a.T @ a.T)
    squeeze = fock.basis(cutoff).squeeze
    for alpha, r in ORACLE_GATES:
        gen = alpha * a.T - np.conj(alpha) * a
        disp, d_re, d_im = fock.displacement_derivatives(alpha, cutoff)
        want_disp, want_re = taylor_frechet(gen, g)
        want_im = taylor_frechet(gen, y)[1]
        sq, d_sq = fock.expm(squeeze, r, [sq_gen])
        want_sq, want_dsq = taylor_frechet(r * sq_gen, sq_gen)
        gates = (fock.gate_matrix(fock.Displacement(alpha), cutoff).entries,
                 fock.gate_matrix(fock.Squeeze(r), cutoff).entries)
        for got, want in [(disp, want_disp), (gates[0], want_disp), (d_re, want_re),
                          (d_im, want_im), (sq, want_sq), (gates[1], want_sq),
                          (d_sq, want_dsq)]:
            assert np.max(np.abs(got - want)) < 1e-12, (alpha, r)
    # at zero amplitude the kernel returns the identity and the directions themselves
    disp, d_re, d_im = fock.displacement_derivatives(0j, cutoff)
    sq, d_sq = fock.expm(squeeze, 0.0, [sq_gen])
    eye = np.eye(cutoff)
    assert np.array_equal(disp, eye) and np.array_equal(sq, eye)
    assert np.array_equal(d_re, g) and np.array_equal(d_im, y)
    assert np.array_equal(d_sq, sq_gen)


def test_expm_broadcasts_over_arrays_of_t_and_phi_bit_for_bit():
    # a stack of gates equals the scalar calls entry by entry, zeros included,
    # so a zero-padded stack builds exact identities among its gates
    cutoff = 10
    b = fock.basis(cutoff)
    rng = np.random.default_rng(41)
    t = np.concatenate([[0.0, 0.0, -0.0], rng.normal(0.0, 0.4, 5)])
    phi = np.concatenate([[0.0, 1.1, 0.0], rng.uniform(-np.pi, np.pi, 4), [0.0]])
    for spec, directions in [(b.squeeze, []), (b.squeeze, [b.squeeze.gen]),
                             (b.displace, [b.displace.gen, b.a + b.a.T])]:
        stacked = fock.expm(spec, t, directions, phi)
        plain = fock.expm(spec, t, directions)
        assert len(stacked) == len(plain) == 1 + len(directions)
        for k in range(t.size):
            for got, want in zip(stacked, fock.expm(spec, t[k], directions, phi[k])):
                assert got.shape == (t.size, cutoff, cutoff)
                assert np.array_equal(got[k], want)
            for got, want in zip(plain, fock.expm(spec, t[k], directions)):
                assert np.array_equal(got[k], want)
    assert np.array_equal(stacked[0][0], np.eye(cutoff))
    alpha = np.concatenate([[0j], t[3:] * np.exp(1j * phi[3:])])
    stacked = fock.displacement_derivatives(alpha, cutoff)
    for k, a in enumerate(alpha):
        for got, want in zip(stacked, fock.displacement_derivatives(complex(a), cutoff)):
            assert np.array_equal(got[k], want)


def test_cached_basis_is_read_only():
    b = fock.basis(6)
    for arr in (b.a, *b.displace, *b.squeeze):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    gate = fock.gate_matrix(fock.Squeeze(0.2), 6).entries
    gate[0, 0] = 0.0   # a gate is the caller's own array
    assert fock.gate_matrix(fock.Squeeze(0.2), 6).entries[0, 0] != 0.0


def test_ladder_matrix_elements():
    a, adag = fock.ladder(4)
    expect = np.zeros((4, 4))
    for n in range(1, 4):
        expect[n - 1, n] = np.sqrt(n)
    assert np.allclose(a.entries, expect)
    assert np.allclose(adag.entries, expect.T)
    # number operator a†a = diag(0..3)
    assert np.allclose(adag.entries @ a.entries, np.diag([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("kappa", [0.1, 1.0])
def test_kerr_diagonal(kappa):
    mat = fock.gate_matrix(fock.Kerr(kappa), 20).entries
    ns = np.arange(20)
    assert np.max(np.abs(np.diag(mat) - np.exp(1j * kappa * ns**2))) < 1e-12
    assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0.0


def test_rotation_diagonal():
    mat = fock.gate_matrix(fock.Rotation(0.7), 8).entries
    assert np.allclose(np.diag(mat), np.exp(1j * 0.7 * np.arange(8)), atol=1e-12)


def test_diagonal_gates_exactly_unitary():
    for gate in (fock.Rotation(1.3), fock.Kerr(0.4)):
        u = fock.gate_matrix(gate, 15).entries
        assert np.max(np.abs(u.conj().T @ u - np.eye(15))) < 1e-12


def test_displacement_vacuum_amplitude():
    # coherent state |<0|D(a)|0>| = exp(-|a|^2 / 2)
    alpha = 0.4
    state = fock.apply(fock.gate_matrix(fock.Displacement(alpha), 30), fock.vacuum(30))
    assert abs(state.amplitudes[0] - np.exp(-0.08)) < 1e-10


def test_displacement_inverse_protected_block():
    d = 20
    for alpha in (0.3, -0.8 + 0.4j, 1.0j):
        u1 = fock.gate_matrix(fock.Displacement(alpha), d).entries
        u2 = fock.gate_matrix(fock.Displacement(-alpha), d).entries
        block = (u1 @ u2 - np.eye(d))[: d // 2, : d // 2]
        assert np.max(np.abs(block)) < 1e-6


def test_exp_gates_unitary_on_protected_block():
    d = 20
    for gate in (fock.Displacement(0.9 + 0.3j), fock.Squeeze(0.5)):
        u = fock.gate_matrix(gate, d).entries
        block = (u.conj().T @ u - np.eye(d))[:10, :10]
        assert np.max(np.abs(block)) < 1e-6


def test_quadrature_expectation_coherent():
    rng = np.random.default_rng(3)
    x_op = fock.quadrature_x(30)
    for _ in range(20):
        alpha = complex(*rng.uniform(-0.7, 0.7, 2))
        state = fock.apply(fock.gate_matrix(fock.Displacement(alpha), 30),
                           fock.vacuum(30))
        assert abs(fock.expectation(x_op, state) - np.sqrt(2) * alpha.real) < 1e-6


def test_squeezed_vacuum_variance():
    # <x^2> of S(r)|0> is exp(-2r)/2 in this convention
    r = 0.3
    state = fock.apply(fock.gate_matrix(fock.Squeeze(r), 40), fock.vacuum(40))
    x = fock.quadrature_x(40)
    x2 = fock.FockOperator(x.entries @ x.entries, 40)
    assert abs(fock.expectation(x2, state) - np.exp(-2 * r) / 2) < 1e-8


def test_cutoff_convergence():
    for d in (12, 20):
        state = fock.apply(fock.gate_matrix(fock.Displacement(0.5), d), fock.vacuum(d))
        val = fock.expectation(fock.quadrature_x(d), state)
        state2 = fock.apply(fock.gate_matrix(fock.Displacement(0.5), 2 * d),
                            fock.vacuum(2 * d))
        val2 = fock.expectation(fock.quadrature_x(2 * d), state2)
        assert abs(val - val2) < 1e-6


def test_expectation_requires_hermitian():
    a, _ = fock.ladder(5)
    with pytest.raises(ValueError):
        fock.expectation(a, fock.vacuum(5))


def test_expectation_real_linear():
    rng = np.random.default_rng(9)
    m1 = rng.normal(size=(6, 6))
    m2 = rng.normal(size=(6, 6))
    h1 = fock.FockOperator((m1 + m1.T).astype(complex), 6)
    h2 = fock.FockOperator((m2 + m2.T).astype(complex), 6)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = fock.FockVector(amps / np.linalg.norm(amps), 6)
    combo = fock.FockOperator(2.0 * h1.entries + 3.0 * h2.entries, 6)
    lhs = fock.expectation(combo, state)
    rhs = 2.0 * fock.expectation(h1, state) + 3.0 * fock.expectation(h2, state)
    assert abs(lhs - rhs) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        fock.apply(fock.quadrature_x(5), fock.vacuum(6))


def test_norm_invariant_rejected():
    with pytest.raises(ValueError):
        fock.FockVector(np.ones(4, dtype=complex), 4)

