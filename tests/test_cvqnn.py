import numpy as np
import pytest

from cvqoc import cvqnn, fock


def bank_of(params_per_circuit, cutoff=12):
    # one (depth, 6) parameter array per circuit
    circuits = [cvqnn.QnnCircuit(np.reshape(p, (-1, cvqnn.PARAMS_PER_UNIT)), cutoff)
                for p in params_per_circuit]
    return cvqnn.QnnBank(circuits=circuits)


def unit_row(rot1=0.0, squeeze=0.0, rot2=0.0, disp=0j, kerr=0.0):
    return [rot1, squeeze, rot2, complex(disp).real, complex(disp).imag, kerr]


def test_encode_input_vacuum_at_zero():
    state = cvqnn.encode_input(0.0, 10)
    assert abs(state.amplitudes[0] - 1.0) < 1e-14
    assert np.max(np.abs(state.amplitudes[1:])) < 1e-14


def test_encode_input_coherent_amplitude():
    state = cvqnn.encode_input(0.4, 30)
    assert abs(state.amplitudes[0] - np.exp(-0.08)) < 1e-10


def test_zero_unit_is_identity():
    mat = cvqnn.QnnCircuit(np.zeros((1, cvqnn.PARAMS_PER_UNIT)), 15).unitary()
    assert np.max(np.abs(mat - np.eye(15))) < 1e-12


def test_unit_matrix_is_gate_product():
    # K D R2 S R1 as the dense product of the fock gate matrices
    rng = np.random.default_rng(12)
    d = 12
    for _ in range(20):
        r1, r2 = rng.uniform(0.0, 2 * np.pi, 2)
        sq, kappa = rng.normal(0.0, 0.3, 2)
        alpha = complex(*rng.normal(0.0, 0.3, 2))
        unit = unit_row(rot1=r1, squeeze=sq, rot2=r2, disp=alpha, kerr=kappa)
        gates = [fock.Kerr(kappa), fock.Displacement(alpha), fock.Rotation(r2),
                 fock.Squeeze(sq), fock.Rotation(r1)]
        expect = np.eye(d, dtype=complex)
        for g in gates:
            expect = expect @ fock.gate_matrix(g, d).entries
        got = cvqnn.QnnCircuit([unit], d).unitary()
        assert np.max(np.abs(got - expect)) < 1e-12


def test_stacked_unit_equals_per_row_builds():
    # zero slots and a zero row among random ones; per-row builds are stacks of one
    rng = np.random.default_rng(8)
    rows = rng.normal(0.0, 0.4, (7, cvqnn.PARAMS_PER_UNIT))
    rows[2] = 0.0
    rows[4, [1, 3, 4]] = 0.0
    rows[5, 4] = -0.0
    for derivatives in (False, True):
        mats, dmats = cvqnn._unit(rows, 10, derivatives)
        assert mats.shape == (7, 10, 10)
        assert (dmats is None) != derivatives
        for k, row in enumerate(rows):
            mat, dmat = cvqnn._unit(row[None], 10, derivatives)
            assert np.array_equal(mats[k], mat[0])
            if derivatives:
                assert dmats.shape == (7, cvqnn.PARAMS_PER_UNIT, 10, 10)
                assert np.array_equal(dmats[k], dmat[0])
    assert np.array_equal(mats[2], np.eye(10))   # a zero row is an exact identity
    empty, dempty = cvqnn._unit(np.zeros((0, cvqnn.PARAMS_PER_UNIT)), 10, True)
    assert empty.shape == (0, 10, 10) and dempty.shape == (0, cvqnn.PARAMS_PER_UNIT, 10, 10)


@pytest.mark.parametrize("slot", range(cvqnn.PARAMS_PER_UNIT))
def test_unitary_derivatives_match_richardson_differences(slot):
    # flat layout per unit: rot1, squeeze, rot2, Re disp, Im disp, kerr; a
    # depth-2 circuit, so each slot is checked in both chain positions
    bank = cvqnn.random_bank(1, 2, 10, np.random.default_rng(21), squeeze_scale=0.1,
                             disp_scale=0.3, kerr_scale=0.15)
    circ = bank.circuits[0]
    theta = bank.get_flat()
    exact = cvqnn.chain_derivatives([circ.params], 10)
    assert exact.shape == (theta.size, 10, 10)

    def central(p, h):
        step = np.zeros_like(theta)
        step[p] = h
        bank.set_flat(theta + step)
        plus = circ.unitary()
        bank.set_flat(theta - step)
        return (plus - circ.unitary()) / (2.0 * h)

    h = 1e-4
    for p in (slot, cvqnn.PARAMS_PER_UNIT + slot):
        richardson = (4.0 * central(p, h / 2) - central(p, h)) / 3.0
        assert np.max(np.abs(exact[p] - richardson)) <= 1e-9


@pytest.mark.parametrize("index", range(cvqnn.PARAMS_PER_UNIT))
def test_nonfinite_flat_parameter_rejected_at_unitary(index):
    # flat layout per unit: rot1, squeeze, rot2, Re disp, Im disp, kerr
    bank = cvqnn.random_bank(1, 1, 8, np.random.default_rng(3))
    flat = bank.get_flat()
    flat[index] = np.nan
    bank.set_flat(flat)
    with pytest.raises(ValueError):
        bank.circuits[0].unitary()


def test_depth_zero_forward_is_scaled_input():
    bank = bank_of([np.zeros((0, cvqnn.PARAMS_PER_UNIT))] * 2, cutoff=30)
    for tau in (-0.5, 0.0, 0.7):
        sigma = cvqnn.forward(bank, tau)
        assert np.max(np.abs(sigma - np.sqrt(2) * tau)) < 1e-6
    dsig = cvqnn.forward_dtau(bank, 0.2)
    assert np.max(np.abs(dsig - np.sqrt(2))) < 1e-6


def test_displacement_only_feature():
    bank = bank_of([unit_row(disp=0.3 + 0j)], cutoff=30)
    assert abs(cvqnn.forward(bank, 0.0)[0] - np.sqrt(2) * 0.3) < 1e-6


def test_second_zero_unit_is_noop():
    rng = np.random.default_rng(4)
    base = cvqnn.random_bank(1, 1, 14, rng)
    unit = base.circuits[0].params[0]
    one = bank_of([unit], cutoff=14)
    two = bank_of([[unit, unit_row()]], cutoff=14)
    assert np.allclose(cvqnn.forward(one, 0.4), cvqnn.forward(two, 0.4), atol=1e-12)


def test_norm_preserved():
    rng = np.random.default_rng(0)
    bank = cvqnn.random_bank(3, 2, 30, rng)
    state = cvqnn.encode_input(0.5, 30)
    for circ in bank.circuits:
        out = circ.unitary() @ state.amplitudes
        assert abs(np.linalg.norm(out) - np.linalg.norm(state.amplitudes)) < 1e-6


def _versions(bank):
    return tuple(c.version for c in bank.circuits)


def test_flat_round_trip_and_version():
    rng = np.random.default_rng(1)
    bank = cvqnn.random_bank(2, 2, 8, rng)
    flat = bank.get_flat()
    assert flat.shape == (2 * 2 * cvqnn.PARAMS_PER_UNIT,)
    v0 = _versions(bank)
    # an unchanged slice is not rewritten, so its circuit keeps its version
    bank.set_flat(flat)
    assert np.array_equal(bank.get_flat(), flat)
    assert _versions(bank) == v0
    flat = flat + 1.0
    bank.set_flat(flat)
    assert np.array_equal(bank.get_flat(), flat)
    assert all(b == a + 1 for a, b in zip(v0, _versions(bank)))
    # a wrong length raises before any circuit is written
    v1 = _versions(bank)
    for bad in (flat[:-1] + 1.0, np.append(flat, 0.0) + 1.0):
        with pytest.raises(ValueError):
            bank.set_flat(bad)
        assert np.array_equal(bank.get_flat(), flat)
        assert _versions(bank) == v1


def test_bank_revision_counts_writes_that_change_theta():
    bank = cvqnn.random_bank(3, 2, 8, np.random.default_rng(2))
    flat = bank.get_flat()
    assert bank.revision == 0
    bank.set_flat(flat)                    # equal values: nothing written
    assert bank.revision == 0
    flat[0] += 0.1
    flat[-1] += 0.1
    bank.set_flat(flat)                    # two circuits change, one revision
    assert bank.revision == 1
    assert _versions(bank) == (1, 0, 1)
    with pytest.raises(ValueError):
        bank.set_flat(flat[:-1])
    assert bank.revision == 1


def test_set_flat_is_seen_through_circuit_params_and_get_flat_copies():
    bank = cvqnn.random_bank(3, 2, 8, np.random.default_rng(7))
    flat = bank.get_flat()
    flat[2 * cvqnn.PARAMS_PER_UNIT + 1] += 0.25   # circuit 1, unit 0, squeeze
    bank.set_flat(flat)
    for l, circ in enumerate(bank.circuits):
        part = flat[2 * cvqnn.PARAMS_PER_UNIT * l:2 * cvqnn.PARAMS_PER_UNIT * (l + 1)]
        assert np.array_equal(circ.params, part.reshape(2, cvqnn.PARAMS_PER_UNIT))
    assert _versions(bank) == (0, 1, 0)
    # writing into the returned vector leaves theta as it is
    copy = bank.get_flat()
    copy[:] = 0.0
    assert np.array_equal(bank.get_flat(), flat)
    assert np.array_equal(bank.circuits[1].params.reshape(-1),
                          flat[2 * cvqnn.PARAMS_PER_UNIT:4 * cvqnn.PARAMS_PER_UNIT])


def test_forward_deterministic():
    rng = np.random.default_rng(2)
    bank = cvqnn.random_bank(2, 2, 10, rng)
    a = cvqnn.forward(bank, 0.3)
    b = cvqnn.forward(bank, 0.3)
    assert np.array_equal(a, b)


def test_random_bank_seed_reproducible():
    a = cvqnn.random_bank(3, 2, 10, np.random.default_rng(42)).get_flat()
    b = cvqnn.random_bank(3, 2, 10, np.random.default_rng(42)).get_flat()
    assert np.array_equal(a, b)


def test_forward_dtau_order_of_accuracy():
    rng = np.random.default_rng(5)
    bank = cvqnn.random_bank(2, 2, 12, rng)
    h = 1e-3
    d_h = cvqnn.forward_dtau(bank, 0.2, h)
    d_h2 = cvqnn.forward_dtau(bank, 0.2, h / 2)
    d_h4 = cvqnn.forward_dtau(bank, 0.2, h / 4)
    # error drops ~4x per halving for an O(h^2) scheme
    err_h2 = np.abs(d_h - d_h2)
    err_h4 = np.abs(d_h2 - d_h4)
    assert np.all(err_h4 <= err_h2 / 2.0 + 1e-12)


def test_parameter_continuity():
    rng = np.random.default_rng(6)
    bank = cvqnn.random_bank(1, 2, 12, rng)
    base = cvqnn.forward(bank, 0.3)[0]
    flat = bank.get_flat()
    flat[3] += 1e-6
    bank.set_flat(flat)
    assert abs(cvqnn.forward(bank, 0.3)[0] - base) < 1e-3


def test_unit_shape_validation():
    with pytest.raises(ValueError):
        cvqnn.QnnCircuit([unit_row(squeeze=np.nan)], 8)
    with pytest.raises(ValueError):
        cvqnn.QnnCircuit([unit_row(disp=complex(0, np.inf))], 8)
    with pytest.raises(ValueError):
        cvqnn.QnnCircuit(np.zeros((1, cvqnn.PARAMS_PER_UNIT - 1)), 8)


def test_bank_rejects_mixed_cutoff():
    c1 = cvqnn.QnnCircuit([unit_row()], 8)
    c2 = cvqnn.QnnCircuit([unit_row()], 10)
    with pytest.raises(ValueError):
        cvqnn.QnnBank(circuits=[c1, c2])
