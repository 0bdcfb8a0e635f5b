"""Reference computations the tests check the solver's fast paths against.

The feature bank's sigma(tau) by state-vector simulation: encode tau as a
displacement of the vacuum, apply each circuit's composed unitary and take
<x> on the output state.  problems.FeatureCache computes the same features
as quadratic forms in the input's phases; this is its independent check.
"""

import numpy as np

from cvqoc import cvqnn, fock


def forward(bank: cvqnn.QnnBank, tau: float) -> np.ndarray:
    """Feature vector sigma(tau): per circuit, <x> on the output state."""
    cutoff = bank.cutoff
    state = cvqnn.encode_input(tau, cutoff)
    x_op = fock.quadrature_x(cutoff)
    out = np.empty(bank.n_features)
    for l, circ in enumerate(bank.circuits):
        psi = fock.FockVector(circ.unitary() @ state.amplitudes, cutoff)
        out[l] = fock.expectation(x_op, psi)
    return out


def forward_dtau(bank: cvqnn.QnnBank, tau: float, h: float = 1e-4) -> np.ndarray:
    """Central finite difference d sigma / d tau, error O(h^2)."""
    if h <= 0:
        raise ValueError("step must be positive")
    return (forward(bank, tau + h) - forward(bank, tau - h)) / (2.0 * h)
