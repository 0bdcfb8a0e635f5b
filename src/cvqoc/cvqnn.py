"""Layered single-mode CV-QNN circuits whose <x> expectations serve as features.

A unit is the layer of Killoran et al. (PRR 1, 033063, 2019) on one qumode:
K(kappa) D(alpha) R(phi2) S(r) R(phi1), applied right to left.  Rotations
and the Kerr gate are diagonal in the Fock basis, so they act as phase
vectors; squeeze and displacement come from fock's spectral kernel.  A bank
of L independent circuits maps a scalar input tau (encoded as a displacement
of the vacuum) to the feature vector sigma(tau) in R^L via <x> measurements.

QnnCircuit.unitary_derivatives gives the exact derivative of the circuit
matrix in each gate parameter, for training the circuits by gradient: every
slot of a unit has a closed form (see _unit_derivatives), and units chain
by the product rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .fock import Displacement, FockVector, Squeeze

# flat layout per unit: rot1, squeeze, rot2, Re disp, Im disp, kerr
PARAMS_PER_UNIT = 6


@dataclass
class QnnUnitParams:
    """Gate parameters of one single-mode unit."""

    rot1: float      # first rotation angle
    squeeze: float   # real squeeze parameter
    rot2: float      # second rotation angle
    disp: complex    # displacement amplitude
    kerr: float      # Kerr strength

    def __post_init__(self):
        self.rot1 = float(self.rot1)
        self.squeeze = float(self.squeeze)
        self.rot2 = float(self.rot2)
        self.disp = complex(self.disp)
        self.kerr = float(self.kerr)
        if not np.all(np.isfinite([self.rot1, self.squeeze, self.rot2,
                                   self.disp.real, self.disp.imag, self.kerr])):
            raise ValueError("unit parameters must be finite")


def zero_unit() -> QnnUnitParams:
    return QnnUnitParams(rot1=0.0, squeeze=0.0, rot2=0.0, disp=0j, kerr=0.0)


@dataclass
class QnnCircuit:
    """Ordered stack of single-mode units at one cutoff.

    The composed unitary is cached and invalidated through a version counter
    that any parameter write must bump (see set_flat).
    """

    units: list
    cutoff: int
    version: int = 0
    _unitary_cache: tuple = field(default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.units)

    def get_flat(self) -> np.ndarray:
        return np.array([[u.rot1, u.squeeze, u.rot2, u.disp.real, u.disp.imag, u.kerr]
                         for u in self.units], dtype=float).reshape(-1)

    def set_flat(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (PARAMS_PER_UNIT * self.depth,):
            raise ValueError("flat parameter vector has wrong length")
        for u, row in zip(self.units, values.reshape(-1, PARAMS_PER_UNIT)):
            u.rot1, u.squeeze, u.rot2, re, im, u.kerr = row
            u.disp = complex(re, im)
        self.version += 1

    def unitary(self) -> np.ndarray:
        """Composed circuit matrix (excluding the input encoding)."""
        if self._unitary_cache is not None and self._unitary_cache[0] == self.version:
            return self._unitary_cache[1]
        mat = np.eye(self.cutoff, dtype=complex)
        for u in self.units:
            mat = _unit_matrix(u, self.cutoff) @ mat
        self._unitary_cache = (self.version, mat)
        return mat

    def unitary_derivatives(self) -> np.ndarray:
        """d U / d theta_p for every flat parameter p, shape (6 depth, D, D).

        Units chain as U = U_depth ... U_1, so a parameter of unit m gives
        (U_depth ... U_{m+1}) dU_m (U_{m-1} ... U_1)."""
        mats, dmats = zip(*(_unit_derivatives(u, self.cutoff) for u in self.units))
        eye = np.eye(self.cutoff, dtype=complex)

        def product(units):   # units in the order they act, so the last is leftmost
            return functools.reduce(np.matmul, units[::-1], eye)

        return np.concatenate([product(mats[m + 1:]) @ dmat @ product(mats[:m])
                               for m, dmat in enumerate(dmats)])


def _unit_matrix(u: QnnUnitParams, cutoff: int) -> np.ndarray:
    """K D R2 S R1, with the diagonal gates applied as phase vectors."""
    # set_flat writes without validation; squeeze and displacement are
    # checked by fock.gate_matrix
    if not np.all(np.isfinite([u.rot1, u.rot2, u.kerr])):
        raise ValueError("non-finite rotation angle or Kerr strength")
    n = np.arange(cutoff)
    mat = fock.gate_matrix(Squeeze(u.squeeze), cutoff).entries * np.exp(1j * u.rot1 * n)
    mat = np.exp(1j * u.rot2 * n)[:, None] * mat
    mat = fock.gate_matrix(Displacement(u.disp), cutoff).entries @ mat
    return np.exp(1j * u.kerr * n**2)[:, None] * mat


def _unit_derivatives(u: QnnUnitParams, cutoff: int):
    """(U, dU) for U = K D R2 S R1, dU of shape (6, D, D) in flat slot order.

    Every slot has a closed form: rotations and Kerr differentiate their
    phase vectors (i n and i n^2), the squeeze is exp(r A) so dS/dr = A S,
    and the displacement's two derivatives are Frechet derivatives of its
    exponential (fock.displacement_derivatives)."""
    if not np.all(np.isfinite([u.rot1, u.squeeze, u.rot2, u.kerr])):
        raise ValueError("non-finite rotation angle, squeeze or Kerr strength")
    n = np.arange(cutoff)
    r1 = np.exp(1j * u.rot1 * n)
    r2 = np.exp(1j * u.rot2 * n)[:, None]
    kerr = np.exp(1j * u.kerr * n**2)[:, None]
    squeeze = fock.basis(cutoff).squeeze
    sq, d_sq = fock.expm(squeeze, u.squeeze, [squeeze.gen])   # S, A S
    disp, d_re, d_im = fock.displacement_derivatives(u.disp, cutoff)
    inner = r2 * (sq * r1)                       # R2 S R1
    mat = kerr * (disp @ inner)
    d_sq = kerr * (disp @ (r2 * (d_sq * r1)))
    d_rot2 = kerr * (disp @ (1j * n[:, None] * inner))
    return mat, np.array([mat * (1j * n), d_sq, d_rot2, kerr * (d_re @ inner),
                          kerr * (d_im @ inner), 1j * (n**2)[:, None] * mat])


def encode_input(tau: float, cutoff: int) -> FockVector:
    """Displace the vacuum by the (real) input sample."""
    if not np.isfinite(tau):
        raise ValueError(f"non-finite input {tau!r}")
    gate = fock.gate_matrix(Displacement(complex(tau)), cutoff)
    return fock.apply(gate, fock.vacuum(cutoff))


class InputEncoder:
    """encode_input for a batch of real inputs, without a gate per input.

    For real tau, fock's cached eigenbasis i G = V diag(w) V^dag of the
    generator G = a^dag - a gives D(tau)|0> = V (exp(-i tau w) * conj(V[0])):
    one table of phases and one matrix product per batch.  d/dtau D(tau)|0>
    = G D(tau)|0> exactly in the truncated basis; `generator` holds G.
    """

    def __init__(self, cutoff: int):
        self.generator, self._w, self._v = fock.basis(cutoff).displace
        self._v0 = self._v[0].conj()   # V^dag |0>

    def __call__(self, taus) -> np.ndarray:
        """Amplitudes of D(tau)|0>, one row per entry of the 1-D array taus."""
        taus = np.asarray(taus, dtype=float)
        if not np.all(np.isfinite(taus)):
            raise ValueError("non-finite input")
        return (np.exp(-1j * np.multiply.outer(taus, self._w)) * self._v0) @ self._v.T


@dataclass
class QnnBank:
    """L independent single-mode circuits producing the feature vector."""

    circuits: list

    def __post_init__(self):
        if len(self.circuits) < 1:
            raise ValueError("bank needs at least one circuit")
        cut = self.circuits[0].cutoff
        fock._check_cutoff(cut)   # circuits are built lazily; fail here, not in training
        for c in self.circuits:
            if c.cutoff != cut:
                raise ValueError("all circuits must share one cutoff")

    @property
    def n_features(self) -> int:
        return len(self.circuits)

    @property
    def cutoff(self) -> int:
        return self.circuits[0].cutoff

    @property
    def version(self) -> tuple:
        return tuple(c.version for c in self.circuits)

    def get_flat(self) -> np.ndarray:
        return np.concatenate([c.get_flat() for c in self.circuits])

    def set_flat(self, values: np.ndarray) -> None:
        """Write the circuits whose slice differs from their parameters, so
        only those get a new version; a wrong length writes nothing."""
        values = np.asarray(values, dtype=float)
        sizes = [PARAMS_PER_UNIT * c.depth for c in self.circuits]
        if values.shape != (sum(sizes),):
            raise ValueError("flat parameter vector has wrong length")
        for c, part in zip(self.circuits, np.split(values, np.cumsum(sizes)[:-1])):
            if not np.array_equal(part, c.get_flat()):
                c.set_flat(part)


def forward(bank: QnnBank, tau: float) -> np.ndarray:
    """Feature vector sigma(tau): per circuit, <x> on the output state."""
    cutoff = bank.cutoff
    state = encode_input(tau, cutoff)
    x_op = fock.quadrature_x(cutoff)
    out = np.empty(bank.n_features)
    for l, circ in enumerate(bank.circuits):
        psi = FockVector(circ.unitary() @ state.amplitudes, cutoff)
        out[l] = fock.expectation(x_op, psi)
    return out


def forward_dtau(bank: QnnBank, tau: float, h: float = 1e-4) -> np.ndarray:
    """Central finite difference d sigma / d tau, error O(h^2)."""
    if h <= 0:
        raise ValueError("step must be positive")
    return (forward(bank, tau + h) - forward(bank, tau - h)) / (2.0 * h)


def random_bank(n_features: int, depth: int, cutoff: int, rng: np.random.Generator,
                passive_high: float = 2 * np.pi, squeeze_scale: float = 0.05,
                disp_scale: float = 0.05, kerr_scale: float = 0.05) -> QnnBank:
    """Bank with passive angles uniform in [0, passive_high) and active
    parameters drawn normal with the given standard deviations.  depth must
    be at least 1: a circuit without units has no parameters, and all its
    features are the same sqrt(2) tau."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    circuits = []
    for _ in range(n_features):
        units = [QnnUnitParams(rot1=rng.uniform(0.0, passive_high),
                               squeeze=rng.normal(0.0, squeeze_scale),
                               rot2=rng.uniform(0.0, passive_high),
                               disp=rng.normal(0.0, disp_scale),
                               kerr=rng.normal(0.0, kerr_scale))
                 for _ in range(depth)]
        circuits.append(QnnCircuit(units=units, cutoff=cutoff))
    return QnnBank(circuits=circuits)
