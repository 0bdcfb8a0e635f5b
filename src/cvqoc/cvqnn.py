"""Layered single-mode CV-QNN circuits whose <x> expectations serve as features.

A unit is the layer of Killoran et al. (PRR 1, 033063, 2019) on one qumode:
K(kappa) D(alpha) R(phi2) S(r) R(phi1), applied right to left.  Rotations
and the Kerr gate are diagonal in the Fock basis, so they act as phase
vectors; squeeze and displacement come from fock's spectral kernel.  A bank
of L independent circuits maps a scalar input tau (encoded as a displacement
of the vacuum) to the feature vector sigma(tau) in R^L via <x> measurements.

The bank holds every gate parameter once, in one flat array theta, of which
each circuit's params is a (depth, 6) view; QnnBank.set_flat is its only
writer.  One kernel, _unit, builds a stack of units and, when asked, their
exact slot derivatives in one array pass; chain_derivatives chains every
circuit's units at once by the product rule, padded with identity units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fock
from .fock import Displacement, FockVector

# slot order of a unit's parameter row: rot1, squeeze, rot2, Re disp, Im disp, kerr
PARAMS_PER_UNIT = 6


@dataclass
class QnnCircuit:
    """Ordered stack of single-mode units at one cutoff.

    params holds one row per unit, in PARAMS_PER_UNIT slot order.  Inside a
    bank it is a view of the bank's theta, written only by QnnBank.set_flat,
    which bumps version; the composed unitary is cached per version.
    """

    params: np.ndarray
    cutoff: int
    version: int = 0
    _unitary_cache: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.params = p = np.asarray(self.params, dtype=float)
        if p.ndim != 2 or p.shape[1] != PARAMS_PER_UNIT or not np.all(np.isfinite(p)):
            raise ValueError(f"unit parameters must be a finite (depth, 6) array, got {p.shape}")

    @property
    def depth(self) -> int:
        return self.params.shape[0]

    def unitary(self) -> np.ndarray:
        """Composed circuit matrix (excluding the input encoding)."""
        if self._unitary_cache is not None and self._unitary_cache[0] == self.version:
            return self._unitary_cache[1]
        mat = np.eye(self.cutoff, dtype=complex)
        for unit in _unit(self.params, self.cutoff, False)[0]:
            mat = unit @ mat
        self._unitary_cache = (self.version, mat)
        return mat


def chain_derivatives(params: list, cutoff: int) -> np.ndarray:
    """d U_l / d theta_p, shape (P, D, D), for circuits with the given (depth_l, 6)
    parameters, P their total size, in circuit then row-major order: a
    parameter of unit m gives (U_depth ... U_{m+1}) dU_m (U_{m-1} ... U_1).
    Padded to the deepest with zero rows, exact identity units, all circuits
    take one kernel call and one pass of partial products."""
    depths = np.array([len(p) for p in params])
    real = np.arange(depths.max()) < depths[:, None]                # (L, deep)
    rows = np.zeros(real.shape + (PARAMS_PER_UNIT,))
    rows[real] = np.concatenate(params)
    mats, dmats = (stack.reshape(real.shape + stack.shape[1:])      # (L, deep, ...)
                   for stack in _unit(rows.reshape(-1, PARAMS_PER_UNIT), cutoff, True))
    before = [np.broadcast_to(np.eye(cutoff, dtype=complex), (len(params), cutoff, cutoff))]
    after = before[:]
    for m in range(1, real.shape[1]):
        before.append(mats[:, m - 1] @ before[-1])                  # U_m ... U_1
        after.insert(0, after[0] @ mats[:, -m])                     # U_deep ... U_{deep-m+1}
    chained = np.stack(after, 1)[:, :, None] @ dmats @ np.stack(before, 1)[:, :, None]
    return chained[real].reshape(-1, cutoff, cutoff)


def _unit(rows: np.ndarray, cutoff: int, derivatives: bool):
    """(U, dU), of shapes (k, D, D) and (k, 6, D, D) in slot order, for U =
    K D R2 S R1 with each row of a (k, 6) stack; dU is None unless derivatives is set.

    The diagonal gates act as phase vectors, and each slot's derivative has a
    closed form: rotations and Kerr differentiate their phases (i n and
    i n^2), the squeeze is exp(r A) so dS/dr = A S, and the displacement's two
    derivatives are Frechet derivatives of its exponential
    (fock.displacement_derivatives).  fock.expm broadcasts over the rows."""
    # QnnBank.set_flat writes without validation; a non-finite slot stops here
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite unit parameter")
    rot1, squeeze, rot2, re, im, kappa = rows.T
    b = fock.basis(cutoff)
    n = np.arange(cutoff)
    r1 = np.exp((1j * rot1)[:, None] * n)[:, None, :]
    r2 = np.exp((1j * rot2)[:, None] * n)[:, :, None]
    kerr = np.exp((1j * kappa)[:, None] * n**2)[:, :, None]
    sq, *d_sq = fock.expm(b.squeeze, squeeze, [b.squeeze.gen] if derivatives else [])
    if derivatives:
        alpha = np.ascontiguousarray(rows[:, 3:5]).view(complex)[:, 0]   # signed zeros kept
        disp, d_re, d_im = fock.displacement_derivatives(alpha, cutoff)
    else:
        disp = fock.expm(b.displace, np.hypot(re, im), phi=np.arctan2(im, re))[0]
    inner = r2 * (sq * r1)                       # R2 S R1
    mat = kerr * (disp @ inner)
    if not derivatives:
        return mat, None
    d_sq = kerr * (disp @ (r2 * (d_sq[0] * r1)))
    d_rot2 = kerr * (disp @ (1j * n[:, None] * inner))
    return mat, np.stack([mat * (1j * n), d_sq, d_rot2, kerr * (d_re @ inner),
                          kerr * (d_im @ inner), 1j * (n**2)[:, None] * mat], axis=1)


def encode_input(tau: float, cutoff: int) -> FockVector:
    """Displace the vacuum by the (real) input sample."""
    if not np.isfinite(tau):
        raise ValueError(f"non-finite input {tau!r}")
    gate = fock.gate_matrix(Displacement(complex(tau)), cutoff)
    return fock.apply(gate, fock.vacuum(cutoff))


@dataclass
class QnnBank:
    """L independent single-mode circuits producing the feature vector.

    The bank owns theta, every circuit's parameters in one flat array, and
    rebinds each circuit's params to a view of its slice; set_flat is the
    one writer of theta.  revision counts the writes that changed theta, so
    one compare tells whether any circuit changed."""

    circuits: list

    def __post_init__(self):
        if len(self.circuits) < 1:
            raise ValueError("bank needs at least one circuit")
        cut = self.circuits[0].cutoff
        fock._check_cutoff(cut)   # circuits are built lazily; fail here, not in training
        for c in self.circuits:
            if c.cutoff != cut:
                raise ValueError("all circuits must share one cutoff")
        self._theta = np.concatenate([c.params.reshape(-1) for c in self.circuits])
        self._bounds = np.cumsum([c.params.size for c in self.circuits])[:-1]
        for c, part in zip(self.circuits, np.split(self._theta, self._bounds)):
            c.params = part.reshape(c.params.shape)
        self.revision = 0

    @property
    def n_features(self) -> int:
        return len(self.circuits)

    @property
    def cutoff(self) -> int:
        return self.circuits[0].cutoff

    def get_flat(self) -> np.ndarray:
        return self._theta.copy()

    def set_flat(self, values: np.ndarray) -> None:
        """Write theta.  Equal values return after one compare; otherwise
        each circuit whose slice differs is written in place and gets a new
        version, and the bank a new revision.  A wrong length writes nothing."""
        values = np.asarray(values, dtype=float)
        if values.shape != self._theta.shape:
            raise ValueError("flat parameter vector has wrong length")
        if np.array_equal(values, self._theta):
            return
        self.revision += 1
        for c, part in zip(self.circuits, np.split(values, self._bounds)):
            if not np.array_equal(part, c.params.ravel()):
                c.params.flat = part
                c.version += 1


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
                squeeze_scale: float = 0.05, disp_scale: float = 0.05,
                kerr_scale: float = 0.05) -> QnnBank:
    """Bank with passive angles uniform in [0, 2 pi) and active parameters
    drawn normal with the given standard deviations (QnnCircuit rejects what
    a non-finite one draws).  depth must be at least 1: a circuit without
    units has no parameters, and all its features are the same sqrt(2) tau."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    theta = np.zeros((n_features, depth, PARAMS_PER_UNIT))   # Im disp stays 0
    for row in theta.reshape(-1, PARAMS_PER_UNIT):
        row[[0, 1, 2, 3, 5]] = (rng.uniform(0.0, 2 * np.pi), rng.normal(0.0, squeeze_scale),
                                rng.uniform(0.0, 2 * np.pi), rng.normal(0.0, disp_scale),
                                rng.normal(0.0, kerr_scale))
    return QnnBank(circuits=[QnnCircuit(params, cutoff) for params in theta])
