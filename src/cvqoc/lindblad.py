"""Real vectorized generators for open-system dynamics, plus an RK4 oracle.

Density operators are mapped to real vectors: first the populations, then
Re/Im of each upper-triangle coherence in lexicographic order.  For a qubit
with basis (|g>, |e>) this is (rho_gg, rho_ee, Re rho_ge, Im rho_ge).
hbar = 1 throughout.

Each shipped model is built from its physics: a drift Hamiltonian, one
Hamiltonian per control and the jumps go through master_equation, which
vectorizes the Lindblad equation (lindblad_vectorize) into the drift G(0)
and one constant G_c per control, once per parameter set.  Every generator
is then G(u) = G(0) + sum_c u_c G_c; no generator entry is written by hand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TwoLevelParams:
    gamma_eg: float = 0.1   # absorption rate, jump |e><g|
    gamma_ge: float = 0.3   # emission rate, jump |g><e|
    omega_x: float = 1.0
    omega_z: float = 2.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.gamma_eg, self.gamma_ge, self.omega_x, self.omega_z])):
            raise ValueError("rates and frequencies must be finite")
        if self.gamma_eg < 0 or self.gamma_ge < 0:
            raise ValueError("damping rates must be non-negative")


@dataclass(frozen=True)
class ThreeLevelParams:
    delta: float = 0.1    # two-photon detuning
    delta1: float = 1.0   # one-photon detuning (no reference value; configurable)

    def __post_init__(self):
        if not (np.isfinite(self.delta) and np.isfinite(self.delta1)):
            raise ValueError("detunings must be finite")


@dataclass
class RealDensityVector:
    """Validated real parameterization of a d-level density operator."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        d = {4: 2, 9: 3}.get(self.x.shape[0])
        if d is None:
            raise ValueError("length must be 4 (qubit) or 9 (qutrit)")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("entries must be finite")
        pops = self.x[:d]
        if abs(float(pops.sum()) - 1.0) > 1e-9:
            raise ValueError(f"populations sum to {pops.sum()}, expected 1")
        if np.any(pops < -1e-9) or np.any(pops > 1 + 1e-9):
            raise ValueError("populations outside [0, 1]")


@dataclass
class SuperOperatorModel:
    """Real generator x_dot = G(u) x, affine in the control by construction:
    G(u) = drift + sum_c u[c] generator_du[c].

    drift, G(0), is one read-only (dim, dim) float array and generator_du,
    the G_c, one read-only (n_controls, dim, dim) array; dim and n_controls
    are read off their shapes.  The closed-form Jacobian in pmp builds G(u)
    from them, and propagate_rk4 builds its step tensor from the stack
    (G(0), G_1, ..., G_C): one dim x dim matrix for each of the
    (n_controls + 1)^4 monomials of a step's stage controls, 16 for the
    two-level model and 81 for the three-level one.  generator(u) gives G(u) at
    one control vector; the shipped models compute that same sum, through
    the named functions two_level_generator and three_level_generator.
    """

    generator: callable
    drift: np.ndarray
    generator_du: np.ndarray

    def __post_init__(self):
        self.drift = _read_only_real(self.drift, "drift")
        self.generator_du = du = _read_only_real(self.generator_du, "generator_du")
        if self.drift.shape not in ((4, 4), (9, 9)):
            raise ValueError("drift must be 4x4 or 9x9 (supported dims are 4 and 9)")
        if du.ndim != 3 or du.shape[1:] != self.drift.shape:
            raise ValueError(f"generator_du must hold one {self.dim}x{self.dim} "
                             "matrix per control")

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        return self.generator_du.shape[0]


def _read_only_real(a, name: str) -> np.ndarray:
    a = np.array(a)
    if a.dtype.kind not in "iuf" or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} entries must be real and finite")
    a = a.astype(float)
    a.flags.writeable = False
    return a


def real_basis(d: int) -> list:
    """Hermitian basis matrices matching the real coordinate ordering."""
    out = []
    for j in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[j, j] = 1.0
        out.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0j
            m[k, j] = -1.0j
            out.append(m)
    return out


def to_real(rho: np.ndarray) -> np.ndarray:
    """Hermitian matrix -> real coordinate vector."""
    d = rho.shape[0]
    coords = [rho[j, j].real for j in range(d)]
    for j in range(d):
        for k in range(j + 1, d):
            coords.append(rho[j, k].real)
            coords.append(rho[j, k].imag)
    return np.asarray(coords)


def from_real(x: np.ndarray) -> np.ndarray:
    """Real coordinate vector -> Hermitian matrix."""
    x = np.asarray(x, dtype=float)
    d = {4: 2, 9: 3}.get(x.shape[0])
    if d is None:
        raise ValueError("length must be 4 or 9")
    rho = np.zeros((d, d), dtype=complex)
    i = d
    for j in range(d):
        rho[j, j] = x[j]
    for j in range(d):
        for k in range(j + 1, d):
            rho[j, k] = x[i] + 1j * x[i + 1]
            rho[k, j] = x[i] - 1j * x[i + 1]
            i += 2
    return rho


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray, jumps: list) -> np.ndarray:
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for op, rate in jumps:
        opd = op.conj().T
        anti = opd @ op @ rho + rho @ opd @ op
        out += rate * (op @ rho @ opd - 0.5 * anti)
    return out


def lindblad_vectorize(hamiltonian: np.ndarray, jumps: list) -> np.ndarray:
    """Real generator of the master equation in the coordinate basis above.

    jumps is a list of (operator, rate) pairs with rate >= 0.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    d = hamiltonian.shape[0]
    if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian must be Hermitian")
    for _, rate in jumps:
        if rate < 0:
            raise ValueError("damping rates must be non-negative")
    basis = real_basis(d)
    cols = [to_real(lindblad_rhs(b, hamiltonian, jumps)) for b in basis]
    return np.column_stack(cols)


def master_equation(h0: np.ndarray, h_controls: list, jumps: list) -> tuple:
    """(G(0), [G_c]) of the master equation with H(u) = h0 + sum_c u_c
    h_controls[c]: read-only arrays of shape (dim, dim) and (n_controls,
    dim, dim).  The jumps enter G(0) alone, and each G_c is the commutator
    with h_c alone, so it is exact whatever h0 holds; vectorize(h0 + h_c) -
    vectorize(h0) would round with h0's scale.  Adding 0.0 makes every zero
    +0.0, so equal parameters give equal bits.
    """
    drift = lindblad_vectorize(h0, jumps) + 0.0
    du = np.array([lindblad_vectorize(h, []) for h in h_controls]) + 0.0
    return _read_only_real(drift, "drift"), _read_only_real(du, "generator_du")


# the control Hamiltonians: u sigma_ee on the qubit; u_p and u_s on the
# lambda system's 1-3 and 2-3 transitions
_SIGMA_EE = np.array([[0, 0], [0, 1]], dtype=complex)                       # |e><e|
_PUMP = 0.5 * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)    # (|1><3| + h.c.) / 2
_STOKES = 0.5 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)  # (|2><3| + h.c.) / 2


def two_level_generator(p: TwoLevelParams, u: float) -> np.ndarray:
    """Qubit superoperator for drift (omega_x, omega_z), phase-damping
    control u on |e><e|, and absorption/emission jumps."""
    if not math.isfinite(u):
        raise ValueError("control must be finite")
    drift, du = _two_level_parts(p)
    return drift + u * du[0]


def two_level_hamiltonian(p: TwoLevelParams, u: float) -> np.ndarray:
    """H = omega_x (sigma_eg + sigma_ge) + omega_z (sigma_ee - sigma_gg)
    + u sigma_ee, in the basis (|g>, |e>)."""
    return np.array([
        [-p.omega_z, p.omega_x],
        [p.omega_x, p.omega_z],
    ], dtype=complex) + u * _SIGMA_EE


def two_level_jumps(p: TwoLevelParams) -> list:
    sigma_eg = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|
    sigma_ge = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    return [(sigma_eg, p.gamma_eg), (sigma_ge, p.gamma_ge)]


@functools.cache
def _two_level_parts(p: TwoLevelParams) -> tuple:
    return master_equation(two_level_hamiltonian(p, 0.0), [_SIGMA_EE], two_level_jumps(p))


def two_level_model(p: TwoLevelParams) -> SuperOperatorModel:
    drift, du = _two_level_parts(p)
    return SuperOperatorModel(
        generator=lambda u: two_level_generator(p, float(np.atleast_1d(u)[0])),
        drift=drift, generator_du=du,
    )


def three_level_generator(p: ThreeLevelParams, u_p: float, u_s: float) -> np.ndarray:
    """Closed lambda-system generator of rho_dot = -i[H, rho], H from
    three_level_hamiltonian."""
    if not (math.isfinite(u_p) and math.isfinite(u_s)):
        raise ValueError("controls must be finite")
    drift, du = _three_level_parts(p)
    return drift + u_p * du[0] + u_s * du[1]


def three_level_hamiltonian(p: ThreeLevelParams, u_p: float, u_s: float) -> np.ndarray:
    """H couples 1-3 with u_p/2 and 2-3 with u_s/2; levels 2 and 3 sit at the
    detunings delta and delta1."""
    return np.diag([0.0, p.delta, p.delta1]).astype(complex) + u_p * _PUMP + u_s * _STOKES


@functools.cache
def _three_level_parts(p: ThreeLevelParams) -> tuple:
    return master_equation(three_level_hamiltonian(p, 0.0, 0.0), [_PUMP, _STOKES], [])


def three_level_model(p: ThreeLevelParams) -> SuperOperatorModel:
    """Closed lambda-system dynamics with controls (u_p, u_s)."""
    drift, du = _three_level_parts(p)
    return SuperOperatorModel(
        generator=lambda u: three_level_generator(p, *np.asarray(u, dtype=float).tolist()),
        drift=drift, generator_du=du,
    )


# Steps per batch of step matrices in propagate_rk4: large enough that the
# NumPy calls of a batch cost little per step, small enough that a batch
# stays under 2 MB whatever the step count.  A batch holds its stage
# controls, the (n_controls + 1)^4 monomials of each step and the step
# matrices that the scan turns into prefix products: about 1.5 MB at dim 9
# with 81 monomials.  A multiple of _CHUNK, so only a run's last batch can
# end in a ragged chunk.
_BLOCK_STEPS = 1024
# Steps per chunk of propagate_rk4's blocked scan: its Python loop turns once
# per chunk, not once per step.
_CHUNK = 16


def _rk4_step_tensor(model: SuperOperatorModel, h: float) -> np.ndarray:
    """The RK4 step of size h as one matrix per monomial of the stage
    controls, shape ((n_controls + 1)^4, dim * dim).

    With v = (1, u_1, ..., u_C) at a stage time, A(v) = sum_k v_k G_k for the
    stack G = (G(0), G_1, ..., G_C), and with v_s, v_m, v_e at a step's start,
    middle and end the step is x <- M x with

        P2 = A_m (I + h/2 A_s),  P3 = A_m (I + h/2 P2),  P4 = A_e (I + h P3),
        M  = I + h/6 (A_s + 2 P2 + 2 P3 + P4),

    the classic RK4 step written as a matrix.  M - I is a sum over the
    monomials v_e[a] v_m[b] v_m[c] v_s[d]: row ((a * K + b) * K + c) * K + d
    (K = n_controls + 1) of the tensor is its coefficient.  Since v[0] = 1, a
    term that does not depend on a stage sits at index 0 there, so the
    formula above runs unchanged on the stack, each identity at the
    all-zero monomial.  The identity of M itself is left out; propagate_rk4
    adds it after the product with the monomials, which rounds less.
    """
    gens = np.concatenate([model.drift[None], model.generator_du])
    k, dim = gens.shape[0], model.dim
    eye = np.eye(dim)
    x = (0.5 * h) * gens
    x[0] += eye
    p2 = gens[:, None] @ x[None]
    x = (0.5 * h) * p2
    x[0, 0] += eye
    p3 = gens[:, None, None] @ x[None]
    x = h * p3
    x[0, 0, 0] += eye
    step = gens[:, None, None, None] @ x[None]
    step[0] += 2.0 * p3
    step[0, 0] += 2.0 * p2
    step[0, 0, 0] += gens
    step *= h / 6.0
    return step.reshape(k ** 4, dim * dim)


# a blow-up is named by the FloatingPointError below, not left as warnings
@np.errstate(over="ignore", invalid="ignore")
def propagate_rk4(model: SuperOperatorModel, x0: np.ndarray, u_of_t: callable,
                  t0: float, tf: float, steps: int):
    """Fixed-step RK4 on x_dot = L(u(t)) x; returns (times, states) including
    both endpoints.

    The control is tabulated up front: u_of_t is called once, on the array of
    the 2 * steps + 1 stage times t0 + k h / 2, and returns one control
    vector per time, shape (2 * steps + 1, n_controls); a constant control of
    shape (n_controls,) broadcasts, and any other shape raises ValueError.
    Non-finite times, a non-finite initial state or a non-finite control
    raise ValueError too.  A state that is not finite (a control or step too
    large for RK4's stable range) raises FloatingPointError.

    The model is affine in u, so every step matrix M is a polynomial in the
    stage controls: M - I is the row of (n_controls + 1)^4 monomials of the
    step's controls (16 for one control, 81 for two) times the step tensor
    of _rk4_step_tensor, built once per call.  A batch of _BLOCK_STEPS steps
    forms its monomials in arrays of its own and gets all its step matrices
    from one matrix product, then adds the identity on their diagonals, so
    memory does not grow with the step count.  The states are a blocked scan
    over the step matrices (Blelloch, CMU-CS-90-190, 1990): a batch's steps
    are grouped in chunks of _CHUNK, padded with identities (which is
    exact), the prefix products M_j ... M_1 of every chunk come from
    _CHUNK - 1 stacked matrix products, a loop of one mat-vec per chunk
    carries the state from chunk to chunk, and one stacked mat-vec of the
    prefix products with the chunk start states gives every state.  So
    Python turns once per chunk, not once per step.
    """
    if steps < 10:
        raise ValueError("use at least 10 steps")
    if not (np.isfinite(t0) and np.isfinite(tf)):
        raise ValueError(f"t0 and tf must be finite, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise ValueError("tf must exceed t0")
    x = np.asarray(x0, dtype=float)
    if x.shape[0] != model.dim:
        raise ValueError("initial state has wrong dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    dim, n_controls = model.dim, model.n_controls
    h = (tf - t0) / steps
    stages = np.linspace(t0, tf, 2 * steps + 1)
    us = np.asarray(u_of_t(stages), dtype=float)
    if us.shape not in ((stages.size, n_controls), (n_controls,)):
        raise ValueError(f"control has shape {us.shape}, expected ({stages.size}, {n_controls}) "
                         f"(one row per stage time) or ({n_controls},) (constant)")
    us = np.broadcast_to(us, (stages.size, n_controls))
    if not np.all(np.isfinite(us)):
        raise ValueError("control must be finite")
    k = n_controls + 1
    tensor = _rk4_step_tensor(model, h)
    eye = np.eye(dim)
    xs = np.empty((steps + 1, dim))
    xs[0] = x
    for first in range(0, steps, _BLOCK_STEPS):
        last = min(first + _BLOCK_STEPS, steps)
        n = last - first
        n_chunks = -(-n // _CHUNK)
        # the stage vectors v = (1, u) and the monomials are held one column
        # per stage or step, so the elementwise products run along the steps
        v = np.ones((k, 2 * n + 1))
        v[1:] = us[2 * first:2 * last + 1].T
        v_s, v_m, v_e = v[:, :-1:2], v[:, 1::2], v[:, 2::2]
        mon = (v_e[:, None] * v_m)[:, :, None, None] * (v_m[:, None] * v_s)
        prefix = np.empty((n_chunks * _CHUNK, dim, dim))
        step = prefix[:n].reshape(n, dim * dim)
        np.matmul(mon.reshape(k ** 4, n).T, tensor, out=step)
        step[:, ::dim + 1] += 1.0
        prefix[n:] = eye
        prefix = prefix.reshape(n_chunks, _CHUNK, dim, dim)
        # a product written over its own factor would make NumPy copy it first
        products = np.empty((n_chunks, dim, dim))
        for j in range(1, _CHUNK):
            np.matmul(prefix[:, j], prefix[:, j - 1], out=products)
            prefix[:, j] = products
        starts = np.empty((n_chunks, dim))
        for c in range(n_chunks):
            starts[c] = x
            x = prefix[c, -1].dot(x)
        states = (prefix.reshape(n_chunks, _CHUNK * dim, dim) @ starts[:, :, None])
        states = states.reshape(-1, dim)[:n]
        if not np.all(np.isfinite(states)):
            bad = first + 1 + int(np.argmin(np.isfinite(states).all(axis=1)))
            raise FloatingPointError(
                f"RK4 state not finite at t = {stages[2 * bad]:.6g} (step {bad} of {steps}, "
                f"h = {h:.3g}): the control or the step is too large for RK4")
        xs[first + 1:last + 1] = states
    return stages[::2].copy(), xs
