"""Truncated single-mode Fock-basis linear algebra: states, gate matrices,
measurements.  Every operator is D x D on one qumode; the CV-QNN unit
(cvqnn) is a product of these gates.

Conventions (fixed once so every oracle value is unambiguous):
  x = (a + a^dag) / sqrt(2),  p = i (a^dag - a) / sqrt(2)
so a coherent state D(alpha)|0> has <x> = sqrt(2) Re(alpha).

Gates with a non-diagonal generator (displacement, squeeze) are built as
the matrix exponential of the truncated generator.  The truncated generator
is exactly anti-Hermitian, so the resulting matrix is exactly unitary; it
differs from the untruncated gate only in its action on high photon-number
sectors.  States are never renormalized after a gate so truncation loss
stays observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import expm

NORM_TOL = 1e-12


@dataclass
class FockVector:
    """Complex amplitudes over the photon-number basis |0>, ..., |D-1>."""

    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.cutoff,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({self.cutoff},)"
            )
        n2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {n2} exceeds 1 (not a truncated state)")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class FockOperator:
    """Dense D x D operator on one mode."""

    entries: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.cutoff, self.cutoff):
            raise ValueError(
                f"operator matrix has shape {self.entries.shape}, "
                f"expected ({self.cutoff}, {self.cutoff})"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Displacement:
    alpha: complex


@dataclass(frozen=True)
class Rotation:
    phi: float


@dataclass(frozen=True)
class Squeeze:
    r: float


@dataclass(frozen=True)
class Kerr:
    kappa: float


GateSpec = Union[Displacement, Rotation, Squeeze, Kerr]


def _check_cutoff(cutoff: int) -> None:
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 2:
        raise ValueError(f"cutoff must be an integer >= 2, got {cutoff!r}")


def ladder(cutoff: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation operator a (a[n-1, n] = sqrt(n)) and its adjoint."""
    _check_cutoff(cutoff)
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ns = np.arange(1, cutoff)
    a[ns - 1, ns] = np.sqrt(ns)
    return FockOperator(a, cutoff), FockOperator(a.conj().T, cutoff)


def quadrature_x(cutoff: int) -> FockOperator:
    a, adag = ladder(cutoff)
    return FockOperator((a.entries + adag.entries) / np.sqrt(2.0), cutoff)


def vacuum(cutoff: int) -> FockVector:
    _check_cutoff(cutoff)
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    return FockVector(amps, cutoff)


def _finite(*values) -> bool:
    for v in values:
        arr = np.asarray(v, dtype=complex)
        if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
            return False
    return True


def gate_matrix(spec: GateSpec, cutoff: int) -> FockOperator:
    """Gate matrix at the given cutoff.

    Diagonal gates (rotation, Kerr) are exact at any cutoff.  The rest are
    matrix exponentials of the truncated generator.
    """
    _check_cutoff(cutoff)
    n = np.arange(cutoff)
    if isinstance(spec, Rotation):
        if not _finite(spec.phi):
            raise ValueError("non-finite rotation angle")
        return FockOperator(np.diag(np.exp(1j * spec.phi * n)), cutoff)
    if isinstance(spec, Kerr):
        if not _finite(spec.kappa):
            raise ValueError("non-finite Kerr strength")
        return FockOperator(np.diag(np.exp(1j * spec.kappa * n**2)), cutoff)
    a, adag = ladder(cutoff)
    if isinstance(spec, Displacement):
        if not _finite(spec.alpha):
            raise ValueError("non-finite displacement amplitude")
        alpha = complex(spec.alpha)
        gen = alpha * adag.entries - np.conj(alpha) * a.entries
        return FockOperator(expm(gen), cutoff)
    if isinstance(spec, Squeeze):
        if not _finite(spec.r):
            raise ValueError("non-finite squeeze parameter")
        return FockOperator(expm(spec.r * squeeze_generator(cutoff)), cutoff)
    raise TypeError(f"unknown gate spec {spec!r}")


def squeeze_generator(cutoff: int) -> np.ndarray:
    """A = (a^2 - a^dag^2) / 2, so the squeeze gate is expm(r A)."""
    a, adag = ladder(cutoff)
    return 0.5 * (a.entries @ a.entries - adag.entries @ adag.entries)


def displacement_derivatives(alpha: complex, cutoff: int):
    """(D, dD / d Re alpha, dD / d Im alpha) for D = expm(alpha a^dag - conj(alpha) a).

    The two derivatives are Frechet derivatives of expm at the generator G in
    the directions a^dag - a and i (a^dag + a).  One expm of the block
    upper-triangular [[G, E_re, E_im], [0, G, 0], [0, 0, G]] holds D and
    both of them in its first block row (Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 30(4), 2009).
    """
    if not _finite(alpha):
        raise ValueError("non-finite displacement amplitude")
    a, adag = ladder(cutoff)
    alpha = complex(alpha)
    d = cutoff
    block = np.zeros((3 * d, 3 * d), dtype=complex)
    gen = alpha * adag.entries - np.conj(alpha) * a.entries
    for k in range(3):
        block[k * d:(k + 1) * d, k * d:(k + 1) * d] = gen
    block[:d, d:2 * d] = adag.entries - a.entries
    block[:d, 2 * d:] = 1j * (adag.entries + a.entries)
    top = expm(block)[:d]
    return top[:, :d], top[:, d:2 * d], top[:, 2 * d:]


def apply(op: FockOperator, state: FockVector) -> FockVector:
    """op @ state, without renormalization."""
    if op.dim != state.amplitudes.shape[0]:
        raise ValueError(
            f"operator dimension {op.dim} does not match state length "
            f"{state.amplitudes.shape[0]}"
        )
    return FockVector(op.entries @ state.amplitudes, state.cutoff)


def expectation(op: FockOperator, state: FockVector) -> float:
    """Re <state| op |state> for a Hermitian op."""
    if op.dim != state.amplitudes.shape[0]:
        raise ValueError("operator/state dimension mismatch")
    herm_err = np.max(np.abs(op.entries - op.entries.conj().T))
    if herm_err > 1e-10:
        raise ValueError(f"operator is not Hermitian (deviation {herm_err:.3g})")
    val = np.vdot(state.amplitudes, op.entries @ state.amplitudes)
    return float(val.real)
