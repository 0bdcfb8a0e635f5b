"""Truncated single-mode Fock-basis linear algebra: states, gate matrices,
measurements.  Every operator is D x D on one qumode; the CV-QNN unit
(cvqnn) is a product of these gates.

Conventions (fixed once so every oracle value is unambiguous):
  x = (a + a^dag) / sqrt(2),  p = i (a^dag - a) / sqrt(2)
so a coherent state D(alpha)|0> has <x> = sqrt(2) Re(alpha).

The non-diagonal gates are S(r) = exp(r A) and D(alpha) = R(phi) exp(|alpha| G)
R(-phi), exact in the truncated basis for alpha = |alpha| e^{i phi} and
R(phi) = diag(e^{i phi n}); G = a^dag - a and A = (a^2 - a^dag^2) / 2 are
real antisymmetric.  `basis` diagonalises both once per cutoff, and `expm`
builds every gate, or a stack of them, and its Frechet derivatives from those
eigenbases; a zero parameter gives an exact identity.  Gates are unitary;
truncation alters only high photon-number sectors.  States are never
renormalized after a gate so truncation loss stays observable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

NORM_TOL = 1e-12


@dataclass
class FockVector:
    """Complex amplitudes over the photon-number basis |0>, ..., |D-1>."""

    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.cutoff,):
            raise ValueError(f"amplitude vector has shape {self.amplitudes.shape}, "
                             f"expected ({self.cutoff},)")
        n2 = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"squared norm {n2} exceeds 1 (not a truncated state)")


@dataclass
class FockOperator:
    """Dense D x D operator on one mode."""

    entries: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.cutoff, self.cutoff):
            raise ValueError(f"operator matrix has shape {self.entries.shape}, "
                             f"expected ({self.cutoff}, {self.cutoff})")


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


class Spectrum(NamedTuple):   # real antisymmetric X, i X = vecs diag(vals) vecs^dag
    gen: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray


class FockBasis(NamedTuple):
    a: np.ndarray          # annihilation operator, a[n-1, n] = sqrt(n)
    displace: Spectrum     # G = a^dag - a
    squeeze: Spectrum      # A = (a^2 - a^dag^2) / 2


@functools.cache
def basis(cutoff: int) -> FockBasis:
    """Ladder operator and generator eigenbases at one cutoff, built once.
    Every array is read-only, since all callers at this cutoff share it."""
    _check_cutoff(cutoff)
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    spectra = []
    for gen in (a.T - a, 0.5 * (a @ a - a.T @ a.T)):
        vals, vecs = np.linalg.eigh(1j * gen)
        # one Newton-Schulz step: vecs unitary to working precision
        vecs = vecs + 0.5 * vecs @ (np.eye(cutoff) - vecs.conj().T @ vecs)
        spectra.append(Spectrum(gen, vals, vecs))
    for arr in (a, *spectra[0], *spectra[1]):
        arr.flags.writeable = False
    return FockBasis(a, *spectra)


def expm(spec: Spectrum, t, directions=(), phi=0.0) -> list:
    """R(phi) M R(-phi) for M = exp(t X), then for M = the Frechet derivative
    of exp at t X along each real E in directions.  With i X = V diag(w) V^dag
    and l = t w, exp(t X) = V diag(e^{-i l}) V^dag and the derivative is
    V (F o V^dag E V) V^dag, F_jk = e^{-i (l_j + l_k) / 2} sinc((l_j - l_k) / 2)
    (Daleckii-Krein; Higham, Functions of Matrices, SIAM 2008, Thm 3.11).  Both
    are real and accumulated onto I and E, so t = 0 gives them exactly.  t and
    phi broadcast: shape S gives S + (D, D), each entry as its scalar call."""
    lam = np.asarray(t)[..., None] * spec.vals
    v, vh = spec.vecs, spec.vecs.conj().T
    out = [np.eye(spec.vals.size) + ((v * np.expm1(-1j * lam)[..., None, :]) @ vh).real]
    if len(directions):
        f = (np.exp(-0.5j * (lam[..., :, None] + lam[..., None, :]))
             * np.sinc((lam[..., :, None] - lam[..., None, :]) / (2.0 * np.pi)) - 1.0)
        out += [e + (v @ (f * (vh @ e @ v)) @ vh).real for e in directions]
    if np.any(phi):   # R(phi) M R(-phi) multiplies entry (j, k) by e^{i phi (j - k)}
        n = np.arange(spec.vals.size)
        rot = np.exp(np.multiply.outer(1j * phi, np.subtract.outer(n, n)))
        out = [rot * m for m in out]
    return out


def ladder(cutoff: int) -> tuple[FockOperator, FockOperator]:
    """Annihilation operator a (a[n-1, n] = sqrt(n)) and its adjoint."""
    a = basis(cutoff).a
    return FockOperator(a, cutoff), FockOperator(a.T, cutoff)


def quadrature_x(cutoff: int) -> FockOperator:
    a, adag = ladder(cutoff)
    return FockOperator((a.entries + adag.entries) / np.sqrt(2.0), cutoff)


def vacuum(cutoff: int) -> FockVector:
    _check_cutoff(cutoff)
    return FockVector(np.eye(1, cutoff)[0], cutoff)


def gate_matrix(spec: GateSpec, cutoff: int) -> FockOperator:
    """Gate matrix at the given cutoff.

    Diagonal gates (rotation, Kerr) are exact at any cutoff.  The rest are
    exponentials of the truncated generator (see `expm`).
    """
    b = basis(cutoff)
    if not isinstance(spec, (Displacement, Rotation, Squeeze, Kerr)):
        raise TypeError(f"unknown gate spec {spec!r}")
    (value,) = vars(spec).values()
    if not np.isfinite(np.asarray(value, dtype=complex)).all():
        raise ValueError(f"non-finite {type(spec).__name__.lower()} parameter")
    n = np.arange(cutoff)
    if isinstance(spec, Rotation):
        return FockOperator(np.diag(np.exp(1j * value * n)), cutoff)
    if isinstance(spec, Kerr):
        return FockOperator(np.diag(np.exp(1j * value * n**2)), cutoff)
    if isinstance(spec, Squeeze):
        return FockOperator(expm(b.squeeze, value)[0], cutoff)
    return FockOperator(expm(b.displace, abs(value), phi=np.angle(value))[0], cutoff)


def displacement_derivatives(alpha, cutoff: int):
    """(D, dD / d Re alpha, dD / d Im alpha) for D = exp(alpha a^dag - conj(alpha) a),
    each of shape S + (D, D) for alpha of shape S.

    D = R(phi) exp(|alpha| G) R(-phi), and the directions a^dag - a and
    i (a^dag + a) counter-rotate to cos(phi) G - i sin(phi) Y and
    sin(phi) G + i cos(phi) Y, Y = a^dag + a: both mix the derivatives along
    G and Y."""
    if not np.isfinite(np.asarray(alpha, dtype=complex)).all():
        raise ValueError("non-finite displacement amplitude")
    b = basis(cutoff)
    phi = np.angle(alpha)   # |alpha| by hypot, as abs(complex): np.abs rounds arrays otherwise
    d, d_g, d_y = expm(b.displace, np.hypot(alpha.real, alpha.imag),
                       [b.displace.gen, b.a + b.a.T], phi)
    c, s = np.cos(phi)[..., None, None], np.sin(phi)[..., None, None]
    return d, c * d_g - 1j * s * d_y, s * d_g + 1j * c * d_y


def apply(op: FockOperator, state: FockVector) -> FockVector:
    """op @ state, without renormalization."""
    if op.cutoff != state.cutoff:
        raise ValueError(f"operator dimension {op.cutoff} does not match state "
                         f"length {state.cutoff}")
    return FockVector(op.entries @ state.amplitudes, state.cutoff)


def expectation(op: FockOperator, state: FockVector) -> float:
    """Re <state| op |state> for a Hermitian op."""
    if op.cutoff != state.cutoff:
        raise ValueError("operator/state dimension mismatch")
    herm_err = np.max(np.abs(op.entries - op.entries.conj().T))
    if herm_err > 1e-10:
        raise ValueError(f"operator is not Hermitian (deviation {herm_err:.3g})")
    val = np.vdot(state.amplitudes, op.entries @ state.amplitudes)
    return float(val.real)
