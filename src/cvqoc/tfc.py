"""Constrained expressions with cubic switching functions.

An approximant y_hat(tau) combines a weighted sum of features phi(tau)^T xi
with up to two boundary constraints so that the boundary values are met
exactly whatever the weights.  It is affine in the weights, y = psi xi + b
(the X-TFC form), and that map is the only place the switching functions
are applied.  Physical time t and the internal coordinate tau are related
by tau = tau0 + c_map * (t - t0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

DOMAIN_TOL = 1e-9


@dataclass
class TimeMorph:
    """Affine map between physical time [t0, tf] and the collocation domain."""

    t0: float
    tau0: float
    tauf: float
    c_map: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.t0, self.tau0, self.tauf])):
            raise ValueError("t0, tau0 and tauf must be finite")
        if self.tauf <= self.tau0:
            raise ValueError("tauf must exceed tau0")
        if not (np.isfinite(self.c_map) and self.c_map > 0):
            raise ValueError("morph rate must be a positive finite number")

    @classmethod
    def from_times(cls, t0: float, tf: float, tau0: float, tauf: float) -> "TimeMorph":
        if tf <= t0:
            raise ValueError("tf must exceed t0")
        return cls(t0=t0, tau0=tau0, tauf=tauf, c_map=(tauf - tau0) / (tf - t0))

    @property
    def tf(self) -> float:
        return self.t0 + (self.tauf - self.tau0) / self.c_map

    def to_tau(self, t):
        return self.tau0 + self.c_map * (np.asarray(t, dtype=float) - self.t0)

    def to_time(self, tau):
        return self.t0 + (np.asarray(tau, dtype=float) - self.tau0) / self.c_map


def _check_domain(tau, morph: TimeMorph) -> None:
    """Raise ValueError if any tau lies outside the domain (a float is
    compared as is, an array through its extremes)."""
    if isinstance(tau, float):
        lo = hi = tau
    else:
        tau = np.asarray(tau, dtype=float)
        if tau.size == 0:
            return
        lo, hi = tau.min(), tau.max()
    if lo < morph.tau0 - DOMAIN_TOL or hi > morph.tauf + DOMAIN_TOL:
        raise ValueError(
            f"tau={tau} outside morph domain [{morph.tau0}, {morph.tauf}]"
        )


def _unit_coord(tau, morph: TimeMorph):
    """(s, tauf - tau0) with s = (tau - tau0) / (tauf - tau0) in [0, 1]."""
    dtf = morph.tauf - morph.tau0
    # a plain float for a scalar: the per-node path does float arithmetic
    tau = float(tau) if isinstance(tau, float) else np.asarray(tau, dtype=float)
    return (tau - morph.tau0) / dtf, dtf


def _omega(k: int, s):
    if k == 1:
        return 1.0 + 2.0 * s**3 - 3.0 * s**2
    if k == 2:
        return -2.0 * s**3 + 3.0 * s**2
    raise ValueError(f"switching index must be 1 or 2, got {k}")


def _omega_prime(k: int, s, dtf: float):
    core = (6.0 * s**2 - 6.0 * s) / dtf
    if k == 1:
        return core
    if k == 2:
        return -core
    raise ValueError(f"switching index must be 1 or 2, got {k}")


def omega(k: int, tau, morph: TimeMorph):
    """Cubic switching function: omega(1) is 1 at tau0 and 0 at tauf,
    omega(2) the reverse; both have vanishing endpoint slopes."""
    _check_domain(tau, morph)
    return _omega(k, _unit_coord(tau, morph)[0])


def omega_prime(k: int, tau, morph: TimeMorph):
    """d omega / d tau; zero at both endpoints by construction."""
    _check_domain(tau, morph)
    return _omega_prime(k, *_unit_coord(tau, morph))


@dataclass
class BoundaryConstraint:
    location: str  # "initial" or "final"
    value: np.ndarray

    def __post_init__(self):
        if self.location not in ("initial", "final"):
            raise ValueError(f"unknown boundary location {self.location!r}")
        self.value = np.atleast_1d(np.asarray(self.value, dtype=float))
        if not np.all(np.isfinite(self.value)):
            raise ValueError("boundary value must be finite")


class AffineMap(NamedTuple):
    """A constrained expression as an affine map of its weights xi (shape
    (L, d)): y = psi @ xi + b and d y / d tau = dpsi @ xi + db.  At a scalar
    tau psi and dpsi have shape (L,) and b, db shape (d,); at a 1-D array of
    K points they gain a leading axis of K.  b and db are 0.0 when nothing
    is constrained; dpsi and db are None when no derivative was asked for."""

    psi: np.ndarray
    dpsi: np.ndarray
    b: np.ndarray
    db: np.ndarray


class ConstrainedExpression:
    """Boundary-exact approximant over feature rows, affine in its weights.

    features(tau, derivative) returns the feature rows (phi, d phi / d tau):
    each of shape (L,) for a scalar tau and (K, L) for a 1-D array of K
    points; with derivative=False the second item may be None.  weights is
    the (L, d) output-weight array; it is read on every call, so writing it
    in place changes the expression with no further call.
    """

    def __init__(self, features: Callable, weights: np.ndarray, constraints: list,
                 morph: TimeMorph):
        self.features = features
        self.weights = weights
        self.morph = morph
        targets = {}
        for c in constraints:
            if c.location in targets:
                raise ValueError(f"duplicate {c.location} constraint")
            targets[c.location] = c.value
        # switching index k of each constrained end, and its target rows
        self._sides = [k for k, loc in ((1, "initial"), (2, "final")) if loc in targets]
        self._targets = np.array([targets[loc] for loc in ("initial", "final")
                                  if loc in targets])

    def affine(self, tau, derivative: bool = True, features: Callable = None) -> AffineMap:
        """The expression at tau as an affine map of the weights:
        psi = phi - omega1 phi(tau0)^T - omega2 phi(tauf)^T and
        b = omega1 y0^T + omega2 yf^T, with only the constrained ends taken.
        Derivatives are in tau; d/dt is c_map times them.

        features, when given, replaces the expression's own feature function
        (same convention, any number of columns).  Passing the derivative of
        the feature rows along some parameter gives the derivative of psi and
        dpsi along it; b and db do not depend on the features."""
        _check_domain(tau, self.morph)
        features = features or self.features
        psi, dpsi = features(tau, derivative)
        if not self._sides:
            return AffineMap(psi, dpsi, 0.0, 0.0 if derivative else None)
        m = self.morph
        s, dtf = _unit_coord(tau, m)
        ends = np.array([features(m.tau0 if k == 1 else m.tauf, False)[0]
                         for k in self._sides])                       # (ends, L)
        # switching weights, (ends,) for a scalar tau and (K, ends) for K points
        w = np.array([_omega(k, s) for k in self._sides]).T
        psi = psi - w.dot(ends)
        b = w.dot(self._targets)
        db = None
        if derivative:
            dw = np.array([_omega_prime(k, s, dtf) for k in self._sides]).T
            dpsi = dpsi - dw.dot(ends)
            db = dw.dot(self._targets)
        return AffineMap(psi, dpsi, b, db)

    def eval(self, tau, derivative: bool = True):
        """(y_hat(tau), d y_hat / dt), with d/dt = c_map * d/dtau.

        tau is a scalar (each item of shape (d,)) or a 1-D array of K points
        (each of shape (K, d)).  With derivative=False the second item is None.
        """
        psi, dpsi, b, db = self.affine(tau, derivative)
        value = psi.dot(self.weights)
        if self._sides:   # b and db are 0.0 otherwise: skip the per-node add
            value += b
        if not derivative:
            return value, None
        dvalue = dpsi.dot(self.weights)
        if self._sides:
            dvalue += db
        return value, self.morph.c_map * dvalue


def chebyshev_lobatto_nodes(n: int, morph: TimeMorph) -> np.ndarray:
    """n Chebyshev-Gauss-Lobatto points on [tau0, tauf], endpoints included,
    in increasing order."""
    if n < 2:
        raise ValueError("need at least two collocation nodes")
    k = np.arange(n)
    ref = -np.cos(np.pi * k / (n - 1))  # [-1, 1]
    return morph.tau0 + (ref + 1.0) * 0.5 * (morph.tauf - morph.tau0)
