"""Constrained expressions with cubic switching functions.

An approximant y_hat(tau) combines a free function theta(tau) with up to two
boundary constraints so that the boundary values are met exactly no matter
what the free function does.  Physical time t and the internal coordinate
tau are related by tau = tau0 + c_map * (t - t0).
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
    if not isinstance(tau, float):
        tau = np.asarray(tau, dtype=float)
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
    """A constrained expression over features, as an affine map of its
    weights xi (shape (L, d)) at K points: y = psi @ xi + b and
    d y / d tau = dpsi @ xi + db.  psi and dpsi have shape (K, L); b and db
    have shape (K, d), or (K, 1) zeros when nothing is constrained."""

    psi: np.ndarray
    dpsi: np.ndarray
    b: np.ndarray
    db: np.ndarray


class ConstrainedExpression:
    """Boundary-exact approximant built from a free function.

    free_function(tau) must return (theta, dtheta_dtau): each of shape (d,)
    for a scalar tau and (K, d) for a 1-D array of K points.  eval with
    derivative=False calls free_function(tau, derivative=False), which may
    skip the derivative and return None for it; a feature-bank free function
    then skips the exact tangent product of its features.  Endpoint values
    of theta are cached at construction; call refresh() whenever the free
    function changes.
    """

    def __init__(self, free_function: Callable, constraints: list, morph: TimeMorph):
        self.free_function = free_function
        self.morph = morph
        self.initial = None
        self.final = None
        for c in constraints:
            if c.location == "initial":
                if self.initial is not None:
                    raise ValueError("duplicate initial constraint")
                self.initial = c.value
            else:
                if self.final is not None:
                    raise ValueError("duplicate final constraint")
                self.final = c.value
        self._theta0 = None
        self._thetaf = None
        self.refresh()

    def refresh(self) -> None:
        """Recompute the cached endpoint values of the free function."""
        if self.initial is not None:
            self._theta0 = np.atleast_1d(self.free_function(self.morph.tau0)[0])
        if self.final is not None:
            self._thetaf = np.atleast_1d(self.free_function(self.morph.tauf)[0])

    def eval(self, tau, derivative: bool = True):
        """(y_hat(tau), d y_hat / dt), with d/dt = c_map * d/dtau.

        tau is a scalar (each item of shape (d,)) or a 1-D array of K points
        (each of shape (K, d)).  With derivative=False the second item is None.
        """
        _check_domain(tau, self.morph)
        if derivative:
            theta, dtheta = self.free_function(tau)
            dvalue = np.array(dtheta, dtype=float, ndmin=1)
        else:
            theta, _ = self.free_function(tau, derivative=False)
            dvalue = None
        value = np.array(theta, dtype=float, ndmin=1)
        if self.initial is not None or self.final is not None:
            s, dtf = _unit_coord(tau, self.morph)
            if np.ndim(s):
                s = s[:, None]   # one row per point
            for k, target, end in ((1, self.initial, self._theta0),
                                   (2, self.final, self._thetaf)):
                if target is None:
                    continue
                value += _omega(k, s) * (target - end)
                if derivative:
                    dvalue += _omega_prime(k, s, dtf) * (target - end)
        if dvalue is None:
            return value, None
        return value, self.morph.c_map * dvalue

    def affine(self, tau: np.ndarray, sig: np.ndarray, dsig: np.ndarray,
               sig0: np.ndarray, sigf: np.ndarray) -> AffineMap:
        """The expression over the free function sigma(tau)^T xi as an affine
        map of xi at the 1-D array tau: psi = sig - omega1 sig0^T - omega2 sigf^T
        and b = omega1 y0^T + omega2 yf^T, with only the constrained ends
        taken.  sig and dsig are the feature rows sigma and d sigma / d tau at
        tau, shape (K, L); sig0 and sigf are sigma(tau0) and sigma(tauf).
        Derivatives are in tau; d/dt is c_map times them."""
        _check_domain(tau, self.morph)
        s, dtf = _unit_coord(tau, self.morph)
        s = s[:, None]
        psi, dpsi = sig, dsig
        b = db = np.zeros((s.shape[0], 1))
        for k, target, end in ((1, self.initial, sig0), (2, self.final, sigf)):
            if target is None:
                continue
            w, dw = _omega(k, s), _omega_prime(k, s, dtf)
            psi = psi - w * end
            dpsi = dpsi - dw * end
            b = b + w * target
            db = db + dw * target
        return AffineMap(psi, dpsi, b, db)


def chebyshev_lobatto_nodes(n: int, morph: TimeMorph) -> np.ndarray:
    """n Chebyshev-Gauss-Lobatto points on [tau0, tauf], endpoints included,
    in increasing order."""
    if n < 2:
        raise ValueError("need at least two collocation nodes")
    k = np.arange(n)
    ref = -np.cos(np.pi * k / (n - 1))  # [-1, 1]
    return morph.tau0 + (ref + 1.0) * 0.5 * (morph.tauf - morph.tau0)
