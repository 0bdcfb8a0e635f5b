"""First-order optimality residuals for the constrained time-energy problem.

The control bound u in [u_min, u_max] is absorbed by a logistic saturation
u = phi(nu) of an unconstrained variable nu, with an equality multiplier
beta.  Every residual family is a partial of the control Hamiltonian H at a
collocation node: the state and costate dynamics x' - dH/dlambda and
lambda' + dH/dx, then control stationarity dH/du, saturation stationarity
dH/dnu and the equality constraint dH/dbeta; a single terminal row pins the
Hamiltonian to minus the time weight.

The state is fixed at both ends, so the minimum principle puts no condition
on the costate at the final time: lambda(t_f) is a free multiplier and
H(t_f) = -time_weight is the only terminal condition (Kirk, Optimal Control
Theory, 1970, sec. 5.1).  Pinning lambda(t_f) = 0 as well, the
transversality condition of a free terminal state, would over-constrain the
problem: with u = phi(nu) met, H(t_f) is then w_E |u|^2 + w_R |nu|^2 >= 0,
which cannot equal -time_weight.

Every unknown is a tfc.ConstrainedExpression: feature rows times the
unknown's output weights, plus the boundary terms.  residuals gathers their
values at the nodes, and the tau-derivatives of the state and costate only,
the two that enter the residual; _gradient gives grad H at every node for it
and residual_partials alike.  residual_partials gives the residual's partials in
the values of the unknowns at the nodes: node i's rows depend only on node
i's values, so they are one small dense block per node, and every Jacobian
is those blocks times the coordinates' directions (problems._Collocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lindblad import SuperOperatorModel
from .tfc import ConstrainedExpression


@dataclass
class OcpConfig:
    time_weight: float          # coefficient of t_f in the cost
    energy_weight: float        # coefficient of the u^2 integral
    reg_weight: float           # coefficient of the nu^2 regularizer
    u_min: float
    u_max: float
    sat_steepness: float
    rho_init: np.ndarray
    rho_target: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite([self.time_weight, self.energy_weight, self.reg_weight,
                                   self.u_min, self.u_max, self.sat_steepness])):
            raise ValueError("cost weights, control bounds and steepness must be finite")
        if min(self.time_weight, self.energy_weight, self.reg_weight) <= 0:
            raise ValueError("cost weights must be positive")
        if self.u_max < self.u_min:
            raise ValueError("u_max must not be below u_min")
        if self.sat_steepness <= 0:
            raise ValueError("saturation steepness must be positive")
        self.rho_init = np.asarray(self.rho_init, dtype=float)
        self.rho_target = np.asarray(self.rho_target, dtype=float)

    @property
    def u_span(self) -> float:
        return self.u_max - self.u_min


def _logistic_arg(nu, cfg: OcpConfig):
    """nu as an array and the saturation's logistic argument k nu / span,
    clipped so that exp cannot overflow; the argument is None on a collapsed
    interval (u_min == u_max)."""
    nu = np.asarray(nu, dtype=float)
    if cfg.u_span == 0.0:
        return nu, None
    return nu, np.clip(cfg.sat_steepness * nu / cfg.u_span, -500.0, 500.0)


def saturation(nu, cfg: OcpConfig):
    """Logistic map from the unconstrained variable onto (u_min, u_max).

    A collapsed interval (u_min == u_max) pins the control to the constant."""
    nu, z = _logistic_arg(nu, cfg)
    if z is None:
        return np.full_like(nu, cfg.u_min)
    return cfg.u_max - cfg.u_span / (1.0 + np.exp(z))


def saturation_dnu(nu, cfg: OcpConfig):
    """Analytic derivative of the saturation; strictly positive for a
    non-degenerate control interval."""
    nu, z = _logistic_arg(nu, cfg)
    if z is None:
        return np.zeros_like(nu)
    sig = 1.0 / (1.0 + np.exp(-z))
    return cfg.sat_steepness * sig * (1.0 - sig)


def saturation_d2nu(nu, cfg: OcpConfig):
    """Second derivative of the saturation, k^2 / span * s (1 - s) (1 - 2 s)
    with s the logistic of k nu / span; zero for a collapsed interval."""
    nu, z = _logistic_arg(nu, cfg)
    if z is None:
        return np.zeros_like(nu)
    sig = 1.0 / (1.0 + np.exp(-z))
    return cfg.sat_steepness**2 / cfg.u_span * sig * (1.0 - sig) * (1.0 - 2.0 * sig)


def saturation_inverse(u: float, cfg: OcpConfig) -> float:
    """nu with saturation(nu) = u, for u strictly inside the bounds."""
    if not cfg.u_min < u < cfg.u_max:
        raise ValueError("u must lie strictly inside the control bounds")
    span = cfg.u_span
    return float(span / cfg.sat_steepness * np.log((u - cfg.u_min) / (cfg.u_max - u)))


def hamiltonian(x: np.ndarray, lam: np.ndarray, u, nu, beta,
                cfg: OcpConfig, model: SuperOperatorModel) -> float:
    """Control Hamiltonian including the equality-constraint multiplier."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    gen = model.generator(u)
    value = (cfg.energy_weight * float(u @ u)
             + cfg.reg_weight * float(nu @ nu)
             + float(lam @ (gen @ x))
             + float(beta @ (u - saturation(nu, cfg))))
    return value


@dataclass
class UnknownSet:
    """TFC approximants for every unknown of the boundary value problem.

    Each is a constrained expression over feature rows with its own output
    weights.  expr_state carries two-point constraints; expr_costate and
    the control-side unknowns are unconstrained: the features times the
    weights.  All share one TimeMorph whose c_map doubles as the
    free-final-time decision scalar.  The field
    order is the order of the node values in residual_partials.
    """

    expr_state: ConstrainedExpression
    expr_costate: ConstrainedExpression
    expr_control: ConstrainedExpression
    expr_sat_input: ConstrainedExpression
    expr_multiplier: ConstrainedExpression


@dataclass
class ResidualVector:
    state: np.ndarray       # (N, dim)
    costate: np.ndarray     # (N, dim)
    control: np.ndarray     # (N, nc)
    sat_input: np.ndarray   # (N, nc)
    constraint: np.ndarray  # (N, nc)
    terminal: float

    def concat(self) -> np.ndarray:
        return np.concatenate([
            self.state.ravel(), self.costate.ravel(), self.control.ravel(),
            self.sat_input.ravel(), self.constraint.ravel(), [self.terminal],
        ])

    def breakdown(self) -> dict:
        def l2(a):
            return float(np.linalg.norm(np.asarray(a).ravel()))
        return {
            "L2_total": l2(self.concat()),
            "L2_rho": l2(self.state),
            "L2_lambda": l2(self.costate),
            "L2_u": l2(self.control),
            "L2_nu": l2(self.sat_input),
            "L2_phi": l2(self.constraint),
            "Xi_H": float(self.terminal),
        }


class _Gradient(NamedTuple):
    """The Hamiltonian's gradient at every node, and the pieces of its
    partials that the Jacobian shares."""

    dx: np.ndarray        # dH/dx = G(u)^T lambda, (N, dim)
    dlam: np.ndarray      # dH/dlambda = G(u) x, (N, dim)
    du: np.ndarray        # dH/du = lambda^T G_c x + 2 w_E u + beta, (N, nc)
    dnu: np.ndarray       # dH/dnu = 2 w_R nu - beta phi'(nu)
    dbeta: np.ndarray     # dH/dbeta = u - phi(nu)
    g_x: np.ndarray       # G_c x, (N, nc, dim)
    phi_d: np.ndarray     # phi'(nu)


def _gradient(x, lam, u, nu, beta, gen, cfg: OcpConfig, model: SuperOperatorModel) -> _Gradient:
    """grad H at N nodes from the node values, each (N, width), and G(u) per
    node, (N, dim, dim).  grad H takes its products as stacked mat-vecs, so
    each node's value is bit for bit that of the same product on the node
    alone."""
    gdu = model.generator_du                                             # (nc, dim, dim)
    g_x = (gdu @ x[:, None, :, None])[..., 0]
    phi_d = saturation_dnu(nu, cfg)
    lam_g_x = (lam[:, None, None, :] @ g_x[..., None])[..., 0, 0]
    return _Gradient(
        dx=(lam[:, None, :] @ gen)[:, 0],
        dlam=(gen @ x[..., None])[..., 0],
        du=lam_g_x + 2.0 * cfg.energy_weight * u + beta,
        dnu=2.0 * cfg.reg_weight * nu - beta * phi_d,
        dbeta=u - saturation(nu, cfg),
        g_x=g_x, phi_d=phi_d)


def residuals(unknowns: UnknownSet, cfg: OcpConfig, model: SuperOperatorModel,
              nodes: np.ndarray) -> ResidualVector:
    """Evaluate every residual family at the collocation nodes: the dynamics
    rows x' - dH/dlambda and lambda' + dH/dx, then dH/du, dH/dnu and dH/dbeta.

    The terminal Hamiltonian row is taken at the last node, which must be
    the final boundary (no extrapolation).
    """
    exprs = (unknowns.expr_state, unknowns.expr_costate, unknowns.expr_control,
             unknowns.expr_sat_input, unknowns.expr_multiplier)
    # The node values are gathered one node at a time only because a Tier-1
    # test of the benchmark (perfbench/test_perfbench.py) pins, on the
    # two-level preset, 80 ConstrainedExpression.eval and 17 generator calls
    # per residual; once it pins array invariants, the values come from the
    # node maps memoised per bank revision (problems._Collocation.node_maps),
    # psi @ xi + b per unknown, as residual_partials takes them.  Only x'
    # and lambda' enter the residual, so u, nu and beta are asked for values
    # alone.
    nodes = np.asarray(nodes, dtype=float)
    (x, xdot), (lam, lamdot) = (map(np.array, zip(*[e.eval(tau) for tau in nodes]))
                                for e in exprs[:2])
    u, nu, beta = (np.array([e.eval(tau, False)[0] for tau in nodes]) for e in exprs[2:])
    gen = np.array([model.generator(row) for row in u])
    g = _gradient(x, lam, u, nu, beta, gen, cfg, model)
    terminal = hamiltonian(x[-1], lam[-1], u[-1], nu[-1], beta[-1], cfg, model) + cfg.time_weight
    return ResidualVector(
        state=xdot - g.dlam, costate=lamdot + g.dx, control=g.du,
        sat_input=g.dnu, constraint=g.dbeta, terminal=terminal,
    )


def residual_partials(maps: list, weights: list, c_map: float, cfg: OcpConfig,
                      model: SuperOperatorModel):
    """(D, h): the partials of residuals(...).concat() in the values at the
    nodes, at the point fixed by the tfc.AffineMap at the nodes and the
    (L, width) weights of each unknown, in UnknownSet order.  D, shape
    (N, R, C), holds those of node i's R rows, family by family, in its C
    values x, lambda, u, nu, beta, x', lambda' (d/dtau) and c_map; h, shape
    (C,), those of the terminal Hamiltonian row in the last node's: grad H
    there.  G(u) is the model's drift + sum_c u_c generator_du[c].
    """
    x, lam, u, nu, beta = (m.psi @ w + m.b for m, w in zip(maps, weights))
    xdot, lamdot = (m.dpsi @ w + m.db for m, w in zip(maps[:2], weights[:2]))
    n, dim = x.shape
    nc = u.shape[1]
    gen = model.drift + np.einsum("ic,cab->iab", u, model.generator_du)
    g = _gradient(x, lam, u, nu, beta, gen, cfg, model)
    gt_lam = np.einsum("cba,ib->ica", model.generator_du, lam)             # G_c^T lambda
    # where each of the C values starts; family k's rows are as wide as value k
    at = np.cumsum([0, dim, dim, nc, nc, nc, dim, dim, 1])
    d = np.zeros((n, at[5], at[-1]))

    def put(family, value, block):
        d[:, at[family]:at[family + 1], at[value]:at[value + 1]] = block

    def diag(family, value, coef):
        k = np.arange(at[family + 1] - at[family])
        d[:, at[family] + k, at[value] + k] = coef

    # state: c x' - G(u) x
    put(0, 0, -gen)
    put(0, 2, -g.g_x.transpose(0, 2, 1))
    diag(0, 5, c_map)
    put(0, 7, xdot[..., None])
    # costate: c lambda' + G(u)^T lambda
    put(1, 1, gen.transpose(0, 2, 1))
    put(1, 2, gt_lam.transpose(0, 2, 1))
    diag(1, 6, c_map)
    put(1, 7, lamdot[..., None])
    # control: lambda^T G_c x + 2 w_E u + beta
    put(2, 0, gt_lam)
    put(2, 1, g.g_x)
    diag(2, 2, 2.0 * cfg.energy_weight)
    diag(2, 4, 1.0)
    # saturation: 2 w_R nu - beta phi'(nu)
    diag(3, 3, 2.0 * cfg.reg_weight - beta * saturation_d2nu(nu, cfg))
    diag(3, 4, -g.phi_d)
    # constraint: u - phi(nu)
    diag(4, 2, 1.0)
    diag(4, 3, -g.phi_d)
    # terminal H at the last node: no tau-derivative and no c_map
    h = np.concatenate([part[-1] for part in g[:5]] + [np.zeros(at[-1] - at[5])])
    return d, h
