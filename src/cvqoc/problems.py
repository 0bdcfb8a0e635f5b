"""Collocation problems wiring circuits, constrained expressions and residuals.

The decision vector concatenates the output weights of every unknown, the
flattened circuit parameters, and (for the free-final-time problem) the
morph rate.  Each feature sigma_l(tau) is a quadratic form in the phases
exp(-i tau w) of the input encoding, with one Hermitian matrix per circuit,
and so is its exact tau-derivative.  FeatureCache builds the forms once per
bank revision and evaluates them at the collocation nodes and domain
endpoints into a table, so weight-only perturbations never re-run the
quantum simulation.  Output weights fold into the forms before any per-tau
work, so the trained solution on a fine grid (trajectories, the RK4
control) costs one form per output column, whatever the number of circuits.
Every unknown is a tfc.ConstrainedExpression over FeatureCache.features and
its own weight block, which the expression reads on every call.  Both
problems share one base, _Collocation, which owns that layout: its _sync is
the only writer of the weights (in place) and hands theta to the bank, whose
set_flat is the only writer of the circuit parameters.

Every problem's jacobian is closed form in every coordinate.  The weight
(and morph-rate) columns come from the expressions' affine maps.  The
circuit parameter columns come from the exact feature derivatives
d sigma / d theta and d sigma' / d theta, which the cache evaluates at the
nodes from the derivatives of the forms; a parameter moves only its own
circuit's form, and so its feature column, so each column is the
residual's linearisation along one rank-one change of the unknowns
(_Collocation._theta_tangents).
QocProblem.residual_vector keeps its last evaluation, so a point evaluated
twice in a row (Gauss-Newton's accepted trial, then the training callback
and the next iteration) costs one evaluation.
"""

from __future__ import annotations

import numpy as np

from . import cvqnn, fock, lindblad, pmp
from .lindblad import SuperOperatorModel
from .optimize import DecisionVector
from .tfc import BoundaryConstraint, ConstrainedExpression, TimeMorph, chebyshev_lobatto_nodes


class FeatureCache:
    """sigma(tau) and its exact derivative d sigma / d tau for a bank.

    Every feature is a quadratic form in the phases z = exp(-i tau w) of the
    input encoding: fock's eigenbasis i G = V diag(w) V^dag of G = a^dag - a
    gives D(tau)|0> = B z with B = V diag(conj(V[0])), so with the real
    symmetric quadrature X, sigma_l = z^H O_l z for the Hermitian
    O_l = (U_l B)^H X (U_l B).  In real form, with the phase row
    y = [cos tau w, sin tau w] and the real symmetric R_l of O_l (_real_form),
    sigma_l = y R_l y^T, and so d sigma_l / d tau = 2 y R_l (dy / dtau)^T
    from the same product y R_l (_contract).

    At the fixed points `taus` (the nodes and domain endpoints) y is fixed,
    so a tau, or an array of them, made only of such points is a lookup in
    a table built with the forms.  Any other tau goes through _quadratic.
    Output weights W contract into the forms before any per-tau work,
    phi(tau) W = z^H (sum_l W_l O_l) z, so `weighted` costs one quadratic
    form per output column, whatever the number of circuits.  theta_p of
    circuit l moves only O_l, by dO_p = (dU_p B)^H X (U_l B) + h.c., so the
    theta rows at the fixed points are the same contraction on dO_p.  The
    forms, the table and the theta rows form one memo, rebuilt when
    QnnBank.revision changes.
    """

    def __init__(self, bank: cvqnn.QnnBank, taus=()):
        self.bank = bank
        self._x_op = fock.quadrature_x(bank.cutoff).entries.real
        _, self._w, v = fock.basis(bank.cutoff).displace
        self._b = v * v[0].conj()
        self._taus = np.unique(np.asarray(taus, dtype=float))
        self._row = {float(t): i for i, t in enumerate(self._taus)}
        self._y = self._phases(self._taus)
        # theta_owner[p]: the circuit, and so the feature, that theta_p moves
        self.theta_owner = np.repeat(np.arange(bank.n_features),
                                     [c.params.size for c in bank.circuits])
        self._memo = {"revision": None}

    def _phases(self, taus: np.ndarray) -> np.ndarray:
        """The phase rows y = [cos tau w, sin tau w], shape (K, 2D)."""
        phase = np.multiply.outer(taus, self._w)
        return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)

    @staticmethod
    def _real_form(q: np.ndarray) -> np.ndarray:
        """[[Re Q, Im Q], [-Im Q, Re Q]] for each Q of an (n, D, D) Hermitian
        stack, shape (n, 2D, 2D): real symmetric, with z^H Q z = y R y^T."""
        n, d = q.shape[:2]
        r = np.empty((n, 2 * d, 2 * d))
        r[:, :d, :d] = r[:, d:, d:] = q.real
        r[:, :d, d:] = q.imag
        r[:, d:, :d] = -q.imag
        return r

    def _contract(self, y: np.ndarray, r: np.ndarray, derivative: bool = True):
        """(y_k R_j y_k^T, 2 y_k R_j (dy_k / dtau)^T) for every row y_k of the
        (K, 2D) y and every R_j of the (n, 2D, 2D) symmetric stack r, each of
        shape (K, n): one matrix product, then one row-wise dot each.  With
        derivative=False the second item is None."""
        n, m = r.shape[:2]
        yr = (y @ r.transpose(1, 0, 2).reshape(m, n * m)).reshape(-1, n, m)   # y_k R_j
        val = np.einsum("kjm,km->kj", yr, y)
        if not derivative:
            return val, None
        d = m // 2   # d/dtau [cos tau w, sin tau w] = [-w sin tau w, w cos tau w]
        dy = np.concatenate([-self._w * y[:, d:], self._w * y[:, :d]], axis=1)
        return val, 2.0 * np.einsum("kjm,km->kj", yr, dy)

    def _current(self) -> dict:
        """The memo at the bank's revision: the real forms R and the table
        (sigma, sigma') at the fixed points; theta_features adds its rows."""
        if self._memo["revision"] != self.bank.revision:
            ub = np.array([c.unitary() for c in self.bank.circuits]) @ self._b
            forms = self._real_form(ub.conj().transpose(0, 2, 1) @ (self._x_op @ ub))
            self._memo = {"revision": self.bank.revision, "forms": forms,
                          "table": self._contract(self._y, forms)}
        return self._memo

    def _theta_table(self):
        """Rows of d sigma / d theta and d^2 sigma / (d tau d theta) at the
        fixed points, built circuit by circuit so only one circuit's dO is
        held at a time."""
        sig = np.empty((self._taus.size, self.theta_owner.size))
        dsig = np.empty_like(sig)
        for l, circ in enumerate(self.bank.circuits):
            dub = circ.unitary_derivatives() @ self._b                    # (P_l, D, D)
            half = dub.conj().transpose(0, 2, 1) @ (self._x_op @ (circ.unitary() @ self._b))
            cols = self.theta_owner == l
            sig[:, cols], dsig[:, cols] = self._contract(
                self._y, self._real_form(half + half.conj().transpose(0, 2, 1)))
        return sig, dsig

    def theta_features(self, tau, derivative: bool = True):
        """(d sigma / d theta, d^2 sigma / (d tau d theta)) at tabulated points,
        each of shape (P,) for a scalar tau and (K, P) for an array, P the
        number of circuit parameters.  Column p is the derivative of feature
        theta_owner[p], the only one theta_p moves.  The rows follow
        `features`' convention, so a ConstrainedExpression can take this in
        place of `features`; a tau off the table raises ValueError."""
        row = np.searchsorted(self._taus, tau)
        if not np.array_equal(self._taus.take(row, mode="clip"), tau):
            raise ValueError("theta derivatives exist only at the nodes and domain endpoints")
        memo = self._current()
        if "theta" not in memo:
            memo["theta"] = self._theta_table()
        sig, dsig = memo["theta"]
        return sig[row], dsig[row] if derivative else None

    def _quadratic(self, tau, weights, derivative: bool):
        """(phi(tau) W, d phi / d tau W) from the quadratic forms, W the
        (L, d) weights, or the features themselves when weights is None.
        Shapes follow `features`: (d,) for a scalar tau, (K, d) for K points;
        with derivative=False the second item is None."""
        taus = np.asarray(tau, dtype=float)
        if not np.all(np.isfinite(taus)):
            raise ValueError("non-finite input")
        forms = self._current()["forms"]
        if weights is not None:
            forms = np.tensordot(weights, forms, axes=(0, 0))            # (d, 2D, 2D)
        val, dval = self._contract(self._phases(np.atleast_1d(taus)), forms, derivative)
        if taus.ndim == 0:
            return val[0], dval[0] if derivative else None
        return val, dval

    def features(self, tau, derivative: bool = True):
        """(sigma, d sigma / d tau), each of shape (L,) for a scalar tau and
        (K, L) for a 1-D array of K points.  With derivative=False the
        derivative is None, and off the table it is not computed."""
        if isinstance(tau, float):   # numpy float64 included
            row = self._row.get(tau)
            if row is None:
                return self._quadratic(tau, None, derivative)
        else:
            tau = np.asarray(tau, dtype=float)
            if tau.ndim == 0:
                return self.features(float(tau), derivative)
            row = np.searchsorted(self._taus, tau)
            # row == len(table) past the last entry, so test that before indexing
            if np.any(row == self._taus.size) or np.any(self._taus[row] != tau):
                return self._quadratic(tau, None, derivative)
        # the hot path of a residual: one probe and one compare, no call
        memo = self._memo if self._memo["revision"] == self.bank.revision else self._current()
        sig, dsig = memo["table"]
        return sig[row], dsig[row] if derivative else None

    def weighted(self, weights: np.ndarray):
        """phi(tau) @ weights as a feature function with the convention of
        `features`, one column per column of the (L, d) weights, read on
        every call.  Every tau, tabulated or not, goes through the quadratic
        forms, so a ConstrainedExpression evaluated over it costs one form
        per output column at each point."""
        return lambda tau, derivative=True: self._quadratic(tau, weights, derivative)


class _Collocation:
    """The decision-vector layout shared by every collocation problem.

    It holds the nodes, the feature cache and one weight array of shape
    (L, width) per unknown.  The decision vector lays out the weight blocks
    in the order given, then the flattened circuit parameters (theta), then
    the extra scalars (name -> initial value).  _sync is the only writer of
    the weights, which it overwrites in place, and forwards theta to
    QnnBank.set_flat, which re-versions only the circuits whose slice changed.
    """

    def __init__(self, bank: cvqnn.QnnBank, morph: TimeMorph, n_nodes: int,
                 widths: dict, scalars: dict):
        self.bank = bank
        self.morph = morph
        self.nodes = chebyshev_lobatto_nodes(n_nodes, morph)
        self.cache = FeatureCache(bank, np.append(self.nodes, [morph.tau0, morph.tauf]))
        self._xi = {name: np.zeros((bank.n_features, w)) for name, w in widths.items()}
        theta = bank.get_flat()
        sizes = ([(name, arr.size) for name, arr in self._xi.items()]
                 + [("theta", theta.size)] + [(name, 1) for name in scalars])
        blocks = {}
        pos = 0
        for name, size in sizes:
            blocks[name] = slice(pos, pos + size)
            pos += size
        init = np.concatenate([np.zeros(blocks["theta"].start), theta, list(scalars.values())])
        self.decision = DecisionVector(values=init, blocks=blocks)
        self.theta_mask = np.zeros(pos, dtype=bool)
        self.theta_mask[blocks["theta"]] = True
        self.xi_mask = ~self.theta_mask

    def _expression(self, name: str, constraints: list) -> ConstrainedExpression:
        """Constrained expression over the features, weighted by block name."""
        return ConstrainedExpression(self.cache.features, self._xi[name],
                                     constraints, self.morph)

    def bounds(self):
        return []

    def _sync(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        blocks = self.decision.blocks
        for name, arr in self._xi.items():
            arr[...] = values[blocks[name]].reshape(arr.shape)
        self.bank.set_flat(values[blocks["theta"]])

    def jacobian(self, values: np.ndarray, mask: np.ndarray = None) -> np.ndarray:
        """Closed-form Jacobian of residual(values) on the mask coordinates
        (xi_mask by default), in decision-vector order; no residual is
        evaluated.  The subclass gives the xi_mask block (_xi_columns) and
        the theta_mask block (_theta_columns) at the synced point; only the
        blocks the mask touches are built."""
        mask = self.xi_mask if mask is None else mask
        self._sync(values)
        blocks = [(cols, columns()) for cols, columns in
                  ((self.xi_mask, self._xi_columns), (self.theta_mask, self._theta_columns))
                  if np.any(mask & cols)]
        jac = np.zeros((blocks[0][1].shape[0], mask.size))
        for cols, block in blocks:
            jac[:, cols] = block
        # row-major, as the blocks come: the layout picks the BLAS path of
        # J^T J, so it keeps Gauss-Newton's steps bit for bit
        return jac.compress(mask, axis=1)

    def _theta_tangents(self, expr):
        """(dy, dydot): the change of expr's values and tau-derivatives at the
        nodes along each circuit parameter, each of shape (P, N, width).
        theta_p moves only feature theta_owner[p], so dy[p] is
        dpsi[:, p] xi[owner(p), :] with dpsi the expression's affine map over
        the feature derivative rows (FeatureCache.theta_features)."""
        t = expr.affine(self.nodes, features=self.cache.theta_features)
        w = expr.weights[self.cache.theta_owner]
        return np.einsum("ip,pw->piw", t.psi, w), np.einsum("ip,pw->piw", t.dpsi, w)

    def _value_function(self, expr):
        """tau -> expr's value, through the cache's weighted kernel: the
        weights fold into the circuits' forms, constrained ends included."""
        features = self.cache.weighted(expr.weights)

        def value(tau):
            psi, _, b, _ = expr.affine(tau, derivative=False, features=features)
            return psi + b

        return value

    def _eval_grid(self, expr, t_grid):
        self._sync(self.decision.values)
        return self._value_function(expr)(self.morph.to_tau(t_grid))


class OdeBenchmarkProblem(_Collocation):
    """Scalar linear ODE y' = rate * y, y(t0) = y0, on a fixed horizon."""

    def __init__(self, bank: cvqnn.QnnBank, morph: TimeMorph, n_nodes: int,
                 rate: float, y0: float):
        super().__init__(bank, morph, n_nodes, {"xi": 1}, {})
        self.rate = rate
        self.expr = self._expression("xi", [BoundaryConstraint("initial", [y0])])

    def residual(self, values: np.ndarray) -> np.ndarray:
        self._sync(values)
        y, ydot = self.expr.eval(self.nodes)
        return ydot[:, 0] - self.rate * y[:, 0]

    def _xi_columns(self) -> np.ndarray:
        # r = c (dpsi xi + db) - rate (psi xi + b)
        amap = self.expr.affine(self.nodes)
        return self.morph.c_map * amap.dpsi - self.rate * amap.psi

    def _theta_columns(self) -> np.ndarray:
        dy, dydot = self._theta_tangents(self.expr)
        return (self.morph.c_map * dydot - self.rate * dy)[:, :, 0].T

    def solution(self, t_grid: np.ndarray) -> np.ndarray:
        return self._eval_grid(self.expr, t_grid)[:, 0]


class QocProblem(_Collocation):
    """PMP collocation problem for a superoperator model with box-bounded
    controls and free final time (decision scalar: morph rate)."""

    def __init__(self, bank: cvqnn.QnnBank, cfg: pmp.OcpConfig,
                 model: SuperOperatorModel, morph: TimeMorph, n_nodes: int,
                 c_map_bounds: tuple = (0.05, 20.0)):
        dim, nc = model.dim, model.n_controls
        super().__init__(bank, morph, n_nodes,
                         {"xi_state": dim, "xi_costate": dim,
                          "xi_u": nc, "xi_nu": nc, "xi_beta": nc},
                         {"c_map": morph.c_map})
        self.cfg = cfg
        self.model = model
        self.c_map_bounds = c_map_bounds
        costate_constraints = []
        if cfg.costate_terminal_constraint:
            costate_constraints = [BoundaryConstraint("final", cfg.costate_final)]
        self.unknowns = pmp.UnknownSet(
            expr_state=self._expression(
                "xi_state", [BoundaryConstraint("initial", cfg.rho_init),
                             BoundaryConstraint("final", cfg.rho_target)]),
            expr_costate=self._expression("xi_costate", costate_constraints),
            expr_control=self._expression("xi_u", []),
            expr_sat_input=self._expression("xi_nu", []),
            expr_multiplier=self._expression("xi_beta", []),
        )
        self._last = None   # (values, ResidualVector) of the last evaluation

    def bounds(self):
        return [(self.decision.blocks["c_map"].start, *self.c_map_bounds)]

    def _sync(self, values: np.ndarray) -> None:
        lo, hi = self.c_map_bounds
        self.morph.c_map = float(np.clip(values[self.decision.blocks["c_map"].start], lo, hi))
        super()._sync(values)

    def residual_vector(self, values: np.ndarray) -> pmp.ResidualVector:
        """The residual families at values.  The last evaluation is kept with a
        copy of its values and returned again for equal values: _sync derives
        all problem state from the values, so it cannot go stale."""
        self._sync(values)
        if self._last is None or not np.array_equal(values, self._last[0]):
            self._last = (np.array(values, dtype=float),
                          pmp.residuals(self.unknowns, self.cfg, self.model, self.nodes))
        return self._last[1]

    def residual(self, values: np.ndarray) -> np.ndarray:
        return self.residual_vector(values).concat()

    def _point(self) -> tuple:
        """The expressions in UnknownSet order, and the point (maps, weights,
        c_map, cfg, model) of pmp's linearisation at the nodes."""
        exprs = list(vars(self.unknowns).values())
        maps = [e.affine(self.nodes) for e in exprs]
        return exprs, (maps, [e.weights for e in exprs], self.morph.c_map, self.cfg, self.model)

    def _xi_columns(self) -> np.ndarray:
        """The weight blocks in UnknownSet order, then c_map.  c_map enters as
        its clipped value, so on a bound its column is the one-sided
        derivative from inside."""
        return pmp.residual_jacobian(*self._point()[1])

    def _theta_columns(self) -> np.ndarray:
        exprs, point = self._point()
        dy, dydot = zip(*(self._theta_tangents(e) for e in exprs))
        return pmp.residual_tangents(*point, dy, dydot[:2])

    # --- trained-solution accessors -------------------------------------

    def state_trajectory(self, t_grid):
        return self._eval_grid(self.unknowns.expr_state, t_grid)

    def control_trajectory(self, t_grid):
        return self._eval_grid(self.unknowns.expr_control, t_grid)

    def control_function(self):
        """u(t) for the RK4 verifier: a scalar t gives shape (n_controls,), a
        1-D array of K times (K, n_controls).  tau is clamped to the domain
        edge to tolerate endpoint rounding."""
        self._sync(self.decision.values)
        morph = self.morph
        value = self._value_function(self.unknowns.expr_control)

        def u_of_t(t):
            return value(np.clip(morph.to_tau(t), morph.tau0, morph.tauf))

        return u_of_t

    def final_time(self) -> float:
        self._sync(self.decision.values)
        return self.morph.tf

    def terminal_state_error(self) -> float:
        """Distance between the trained state at tf and the target; exact
        zero up to rounding by construction."""
        x_end, _ = self.unknowns.expr_state.eval(self.morph.tauf)
        return float(np.linalg.norm(x_end - self.cfg.rho_target))

    def verify_rk4(self, steps: int = 2000):
        """Propagate the learned control with RK4 and report the endpoint gap."""
        self._sync(self.decision.values)
        ts, xs = lindblad.propagate_rk4(self.model, self.cfg.rho_init,
                                        self.control_function(),
                                        self.cfg.t0, self.morph.tf, steps)
        gap = float(np.linalg.norm(xs[-1] - self.cfg.rho_target))
        return ts, xs, gap
