"""Collocation problems wiring circuits, constrained expressions and residuals.

The decision vector concatenates the output weights of every unknown, the
flattened circuit parameters, and (for the free-final-time problem) the
morph rate.  Each feature sigma_l(tau) is a quadratic form in the phases
exp(-i tau w) of the input encoding, with one Hermitian matrix per circuit,
and so is its exact tau-derivative.  FeatureCache builds the forms once per
bank revision and evaluates them at the collocation nodes and domain
endpoints into a table, so weight-only perturbations never re-run the
quantum simulation.  Output weights fold into the forms before any per-tau
work, so the trained solution off the nodes (_Collocation._tabulate) costs
one form per output column, whatever the number of circuits.  Every unknown
is a tfc.ConstrainedExpression over FeatureCache.features and its own
weight block, which the expression reads on every call.  The cache's one
memo per bank revision holds the forms, the node table, the theta rows,
every unknown's affine map at the nodes (psi, psi', b, b') and the node
values' directions along the weights and scalars, since the nodes and the
domain are fixed.  Both problems share one base, _Collocation, which owns
that layout: its _sync is the only writer of the weights (in place) and
hands theta to the bank, whose set_flat is the only writer of the circuit
parameters.

Every problem's jacobian is closed form in every coordinate, by one chain
rule in _Collocation: every coordinate reaches the residual only through
the values of the unknowns at the nodes, so the Jacobian is the residual's
partials in those values (the subclass's _partials) times the coordinates'
directions in them, which come from the expressions' affine maps over the
features (read-only, from the memo, once per revision for every weight and
scalar) and over the exact d sigma / d theta (FeatureCache.theta_features).
QocProblem.residual_vector keeps its last evaluation and the point held,
so the training callback at the point Gauss-Newton holds costs no
evaluation, whether the iteration accepted a step or not.
"""

from __future__ import annotations

import functools

import numpy as np

from . import cvqnn, fock, lindblad, pmp
from .lindblad import SuperOperatorModel
from .optimize import DecisionVector
from .tfc import BoundaryConstraint, ConstrainedExpression, TimeMorph, chebyshev_lobatto_nodes


# Bytes of the products y R per row block of FeatureCache._quadratic, which
# bounds its temporaries on a long grid.  A one-row block is a matrix-vector
# product, which can round differently from a row of a larger block, so a
# one-row tail joins the block before it, and a point's value does not depend
# on the other points of its call (blocks of 2 to 1024 rows measured equal
# with OpenBLAS 0.3.31).  QocProblem.verify_rk4's reuse of rows relies on it.
_BLOCK_BYTES = 80 * 1024

# QocProblem.verify_rk4's step doubling: its first run has RK4_BASE_STEPS
# steps, the intervals of the 201-point grid `cvqoc solve` samples, so every
# run's states at a stride land on that grid.  RK4's global error is
# O(h^4), so x_N - x_{N/2} is 15 times x_N's error to leading order.
RK4_BASE_STEPS = 200
RK4_TOLERANCE = 1e-8
RK4_MAX_STEPS = RK4_BASE_STEPS * 2**8


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
    a table built with the forms.  Any other tau goes through _quadratic,
    one _contract per row block of about _BLOCK_BYTES of products y R.
    Output weights W contract into the forms before any per-tau work,
    phi(tau) W = z^H (sum_l W_l O_l) z, so `weighted` costs one quadratic
    form per output column, whatever the number of circuits.  theta_p of
    circuit l moves only O_l, by dO_p = (dU_p B)^H X (U_l B) + h.c., so the
    theta rows at the fixed points are the same contraction on dO_p.

    Everything that depends only on the circuits sits in one memo, dropped
    when QnnBank.revision changes: the forms (with U_l B) and the table,
    built on first use; the theta rows, once a theta Jacobian asks; and the
    unknowns' affine maps at the nodes and the directions of the node values
    along the weights and scalars, once any Jacobian asks
    (_Collocation.node_maps, _Collocation._xi_directions).  `memoised` adds
    the last three.
    """

    def __init__(self, bank: cvqnn.QnnBank, taus=()):
        self.bank = bank
        self._x_op = fock.quadrature_x(bank.cutoff).entries.real
        _, self._w, v = fock.basis(bank.cutoff).displace
        self._b = v * v[0].conj()
        taus = np.sort(np.asarray(taus, dtype=float))   # np.unique imports numpy.ma
        self._taus = np.concatenate([taus[:1], taus[1:][taus[1:] != taus[:-1]]])
        self._row = {float(t): i for i, t in enumerate(self._taus)}
        self._y = self._phases(self._taus)
        # theta_owner[p]: the circuit, and so the feature, that theta_p moves
        self.theta_owner = np.repeat(np.arange(bank.n_features),
                                     [c.params.size for c in bank.circuits])
        self._memo = {"revision": None}

    def _phases(self, taus: np.ndarray) -> np.ndarray:
        """The phase rows y = [cos tau w, sin tau w], shape (K, 2D)."""
        d = self._w.size
        y = np.empty((taus.size, 2 * d))
        phase = np.multiply.outer(taus, self._w, out=y[:, d:])
        np.cos(phase, out=y[:, :d])
        np.sin(phase, out=phase)
        return y

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
        yr = (y @ r.transpose(1, 0, 2).reshape(m, n * m)).reshape(len(y), n, m)   # y_k R_j
        val = np.einsum("kjm,km->kj", yr, y)
        if not derivative:
            return val, None
        dy = np.roll(y, m // 2, axis=1)             # [sin tau w, cos tau w], times
        dy *= np.concatenate([-self._w, self._w])   # [-w, w] is d/dtau [cos tau w, sin tau w]
        return val, 2.0 * np.einsum("kjm,km->kj", yr, dy)

    def _current(self) -> dict:
        """The memo at the bank's revision: U_l B, the real forms R and the
        table (sigma, sigma') at the fixed points; `memoised` adds the rest."""
        if self._memo["revision"] != self.bank.revision:
            ub = np.array([c.unitary() for c in self.bank.circuits]) @ self._b
            forms = self._real_form(ub.conj().transpose(0, 2, 1) @ (self._x_op @ ub))
            self._memo = {"revision": self.bank.revision, "forms": forms, "ub": ub,
                          "table": self._contract(self._y, forms)}
        return self._memo

    def memoised(self, key: str, build):
        """The memo's entry key at the bank's revision, made by build() on
        its first use in that revision and dropped with the memo."""
        memo = self._current()
        if key not in memo:
            memo[key] = build()
        return memo[key]

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
        sig, dsig = self.memoised("theta", self._theta_table)
        return sig[row], dsig[row] if derivative else None

    def _theta_table(self):
        """Every dO_p at once, from U_l B and the stacked dU_p, contracted at
        the fixed points."""
        dub = cvqnn.chain_derivatives([c.params for c in self.bank.circuits],
                                      self.bank.cutoff) @ self._b              # (P, D, D)
        ub = self._current()["ub"]
        half = dub.conj().transpose(0, 2, 1) @ (self._x_op @ ub)[self.theta_owner]
        return self._contract(self._y, self._real_form(half + half.conj().transpose(0, 2, 1)))

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
        n, m = forms.shape[:2]
        flat = np.atleast_1d(taus)
        rows = max(1, _BLOCK_BYTES // (8 * n * m))
        cuts = list(range(rows, flat.size, rows))
        if cuts and flat.size - cuts[-1] == 1:   # a one-row tail joins the block before it
            cuts.pop()
        blocks = [self._contract(self._phases(part), forms, derivative)
                  for part in np.split(flat, cuts)]   # no tau: one empty block
        val = np.concatenate([v for v, _ in blocks])
        dval = np.concatenate([dv for _, dv in blocks]) if derivative else None
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

    It holds the nodes, the feature cache, and per unknown (name ->
    (width, boundary constraints)) a weight array of shape (L, width) and a
    constrained expression over the features and those weights.  The
    decision vector lays out the weight blocks in the order given, then the
    flattened circuit parameters (theta), then the extra scalars (name ->
    initial value).  _sync is the only writer of the weights, which it
    overwrites in place, and forwards theta to QnnBank.set_flat, which
    re-versions only the circuits whose slice changed.
    """

    def __init__(self, bank: cvqnn.QnnBank, morph: TimeMorph, n_nodes: int,
                 unknowns: dict, scalars: dict, rates: tuple):
        self.bank = bank
        self.morph = morph
        self.nodes = chebyshev_lobatto_nodes(n_nodes, morph)
        self.cache = FeatureCache(bank, np.append(self.nodes, [morph.tau0, morph.tauf]))
        widths = {name: w for name, (w, _) in unknowns.items()}
        self._xi = {name: np.zeros((bank.n_features, w)) for name, w in widths.items()}
        self._exprs = {name: ConstrainedExpression(self.cache.features, self._xi[name],
                                                   constraints, morph)
                       for name, (_, constraints) in unknowns.items()}
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
        # The C values at a node that the residual's partials take: each
        # unknown's, the tau-derivatives of those in rates, the scalars.
        at = np.cumsum([0] + list(widths.values()) + [widths[r] for r in rates]
                       + [1] * len(scalars))
        rate_at = dict(zip(rates, at[len(widths):]))
        # per unknown, where its values and tau-derivatives (None: not taken) start
        self._slots = {name: (at[k], rate_at.get(name)) for k, name in enumerate(widths)}
        self._n_values = at[-1]
        # the residual has one family per unknown, as wide: its rows among a node's R
        self._families = list(zip(at[:len(widths)], at[1:len(widths) + 1]))

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
        (xi_mask by default), in decision-vector order, evaluating no
        residual: D @ A node by node, with the rows family by family as the
        residual orders them, then h . A at the last node.  The subclass's
        _partials gives D (N, R, C), the partials of a node's R rows in its
        C values (see __init__), and h (C,), those of a terminal row in the
        last node's (None: no such row).  A (N, C, Q) holds the directions of
        the values along the Q masked coordinates."""
        mask = self.xi_mask if mask is None else mask
        theta = self.theta_mask[mask]
        if theta.any() and not theta.all():
            # one product per block, so a column does not depend on the rest of the mask
            xi = self.jacobian(values, mask & self.xi_mask)
            jac = np.empty((xi.shape[0], theta.size))
            jac[:, ~theta] = xi
            jac[:, theta] = self.jacobian(values, mask & self.theta_mask)
            return jac
        self._sync(values)
        d, h = self._partials(list(self.node_maps().values()))
        if theta.all():
            a = self._theta_directions(np.flatnonzero(mask))
        else:
            a = self.cache.memoised("xi_directions", self._xi_directions)
            taken = mask[self.xi_mask]
            if not taken.all():
                a = a[:, :, taken]
        n, _, q = a.shape
        jac = np.empty((n * self._families[-1][1] + (h is not None), q))
        for lo, hi in self._families:
            np.matmul(d[:, lo:hi], a, out=jac[n * lo:n * hi].reshape(n, hi - lo, q))
        if h is not None:
            jac[-1] = h @ a[-1]
        return jac

    def node_maps(self) -> dict:
        """name -> the unknown's tfc.AffineMap at the nodes, read-only.  The
        nodes and the domain are fixed, so the maps depend only on the bank
        revision: they are built at the first call of a revision and kept in
        the feature cache's memo."""
        return self.cache.memoised("node_maps", self._build_node_maps)

    def _build_node_maps(self) -> dict:
        maps = {name: expr.affine(self.nodes) for name, expr in self._exprs.items()}
        for amap in maps.values():
            for part in amap:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
        return maps

    def node_values(self, values: np.ndarray) -> dict:
        """name -> the unknown's values at the nodes at values, (N, width),
        from the memoised node maps: no residual is evaluated."""
        self._sync(values)
        return {name: amap.psi @ self._xi[name] + amap.b
                for name, amap in self.node_maps().items()}

    def _xi_directions(self) -> np.ndarray:
        """A on every weight and scalar coordinate, read-only: it depends only
        on the node maps, so it is built once per bank revision and every xi
        mask takes its columns.  Weight (l, v) of an unknown moves its v-th
        value by psi[:, l] of its affine map and its v-th tau-derivative by
        dpsi[:, l]; a scalar is a node value itself."""
        maps = self.node_maps()
        cols = np.flatnonzero(self.xi_mask)
        a = np.zeros((self.nodes.size, self._n_values, cols.size))
        for name, (value, rate) in self._slots.items():
            block = self.decision.blocks[name]
            q = np.flatnonzero((cols >= block.start) & (cols < block.stop))
            feature, v = np.divmod(cols[q] - block.start, self._xi[name].shape[1])
            a[:, value + v, q] = maps[name].psi[:, feature]
            if rate is not None:
                a[:, rate + v, q] = maps[name].dpsi[:, feature]
        # the scalars are the last coordinates and the last values
        q = np.flatnonzero(cols >= self.decision.blocks["theta"].stop)
        a[:, self._n_values - self.xi_mask.size + cols[q], q] = 1.0
        a.flags.writeable = False
        return a

    def _theta_directions(self, cols: np.ndarray) -> np.ndarray:
        """A on the circuit parameters cols.  theta_p moves only feature
        theta_owner[p], so it moves each unknown by column p of its affine
        map over FeatureCache.theta_features times row theta_owner[p] of its
        weights."""
        p = cols - self.decision.blocks["theta"].start
        owner = self.cache.theta_owner[p]
        a = np.zeros((self.nodes.size, self._n_values, p.size))
        for name, (value, rate) in self._slots.items():
            expr = self._exprs[name]
            t = expr.affine(self.nodes, features=self.cache.theta_features)
            w = expr.weights[owner].T                                    # (width, P)
            a[:, value:value + w.shape[0]] = t.psi[:, None, p] * w
            if rate is not None:
                a[:, rate:rate + w.shape[0]] = t.dpsi[:, None, p] * w
        return a

    def _tabulate(self, expr, t):
        """expr's value at the times t (a scalar or a 1-D array) at the decision
        values, over FeatureCache.weighted, with tau clamped to the domain."""
        self._sync(self.decision.values)
        morph = self.morph
        tau = np.clip(morph.to_tau(t), morph.tau0, morph.tauf)
        psi, _, b, _ = expr.affine(tau, derivative=False,
                                   features=self.cache.weighted(expr.weights))
        return psi + b


class OdeBenchmarkProblem(_Collocation):
    """Scalar linear ODE y' = rate * y, y(t0) = y0, on a fixed horizon."""

    def __init__(self, bank: cvqnn.QnnBank, morph: TimeMorph, n_nodes: int,
                 rate: float, y0: float):
        super().__init__(bank, morph, n_nodes, {"xi": (1, [BoundaryConstraint("initial", [y0])])},
                         {}, rates=("xi",))
        self.rate = rate
        self.expr = self._exprs["xi"]

    def residual(self, values: np.ndarray) -> np.ndarray:
        self._sync(values)
        y, ydot = self.expr.eval(self.nodes)
        return ydot[:, 0] - self.rate * y[:, 0]

    def _partials(self, maps):
        # r = c y' - rate y at every node, in (y, y') with y' = dy / dtau
        return np.array([[[-self.rate, self.morph.c_map]]]), None

    def solution(self, t_grid: np.ndarray) -> np.ndarray:
        return self._tabulate(self.expr, t_grid)[:, 0]


class QocProblem(_Collocation):
    """PMP collocation problem for a superoperator model with box-bounded
    controls and free final time (decision scalar: morph rate, kept within
    c_map_bounds); the state is pinned at both ends, the costate is free."""

    c_map_bounds = (0.05, 20.0)

    def __init__(self, bank: cvqnn.QnnBank, cfg: pmp.OcpConfig,
                 model: SuperOperatorModel, morph: TimeMorph, n_nodes: int):
        if not self.c_map_bounds[0] <= morph.c_map <= self.c_map_bounds[1]:   # not clipped unseen
            raise ValueError(f"morph rate {morph.c_map!r} outside {self.c_map_bounds}")
        dim, nc = model.dim, model.n_controls
        super().__init__(bank, morph, n_nodes, {
            "xi_state": (dim, [BoundaryConstraint("initial", cfg.rho_init),
                               BoundaryConstraint("final", cfg.rho_target)]),
            "xi_costate": (dim, []),
            "xi_u": (nc, []), "xi_nu": (nc, []), "xi_beta": (nc, []),
        }, {"c_map": morph.c_map}, rates=("xi_state", "xi_costate"))
        self.cfg = cfg
        self.model = model
        self.unknowns = pmp.UnknownSet(*self._exprs.values())
        # (values, ResidualVector) of the last evaluation and of the held point
        self._last = self._held = None

    def bounds(self):
        return [(self.decision.blocks["c_map"].start, *self.c_map_bounds)]

    def _sync(self, values: np.ndarray) -> None:
        lo, hi = self.c_map_bounds
        self.morph.c_map = float(np.clip(values[self.decision.blocks["c_map"].start], lo, hi))
        super()._sync(values)

    def residual_vector(self, values: np.ndarray) -> pmp.ResidualVector:
        """The residual families at values.  Two evaluations are kept, each
        with a copy of its values, and returned again for equal values: the
        last one (the training callback and Adam's gradient read the point
        just evaluated) and the held one, the last asked for again, or the
        first before any such ask.  The callback asks again for every point
        Gauss-Newton accepts, so after an iteration whose trials were all
        rejected it finds the point still held.  _sync derives all problem
        state from the values, so neither can go stale."""
        self._sync(values)
        for entry in (self._last, self._held):
            if entry is not None and np.array_equal(values, entry[0]):
                self._held = entry
                return entry[1]
        self._last = (np.array(values, dtype=float),
                      pmp.residuals(self.unknowns, self.cfg, self.model, self.nodes))
        if self._held is None:
            self._held = self._last
        return self._last[1]

    def residual(self, values: np.ndarray) -> np.ndarray:
        return self.residual_vector(values).concat()

    def _partials(self, maps):
        """pmp's linearisation at the synced point.  c_map enters as its
        clipped value, so on a bound its column is the one-sided derivative
        from inside."""
        return pmp.residual_partials(maps, list(self._xi.values()), self.morph.c_map,
                                     self.cfg, self.model)

    # --- trained-solution accessors -------------------------------------

    def state_trajectory(self, t_grid):
        return self._tabulate(self.unknowns.expr_state, t_grid)

    def control_trajectory(self, t_grid):
        return self._tabulate(self.unknowns.expr_control, t_grid)

    def control_function(self):
        """u(t) for the RK4 verifier by control_trajectory's path: shape
        (n_controls,) for a scalar t, (K, n_controls) for K times."""
        return functools.partial(self._tabulate, self.unknowns.expr_control)

    def final_time(self) -> float:
        self._sync(self.decision.values)
        return self.morph.tf

    def terminal_state_error(self) -> float:
        """Distance between the trained state at tf and the target; exact
        zero up to rounding by construction."""
        x_end, _ = self.unknowns.expr_state.eval(self.morph.tauf)
        return float(np.linalg.norm(x_end - self.cfg.rho_target))

    def verify_rk4(self, steps: int = None):
        """Propagate the learned control from rho_init with RK4 and report
        the endpoint gap to rho_target.

        With steps given, one run of that many steps: (times, states, gap).
        With none, the step count comes from an error estimate: runs of
        RK4_BASE_STEPS, twice as many, and so on, until the step-doubling
        (Richardson) estimate of the last run's error on the grid of
        RK4_BASE_STEPS intervals, max over its states of
        |x_N - x_{N/2}| / (2^4 - 1), is at most RK4_TOLERANCE, or the run
        has RK4_MAX_STEPS steps, where it stops whatever the estimate.
        Returns (times, states, gap, estimate) of that last run; its step
        count is a multiple of RK4_BASE_STEPS, so its states at a stride of
        steps // RK4_BASE_STEPS lie on the grid.

        The ladder asks control_function() for the control at each stage
        time once.  A run of N steps has the 2N + 1 stage times
        linspace(t0, tf, 2N + 1), and the run before it (N / 2 steps) had
        exactly its even ones, since the step halves exactly; once they are
        checked equal, the run takes that run's control rows as its even
        rows and tabulates only its N odd stage times.  A row does not
        depend on the other times of its tabulation (see _BLOCK_BYTES), so
        each run equals a fresh run of its step count bit for bit.
        """
        u = self.control_function()
        t0, tf = self.morph.t0, self.final_time()

        def run(n, control):
            ts, xs = lindblad.propagate_rk4(self.model, self.cfg.rho_init, control, t0, tf, n)
            return ts, xs, float(np.linalg.norm(xs[-1] - self.cfg.rho_target))

        if steps is not None:
            return run(steps, u)
        last = None   # the last run's stage times and control rows

        def reusing(stages):
            nonlocal last
            if last is None or not np.array_equal(stages[::2], last[0]):
                rows = u(stages)
            else:
                rows = np.empty((stages.size, self.model.n_controls))
                rows[::2], rows[1::2] = last[1], u(stages[1::2])
            last = (stages, rows)
            return rows

        steps = RK4_BASE_STEPS
        _, xs, _ = run(steps, reusing)
        while True:
            coarse = xs[::steps // RK4_BASE_STEPS]
            steps *= 2
            ts, xs, gap = run(steps, reusing)
            diff = xs[::steps // RK4_BASE_STEPS] - coarse
            estimate = float(np.max(np.linalg.norm(diff, axis=1))) / 15.0
            if estimate <= RK4_TOLERANCE or steps >= RK4_MAX_STEPS:
                return ts, xs, gap, estimate
