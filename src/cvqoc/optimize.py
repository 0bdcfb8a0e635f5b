"""Nonlinear least-squares and stochastic training loops.

Gauss-Newton with Levenberg-Marquardt damping handles the output-weight
(and morph-rate) coordinates; Adam handles the circuit parameters in joint
training, which alternates the two.  Both solvers take exact derivatives:
every problem supplies the closed-form Jacobian of its residual,
Gauss-Newton uses it and Adam takes the gradient J^T r / ||r|| of the
residual norm from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class DecisionVector:
    """Flat decision coordinates with named blocks."""

    values: np.ndarray
    blocks: dict   # name -> slice

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()

    def replace(self, values: np.ndarray) -> None:
        if values.shape != self.values.shape:
            raise ValueError("decision vector length changed")
        self.values = np.asarray(values, dtype=float).copy()


# why a solver stopped: loss under tolerance, iteration budget spent, no
# trial step lowered the loss, or the damped normal equations were singular
STOP_REASONS = ("converged", "max_iter", "no_descent", "singular")

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class SolveReport:
    """A solve's record.  The iteration count, final loss and converged
    flag are read from the loss history and the stop reason."""

    loss_history: list   # the starting loss, then one entry per iteration
    tolerance_used: float
    wall_time: float = 0.0
    stop_reason: str = "max_iter"
    # one entry per Gauss-Newton iteration (none for Adam): the damping and
    # step scale of its last trial, the trials tried, whether one was
    # accepted, and the residual calls so far
    gn_iterations: list = field(default_factory=list)

    def __post_init__(self):
        if not self.loss_history:
            raise ValueError("loss history must not be empty")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def iterations(self) -> int:
        return len(self.loss_history) - 1

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1]

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_loss": self.final_loss,
            "loss_history": list(self.loss_history),
            "converged": self.converged,
            "tolerance_used": self.tolerance_used,
            "wall_time": self.wall_time,
            "stop_reason": self.stop_reason,
            "gn_iterations": list(self.gn_iterations),
        }


def fd_step(z: np.ndarray, base: float = 1e-6) -> np.ndarray:
    """Per-coordinate relative step max(base, base * |z_k|)."""
    return np.maximum(base, base * np.abs(z))


def jacobian_fd(res_fn, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a residual vector, column per coordinate.
    No solver uses it: it is the oracle the closed-form Jacobians are
    tested against."""
    if h <= 0:
        raise ValueError("step must be positive")
    z = np.asarray(z, dtype=float)
    steps = fd_step(z, h)
    cols = []
    for k in range(z.shape[0]):
        zp = z.copy()
        zp[k] += steps[k]
        rp = np.asarray(res_fn(zp))
        zm = z.copy()
        zm[k] -= steps[k]
        rm = np.asarray(res_fn(zm))
        if not (np.all(np.isfinite(rp)) and np.all(np.isfinite(rm))):
            raise FloatingPointError(f"non-finite residual while perturbing coordinate {k}")
        cols.append((rp - rm) / (2.0 * steps[k]))
    return np.column_stack(cols)


def _finite_loss(loss, where: str) -> float:
    loss = float(loss)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {where}")
    return loss


def gauss_newton(res_fn, z0: np.ndarray, *, jac_fn, tol: float = 1e-6,
                 max_iter: int = 50, damping: float = 1e-8, bounds=None, callback=None):
    """Damped Gauss-Newton iteration on the residual L2 norm.

    jac_fn(z) returns the Jacobian of res_fn at z.  res_fn is asked once
    for the start and once per trial point; an accepted trial's residual is
    the next iteration's r.  Rejected steps are halved up to 8 times while
    the damping escalates tenfold; accepted steps relax it.  bounds, when
    given, is a list of (index, lo, hi) box constraints applied by
    projection after each step.  A non-finite loss
    at the starting point or a non-finite Jacobian entry raises
    FloatingPointError; a trial step with a non-finite loss is rejected, so
    every accepted point has a finite loss.  The iteration stops when the
    loss is under tol, after max_iter iterations, when all 9 trial steps
    fail to lower the loss (no_descent), or when the damped system cannot be
    solved (singular).  callback(k, z, loss), when given, runs after every
    iteration k, also after a last one that accepted no step (z and loss
    then repeat the previous iteration's).  The report's gn_iterations
    records, per iteration, the damping and step scale of the last trial
    (`damping`, `step_scale`), the trial points evaluated (`trials`),
    whether one was `accepted`, and res_fn's calls so far
    (`residual_calls`, 1 + the trials so far).  Returns (z, SolveReport).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not 0 <= damping < np.inf:
        raise ValueError(f"damping must be finite and non-negative, got {damping!r}")
    start = time.perf_counter()
    z = np.asarray(z0, dtype=float).copy()
    lam = damping
    r = np.asarray(res_fn(z))
    loss = _finite_loss(np.linalg.norm(r), "at the starting point")
    history = [loss]
    calls = 1
    log = []
    reason = "converged" if loss < tol else "max_iter"
    while reason == "max_iter" and len(log) < max_iter:
        jac = np.asarray(jac_fn(z), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError("non-finite Jacobian entry")
        jtj = jac.T @ jac
        undamped = jtj.diagonal().copy()   # each trial damps jtj's diagonal in place
        jtr = jac.T @ r
        accepted = False
        stall = "no_descent"
        step_scale = 1.0
        trials = 0
        for _ in range(9):
            entry = {"damping": lam, "step_scale": step_scale}
            try:
                np.fill_diagonal(jtj, undamped + lam)
                delta = np.linalg.solve(jtj, -jtr)
            except np.linalg.LinAlgError:
                stall = "singular"
                break
            z_try = z + step_scale * delta
            if bounds:
                for idx, lo, hi in bounds:
                    z_try[idx] = min(max(z_try[idx], lo), hi)
            r_try = np.asarray(res_fn(z_try))
            loss_try = float(np.linalg.norm(r_try))
            calls += 1
            trials += 1
            if np.isfinite(loss_try) and loss_try < loss:
                z, r, loss = z_try, r_try, loss_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            step_scale *= 0.5
            lam = min(lam * 10.0, 1e8) if lam > 0 else 1e-8
        history.append(loss)
        log.append(dict(entry, trials=trials, accepted=accepted, residual_calls=calls))
        if callback:
            callback(len(log), z, loss)
        if loss < tol:
            reason = "converged"
        elif not accepted:
            reason = stall
    return z, SolveReport(loss_history=history, tolerance_used=tol,
                          wall_time=time.perf_counter() - start, stop_reason=reason,
                          gn_iterations=log)


def adam(loss_fn, z0: np.ndarray, *, grad_fn, lr: float = 0.01, max_epochs: int = 200,
         tol: float = 0.0, callback=None):
    """Adam with bias correction on a scalar loss.

    grad_fn(z) returns the gradient of loss_fn at z.  Each epoch takes the
    gradient at the current point, updates, and evaluates the loss there.
    A non-finite loss (at the starting point or after an update), gradient
    entry or updated parameter raises FloatingPointError.  Returns
    (z, SolveReport)."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    start = time.perf_counter()
    z = np.asarray(z0, dtype=float).copy()
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    history = [_finite_loss(loss_fn(z), "at the starting point")]
    reason = "converged" if history[0] < tol else "max_iter"
    epoch = 0
    while reason == "max_iter" and epoch < max_epochs:
        grad = np.asarray(grad_fn(z), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient entry in epoch {epoch + 1}")
        epoch += 1
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
        m_hat = m / (1 - ADAM_BETA1**epoch)
        v_hat = v / (1 - ADAM_BETA2**epoch)
        with np.errstate(over="ignore"):   # an overflow is reported just below
            z = z - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite parameter after epoch {epoch}")
        loss = _finite_loss(loss_fn(z), f"after epoch {epoch}")
        history.append(loss)
        if callback:
            callback(epoch, z, loss)
        if loss < tol:
            reason = "converged"
    return z, SolveReport(loss_history=history, tolerance_used=tol,
                          wall_time=time.perf_counter() - start, stop_reason=reason)


@dataclass
class TrainSchedule:
    mode: str = "xi"           # xi | joint
    tolerance: float = 1e-6
    gn_max_iter: int = 50
    adam_lr: float = 1e-6
    joint_rounds: int = 5
    joint_gn_steps: int = 3
    joint_adam_steps: int = 25

    def __post_init__(self):
        if self.mode not in ("xi", "joint"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        if not 0 < self.adam_lr < np.inf:
            raise ValueError("adam_lr must be positive and finite")
        for name in ("gn_max_iter", "joint_rounds", "joint_gn_steps", "joint_adam_steps"):
            least = int(name == "joint_rounds")   # a joint plan needs a round
            if type(value := getattr(self, name)) is not int or value < least:   # bool too
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def train(problem, schedule: TrainSchedule, callback=None):
    """Train a collocation problem by a plan of bursts, each one solver on
    one coordinate mask: mode xi is one Gauss-Newton burst on the output
    weights (and scalars); joint is joint_rounds rounds of a Gauss-Newton
    burst on them and an Adam burst on the circuit parameters (with no Adam
    steps, the xi plan).

    The problem must expose: decision (DecisionVector), xi_mask, theta_mask
    (boolean coordinate masks), residual(values) -> array,
    jacobian(values, mask) -> the residual's Jacobian on the mask
    coordinates, and bounds() giving box constraints as (index, lo, hi) in
    full coordinates.  Each solver is handed the Jacobian on the mask it
    fits.  Both solvers minimise the residual norm ||r||, Adam with the
    gradient J^T r / ||r||.  callback, when given, is invoked as
    callback(epoch, full_values, loss) after every Gauss-Newton iteration
    (also one that accepted no step) and every Adam epoch.
    The plan stops after a converged burst.  The report joins the bursts
    run: loss histories end to end, less each later burst's starting loss,
    and the last burst's stop_reason.
    """
    start = time.perf_counter()
    bounds = problem.bounds()

    def fit(mask, offset, solve):
        """solve(res, jac, z0, bounds, callback) on the masked coordinates, the
        rest held at their current values; writes the result back and returns
        the solver's report.  jac is the problem's Jacobian on the masked
        coordinates as a function of them.  Callback epochs are shifted by
        offset."""
        base = problem.decision.values.copy()
        idx = np.flatnonzero(mask)
        pos = {j: i for i, j in enumerate(idx)}

        def lift(sub):
            full = base.copy()
            full[idx] = sub
            return full

        def lifted(k, sub, loss):
            callback(offset + k, lift(sub), loss)

        z, report = solve(lambda sub: problem.residual(lift(sub)),
                          lambda sub: problem.jacobian(lift(sub), mask),
                          base[idx], [(pos[j], lo, hi) for j, lo, hi in bounds if j in pos],
                          lifted if callback else None)
        problem.decision.replace(lift(z))
        return report

    def newton(max_iter):
        return lambda res, jac, z0, sub_bounds, cb: gauss_newton(
            res, z0, jac_fn=jac, tol=schedule.tolerance, max_iter=max_iter,
            bounds=sub_bounds, callback=cb)

    def descent(max_epochs):
        def solve(res, jac, z0, _, cb):
            def gradient(sub):
                r = res(sub)
                return (jac(sub).T @ r) / np.linalg.norm(r)

            return adam(lambda sub: float(np.linalg.norm(res(sub))), z0, grad_fn=gradient,
                        lr=schedule.adam_lr, max_epochs=max_epochs,
                        tol=schedule.tolerance, callback=cb)

        return solve

    plan = [(problem.xi_mask, newton(schedule.gn_max_iter))]
    if schedule.mode == "joint" and schedule.joint_adam_steps:
        plan = [(problem.xi_mask, newton(schedule.joint_gn_steps)),
                (problem.theta_mask, descent(schedule.joint_adam_steps))] * schedule.joint_rounds
    reports = []
    for mask, solve in plan:
        reports.append(fit(mask, sum(r.iterations for r in reports), solve))
        if reports[-1].converged:
            break
    return SolveReport(
        loss_history=reports[0].loss_history[:1] + [
            loss for r in reports for loss in r.loss_history[1:]],
        tolerance_used=schedule.tolerance, wall_time=time.perf_counter() - start,
        stop_reason=reports[-1].stop_reason,
        gn_iterations=[entry for r in reports for entry in r.gn_iterations],
    )
