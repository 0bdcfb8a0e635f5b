"""Nonlinear least-squares and stochastic training loops.

Gauss-Newton with Levenberg-Marquardt damping handles the output-weight
(and morph-rate) coordinates; Adam handles the circuit parameters; joint
training alternates the two.  When the problem has a Jacobian
(QocProblem.jacobian, closed form in both the weights and the circuit
parameters), Gauss-Newton uses it and Adam takes the exact gradient J^T r
of its loss from it; otherwise both take central differences (jacobian_fd,
and a per-coordinate loss difference in Adam).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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


@dataclass
class SolveReport:
    iterations: int
    final_loss: float
    loss_history: list
    converged: bool
    tolerance_used: float
    wall_time: float = 0.0
    stop_reason: str = "max_iter"

    def __post_init__(self):
        if not self.loss_history:
            raise ValueError("loss history must not be empty")
        if self.loss_history[-1] != self.final_loss:
            raise ValueError("final loss must equal the last history entry")
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if (self.stop_reason == "converged") != self.converged:
            raise ValueError("stop reason contradicts the converged flag")

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "final_loss": self.final_loss,
            "loss_history": list(self.loss_history),
            "converged": self.converged,
            "tolerance_used": self.tolerance_used,
            "wall_time": self.wall_time,
            "stop_reason": self.stop_reason,
        }


def fd_step(z: np.ndarray, base: float = 1e-6) -> np.ndarray:
    """Per-coordinate relative step max(base, base * |z_k|)."""
    return np.maximum(base, base * np.abs(z))


def jacobian_fd(res_fn, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a residual vector, column per coordinate."""
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


def gauss_newton(res_fn, z0: np.ndarray, tol: float = 1e-6, max_iter: int = 50,
                 damping: float = 1e-8, fd_h: float = 1e-6,
                 bounds=None, callback=None, jac_fn=None):
    """Damped Gauss-Newton iteration on the residual L2 norm.

    jac_fn(z), when given, returns the Jacobian of res_fn at z; otherwise
    jacobian_fd takes central differences with step fd_h.  Rejected steps
    are halved up to 8 times while the damping escalates tenfold; accepted
    steps relax it.  bounds, when given, is a list of (index, lo, hi) box
    constraints applied by projection after each step.  A non-finite loss
    at the starting point, a non-finite Jacobian entry, or a non-finite
    residual while differencing raises FloatingPointError; a trial step
    with a non-finite loss is rejected, so every accepted point has a
    finite loss.  The iteration stops when the loss is under tol, after
    max_iter iterations, when all 9 trial steps fail to lower the loss
    (no_descent), or when the damped system cannot be solved (singular).
    Returns (z, SolveReport).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    start = time.perf_counter()
    z = np.asarray(z0, dtype=float).copy()
    lam = max(damping, 0.0)
    history = [_finite_loss(np.linalg.norm(res_fn(z)), "at the starting point")]
    converged = history[0] < tol
    reason = "converged" if converged else "max_iter"
    iters = 0
    while not converged and iters < max_iter:
        r = np.asarray(res_fn(z))
        if jac_fn is None:
            jac = jacobian_fd(res_fn, z, fd_h)
        else:
            jac = np.asarray(jac_fn(z), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError("non-finite Jacobian entry")
        jtj = jac.T @ jac
        jtr = jac.T @ r
        loss = float(np.linalg.norm(r))
        accepted = False
        stall = "no_descent"
        step_scale = 1.0
        for _ in range(9):
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(jtj.shape[0]), -jtr)
            except np.linalg.LinAlgError:
                stall = "singular"
                break
            z_try = z + step_scale * delta
            if bounds:
                for idx, lo, hi in bounds:
                    z_try[idx] = min(max(z_try[idx], lo), hi)
            loss_try = float(np.linalg.norm(res_fn(z_try)))
            if np.isfinite(loss_try) and loss_try < loss:
                z = z_try
                loss = loss_try
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            step_scale *= 0.5
            lam = min(lam * 10.0, 1e8) if lam > 0 else 1e-8
        iters += 1
        history.append(loss)
        if callback:
            callback(iters, z, loss)
        if loss < tol:
            converged = True
            reason = "converged"
        elif not accepted:
            reason = stall
            break
    report = SolveReport(
        iterations=iters, final_loss=history[-1], loss_history=history,
        converged=bool(converged), tolerance_used=tol,
        wall_time=time.perf_counter() - start, stop_reason=reason,
    )
    return z, report


def _gradient_fd(loss_fn, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar loss, step fd_step(z, h)."""
    steps = fd_step(z, h)
    grad = np.empty_like(z)
    for k in range(z.shape[0]):
        zp = z.copy()
        zp[k] += steps[k]
        zm = z.copy()
        zm[k] -= steps[k]
        lp, lm = loss_fn(zp), loss_fn(zm)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise FloatingPointError(f"non-finite loss while perturbing coordinate {k}")
        grad[k] = (lp - lm) / (2.0 * steps[k])
    return grad


def adam(loss_fn, z0: np.ndarray, lr: float = 0.01, max_epochs: int = 200,
         tol: float = 0.0, beta1: float = 0.9, beta2: float = 0.999,
         eps: float = 1e-8, fd_h: float = 1e-6, callback=None, grad_fn=None):
    """Adam with bias correction on a scalar loss.

    grad_fn(z), when given, returns the gradient of loss_fn at z (train
    supplies the exact one from the problem's Jacobian); otherwise central
    finite differences with step fd_h estimate it.  Each epoch takes the
    gradient at the current point, updates, and evaluates the loss there.
    A non-finite loss (at the starting point, while differencing or after
    an update) or gradient entry raises FloatingPointError.  Returns
    (z, SolveReport)."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    start = time.perf_counter()
    z = np.asarray(z0, dtype=float).copy()
    m = np.zeros_like(z)
    v = np.zeros_like(z)
    history = [_finite_loss(loss_fn(z), "at the starting point")]
    converged = history[0] < tol
    epoch = 0
    while not converged and epoch < max_epochs:
        if grad_fn is None:
            grad = _gradient_fd(loss_fn, z, fd_h)
        else:
            grad = np.asarray(grad_fn(z), dtype=float)
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient entry in epoch {epoch + 1}")
        epoch += 1
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**epoch)
        v_hat = v / (1 - beta2**epoch)
        z = z - lr * m_hat / (np.sqrt(v_hat) + eps)
        loss = _finite_loss(loss_fn(z), f"after epoch {epoch}")
        history.append(loss)
        if callback:
            callback(epoch, z, loss)
        if loss < tol:
            converged = True
    report = SolveReport(
        iterations=epoch, final_loss=history[-1], loss_history=history,
        converged=bool(converged), tolerance_used=tol,
        wall_time=time.perf_counter() - start,
        stop_reason="converged" if converged else "max_iter",
    )
    return z, report


@dataclass
class TrainSchedule:
    mode: str = "xi"           # xi | theta | joint
    tolerance: float = 1e-6
    gn_max_iter: int = 50
    gn_damping: float = 1e-8
    adam_lr: float = 0.01
    adam_epochs: int = 200
    joint_rounds: int = 5
    joint_gn_steps: int = 3
    joint_adam_steps: int = 25
    fd_h: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("xi", "theta", "joint"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def train(problem, schedule: TrainSchedule, callback=None):
    """Run the selected training mode on a collocation problem.

    The problem must expose: decision (DecisionVector), xi_mask, theta_mask
    (boolean coordinate masks), residual(values) -> array, and bounds()
    giving box constraints as (index, lo, hi) in full coordinates.  When it
    also has jacobian(values, mask), the residual's Jacobian on the mask
    coordinates, each solver is handed the one on the mask it fits:
    Gauss-Newton uses it instead of finite differences, and Adam takes the
    exact gradient of its loss from it, (2/n) J^T r for the mean square of
    theta mode and J^T r / ||r|| for the norm of joint mode.  Without it
    both difference with step fd_h.  callback, when given, is invoked as
    callback(epoch, full_values, loss) after every accepted optimizer step.
    The report's stop_reason is the Gauss-Newton one in xi mode; theta and
    joint runs that end above the tolerance stop at their epoch or round
    budget (max_iter).
    """
    start = time.perf_counter()
    bounds = problem.bounds()
    jacobian = getattr(problem, "jacobian", None)

    def fit(mask, offset, solve):
        """solve(res, jac, z0, bounds, callback) on the masked coordinates, the
        rest held at their current values; writes the result back and returns
        the solver's report.  jac is the problem's Jacobian on the masked
        coordinates as a function of them, or None.  Callback epochs are
        shifted by offset."""
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
                          None if jacobian is None else (lambda sub: jacobian(lift(sub), mask)),
                          base[idx], [(pos[j], lo, hi) for j, lo, hi in bounds if j in pos],
                          lifted if callback else None)
        problem.decision.replace(lift(z))
        return report

    def newton(max_iter):
        return lambda res, jac, z0, sub_bounds, cb: gauss_newton(
            res, z0, tol=schedule.tolerance, max_iter=max_iter,
            damping=schedule.gn_damping, fd_h=schedule.fd_h,
            bounds=sub_bounds, callback=cb, jac_fn=jac)

    def descent(loss, grad, max_epochs, tol):
        """Adam on loss(r); grad(r, J) is its gradient given the Jacobian."""
        return lambda res, jac, z0, _, cb: adam(
            lambda sub: loss(res(sub)), z0, lr=schedule.adam_lr,
            max_epochs=max_epochs, tol=tol, fd_h=schedule.fd_h, callback=cb,
            grad_fn=None if jac is None else (lambda sub: grad(res(sub), jac(sub))))

    # a joint schedule without Adam steps is exactly xi-only training
    if schedule.mode == "xi" or (schedule.mode == "joint" and schedule.joint_adam_steps == 0):
        report = fit(problem.xi_mask, 0, newton(schedule.gn_max_iter))
        report.wall_time = time.perf_counter() - start
        return report

    if schedule.mode == "theta":
        n_res = len(problem.residual(problem.decision.values))
        # mean(r^2) < tolerance^2 / n  <=>  ||r|| < tolerance
        report = fit(problem.theta_mask, 0,
                     descent(lambda r: float(np.mean(r**2)),
                             lambda r, jac: (2.0 / n_res) * (jac.T @ r),
                             schedule.adam_epochs, schedule.tolerance**2 / n_res))
        # report L2 norms for comparability with the least-squares modes
        history = [float(np.linalg.norm(problem.residual(problem.decision.values)))]
        converged = history[-1] < schedule.tolerance
        return SolveReport(
            iterations=report.iterations, final_loss=history[-1],
            loss_history=[np.sqrt(max(h, 0.0) * n_res) for h in report.loss_history[:-1]] + history,
            converged=converged,
            tolerance_used=schedule.tolerance,
            wall_time=time.perf_counter() - start,
            stop_reason="converged" if converged else "max_iter",
        )

    # joint: alternate short Gauss-Newton bursts on xi with Adam bursts on theta
    bursts = ((problem.xi_mask, newton(schedule.joint_gn_steps)),
              (problem.theta_mask, descent(lambda r: float(np.linalg.norm(r)),
                                           lambda r, jac: (jac.T @ r) / np.linalg.norm(r),
                                           schedule.joint_adam_steps, schedule.tolerance)))
    history = [float(np.linalg.norm(problem.residual(problem.decision.values)))]
    iters = 0
    converged = history[0] < schedule.tolerance
    for _ in range(schedule.joint_rounds):
        for mask, solve in bursts:
            if converged:
                break
            report = fit(mask, iters, solve)
            iters += report.iterations
            history.extend(report.loss_history[1:])
            converged = history[-1] < schedule.tolerance
    final = float(np.linalg.norm(problem.residual(problem.decision.values)))
    history.append(final)
    converged = bool(final < schedule.tolerance)
    return SolveReport(
        iterations=iters, final_loss=final, loss_history=history,
        converged=converged, tolerance_used=schedule.tolerance,
        wall_time=time.perf_counter() - start,
        stop_reason="converged" if converged else "max_iter",
    )
