import numpy as np
import pytest

from cvqoc import optimize
from cvqoc.optimize import (DecisionVector, SolveReport, TrainSchedule, adam,
                            fd_step, gauss_newton, jacobian_fd)


def test_decision_vector_blocks_and_version():
    d = DecisionVector(values=np.arange(5.0), blocks={"a": slice(0, 2), "b": slice(2, 5)})
    assert np.array_equal(d.values[d.blocks["b"]], [2.0, 3.0, 4.0])
    d.replace(np.zeros(5))
    assert np.array_equal(d.values, np.zeros(5))
    with pytest.raises(ValueError):
        d.replace(np.zeros(4))


def test_solve_report_invariants():
    with pytest.raises(ValueError):
        SolveReport(loss_history=[], tolerance_used=1e-6)
    rep = SolveReport(loss_history=[2.0, 3.0], tolerance_used=1e-6)
    assert (rep.iterations, rep.final_loss, rep.converged) == (1, 3.0, False)
    assert rep.to_dict()["final_loss"] == 3.0
    assert sorted(rep.to_dict()) == ["converged", "final_loss", "gn_iterations",
                                     "iterations", "loss_history", "stop_reason",
                                     "tolerance_used", "wall_time"]


def test_fd_step_relative():
    steps = fd_step(np.array([0.0, 1e-3, 100.0]))
    assert steps[0] == 1e-6
    assert steps[1] == 1e-6
    assert steps[2] == pytest.approx(1e-4)


def test_jacobian_affine():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    jac = jacobian_fd(lambda z: a @ z + b, rng.normal(size=4))
    assert np.max(np.abs(jac - a)) < 1e-9


def test_jacobian_constant_and_shapes():
    jac = jacobian_fd(lambda z: np.ones(3), np.zeros(5))
    assert jac.shape == (3, 5)
    assert np.max(np.abs(jac)) == 0.0
    with pytest.raises(ValueError):
        jacobian_fd(lambda z: z, np.zeros(2), h=0.0)


def test_jacobian_nonfinite_names_coordinate():
    def res(z):
        return np.array([np.inf if z[1] > 0.5 else z[0]])

    with pytest.raises(FloatingPointError, match="coordinate 1"):
        jacobian_fd(res, np.array([0.0, 0.5]))


def test_gauss_newton_linear_one_step():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(8, 5))
    b = rng.normal(size=8)
    z_star, *_ = np.linalg.lstsq(a, b, rcond=None)
    z, rep = gauss_newton(lambda z: a @ z - b, np.zeros(5), jac_fn=lambda z: a,
                          tol=1e-12, damping=0.0)
    assert np.max(np.abs(z - z_star)) < 1e-10
    # the exact minimizer is accepted on the very first step; later
    # iterations find no further descent
    floor = float(np.linalg.norm(a @ z_star - b))
    assert rep.loss_history[1] == pytest.approx(floor, abs=1e-10)


def test_gauss_newton_already_optimal():
    z, rep = gauss_newton(lambda z: z * 0.0, np.array([1.0, 2.0]),
                          jac_fn=lambda z: np.zeros((2, 2)), tol=1e-6)
    assert rep.converged
    assert rep.iterations == 0


def rosenbrock(z):
    return np.array([10.0 * (z[1] - z[0]**2), 1.0 - z[0]])


def rosenbrock_jacobian(z):
    return np.array([[-20.0 * z[0], 10.0], [-1.0, 0.0]])


def test_gauss_newton_rosenbrock():
    z, rep = gauss_newton(rosenbrock, np.array([-1.2, 1.0]), jac_fn=rosenbrock_jacobian,
                          tol=1e-10, max_iter=100)
    assert np.max(np.abs(z - 1.0)) < 1e-6
    # accepted-step loss history never increases
    assert all(b <= a + 1e-12 for a, b in zip(rep.loss_history, rep.loss_history[1:]))


def test_gauss_newton_respects_bounds():
    z, _ = gauss_newton(lambda z: z - 5.0, np.zeros(1), jac_fn=lambda z: np.eye(1),
                        tol=1e-12, bounds=[(0, -1.0, 2.0)])
    assert z[0] <= 2.0 + 1e-12


def test_gauss_newton_rejects_bad_tol():
    with pytest.raises(ValueError):
        gauss_newton(lambda z: z, np.zeros(1), jac_fn=lambda z: np.eye(1), tol=0.0)


@pytest.mark.parametrize("damping", [-1e-3, np.nan, np.inf])
def test_gauss_newton_rejects_bad_damping(damping):
    # a negative damping is an error, not silently zero
    with pytest.raises(ValueError, match="damping"):
        gauss_newton(lambda z: z, np.ones(1), jac_fn=lambda z: np.eye(1), damping=damping)


def test_gauss_newton_uses_supplied_jacobian():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 5))
    b = rng.normal(size=8)
    calls = {"n": 0}

    def res(z):
        calls["n"] += 1
        return a @ z - b

    z, rep = gauss_newton(res, np.zeros(5), tol=1e-12, max_iter=1, damping=0.0,
                          jac_fn=lambda z: a)
    assert np.allclose(z, np.linalg.lstsq(a, b, rcond=None)[0], atol=1e-10)
    assert rep.iterations == 1
    # initial loss, one accepted trial
    assert calls["n"] == 2


def test_gauss_newton_raises_on_nonfinite_supplied_jacobian():
    def jac(z):
        return np.array([[1.0, np.nan]])

    with pytest.raises(FloatingPointError, match="non-finite Jacobian"):
        gauss_newton(lambda z: np.array([1.0 + z[0]]), np.zeros(2), jac_fn=jac)


def nan_at_start(z):
    """Non-finite only at the exact starting point z = 0, finite nearby."""
    return np.array([np.nan]) if not np.any(z) else np.array([1.0 + z[0]])


def test_gauss_newton_raises_on_nonfinite_starting_loss():
    with pytest.raises(FloatingPointError, match="non-finite loss at the starting point"):
        gauss_newton(nan_at_start, np.zeros(2), jac_fn=lambda z: np.array([[1.0, 0.0]]))


def test_adam_quadratic_bowl():
    rng = np.random.default_rng(2)
    z_star = rng.normal(size=3)
    d = np.array([1.0, 4.0, 0.5])

    def loss(z):
        return float((z - z_star) @ (d * (z - z_star)))

    z, rep = adam(loss, np.zeros(3), grad_fn=lambda z: 2.0 * d * (z - z_star),
                  lr=0.05, max_epochs=2000, tol=1e-12)
    assert np.max(np.abs(z - z_star)) < 1e-3


def test_adam_at_minimum_stays():
    z, rep = adam(lambda z: float(z @ z), np.zeros(2), grad_fn=lambda z: 2.0 * z,
                  lr=0.01, max_epochs=5)
    assert all(h == rep.loss_history[0] for h in rep.loss_history)


def test_adam_first_step_magnitude():
    # bias-corrected first update moves each coordinate by ~lr
    z, _ = adam(lambda z: float(np.sum(3.0 * z)), np.zeros(2),
                grad_fn=lambda z: np.full(2, 3.0), lr=0.01, max_epochs=1)
    assert np.allclose(np.abs(z), 0.01, atol=1e-6)


def test_adam_rejects_bad_lr():
    with pytest.raises(ValueError):
        adam(lambda z: 0.0, np.zeros(1), grad_fn=lambda z: np.zeros(1), lr=0.0)


def test_adam_raises_on_nonfinite_starting_loss():
    with pytest.raises(FloatingPointError, match="non-finite loss at the starting point"):
        adam(lambda z: float(nan_at_start(z)[0]), np.zeros(2),
             grad_fn=lambda z: np.array([1.0, 0.0]), max_epochs=3)


@pytest.mark.parametrize("max_epochs", [1, 3])
def test_adam_raises_on_nonfinite_loss_after_update(max_epochs):
    # finite at the start; the first update moves each coordinate by about
    # -lr, into the non-finite region
    def loss(z):
        return np.nan if z[0] < -1e-3 else float(np.sum(3.0 * z))

    with pytest.raises(FloatingPointError, match="non-finite loss after epoch 1"):
        adam(loss, np.zeros(2), grad_fn=lambda z: np.full(2, 3.0), lr=0.01,
             max_epochs=max_epochs)


def test_adam_with_gradient_evaluates_the_loss_once_per_epoch():
    rng = np.random.default_rng(2)
    z_star = rng.normal(size=3)
    d = np.array([1.0, 4.0, 0.5])
    calls = {"n": 0}

    def loss(z):
        calls["n"] += 1
        return float((z - z_star) @ (d * (z - z_star)))

    z, rep = adam(loss, np.zeros(3), lr=0.05, max_epochs=2000, tol=1e-12,
                  grad_fn=lambda z: 2.0 * d * (z - z_star))
    assert np.max(np.abs(z - z_star)) < 1e-3
    assert calls["n"] == rep.iterations + 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_raises_on_nonfinite_gradient(bad):
    def grad(z):
        return np.array([1.0, bad])

    with pytest.raises(FloatingPointError, match="non-finite gradient entry in epoch 1"):
        adam(lambda z: float(z @ z) + 1.0, np.zeros(2), grad_fn=grad, max_epochs=3)


def test_gradient_order_of_accuracy():
    rng = np.random.default_rng(3)
    z0 = rng.normal(size=4)

    def loss(z):
        return float(np.sin(z[0]) + z[1]**3 + np.exp(0.3 * z[2]) + z[3]**2)

    grad_true = np.array([np.cos(z0[0]), 3 * z0[1]**2, 0.3 * np.exp(0.3 * z0[2]),
                          2 * z0[3]])
    steps = fd_step(z0)
    grad = np.array([
        (loss(z0 + steps[k] * np.eye(4)[k]) - loss(z0 - steps[k] * np.eye(4)[k]))
        / (2 * steps[k]) for k in range(4)])
    assert np.max(np.abs(grad - grad_true) / np.maximum(1.0, np.abs(grad_true))) < 1e-3


class ToyProblem:
    """Quadratic collocation stand-in with separate xi and theta blocks."""

    def __init__(self):
        rng = np.random.default_rng(4)
        self.a = rng.normal(size=(10, 3))
        self.b = rng.normal(size=10)
        self.decision = DecisionVector(values=np.zeros(5),
                                       blocks={"xi": slice(0, 3), "theta": slice(3, 5)})
        self.xi_mask = np.array([True, True, True, False, False])
        self.theta_mask = ~self.xi_mask

    def bounds(self):
        return []

    def residual(self, values):
        xi, theta = values[:3], values[3:]
        return self.a @ xi - self.b + 0.1 * np.array([np.sum(theta**2)] * 10)

    def jacobian(self, values, mask=None):
        mask = self.xi_mask if mask is None else mask
        theta_rows = np.tile(0.2 * values[3:], (10, 1))
        return np.hstack([self.a, theta_rows])[:, mask]


def test_train_modes_run():
    prob = ToyProblem()
    rep = optimize.train(prob, TrainSchedule(mode="xi", tolerance=1e-8, gn_max_iter=20))
    assert rep.loss_history[-1] <= rep.loss_history[0]

    prob2 = ToyProblem()
    rep2 = optimize.train(prob2, TrainSchedule(mode="joint", tolerance=1e-8,
                                               joint_rounds=2, joint_gn_steps=3,
                                               joint_adam_steps=5))
    assert rep2.final_loss <= rep2.loss_history[0]
    assert rep2.final_loss == rep2.loss_history[-1]


def test_joint_with_zero_adam_steps_equals_xi_only():
    prob_a = ToyProblem()
    rep_a = optimize.train(prob_a, TrainSchedule(mode="xi", tolerance=1e-10,
                                                 gn_max_iter=15))
    prob_b = ToyProblem()
    rep_b = optimize.train(prob_b, TrainSchedule(mode="joint", tolerance=1e-10,
                                                 gn_max_iter=15, joint_adam_steps=0))
    assert rep_a.loss_history == rep_b.loss_history
    assert np.array_equal(prob_a.decision.values, prob_b.decision.values)


def test_train_callback_receives_full_vectors():
    prob = ToyProblem()
    seen = []
    optimize.train(prob, TrainSchedule(mode="xi", tolerance=1e-10, gn_max_iter=5),
                   callback=lambda k, values, loss: seen.append((k, values.shape, loss)))
    assert seen
    assert all(shape == (5,) for _, shape, _ in seen)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        TrainSchedule(mode="bogus")


def test_joint_plan_stops_after_a_converged_burst(monkeypatch):
    # the first Gauss-Newton burst reaches the least-squares floor of the
    # linear xi block; with the tolerance just above it no Adam burst runs
    prob = ToyProblem()
    floor = np.linalg.norm(prob.a @ np.linalg.lstsq(prob.a, prob.b, rcond=None)[0] - prob.b)
    monkeypatch.setattr(optimize, "adam", None)
    rep = optimize.train(prob, TrainSchedule(mode="joint", tolerance=1.01 * floor,
                                             joint_rounds=3, joint_gn_steps=4))
    assert (rep.stop_reason, rep.converged, rep.iterations) == ("converged", True, 1)
    assert len(rep.gn_iterations) == 1 and len(rep.loss_history) == 2


def _counting(res):
    calls = {"n": 0}

    def wrapped(z):
        calls["n"] += 1
        return res(z)

    return wrapped, calls


def test_gauss_newton_names_each_stop():
    _, rep = gauss_newton(lambda z: z * 0.0, np.array([1.0, 2.0]),
                          jac_fn=lambda z: np.zeros((2, 2)), tol=1e-6)
    assert (rep.stop_reason, rep.converged) == ("converged", True)

    _, rep = gauss_newton(rosenbrock, np.array([-1.2, 1.0]), jac_fn=rosenbrock_jacobian,
                          tol=1e-10, max_iter=2)
    assert (rep.stop_reason, rep.iterations) == ("max_iter", 2)
    # a flat residual: the zero Jacobian gives a zero step that never descends,
    # and without damping the normal equations are singular
    def flat(z):
        return np.array([1.0 + z[0]**2])

    def flat_jacobian(z):
        return np.array([[2.0 * z[0]]])

    res, calls = _counting(flat)
    _, rep = gauss_newton(res, np.zeros(1), jac_fn=flat_jacobian, tol=1e-6, damping=1e-8)
    assert (rep.stop_reason, rep.iterations) == ("no_descent", 1)
    # initial loss, 9 trial steps: naming the stop costs nothing extra
    assert calls["n"] == 1 + 9
    res, calls = _counting(flat)
    _, rep = gauss_newton(res, np.zeros(1), jac_fn=flat_jacobian, tol=1e-6, damping=0.0)
    assert (rep.stop_reason, rep.iterations) == ("singular", 1)
    assert calls["n"] == 1
    assert rep.to_dict()["stop_reason"] == "singular"


def test_solve_report_stop_reason_validated():
    with pytest.raises(ValueError):
        SolveReport(loss_history=[1.0], tolerance_used=1e-6, stop_reason="tired")
    assert SolveReport(loss_history=[1.0], tolerance_used=1e-6,
                       stop_reason="converged").converged


def test_train_carries_stop_reason():
    rep = optimize.train(ToyProblem(), TrainSchedule(mode="xi", tolerance=1e-8,
                                                     gn_max_iter=1))
    assert rep.stop_reason == "max_iter"
    rep = optimize.train(ToyProblem(), TrainSchedule(mode="joint", tolerance=1e3))
    assert (rep.stop_reason, rep.iterations) == ("converged", 0)
    rep = optimize.train(ToyProblem(), TrainSchedule(mode="joint", tolerance=1e-8,
                                                     joint_rounds=1, joint_gn_steps=2,
                                                     joint_adam_steps=2))
    assert rep.stop_reason == "max_iter"


# residual calls, callback epochs and callback losses of train on ToyProblem
# with theta started off zero; the losses a callback receives are L2 norms
TRAIN_PINS = {
    "xi": (TrainSchedule(mode="xi", tolerance=1e-10, gn_max_iter=3), 12,
           [2.2996874441415915, 2.299687444141591, 2.299687444141591]),
    "joint": (TrainSchedule(mode="joint", tolerance=1e-10, adam_lr=0.01, joint_rounds=2,
                            joint_gn_steps=2, joint_adam_steps=2), 24,
              [2.2996874441415915, 2.299687444141591, 2.2996197443109274,
               2.2995589601582256, 2.299556793229496, 2.299556793229496,
               2.2994999148290494, 2.299449056958148]),
    "joint_zero_adam": (TrainSchedule(mode="joint", tolerance=1e-10, gn_max_iter=3,
                                      joint_adam_steps=0), 12,
                        [2.2996874441415915, 2.299687444141591, 2.299687444141591]),
}


@pytest.mark.parametrize("case", sorted(TRAIN_PINS))
def test_train_pins_residual_calls_and_callbacks(case):
    schedule, n_calls, losses = TRAIN_PINS[case]
    prob = ToyProblem()
    prob.decision.values[3:] = [0.3, -0.2]
    residual, calls = _counting(prob.residual)
    prob.residual = residual
    seen = []
    rep = optimize.train(prob, schedule,
                         callback=lambda k, values, loss: seen.append((k, values.copy(), loss)))
    assert calls["n"] == n_calls
    # the starting loss, then one entry per iteration in every mode
    assert len(rep.loss_history) == rep.iterations + 1
    assert [k for k, _, _ in seen] == list(range(1, len(losses) + 1))
    assert [loss for _, _, loss in seen] == pytest.approx(losses, rel=1e-12, abs=0)
    # each callback carries the full vector its loss was computed at
    for _, values, loss in seen:
        r = prob.residual(values)
        assert loss == np.linalg.norm(r)


def test_gauss_newton_records_each_iteration():
    points = []

    def res(z):
        points.append(tuple(z))
        return rosenbrock(z)

    _, rep = gauss_newton(res, np.array([-1.2, 1.0]), jac_fn=rosenbrock_jacobian,
                          tol=1e-10, max_iter=6, damping=1e-3)
    log = rep.gn_iterations
    assert len(log) == rep.iterations == 6
    assert all(sorted(e) == ["accepted", "damping", "residual_calls", "step_scale", "trials"]
               for e in log)
    # the calls so far: the starting loss, then the trials of each iteration,
    # each at a point not asked for before
    assert [e["residual_calls"] for e in log] == list(1 + np.cumsum([e["trials"] for e in log]))
    assert len(set(points)) == len(points) == log[-1]["residual_calls"] == 1 + sum(
        e["trials"] for e in log)
    hist = rep.loss_history
    damping = 1e-3
    for e, before, after in zip(log, hist, hist[1:]):
        assert e["accepted"] == (after < before)
        # each rejected trial halves the step and raises the damping tenfold
        assert e["step_scale"] == 0.5 ** (e["trials"] - 1)
        assert e["damping"] == pytest.approx(damping * 10.0 ** (e["trials"] - 1), rel=1e-12)
        damping = max(e["damping"] / 10.0, 1e-14) if e["accepted"] else None
    assert rep.to_dict()["gn_iterations"] == log


def test_gauss_newton_records_stalled_and_singular_iterations():
    def flat(z):
        return np.array([1.0 + z[0]**2])

    def flat_jacobian(z):
        return np.array([[2.0 * z[0]]])

    _, rep = gauss_newton(flat, np.zeros(1), jac_fn=flat_jacobian, tol=1e-6, damping=1e-8)
    (entry,) = rep.gn_iterations
    assert entry.pop("damping") == pytest.approx(1e-8 * 10.0**8, rel=1e-12)
    assert entry == {"step_scale": 0.5**8, "trials": 9, "accepted": False,
                     "residual_calls": 10}
    _, rep = gauss_newton(flat, np.zeros(1), jac_fn=flat_jacobian, tol=1e-6, damping=0.0)
    assert rep.gn_iterations == [{"damping": 0.0, "step_scale": 1.0, "trials": 0,
                                  "accepted": False, "residual_calls": 1}]
    _, rep = gauss_newton(lambda z: z * 0.0, np.ones(2), jac_fn=lambda z: np.eye(2), tol=1e-6)
    assert rep.gn_iterations == []


def test_train_reports_the_gauss_newton_iterations_of_every_burst(monkeypatch):
    bursts = []
    newton = optimize.gauss_newton

    def recorded(*args, **kwargs):
        z, report = newton(*args, **kwargs)
        bursts.append(report.gn_iterations)
        return z, report

    monkeypatch.setattr(optimize, "gauss_newton", recorded)
    prob = ToyProblem()
    prob.decision.values[3:] = [0.3, -0.2]
    rep = optimize.train(prob, TrainSchedule(mode="joint", tolerance=1e-10, joint_rounds=2,
                                             joint_gn_steps=2, joint_adam_steps=2))
    assert len(bursts) == 2 and all(bursts)
    assert rep.gn_iterations == bursts[0] + bursts[1]
    rep = optimize.train(ToyProblem(), TrainSchedule(mode="xi", tolerance=1e-10,
                                                     gn_max_iter=3))
    assert rep.gn_iterations == bursts[2] and len(rep.gn_iterations) == rep.iterations


# every solver's report, including one from a start under the tolerance
REPORTS = {
    "gauss_newton": lambda: gauss_newton(rosenbrock, np.array([-1.2, 1.0]),
                                         jac_fn=rosenbrock_jacobian, tol=1e-10,
                                         max_iter=4)[1],
    "adam": lambda: adam(lambda z: float(z @ z) + 1.0, np.ones(2),
                         grad_fn=lambda z: 2.0 * z, lr=0.01, max_epochs=3)[1],
    "train_xi": lambda: optimize.train(
        ToyProblem(), TrainSchedule(mode="xi", tolerance=1e-10, gn_max_iter=3)),
    "train_joint": lambda: optimize.train(
        ToyProblem(), TrainSchedule(mode="joint", tolerance=1e-10, joint_rounds=2,
                                    joint_gn_steps=2, joint_adam_steps=2)),
    "train_joint_zero_adam": lambda: optimize.train(
        ToyProblem(), TrainSchedule(mode="joint", tolerance=1e-10, gn_max_iter=3,
                                    joint_adam_steps=0)),
    "train_converged_start": lambda: optimize.train(
        ToyProblem(), TrainSchedule(mode="joint", tolerance=1e3)),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_counts_follow_history_and_stop_reason(case):
    rep = REPORTS[case]()
    assert rep.iterations == len(rep.loss_history) - 1
    assert rep.final_loss is rep.loss_history[-1]
    assert rep.converged == (rep.stop_reason == "converged")
    assert rep.to_dict()["iterations"] == rep.iterations
