"""In-memory span tracer and the per-layer wrappers of the cvqoc benchmark.

A span records a name, a start, an end and the index of the span that was
open when it started (its parent).  An event is a point in time with a value
(for example one circuit rebuild), also tied to the open span.  Both live in
flat arrays while a solve runs and are written out once it ends.

Wrappers are installed on the names the library looks up at call time
(``fock.expm``, not ``scipy.linalg.expm``; class methods on the class), and
``Patcher.restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

PHASES = ("setup", "train", "verify")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int   # index of the enclosing span, -1 at top level


class Event(NamedTuple):
    name: str
    time: float
    value: float
    parent: int


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._ev_name = array("i")
        self._ev_time = array("d")
        self._ev_value = array("d")
        self._ev_parent = array("i")
        self._stack = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def event(self, name: str, value: float = 1.0) -> None:
        self._ev_name.append(self.intern(name))
        self._ev_time.append(time.perf_counter())
        self._ev_value.append(value)
        self._ev_parent.append(self._stack[-1] if self._stack else -1)

    def wrap(self, name: str, fn, after=None):
        """fn traced as a span; after(result), when given, runs inside it."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.close(idx)

        return traced

    def spans(self) -> list:
        names = self.names
        return [Span(names[n], s, e, p) for n, s, e, p in
                zip(self._name, self._start, self._end, self._parent)]

    def events(self) -> list:
        names = self.names
        return [Event(names[n], t, v, p) for n, t, v, p in
                zip(self._ev_name, self._ev_time, self._ev_value, self._ev_parent)]

    def write(self, path: str, marks: dict) -> None:
        """Gzipped text: header lines, then one line per span and event,
        times in seconds from the first recorded span."""
        t0 = self._start[0] if len(self._start) else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("# cvqoc benchmark trace\n")
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("# marks " + " ".join(f"{k}={v - t0:.7f}"
                                           for k, v in sorted(marks.items())) + "\n")
            fh.write("# S,name_id,start,end,parent | E,name_id,time,value,parent\n")
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent):
                fh.write(f"S,{n},{s - t0:.7f},{e - t0:.7f},{p}\n")
            for n, t, v, p in zip(self._ev_name, self._ev_time, self._ev_value, self._ev_parent):
                fh.write(f"E,{n},{t - t0:.7f},{v:g},{p}\n")


# --- span arithmetic -------------------------------------------------------

def self_times(spans: list) -> list:
    """Per span: its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cursor = sp.start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[j].start, cursor)
            hi = min(spans[j].end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((sp.end - sp.start) - covered)
    return out


def phase_of(t: float, marks: dict) -> str:
    """Phase of an instant, from the end marks of setup and training."""
    if t < marks["setup_end"]:
        return "setup"
    if t < marks["train_end"]:
        return "train"
    return "verify"


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, events: list, marks: dict, n_features: int) -> dict:
    """Per-layer metrics, each under its phase prefix: name -> (value, unit).

    A ratio whose base is zero is reported as 0; its base is reported beside it.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for i, sp in enumerate(spans):
        key = (phase_of(sp.start, marks), sp.name)
        calls[key] += 1
        total[key] += sp.end - sp.start
        own[key] += selfs[i]

    counted = defaultdict(float)

    def count(phase, name, value=1.0):
        counted[(phase, name)] += value

    rise = 0.0
    for ev in events:
        count(phase_of(ev.time, marks), ev.name, ev.value)
        if ev.name == "optimize.adam.loss_rise":
            rise = max(rise, ev.value)
    for i, sp in enumerate(spans):
        ph = phase_of(sp.start, marks)
        parent = spans[sp.parent].name if sp.parent >= 0 else None
        if sp.name == "cvqnn.unitary" and _has_ancestor(spans, i, {"problems.features"}):
            count(ph, "features.unitary_calls")
        if sp.name == "problems.residual":
            if parent == "optimize.jacobian_fd":
                count(ph, "jacobian_fd.residual_calls")
            elif parent == "optimize.gauss_newton":
                count(ph, "gauss_newton.residual_calls")
            elif parent == "cli.log":
                count(ph, "log.residual_calls")
            if _has_ancestor(spans, i, {"optimize.adam"}):
                count(ph, "adam.loss_calls")

    out = {}
    for ph in PHASES:
        def put(name, value, unit):
            out[f"{ph}.{name}"] = (value, unit)

        def c(name):
            return calls[(ph, name)]

        put("fock.gate_matrix.calls", c("fock.gate_matrix"), "count")
        put("fock.gate_matrix.self_s", own[(ph, "fock.gate_matrix")], "s")
        put("fock.expm.calls", c("fock.expm"), "count")
        put("fock.expm.s", total[(ph, "fock.expm")], "s")

        builds = counted[(ph, "cvqnn.unitary.build")]
        put("cvqnn.unitary.calls", c("cvqnn.unitary"), "count")
        put("cvqnn.unitary.self_s", own[(ph, "cvqnn.unitary")], "s")
        put("cvqnn.unitary.builds", int(builds), "count")
        put("cvqnn.unitary.hit_ratio",
            _ratio(c("cvqnn.unitary") - builds, c("cvqnn.unitary")), "ratio")
        put("cvqnn.encode_input.calls", c("cvqnn.encode_input"), "count")
        put("cvqnn.encode_input.self_s", own[(ph, "cvqnn.encode_input")], "s")

        under = counted[(ph, "features.unitary_calls")]
        put("problems.residual.calls", c("problems.residual"), "count")
        put("problems.residual.mean_ms",
            1e3 * _ratio(total[(ph, "problems.residual")], c("problems.residual")), "ms")
        put("problems.features.calls", c("problems.features"), "count")
        put("problems.features.self_s", own[(ph, "problems.features")], "s")
        put("problems.features.unitary_calls", int(under), "count")
        put("problems.features.miss_ratio",
            _ratio(under, 3 * n_features * c("problems.features")), "ratio")

        put("tfc.eval.calls", c("tfc.eval"), "count")
        put("tfc.eval.self_s", own[(ph, "tfc.eval")], "s")
        put("pmp.residuals.calls", c("pmp.residuals"), "count")
        put("pmp.residuals.self_s", own[(ph, "pmp.residuals")], "s")
        put("lindblad.generator.calls", c("lindblad.generator"), "count")
        put("lindblad.generator.self_s", own[(ph, "lindblad.generator")], "s")

    out["setup.cli.build_problem.s"] = (total[("setup", "cli.build_problem")], "s")
    out["verify.cli.write_csv.s"] = (total[("verify", "cli.write_csv")], "s")
    out["verify.lindblad.propagate_rk4.self_s"] = (own[("verify", "lindblad.propagate_rk4")], "s")

    tr = "train"
    iterations = counted[(tr, "optimize.iterations")]
    gn_iters = counted[(tr, "optimize.gn.iterations")]
    gn_calls = calls[(tr, "optimize.gauss_newton")]
    accepted = counted[(tr, "optimize.gn.accepted")]
    # each GN call evaluates once up front, then once per iteration before
    # its trial steps; every other direct residual call is a trial step
    trials = counted[(tr, "gauss_newton.residual_calls")] - gn_calls - gn_iters
    out.update({
        "train.cli.log.residual_calls": (int(counted[(tr, "log.residual_calls")]), "count"),
        "train.optimize.iterations": (int(iterations), "count"),
        "train.optimize.jacobian_fd.calls": (calls[(tr, "optimize.jacobian_fd")], "count"),
        "train.optimize.jacobian_fd.residual_calls":
            (int(counted[(tr, "jacobian_fd.residual_calls")]), "count"),
        "train.optimize.jacobian_fd.self_s": (own[(tr, "optimize.jacobian_fd")], "s"),
        "train.optimize.gauss_newton.self_s": (own[(tr, "optimize.gauss_newton")], "s"),
        "train.optimize.gn.accepted": (int(accepted), "count"),
        "train.optimize.gn.trials": (int(trials), "count"),
        "train.optimize.gn.accept_ratio": (_ratio(accepted, trials), "ratio"),
        "train.optimize.adam.loss_calls": (int(counted[(tr, "adam.loss_calls")]), "count"),
        "train.optimize.adam.self_s": (own[(tr, "optimize.adam")], "s"),
        # largest loss inside an Adam burst over the loss entering it; 0 without Adam
        "train.optimize.adam.loss_rise": (rise, "ratio"),
    })
    return out


# --- installing the wrappers -------------------------------------------------

class Patcher:
    """Replaces attributes of modules and classes and restores them."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def install_layers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public functions of every cvqoc module in spans."""
    from cvqoc import cli, cvqnn, fock, lindblad, optimize, pmp, problems, tfc

    def plain(owner, attr, name, after=None):
        patcher.patch(owner, attr, lambda fn: tracer.wrap(name, fn, after))

    plain(fock, "gate_matrix", "fock.gate_matrix")
    plain(fock, "expm", "fock.expm")
    plain(cvqnn, "encode_input", "cvqnn.encode_input")

    def traced_unitary(fn):
        nid = tracer.intern("cvqnn.unitary")

        @functools.wraps(fn)
        def unitary(circ):
            idx = tracer.open(nid)
            try:
                cache = circ._unitary_cache
                if cache is None or cache[0] != circ.version:
                    tracer.event("cvqnn.unitary.build")
                return fn(circ)
            finally:
                tracer.close(idx)

        return unitary

    patcher.patch(cvqnn.QnnCircuit, "unitary", traced_unitary)
    plain(problems.QocProblem, "residual_vector", "problems.residual")
    plain(problems.FeatureCache, "features", "problems.features")
    plain(tfc.ConstrainedExpression, "eval", "tfc.eval")
    plain(pmp, "residuals", "pmp.residuals")
    # the model lambdas look these up in the lindblad namespace on every call
    plain(lindblad, "two_level_generator", "lindblad.generator")
    plain(lindblad, "three_level_generator", "lindblad.generator")
    plain(lindblad, "propagate_rk4", "lindblad.propagate_rk4")
    plain(optimize, "jacobian_fd", "optimize.jacobian_fd")

    def adam_rise(result):
        hist = result[1].loss_history
        tracer.event("optimize.adam.loss_rise", max(hist) / hist[0])

    plain(optimize, "adam", "optimize.adam", adam_rise)

    def gn_counts(result):
        report = result[1]
        hist = report.loss_history
        tracer.event("optimize.gn.iterations", report.iterations)
        tracer.event("optimize.gn.accepted",
                     sum(1 for a, b in zip(hist, hist[1:]) if b < a))

    plain(optimize, "gauss_newton", "optimize.gauss_newton", gn_counts)

    def traced_train(fn):
        inner = tracer.wrap("optimize.train", fn,
                            lambda rep: tracer.event("optimize.iterations", rep.iterations))

        @functools.wraps(fn)
        def train(problem, schedule, callback=None):
            if callback is not None:
                callback = tracer.wrap("cli.log", callback)
            return inner(problem, schedule, callback=callback)

        return train

    patcher.patch(optimize, "train", traced_train)
    plain(cli, "build_problem", "cli.build_problem")
    plain(cli, "write_csv", "cli.write_csv")
