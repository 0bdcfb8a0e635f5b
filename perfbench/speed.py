"""CPU-speed probe that turns wall-clock intervals into reference-speed seconds.

On a shared virtual machine the speed of one virtual CPU drifts by up to 2x
over seconds to minutes (other tenants on the same physical core), so a
wall-clock median over one run says more about the neighbours than about the
program.  The probe runs a fixed kernel of small NumPy operations in a Python
loop, the same mix as the solver's hot path, every INTERVAL_S of wall time
from a timer signal in the solving thread.  The program's work in an
interval [a, b] is then

    (b - a - time spent in probes) * mean over probes in [a, b] of (REF_S / d_k)

where d_k is the k-th probe's duration and REF_S the probe's duration on an
uncontended reference CPU: wall time rescaled to the reference speed.  On
that CPU it equals the wall time; on a faster or slower machine the rescaled
value stays the same, so a change of it is a change of the program's work.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02
REF_S = 3.0e-4        # probe duration on an uncontended vCPU of a 2-vCPU Xeon VM
MIN_SAMPLES = 5       # intervals with fewer probes borrow the nearest ones


def _kernel(mat, vec, gen, x):
    acc = 0.0
    for i in range(40):
        z = mat @ vec
        acc += float(np.vdot(z, z).real)
        w = gen @ x
        acc += float(w @ x) + float(np.clip(i * 0.01, 0.0, 1.0))
    return acc


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._args = (rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)),
                      rng.normal(size=10) + 0j, rng.normal(size=(4, 4)), rng.normal(size=4))
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel(*self._args)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        _kernel(*self._args)   # warm up outside the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, a: float, b: float) -> float:
        """Work done in the wall interval [a, b], in reference-speed seconds."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        probing = sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, 0.5 * (a + b))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no speed samples were taken")
        scale = sum(REF_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return (b - a - probing) * scale
