"""The machine's speed, sampled inside the measured process while it runs.

On a shared virtual machine the cores switch, every few milliseconds, between
a fast state and one up to twice as slow, and the share of time spent slow
changes from one minute to the next. Wall times of the same code then differ
by a quarter between runs, whatever estimator a run uses.

``Sampler`` interrupts its process every ``interval`` seconds (SIGALRM) and
times one of a few fixed reference kernels in the signal handler, on the same
thread as the workload, so the kernels see the machine state the workload
sees. ``factor(lo, hi)`` is the speed inside one time window: the geometric
mean over the kernels of each kernel's fast-state time (``REF_S``) over its
mean time inside the window. A window's wall time times its factor is the
time it would have taken had the machine stayed in its fast state.

The kernels cover the kinds of work the simulator does: interpreter-bound
Python, small numpy calls and object allocation. Their data fits in the first
cache levels, so the workload's own memory traffic changes their times little.
``REF_S`` only sets the scale: the kernels' fastest times on a 2-core KVM
guest (Python 3.11.7, numpy 2.4.6). Compared runs must use the same values.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((32, 32)) * 0.1
_X = _rng.standard_normal((16, 32))


def _python_loop():
    s = 0
    for i in range(1000):
        s += i
    return s


def _small_numpy():
    x = _X
    for _ in range(4):
        h = np.tanh(x @ _W)
        x = x + 1e-3 * ((1.0 - h * h) @ _W.T)
    return x


def _allocation():
    return [{"i": i, "v": (i, float(i))} for i in range(150)]


KERNELS = (_python_loop, _small_numpy, _allocation)
REF_S = (30.0e-6, 41.0e-6, 38.0e-6)
# shorter windows are widened about their centre to this span before their
# samples are read, so every window's factor rests on about ten samples
MIN_SPAN_S = 0.05


class Sampler:
    """Context manager: while active, every ``interval`` seconds one kernel
    (round robin) is timed. Main thread only; restores the previous SIGALRM
    handler and timer on exit."""

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.times: list[list[float]] = [[] for _ in KERNELS]  # sample start
        self.durs: list[list[float]] = [[] for _ in KERNELS]
        self._tick = 0
        self._prev = None

    def _handler(self, signum, frame):
        k = self._tick % len(KERNELS)
        self._tick += 1
        t0 = time.perf_counter()
        KERNELS[k]()
        self.times[k].append(t0)
        self.durs[k].append(time.perf_counter() - t0)

    def __enter__(self):
        self._prev = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._prev)
        return False

    def samples(self) -> int:
        return sum(len(d) for d in self.durs)

    def factor(self, lo: float, hi: float) -> float:
        """Speed factor inside the window (lo, hi), widened to at least
        ``MIN_SPAN_S`` and, while no kernel has a sample inside, doubled."""
        span = max(hi - lo, MIN_SPAN_S)
        mid = (lo + hi) / 2
        while True:
            a, b = mid - span / 2, mid + span / 2
            logs = []
            for ref, times, durs in zip(REF_S, self.times, self.durs):
                inside = durs[bisect.bisect_left(times, a):bisect.bisect_left(times, b)]
                if inside:
                    logs.append(math.log(ref * len(inside) / sum(inside)))
            if logs:
                return math.exp(sum(logs) / len(logs))
            if not self.samples():
                return 1.0
            span *= 2

    def adjusted(self, windows) -> list[float]:
        """Each window's wall time times its speed factor."""
        return [(hi - lo) * self.factor(lo, hi) for lo, hi in windows]
