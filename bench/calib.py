"""Host-speed calibration: a fixed loop whose time tracks the core's speed.

The cores of a shared host run fast or up to about 1.45 times slower as
other tenants' load comes and goes, and how much of a run falls in the
slow state changes over minutes.  A calibration sample times a fixed
piece of work in two halves, a pure-Python integer loop (like the
simulator's event loop) and scipy sparse matrix-vector products (like
a Bellman sweep), and returns the core's slowdown against the reference
host: 1.0 there, about 1.4 on a core in the slow state.

``Calibrator.step`` times one operation in reference-host seconds.  It
takes a sample just before and just after the operation and, from a
``SIGALRM`` interval timer, one every ``PERIOD_S`` during it; the
operation's time less the samples taken during it, divided by the mean
slowdown of all its samples, is the scaled time.  Samples interrupt the
operation only between Python bytecodes, and touch none of its state.

Nothing here depends on ``offloadq``: a change to the package cannot
change the work a sample does.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

PY_LOOPS = 25_000
NP_SIZE = 4000
NP_DENSITY = 0.003
NP_LOOPS = 50
# the two halves' times in the fast state of the host the baseline was
# measured on (2-core Intel Xeon; Python 3.11, numpy 2.4, scipy 1.17):
# the 5th percentile of 1500 samples taken back to back
PY_REF_S = 0.0034
NP_REF_S = 0.0036
# a sample takes 7-10 ms; eight a second resolve the core's fast and slow
# spells, which last tenths of a second or longer, at 6-8% of the time
PERIOD_S = 0.125


@dataclass
class Step:
    """One timed operation: its seconds without the samples, and its samples."""

    seconds: float = 0.0
    slowdowns: list = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.slowdowns) if self.slowdowns else 1.0


class Calibrator:
    """Takes calibration samples around and during timed operations."""

    def __init__(self):
        rng = np.random.default_rng(20250918)
        self._a = sparse.random(NP_SIZE, NP_SIZE, density=NP_DENSITY, format="csr",
                                random_state=rng)
        self._x = rng.random(NP_SIZE)
        self.sample()  # first call pays for page faults and caches; dropped

    def sample(self) -> float:
        """One sample; returns the slowdown against the reference host."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_LOOPS):
            acc += i * i % 7
        t1 = time.perf_counter()
        y = self._x
        for _ in range(NP_LOOPS):
            y = self._a @ self._x + 0.5 * y
        t2 = time.perf_counter()
        return 0.5 * ((t1 - t0) / PY_REF_S + (t2 - t1) / NP_REF_S)

    @contextlib.contextmanager
    def step(self, during: bool = True):
        """Time the body; ``during=False`` samples only before and after it.

        Sample before and after only when the body waits on another
        process on this core: a sample then would take the core from it.
        """
        step = Step()
        paused = 0.0

        def on_alarm(signum, frame):
            nonlocal paused
            t0 = time.perf_counter()
            step.slowdowns.append(self.sample())
            paused += time.perf_counter() - t0

        step.slowdowns.append(self.sample())
        previous = signal.signal(signal.SIGALRM, on_alarm) if during else None
        t0 = time.perf_counter()
        try:
            if during:
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            yield step
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            step.seconds = time.perf_counter() - t0 - paused
            if during:
                signal.signal(signal.SIGALRM, previous)
            step.slowdowns.append(self.sample())


class NoCalibrator:
    """Times the body and takes no samples; for the traced passes."""

    @contextlib.contextmanager
    def step(self, during: bool = True):
        step = Step()
        t0 = time.perf_counter()
        try:
            yield step
        finally:
            step.seconds = time.perf_counter() - t0
