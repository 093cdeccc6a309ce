"""Host speed sampling, so that job times read at one reference speed.

The benchmark shares its host: the speed of a CPU can change by a third
within seconds and stay changed for minutes, with no steal time to show for
it.  A run that happens to fall in a slow stretch would read as a regression.

:class:`SpeedSampler` times a small fixed probe (a Python bytecode loop and a
small matrix product, no netbath code) every ``PERIOD`` seconds from a
``SIGALRM`` handler, in the thread and on the CPU that run the jobs.  Python
runs the handler between bytecodes, so a long compiled call delays a sample
until it returns.  :meth:`SpeedSampler.scaled` turns a job's measured time
into reference seconds: the time less the probes run inside it, times
``REFERENCE_PROBE_S`` over the median probe time around the job.  A change in
netbath moves the job time and not the probe, so it shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.1
# Probe time on a 2-CPU x86-64 host (Xeon, 2.1 GHz) in its fast stretches;
# it only sets the unit, reference seconds.
REFERENCE_PROBE_S = 0.8e-3
_LOOP = 12_000
_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    for _ in range(3):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


class SpeedSampler:
    """Periodic probe samples, as (time, probe seconds), and their cost."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.times.append(t0 + 0.5 * took)
        self.probes.append(took)
        self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self) -> None:
        probe()   # first call warms the loop and the BLAS kernel
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def around(self, t0: float, t1: float) -> float:
        """Median probe time over samples in [t0, t1] and the nearest outside.

        The median, because a sample that a page fault or an interrupt hit
        reads slow; local, because the host's speed changes within seconds.
        """
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.times, t1) + 1, len(self.times))
        return statistics.median(self.probes[lo:hi])

    def scaled(self, t0: float, t1: float, spent: float) -> float:
        """Reference seconds of work measured from t0 to t1, ``spent`` probing."""
        return (t1 - t0 - spent) * REFERENCE_PROBE_S / self.around(t0, t1)
