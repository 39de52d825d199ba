"""Core-speed gauge: timing on cores whose speed changes under the run.

The cores of a shared machine run at different speeds from second to second,
depending on what the other tenants run. On the 2-core machine the
reference figures come from, the same operation took up to 1.8 times longer
in one stretch than in the next, with CPU time tracking wall time. The
gauge measures that speed: every ``interval`` seconds a SIGALRM handler
times ``gauge_work``, a fixed piece of small-array numpy work that uses no
bosehub code. The handler runs in the main thread, so it measures the core
the interrupted operation runs on.

An operation's normalized time is its wall time minus the gauge's own time
inside it, times ``REFERENCE_S`` x mean(1/g) over the gauge times g sampled
during it and the nearest sample on either side. That is the time the
operation would have taken on a core where ``gauge_work`` takes
``REFERENCE_S``.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Median time of gauge_work() on the reference machine's cores in their
# slower state. It only fixes the scale of normalized times.
REFERENCE_S = 1.0e-3

_X = np.linspace(-1.0, 1.0, 26)


def gauge_work() -> None:
    """A fixed piece of small-array numpy work, like the circuit kernel's."""
    s = np.zeros(26, complex)
    for i in range(120):
        s = s * np.exp(-0.5j * (0.3 * _X + 1e-3 * i)) + np.cos(_X)


class SpeedGauge:
    """Samples ``gauge_work`` on a timer signal while the context is active."""

    def __init__(self, interval: float):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        gauge_work()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def normalized(self, start: float, end: float) -> float:
        """Time of [start, end) without the gauge's own, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[lo:hi])
        around = self.durations[max(lo - 1, 0):hi + 1]
        if not around:
            raise ValueError("no gauge sample near the interval")
        speed = statistics.fmean(1.0 / g for g in around)
        return (end - start - busy) * REFERENCE_S * speed
