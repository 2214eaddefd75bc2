"""Host-speed sampling for scaling wall times.

On a shared host the same computation runs 10-20 % slower or faster for
tens of seconds at a time, which spreads a timing across runs far more
than anything in the program does. While the timed stages run, a SIGALRM
handler times a fixed kernel of the benchmark's own code (icdf builds on a
1k-cell profile, the kind of small NumPy work the pipeline does) every
INTERVAL_S seconds. The handler runs between bytecodes of the main thread,
so no second thread or process competes with the program. Its own time is
subtracted from the stage wall times, and a result is reported as

    wall x REFERENCE_S / median kernel time while that wall was timed,

that is, seconds on a host where one kernel run takes REFERENCE_S. The host
switches between fast and slow phases that last seconds to minutes, so
each pass is scaled by its own samples, and the set-ups by theirs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

from . import reference

INTERVAL_S = 0.25
REPEATS = 40
# median kernel time on the baseline host (2-vCPU Xeon at 2.1 GHz)
REFERENCE_S = 0.004

_CELLS = np.linspace(0.0, 1.0, 1002)
_PROFILE = np.where(_CELLS < 0.6, 1.0 - 0.5 * _CELLS, 0.0)


def kernel() -> float:
    """Seconds taken by the fixed kernel."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        reference.icdf(_PROFILE, 1004, 0.0, 1.0)
    return time.perf_counter() - start


class HostSpeed:
    """Context manager sampling the kernel every INTERVAL_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, to subtract
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: int = 0) -> float:
        """REFERENCE_S / median kernel time of the samples from index
        `start` on (of all samples when none was taken since); 1 when
        nothing was sampled."""
        samples = self.samples[start:] or self.samples
        if not samples:
            return 1.0
        return REFERENCE_S / statistics.median(samples)
