"""Host-speed probes: scale timings to a reference host speed.

The benchmark runs on a shared VM whose CPU speed drifts between a fast
and a contended state, up to 2x apart, for seconds to minutes at a time;
CPU time tracks wall time, so the slowdown is the hardware's, not the
scheduler's. A run that happens to fall in a contended stretch is slower
in every timing at once (setup, ticks, reads and cold solves move
together), and no statistic over one run's samples can cancel a state
that lasts the whole run.

So the run also times a fixed probe, independent of the program (a
pure-Python and a numpy loop, in the proportions the two workloads
spend), before every sample. A sample taken at time ``t`` is reported as

    raw seconds * REFERENCE_S / median(the K probes nearest to t)

i.e. in seconds of a host running at the reference speed. A slower
program moves the sample and not the probe, so it shows in full; a
slower host moves both, and cancels.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left

import numpy as np

#: Median probe time on the reference host (a 2-vCPU Xeon VM in its fast
#: state). Only the scale of the reported times depends on it.
REFERENCE_S = 0.006
#: Probes whose median scales one sample.
NEAREST = 5

_ROWS = np.random.default_rng(0).random((1000, 100))


def _python_loop() -> None:
    counts: dict[int, int] = {}
    for i in range(30000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    sorted(range(15000), key=lambda x: -x)


def _numpy_loop() -> None:
    for _ in range(10):
        scaled = _ROWS * 1.5 + 0.25
        np.argsort(scaled.max(axis=1))


class HostSpeed:
    """Probe times through a run, and the scale they give each sample."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _python_loop()
        _numpy_loop()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.took.append(end - start)

    def scale(self, t: float) -> float:
        """REFERENCE_S over the median of the probes nearest ``t``."""
        i = bisect_left(self.at, t)
        lo, hi = i, i
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi == len(self.at) or t - self.at[lo - 1] <= self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])
