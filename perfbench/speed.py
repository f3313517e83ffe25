"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants (measured on a
2-core x86-64 VM), the same code runs up to twice as slowly for seconds
or minutes at a time, so raw medians of two runs can differ by more than
any useful regression bound.  Just before each timed operation (and
around each set-up) the harness runs a fixed kernel that does not touch
netdiag (CSV parsing, float conversion and small dense numpy algebra,
the kind of work the pipeline does) and multiplies the operation's
duration by `REFERENCE_S / kernel time`, taking the median kernel time
of the last 50 ms.  Reported times therefore read as times on a host
where the kernel takes REFERENCE_S; the run also prints its raw medians
and the speed factors it applied.
"""

from __future__ import annotations

import csv
import io
import statistics
from collections import deque
from time import perf_counter

import numpy as np

REFERENCE_S = 2.5e-3  # the kernel's time on an unloaded 2-core x86-64 host

_TEXT = "\n".join(",".join(str((i * 7919 + j) % 1000 / 7.0) for j in range(11)) for i in range(400))
_MATRIX = np.linspace(0.0, 1.0, 3600).reshape(60, 60)


def _kernel() -> float:
    rows = [tuple(float(v) for v in row) for row in csv.reader(io.StringIO(_TEXT))]
    return float(np.exp(-(_MATRIX @ _MATRIX.T)).sum() + np.asarray(rows).sum())


class Meter:
    """Speed factor from the median of the kernel runs of the last
    SPAN_S seconds (at least the latest run).  That smooths the kernel's
    own jitter before short operations but follows the host's swings."""

    SPAN_S = 0.05

    def __init__(self):
        self._runs: deque[tuple[float, float]] = deque()  # (end, duration)

    def factor(self, runs: int = 1) -> float:
        """Run the kernel `runs` times; REFERENCE_S over the median
        recent kernel time, below 1 on a slowed host."""
        for _ in range(runs):
            t0 = perf_counter()
            _kernel()
            end = perf_counter()
            self._runs.append((end, end - t0))
        while len(self._runs) > runs and self._runs[0][0] < end - self.SPAN_S:
            self._runs.popleft()
        return REFERENCE_S / statistics.median(d for _, d in self._runs)
