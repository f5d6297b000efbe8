"""Machine-speed probe, so that timings are read at one reference speed.

On a shared host the speed of this process's CPU swings by up to half
in stretches of a few to tens of seconds (a fixed pure-Python loop took
22 ms in some stretches and 33 ms in others, in CPU time as much as in
wall time), which is far more than the run-to-run differences the
benchmark has to resolve.  ``SpeedTrack`` times a small fixed piece of
pure-Python integer row arithmetic, the kind of work arrlcs does, every
``PERIOD_S`` seconds from a timer signal while the benchmark runs.  A
timed interval is then reported as

    (wall seconds - probe seconds inside it) * REFERENCE_S / probe time

with the probe time taken as the mean of the readings around the
interval (piece by piece for a long interval): seconds on a machine on
which the probe takes ``REFERENCE_S``.
The raw wall seconds are kept in the report line.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# the speed changes within a second, so it is read often and used locally:
# these settings brought the spread of cli-suite sample times down from
# 20% in wall seconds to 4%
PERIOD_S = 0.1
# readings this far either side of an interval also count towards its speed
WINDOW_S = 0.25
# longer intervals are scaled piece by piece, in pieces of about this length
CHUNK_S = 0.25
# probe time of the reference machine; about the fast stretches of a
# 2-vCPU Intel Xeon VM with Python 3.11
REFERENCE_S = 0.0025


def probe() -> None:
    """A fixed amount of row arithmetic on lists of small integers."""
    rows = [[(3 * i + 7 * j) % 11 - 5 for j in range(48)] for i in range(24)]
    for k in range(24):
        pivot = rows[k]
        for i in range(24):
            if i != k:
                q = rows[i][k] % 3
                rows[i] = [(a - q * b) % 97 for a, b in zip(rows[i], pivot)]


class SpeedTrack:
    """Probe readings ``(start, seconds)`` taken on a timer while running."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _read(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not machine speed
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()
        return False

    def _between(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time the probe itself took inside ``[t0, t1]``."""
        lo, hi = self._between(t0, t1)
        return sum(self.seconds[lo:hi])

    def probe_time(self, t0: float, t1: float) -> float:
        """The probe's time around ``[t0, t1]``: mean of nearby readings."""
        lo, hi = self._between(t0 - WINDOW_S, t1 + WINDOW_S)
        if lo == hi:  # nothing near: the closest reading
            lo = max(min(lo, len(self.starts) - 1), 0)
            hi = lo + 1
        return statistics.fmean(self.seconds[lo:hi])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """``[t0, t1]`` without probe time, scaled to the reference speed.

        A long interval is cut into pieces of about ``CHUNK_S``, each scaled
        by the speed around it, since the speed may change within it.
        """
        n = max(1, round((t1 - t0) / CHUNK_S))
        edges = [t0 + (t1 - t0) * k / n for k in range(n)] + [t1]
        return sum(
            (b - a - self.probe_seconds(a, b)) * REFERENCE_S / self.probe_time(a, b)
            for a, b in zip(edges, edges[1:])
        )

    def summary(self) -> dict:
        """Probe readings in milliseconds: count, quartiles and extremes."""
        ms = sorted(1000 * s for s in self.seconds)
        q1, q2, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"readings": len(ms), "min": ms[0], "q1": q1, "median": q2, "q3": q3, "max": ms[-1]}
