"""Host-speed calibration for the benchmark's timings.

The benchmark runs on virtual CPUs that share physical cores with other
tenants, and their speed is not steady: on a 2-vCPU Xeon VM a fixed
loop ran 1.4-2x slower for stretches of half a second to ten seconds,
in CPU time as in wall time, and the share of slow stretches differed
from run to run and from minute to minute.  Timings taken as they are
then spread with the host, not with the program.

Each workload therefore interleaves a short fixed calibration kernel
with its ops and reports every time divided by the slowdown the kernel
measured around it: times are in *reference-speed* seconds, what the op
takes when the kernel takes ``REFERENCE_S``.  The kernel is half
interpreter work and half numpy bulk work.  On that VM, fitting
log(op time) against log(kernel slowdown) gave a slope of 0.6 for
interpreter work alone and about 2 for numpy sorting alone, on restarts
and wire reads alike; the even mix gave 0.9 for wire reads and ingest
calls and 0.6 for restarts.  The kernel shares no code with the
package, so a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import json
import statistics
from time import perf_counter

#: The kernel's time at full speed on the VM described above.
REFERENCE_S = 0.40e-3
#: Probes within this many seconds of an op's ends describe its speed.
SPAN_S = 0.1
_REPEATS = 3  # a probe keeps the fastest of this many kernel runs
_WARMUP = 20


def _kernel(sortable) -> int:
    """About half interpreter work (dicts, strings, small numpy calls,
    JSON) and half numpy bulk work (sorting 20k integers)."""
    import numpy as np

    table: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += len(str(i))
    grid = np.arange(256, dtype=np.int64)
    for _ in range(10):
        acc += int(np.searchsorted(grid, grid[::7]).sum())
    acc += len(json.dumps({"x": list(range(50))}))
    ordered = np.sort(sortable)
    return acc + int(np.searchsorted(ordered, np.cumsum(ordered)[:100]).sum())


class SpeedLog:
    """Calibration probes taken during a run, and the slowdown they show."""

    def __init__(self) -> None:
        import numpy as np

        self.at: list[float] = []
        self.took: list[float] = []
        self._sortable = np.random.default_rng(0).integers(0, 2**40, size=20_000)
        for _ in range(_WARMUP):
            _kernel(self._sortable)

    def probe(self) -> None:
        """Time the kernel now (fastest of a few runs) and record it."""
        began = perf_counter()
        best = float("inf")
        for _ in range(_REPEATS):
            a = perf_counter()
            _kernel(self._sortable)
            best = min(best, perf_counter() - a)
        self.at.append((began + perf_counter()) / 2.0)
        self.took.append(best)

    def slowdown(self, start: float, end: float | None = None) -> float:
        """Median kernel slowdown over ``[start, end]`` widened by
        ``SPAN_S``; without a probe there, the nearest on either side."""
        if not self.at:
            raise ValueError("no calibration probe taken")
        end = start if end is None else end
        lo = bisect.bisect_left(self.at, start - SPAN_S)
        hi = bisect.bisect_right(self.at, end + SPAN_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return statistics.median(self.took[lo:hi]) / REFERENCE_S

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]`` at reference speed."""
        return seconds / self.slowdown(start, end)

    def summary(self) -> dict:
        """Slowdown quartiles over the run's probes, for the report."""
        slow = sorted(t / REFERENCE_S for t in self.took)
        if len(slow) < 2:
            return {"probes": len(slow), "slowdown": slow}
        q1, q2, q3 = statistics.quantiles(slow, n=4)
        return {"probes": len(slow), "slowdown_q1": q1, "slowdown_median": q2, "slowdown_q3": q3}
