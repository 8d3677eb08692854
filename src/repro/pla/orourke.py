"""O'Rourke's optimal online piecewise-linear approximation [24].

Given a stream of points ``(t, v)`` with strictly increasing ``t`` and an
error bound ``delta``, maintain the invariant that all points fed since the
last emitted segment can be approximated by a single line within vertical
distance ``delta``.  When a new point breaks the invariant, emit a segment
for the points so far and restart from the new point.  The greedy strategy
is optimal in the number of segments, and amortized O(1) per point.

Feasibility is tracked exactly with the classic dual pair of supporting
lines:

* ``u`` — the *maximum-slope* line that passes above every lowered point
  ``(t, v - delta)`` and below every raised point ``(t, v + delta)``;
* ``l`` — the *minimum-slope* such line.

A single line through all error bars exists iff both lines exist, i.e. iff
``u`` clears the new lower bar and ``l`` clears the new upper bar.  The
supporting lines are updated via tangents to two convex chains (the upper
hull of lowered points and the lower hull of raised points), with pointers
that only move forward, giving the amortized O(1) bound.

All interior arithmetic is anchored at the first time of the current run so
float precision does not degrade with stream position.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import islice

import numpy as np

from repro.analysis import contracts
from repro.persistence.column_log import PLA, ColumnLog
from repro.pla.segment import Segment

# Tolerance for feasibility comparisons.  Inputs are integer counters and
# timestamps, so any violation smaller than this is floating-point noise.
_EPS = 1e-9

#: Minimum batch length for the fused (vectorized) feed path; below this
#: the numpy setup costs more than the scalar loop it replaces.
_FUSED_MIN = 16

#: Slack added to the vectorized event-candidate masks.  The masks only
#: need to be a *superset* of the true tighten/break positions (each
#: candidate is then re-checked with the exact scalar float expressions),
#: so the slack just has to dominate the float rounding between the
#: transformed per-point thresholds and the scalar conditions — 1e-7
#: relative is orders of magnitude above both the 1e-9 feasibility EPS
#: band and the ~1e-16 relative rounding of the inputs.
_MASK_SLACK = 1e-7

#: Iteration cap for the parallel-deletion hull passes; reaching it falls
#: back to the sequential pop rule (identical result, just slower).
_CHAIN_PASSES = 48

#: Initial fused working-window length.  Each break/fallback abandons the
#: window's precomputed arrays, so windows start small (bounding the
#: waste per event) and grow geometrically while the run stays quiet.
_FUSED_WINDOW = 1024
_FUSED_GROWTH = 8

#: Below this many points the sequential pop rule beats the parallel
#: hull-deletion passes (numpy call overhead dominates tiny arrays).
_CHAIN_MIN = 48


def _cross(ox: float, oy: float, px: float, py: float, qx: float, qy: float) -> float:
    """2D cross product of (o->p) x (o->q)."""
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


class OnlinePLA:
    """Optimal online PLA generator for one counter.

    Emitted segments are rows of a :class:`~repro.persistence.column_log.ColumnLog`
    under the counter's key; the generator keeps the open run and the
    log positions of its own segments.

    Parameters
    ----------
    delta:
        Maximum allowed vertical deviation between the approximation and
        any fed point.  Must be positive.
    initial_value:
        Counter value before any point is fed (0 for a fresh counter;
        nonzero when a counter is re-tracked mid-stream, e.g. at an epoch
        boundary in the Section 5 construction).
    log, key:
        The sketch's PLA log and this counter's key in it; a generator
        built without one keeps a log of its own.
    """

    __slots__ = (
        "__weakref__",  # contract decorators track instances weakly
        "delta",
        "initial_value",
        "log",
        "key",
        "_pos",
        "_times",
        "_run_points",
        "_t0",
        "_last_x",
        "_count",
        "_first_v",
        "_hull_a",
        "_start_a",
        "_hull_b",
        "_start_b",
        "_u_slope",
        "_u_icept",
        "_l_slope",
        "_l_icept",
    )

    def __init__(
        self,
        delta: float,
        initial_value: float = 0.0,
        log: ColumnLog | None = None,
        key: int = 0,
    ) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.initial_value = initial_value
        self.log = ColumnLog(PLA) if log is None else log
        self.key = key
        # Log positions of this counter's segments, and their start times
        # (the predecessor-search key).
        self._pos: array[int] = array("q")
        self._times: list[int] = []
        self.log.register(key, self.delta, initial_value)
        # Shadow copy of the current run's fed points, kept only while
        # contracts are enforced so each emitted segment can be checked
        # against the Delta bound; None keeps the hot path branch cheap.
        self._run_points: list[tuple[int, float]] | None = (
            [] if contracts.ENABLED else None
        )
        self._reset_run()

    def _reset_run(self) -> None:
        if self._run_points:
            self._run_points.clear()
        self._t0 = 0  # global time of the run's first point
        self._last_x = 0.0  # last fed time, relative to _t0
        self._count = 0  # points in the current run
        self._first_v = 0.0
        # Upper hull of lowered points (x, v - delta); tangent ptr start_a.
        # A one-point run keeps no hull: most counters are touched once
        # between saves, and the second point builds both.
        self._hull_a: list[tuple[float, float]] = []
        self._start_a = 0
        # Lower hull of raised points (x, v + delta); tangent ptr start_b.
        self._hull_b: list[tuple[float, float]] = []
        self._start_b = 0
        # Supporting lines y = slope * x + icept (x relative to _t0).
        self._u_slope = 0.0
        self._u_icept = 0.0
        self._l_slope = 0.0
        self._l_icept = 0.0

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #

    @contracts.monotone_timestamps(param="t")
    def feed(self, t: int, v: float) -> None:
        """Feed the counter value ``v`` observed at time ``t``.

        Times must be strictly increasing across calls.  In-run
        violations always raise; the ``@monotone_timestamps`` contract
        extends the check across run boundaries when enforcement is on.
        """
        if self._count == 0:
            self._begin_run(t, v)
            return
        x = float(t - self._t0)
        if x <= self._last_x:
            raise ValueError(
                f"feed times must be strictly increasing: {t} after "
                f"{self._t0 + self._last_x}"
            )
        a = v - self.delta
        b = v + self.delta
        if self._count == 1:
            if self._run_points is not None:
                self._run_points.append((t, v))
            self._second_point(x, a, b)
            self._last_x = x
            return
        # Infeasible if even the extreme supporting lines miss the new bar.
        if (
            self._u_slope * x + self._u_icept < a - _EPS
            or self._l_slope * x + self._l_icept > b + _EPS
        ):
            self._emit_segment()
            self._reset_run()
            self._begin_run(t, v)
            return
        # Tighten u if the new upper bar cuts below it.
        if self._u_slope * x + self._u_icept > b + _EPS:
            self._start_a = _tangent_min_slope(self._hull_a, self._start_a, x, b)
            ax, ay = self._hull_a[self._start_a]
            self._u_slope = (b - ay) / (x - ax)
            self._u_icept = ay - self._u_slope * ax
        # Tighten l if the new lower bar cuts above it.
        if self._l_slope * x + self._l_icept < a - _EPS:
            self._start_b = _tangent_max_slope(self._hull_b, self._start_b, x, a)
            bx, by = self._hull_b[self._start_b]
            self._l_slope = (a - by) / (x - bx)
            self._l_icept = by - self._l_slope * bx
        if self._run_points is not None:
            self._run_points.append((t, v))
        self._append_hull_a(x, a)
        self._append_hull_b(x, b)
        self._last_x = x
        self._count += 1

    def feed_many(
        self,
        times: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Feed a whole time-ordered run of points.

        Semantically identical to calling :meth:`feed` per point; exists
        because the bulk-ingest engine spends most of its time here.  For
        integer-valued numpy columns (the batch planner's native format)
        a vectorized path handles the run in bulk — bit-identical to the
        scalar loop (see :meth:`_feed_fused`); anything else is a
        one-run call of the row kernel :func:`feed_runs`.  With contracts
        enforced, every point goes through :meth:`feed`.
        """
        if isinstance(times, np.ndarray):
            if (
                self._run_points is None
                and isinstance(values, np.ndarray)
                and len(times) >= _FUSED_MIN
                and self._feed_fused(times, values)
            ):
                return
            times = times.tolist()
        if isinstance(values, np.ndarray):
            values = values.tolist()
        n = min(len(times), len(values))
        if n:
            feed_runs((self,), (0, n), times, values)

    def _feed_fused(self, t_arr: np.ndarray, v_arr: np.ndarray) -> bool:
        """Vectorized :meth:`feed_many`, bit-identical to the scalar loop.

        Exactness argument.  Within a run, the supporting lines change
        only at *tighten* events, and between events every point is a
        pure hull append.  With the tangent anchor ``(ax, ay)`` fixed
        (pointer advances are validated per event, see below), the
        tighten-``u`` condition ``s*x + icept > b + EPS`` is equivalent
        to ``s > tau_j`` with ``tau_j = (b_j + EPS - ay)/(x_j - ax)``,
        and since every tighten replaces ``s`` by a value *below* its own
        threshold, each event position is a strict running minimum of
        ``tau`` (mirrored for ``l`` with a running maximum).  A break
        requires the corridor to collapse, which implies the *opposite*
        side's tighten condition, so breaks are records too.  Numpy
        extracts the record positions in one pass; a scalar walk then
        re-checks each candidate with the exact float expressions the
        scalar path uses and updates the lines — non-candidates are
        provably pure appends.  Hulls are reconstructed in bulk at the
        end of the run segment (the pop rule's result is canonical for
        sorted points), which is valid because cross products of
        integer-valued coordinates below the guarded magnitude are exact
        in float64 — the entry checks refuse anything else.

        Tangent-pointer advances cannot be ruled out from the chain
        alone, so each tighten is pre-checked against the running
        extreme of the anchor-to-point slopes (the true tangent walk
        only advances when some hull point beats the anchor, and the
        extreme slope over *all* points is attained on the hull); a
        near-miss materializes the hulls and lets scalar :meth:`feed`
        run the real walk for that one point.

        Returns False — with the sketch state untouched — when the
        preconditions don't hold and the caller must use the row kernel
        (non-integer data, magnitude overflow, or non-monotone times,
        which the kernel rejects with :meth:`feed`'s exact error).
        """
        n = len(t_arr)
        if (
            n != len(v_arr)
            or t_arr.dtype.kind not in "iu"
            or v_arr.dtype.kind not in "iu"
            or not self.delta.is_integer()
        ):
            return False
        if self._count > 0 and not int(t_arr[0]) > self._t0 + self._last_x:
            return False
        if n > 1 and not bool(np.all(np.diff(t_arr) > 0)):
            return False
        # Exact-cross-product guard: every |dx * dy| must stay below
        # 2**53 so the bulk hull predicates round identically to the
        # scalar ones (they are then all exact integers).
        x_lim = float(int(t_arr[-1]) - (self._t0 if self._count else int(t_arr[0]))) + 2.0
        y_lim = float(np.max(np.abs(v_arr))) + self.delta + 2.0
        if self._count == 1:  # its hulls are built from the second point
            y_lim = max(y_lim, abs(self._first_v) + self.delta + 2.0)
        for hull in (self._hull_a, self._hull_b):
            for _hx, hy in hull:
                y_lim = max(y_lim, abs(hy) + 2.0)
        if x_lim * 2.0 * y_lim >= 2.0**52:
            return False
        # Grow the working window geometrically and shrink it back after
        # every break/fallback: an event restarts the vectorized scan
        # (the tangent anchor moved), so unbounded windows would redo
        # O(remaining) numpy work per event.
        pos = 0
        limit = _FUSED_WINDOW
        while pos < n:
            if self._count < 2:
                self.feed(t_arr[pos].item(), v_arr[pos].item())
                pos += 1
                continue
            end, clean = self._fused_segment(
                t_arr, v_arr, pos, min(limit, n - pos)
            )
            limit = limit * _FUSED_GROWTH if clean else _FUSED_WINDOW
            pos = end
        return True

    def _fused_segment(
        self, t_arr: np.ndarray, v_arr: np.ndarray, pos: int, limit: int
    ) -> tuple[int, bool]:
        """Process up to ``limit`` points of ``t_arr[pos:]`` in bulk.

        Returns ``(next_pos, clean)`` where ``clean`` is False when the
        window stopped early on a break or a tangent-walk fallback.
        Requires ``self._count >= 2``.
        """
        x = (t_arr[pos : pos + limit] - self._t0).astype(np.float64)
        v = v_arr[pos : pos + limit].astype(np.float64)
        a = v - self.delta
        b = v + self.delta
        ax, ay = self._hull_a[self._start_a]
        bx, by = self._hull_b[self._start_b]
        dxa = x - ax
        dxb = x - bx
        # Event-candidate masks: strict running-min records of the
        # tighten-u thresholds (mirrored for l), slack-padded so float
        # rounding can never hide a true event (see _feed_fused).
        tau_u = (b + _EPS - ay) / dxa
        tau_l = (a - _EPS - by) / dxb
        su = self._u_slope
        iu = self._u_icept
        sl = self._l_slope
        il = self._l_icept
        prev_min = np.minimum.accumulate(np.concatenate(([su], tau_u[:-1])))
        prev_max = np.maximum.accumulate(np.concatenate(([sl], tau_l[:-1])))
        records = (tau_u < prev_min + _MASK_SLACK * (1.0 + np.abs(tau_u))) | (
            tau_l > prev_max - _MASK_SLACK * (1.0 + np.abs(tau_l))
        )
        # Anchor-to-point slopes: their running extremes bound what the
        # tangent walk could find, proving "no pointer advance" cheaply.
        # Seeding the accumulate with the existing hull's extreme makes
        # ``cg[j]`` the bound over everything strictly before point j.
        g0 = max(
            ((hy - ay) / (hx - ax) for hx, hy in self._hull_a[self._start_a + 1 :]),
            default=float("-inf"),
        )
        h0 = min(
            ((hy - by) / (hx - bx) for hx, hy in self._hull_b[self._start_b + 1 :]),
            default=float("inf"),
        )
        cg = np.maximum.accumulate(np.concatenate(([g0], (a - ay) / dxa)))
        ch = np.minimum.accumulate(np.concatenate(([h0], (b - by) / dxb)))
        madv = _MASK_SLACK + 2.2e-13 * float(x[-1])
        broke = False
        fallback = False
        stop = len(x)
        recs = np.flatnonzero(records)
        xl = x[recs].tolist()
        al = a[recs].tolist()
        bl = b[recs].tolist()
        cgl = cg[recs].tolist()
        chl = ch[recs].tolist()
        for k, j in enumerate(recs.tolist()):
            xj = xl[k]
            aj = al[k]
            bj = bl[k]
            uj = su * xj + iu
            lj = sl * xj + il
            if uj < aj - _EPS or lj > bj + _EPS:
                broke = True
                stop = j
                break
            if uj > bj + _EPS:
                sig = (bj - ay) / (xj - ax)
                if cgl[k] > sig - madv * (1.0 + abs(sig)):
                    fallback = True
                    stop = j
                    break
                su = sig
                iu = ay - su * ax
            if lj < aj - _EPS:
                sig = (aj - by) / (xj - bx)
                if chl[k] < sig + madv * (1.0 + abs(sig)):
                    fallback = True
                    stop = j
                    break
                sl = sig
                il = by - sl * bx
        self._u_slope = su
        self._u_icept = iu
        self._l_slope = sl
        self._l_icept = il
        if stop > 0:
            self._last_x = float(x[stop - 1])
            self._count += stop
        if broke:
            # The pre-break points only matter through count/last_x and
            # the supporting lines (the reset wipes the hulls anyway) —
            # unless the emit raises: then the run stays open, holding
            # them in its hulls as feed's would.
            try:
                self._emit_segment()
            except ValueError:
                self._bulk_append_hulls(x, a, b, stop)
                raise
            self._reset_run()
        else:
            self._bulk_append_hulls(x, a, b, stop)
        if broke or fallback:
            # Scalar feed replays the stopping point exactly: a break
            # begins the next run; a fallback runs the real tangent
            # walk against the freshly materialized hulls.
            self.feed(t_arr[pos + stop].item(), v_arr[pos + stop].item())
            return pos + stop + 1, False
        return pos + stop, True

    def _bulk_append_hulls(
        self, x: np.ndarray, a: np.ndarray, b: np.ndarray, upto: int
    ) -> None:
        """Append ``upto`` points to both hulls in bulk.

        Equivalent to ``upto`` sequential ``_append_hull_*`` calls: the
        incremental pop rule computes the strict upper (lower) hull of
        the sorted chain seeded at the frozen tangent anchor, and with
        exact cross products that result is canonical, so it can be
        recomputed from the anchor's suffix plus the new points.
        """
        if upto <= 0:
            return
        for hull, start, ys, upper in (
            (self._hull_a, self._start_a, a, True),
            (self._hull_b, self._start_b, b, False),
        ):
            seed = hull[start:]
            xs_full = np.concatenate(
                ([p[0] for p in seed], x[:upto])
            )
            ys_full = np.concatenate(
                ([p[1] for p in seed], ys[:upto])
            )
            chain = _bulk_chain(xs_full, ys_full, upper)
            if upper:
                self._hull_a = hull[:start] + chain
            else:
                self._hull_b = hull[:start] + chain

    def finalize(self) -> array[int]:
        """Emit the pending segment, if any, and return the log positions
        of every emitted segment (its length is the segment count).

        The generator can keep being fed afterwards; finalizing mid-stream
        simply closes the current run.
        """
        if self._count > 0:
            self._emit_segment()
            self._reset_run()
            del self.log.open[self.key]
        return self._pos

    def pending(self) -> tuple[int, int, float, float] | None:
        """The segment :meth:`finalize` would emit now, as its row
        ``(t_start, t_end, slope, value_at_start)``; None with no open
        run.  It evaluates exactly like the open-run bisector."""
        return self._open_row() if self._count else None

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def value_at(self, t: float) -> float:
        """Approximate counter value at time ``t``.

        Works while the stream is still being ingested: query times inside
        the open (not yet emitted) run are served from the current
        supporting-line bisector, which is within ``delta`` of every fed
        point of the run.
        """
        if self._count > 0 and t >= self._t0:
            x = min(float(t - self._t0), self._last_x)
            return self._bisector_at(x)
        return self.log.segment_at(self, t)

    def segment_count(self, include_open: bool = True) -> int:
        """Number of emitted segments (plus the open run by default)."""
        return len(self._pos) + (1 if include_open and self._count > 0 else 0)

    def words(self) -> int:
        """Persistent-archive space in machine words.

        Counts only *generated* segments, matching the paper's Section 6.2
        accounting (its explanation of Figure 3(b) states that no PLA
        segment is generated for counters that never deviate by ``delta``).
        The open run's supporting-line state is live working memory — the
        analogue of the ephemeral sketch, which the paper also excludes —
        and is what :meth:`value_at` consults for query times beyond the
        last emitted segment.
        """
        return PLA.words * len(self._pos)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _begin_run(self, t: int, v: float) -> None:
        if self._run_points is not None:
            self._run_points.append((t, v))
        self._t0 = t
        self._last_x = 0.0
        self._count = 1
        self._first_v = v
        self.log.open[self.key] = self

    def _second_point(self, x: float, a: float, b: float) -> None:
        v0_a = self._first_v - self.delta
        v0_b = self._first_v + self.delta
        self._hull_a = [(0.0, v0_a)]
        self._start_a = 0
        self._hull_b = [(0.0, v0_b)]
        self._start_b = 0
        # Max-slope line: lowered first point up to raised second point.
        self._u_slope = (b - v0_a) / x
        self._u_icept = v0_a
        # Min-slope line: raised first point down to lowered second point.
        self._l_slope = (a - v0_b) / x
        self._l_icept = v0_b
        self._append_hull_a(x, a)
        self._append_hull_b(x, b)
        self._count = 2

    def _bisector_at(self, x: float) -> float:
        if self._count == 1:
            return self._first_v
        slope = 0.5 * (self._u_slope + self._l_slope)
        icept = 0.5 * (self._u_icept + self._l_icept)
        return slope * x + icept

    def _open_row(self) -> tuple[int, int, float, float]:
        """The open run's segment; requires ``self._count > 0``."""
        if self._count == 1:
            return self._t0, self._t0, 0.0, self._first_v
        return (
            self._t0,
            self._t0 + int(self._last_x),
            0.5 * (self._u_slope + self._l_slope),
            0.5 * (self._u_icept + self._l_icept),
        )

    def _emit_segment(self) -> None:
        row = self._open_row()
        if self._run_points:
            contracts.check_segment_error(
                Segment(*row),
                [point[0] for point in self._run_points],
                [point[1] for point in self._run_points],
                self.delta,
            )
        self.log.append(self, *row)

    def _append_hull_a(self, x: float, y: float) -> None:
        hull = self._hull_a
        start = self._start_a
        # Upper hull: pop while the last point falls on/below the new chord.
        while len(hull) - start >= 2 and (
            _cross(hull[-2][0], hull[-2][1], hull[-1][0], hull[-1][1], x, y)
            >= 0
        ):
            hull.pop()
        hull.append((x, y))

    def _append_hull_b(self, x: float, y: float) -> None:
        hull = self._hull_b
        start = self._start_b
        # Lower hull: pop while the last point falls on/above the new chord.
        while len(hull) - start >= 2 and (
            _cross(hull[-2][0], hull[-2][1], hull[-1][0], hull[-1][1], x, y)
            <= 0
        ):
            hull.pop()
        hull.append((x, y))


def feed_runs(
    trackers: Sequence[OnlinePLA],
    bounds: Sequence[int],
    times: Sequence[int],
    values: Sequence[float],
) -> None:
    """The row kernel: feed run ``g``, the points
    ``times/values[bounds[g]:bounds[g + 1]]``, to ``trackers[g]``, for
    every non-empty run of a sketch row in one call.

    Each point takes :meth:`OnlinePLA.feed`'s path with its exact float
    expressions — the second point, the break test, the tangent walks of
    :func:`_tangent_min_slope`/:func:`_tangent_max_slope` and the pop
    rules of ``_append_hull_a``/``_b`` inlined — so the state it leaves
    is bit-identical.  Reused operands give the same bits: a walk's
    ``nxt`` becomes the next step's ``cur``, each hull's last two points
    stay in locals, and after a pop the chain's old second-to-last point
    is its last.  A run on a tracker with no open run begins one inline
    (all a one-point run costs); otherwise the tracker's run state is
    loaded into locals once and written back when the walk stops: at the
    run's end, at a break (which then closes the run as ``feed`` does,
    and the walk resumes on the next run) and before any raise, so a
    raise keeps the points before it.  With contracts enforced, or on a
    tracker that records its run points, every point goes through
    ``feed``.
    """
    eps = _EPS
    lo = bounds[0]
    for tracker, hi in zip(trackers, islice(bounds, 1, None)):
        j = lo
        lo = hi
        if contracts.ENABLED or tracker._run_points is not None:
            for j in range(j, hi):
                tracker.feed(times[j], values[j])
            continue
        if tracker._count == 0:
            # feed's _begin_run.
            tracker._t0 = times[j]
            tracker._last_x = 0.0
            tracker._count = 1
            tracker._first_v = values[j]
            tracker.log.open[tracker.key] = tracker
            j += 1
            if j == hi:
                continue
        delta = tracker.delta
        while True:
            count = tracker._count
            t0 = tracker._t0
            last_x = tracker._last_x
            first_v = tracker._first_v
            hull_a = tracker._hull_a
            start_a = tracker._start_a
            hull_b = tracker._hull_b
            start_b = tracker._start_b
            us = tracker._u_slope
            ui = tracker._u_icept
            ls = tracker._l_slope
            li = tracker._l_icept
            # Hull lengths, the length from which a hull holds two
            # points past its tangent start (the pop rules' guard), and
            # each hull's last two points (a hull holds two or more from
            # the second point of a run on).
            na = len(hull_a)
            nb = len(hull_b)
            floor_a = start_a + 2
            floor_b = start_b + 2
            if count > 1:
                pax, pay = hull_a[-1]
                oax, oay = hull_a[-2]
                pbx, pby = hull_b[-1]
                obx, oby = hull_b[-2]
            broke = False
            try:
                for j in range(j, hi):
                    t = times[j]
                    v = values[j]
                    x = float(t - t0)
                    if x <= last_x:
                        raise ValueError(
                            f"feed times must be strictly increasing: {t} "
                            f"after {t0 + last_x}"
                        )
                    a = v - delta
                    b = v + delta
                    if count == 1:
                        oax = obx = 0.0
                        oay = first_v - delta
                        oby = first_v + delta
                        hull_a = [(oax, oay), (x, a)]
                        hull_b = [(obx, oby), (x, b)]
                        pax = pbx = x
                        pay = a
                        pby = b
                        na = nb = 2
                        start_a = start_b = 0
                        floor_a = floor_b = 2
                        us = (b - oay) / x
                        ui = oay
                        ls = (a - oby) / x
                        li = oby
                        last_x = x
                        count = 2
                        continue
                    a_low = a - eps
                    b_high = b + eps
                    uy = us * x + ui
                    ly = ls * x + li
                    if uy < a_low or ly > b_high:
                        broke = True
                        break
                    if uy > b_high:
                        i = start_a
                        if i < na - 1:
                            hx, hy = hull_a[i]
                            cur = (b - hy) / (x - hx)
                            while i < na - 1:
                                hx, hy = hull_a[i + 1]
                                nxt = (b - hy) / (x - hx)
                                if nxt < cur:
                                    i += 1
                                    cur = nxt
                                else:
                                    break
                        start_a = i
                        floor_a = i + 2
                        hx, hy = hull_a[i]
                        us = (b - hy) / (x - hx)
                        ui = hy - us * hx
                    if ly < a_low:
                        i = start_b
                        if i < nb - 1:
                            hx, hy = hull_b[i]
                            cur = (a - hy) / (x - hx)
                            while i < nb - 1:
                                hx, hy = hull_b[i + 1]
                                nxt = (a - hy) / (x - hx)
                                if nxt > cur:
                                    i += 1
                                    cur = nxt
                                else:
                                    break
                        start_b = i
                        floor_b = i + 2
                        hx, hy = hull_b[i]
                        ls = (a - hy) / (x - hx)
                        li = hy - ls * hx
                    if na >= floor_a:
                        while (pax - oax) * (a - oay) - (pay - oay) * (x - oax) >= 0:
                            hull_a.pop()
                            na -= 1
                            pax = oax
                            pay = oay
                            if na < floor_a:
                                break
                            oax, oay = hull_a[-2]
                    hull_a.append((x, a))
                    na += 1
                    oax = pax
                    oay = pay
                    pax = x
                    pay = a
                    if nb >= floor_b:
                        while (pbx - obx) * (b - oby) - (pby - oby) * (x - obx) <= 0:
                            hull_b.pop()
                            nb -= 1
                            pbx = obx
                            pby = oby
                            if nb < floor_b:
                                break
                            obx, oby = hull_b[-2]
                    hull_b.append((x, b))
                    nb += 1
                    obx = pbx
                    oby = pby
                    pbx = x
                    pby = b
                    last_x = x
                    count += 1
            finally:
                tracker._count = count
                tracker._last_x = last_x
                tracker._hull_a = hull_a
                tracker._start_a = start_a
                tracker._hull_b = hull_b
                tracker._start_b = start_b
                tracker._u_slope = us
                tracker._u_icept = ui
                tracker._l_slope = ls
                tracker._l_icept = li
            if not broke:
                break
            # Infeasible: ``(t, v)`` begins the next run, as in feed.
            tracker._emit_segment()
            tracker._reset_run()
            tracker._begin_run(t, v)
            j += 1
            if j == hi:
                break


def _bulk_chain(
    xs: np.ndarray, ys: np.ndarray, upper: bool
) -> list[tuple[float, float]]:
    """Strict upper (lower) hull of sorted points, as the pop rule builds it.

    Parallel deletion: every interior point whose cross product against
    its current neighbours fails the keep rule is dropped, repeatedly,
    until the chain is strictly convex.  With exact cross products this
    fixed point is unique and equals the sequential pop rule's result:
    true hull vertices are above (below) the chord of *any* flanking
    pair, so no pass ever deletes one, and a surviving non-vertex would
    poke through a hull edge.  The first point (the frozen tangent
    anchor) and the last are never deleted, matching the
    ``len(hull) - start >= 2`` guard of the scalar appends.

    A chord prefilter runs first: interior points on or below (above)
    the first-to-last chord can never be strict upper (lower) hull
    vertices, and one vectorized orientation test deletes them all.
    """
    if len(xs) > _CHAIN_MIN:
        dx = xs[-1] - xs[0]
        dy = ys[-1] - ys[0]
        side = dx * (ys[1:-1] - ys[0]) - dy * (xs[1:-1] - xs[0])
        good = np.flatnonzero(side > 0.0 if upper else side < 0.0) + 1
        if len(good) < len(xs) - 2:
            xs = np.concatenate((xs[:1], xs[good], xs[-1:]))
            ys = np.concatenate((ys[:1], ys[good], ys[-1:]))
    if len(xs) <= _CHAIN_MIN:
        return _sequential_chain(xs.tolist(), ys.tolist(), upper)
    for _ in range(_CHAIN_PASSES):
        m = len(xs)
        if m <= _CHAIN_MIN:
            return _sequential_chain(xs.tolist(), ys.tolist(), upper)
        cross = (xs[1:-1] - xs[:-2]) * (ys[2:] - ys[:-2]) - (
            ys[1:-1] - ys[:-2]
        ) * (xs[2:] - xs[:-2])
        good = np.flatnonzero(cross < 0.0 if upper else cross > 0.0)
        if len(good) == m - 2:
            break
        good += 1
        xs = np.concatenate((xs[:1], xs[good], xs[-1:]))
        ys = np.concatenate((ys[:1], ys[good], ys[-1:]))
    else:
        return _sequential_chain(xs.tolist(), ys.tolist(), upper)
    return list(zip(xs.tolist(), ys.tolist()))


def _sequential_chain(
    xs: list[float], ys: list[float], upper: bool
) -> list[tuple[float, float]]:
    """Sequential fallback for :func:`_bulk_chain` (identical pop rule)."""
    chain: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(chain) >= 2:
            ox, oy = chain[-2]
            px, py = chain[-1]
            c = (px - ox) * (y - oy) - (py - oy) * (x - ox)
            if (c >= 0) if upper else (c <= 0):
                chain.pop()
            else:
                break
        chain.append((x, y))
    return chain


def _tangent_min_slope(
    hull: list[tuple[float, float]], start: int, px: float, py: float
) -> int:
    """Index of the hull point minimizing slope to the external point.

    ``hull[start:]`` is a concave chain left of ``(px, py)``; the slope
    from chain point to external point is unimodal (decreasing, then
    increasing), so a forward walk finds the minimum.  The returned index
    becomes the new chain start: earlier points can never be tangent for
    later external points, which is what makes the walk amortized O(1).
    """
    i = start
    last = len(hull) - 1
    while i < last:
        cur = (py - hull[i][1]) / (px - hull[i][0])
        nxt = (py - hull[i + 1][1]) / (px - hull[i + 1][0])
        if nxt < cur:
            i += 1
        else:
            break
    return i


def _tangent_max_slope(
    hull: list[tuple[float, float]], start: int, px: float, py: float
) -> int:
    """Index of the hull point maximizing slope to the external point.

    Mirror image of :func:`_tangent_min_slope` for the convex (lower hull)
    chain.
    """
    i = start
    last = len(hull) - 1
    while i < last:
        cur = (py - hull[i][1]) / (px - hull[i][0])
        nxt = (py - hull[i + 1][1]) / (px - hull[i + 1][0])
        if nxt > cur:
            i += 1
        else:
            break
    return i
