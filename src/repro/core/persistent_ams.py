"""The sampling-based persistent AMS sketch ("Sample", Section 4).

Each AMS counter ``C[j][k]`` is decomposed into two monotonically
increasing components: ``C[j][k][1]`` accumulates updates with positive
effective sign (``sign_j(i) * count > 0``) and ``C[j][k][0]`` the negative
ones, so ``C = C[1] - C[0]``.  Each component keeps one or more
Bernoulli(1/Delta)-sampled history lists
(:class:`~repro.persistence.history_list.SampledHistoryList`), whose
compensated predecessor reads are *unbiased* estimators of the component
value at any time — the property that lets join-size errors stay bounded
where the deterministic baselines' bias is amplified (Section 4.2).

Self-join estimation needs the two factors of each squared counter to come
from independent reconstructions, so by default every component keeps
``independent_copies = 2`` history lists (doubling space, as the paper
notes at the end of Section 4.1).  Join sizes between two different
streams use copy 0 of each sketch; the streams themselves provide the
independence.
"""

from __future__ import annotations

from functools import partial
from random import Random
from statistics import median
from typing import Callable

import numpy as np

from repro.analysis import contracts
from repro.core import columnar
from repro.core.base import PersistentSketch
from repro.hashing import BucketHashFamily, HashConfig, SignHashFamily
from repro.persistence.column_log import HISTORY, ColumnLog
from repro.persistence.history_list import SampledHistoryList
from repro.persistence.sampling import bulk_uniforms
from repro.persistence.timeline import TimelineIndex


def _feed_sampled_row(
    components: list[list[int]],
    histories_row: list[list[dict[int, SampledHistoryList]]],
    row_cols: np.ndarray,
    b_flags: np.ndarray,
    a_times: np.ndarray,
    a_mags: np.ndarray,
    uniforms_row: np.ndarray,
    probability: float,
    copies: int,
    make_history: Callable[[int, int, int], SampledHistoryList],
) -> None:
    """Apply one hash row's active updates from pre-drawn uniforms.

    ``uniforms_row`` holds this row's slice of the sketch-RNG draw
    sequence, in update order, shape ``(m, copies)`` — acceptance is a
    pure function of it.  ``make_history(b, copy, col)`` creates and
    registers a missing history list.
    """
    keys = row_cols * 2 + b_flags
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts, ends = columnar.run_bounds(sorted_keys)
    edges = np.append(starts, len(keys))
    run_keys = sorted_keys[starts].tolist()
    bases = np.array(
        [components[key // 2][key % 2] for key in run_keys], dtype=np.int64
    )
    values = columnar.run_values(bases, a_mags[order], starts, ends)
    times = a_times[order]
    accepted = uniforms_row[order] < probability
    # Created even when no offer is accepted, as the scalar ``offer``
    # path does: in run order, copy by copy.
    for key in run_keys:
        col, b = key // 2, key % 2
        for copy, lists in enumerate(histories_row[b]):
            if col not in lists:
                make_history(b, copy, col)
    # Each copy's accepted positions, taken once for the whole row and
    # cut per (column, component) run at the run edges; only a run with
    # an accepted offer in some copy takes a Python step.
    hit_runs = []
    hit_any = np.zeros(len(run_keys), dtype=bool)
    for copy in range(copies):
        hits = np.flatnonzero(accepted[:, copy])
        bounds = np.searchsorted(hits, edges)
        hit_any |= bounds[1:] > bounds[:-1]
        hit_runs.append(
            (times[hits].tolist(), values[hits].tolist(), bounds.tolist())
        )
    for run in np.flatnonzero(hit_any).tolist():
        key = run_keys[run]
        col, b = key // 2, key % 2
        for lists, (hit_times, hit_values, bounds) in zip(
            histories_row[b], hit_runs
        ):
            first, last = bounds[run], bounds[run + 1]
            if last > first:
                lists[col].extend(hit_times[first:last], hit_values[first:last])
    for key, last_value in zip(run_keys, values[ends - 1].tolist()):
        components[key // 2][key % 2] = last_value


class PersistentAMS(PersistentSketch):
    """Sampling-based persistent AMS sketch.

    Parameters
    ----------
    width, depth:
        Shape of the AMS sketch (``w = O(1/eps^2)``, ``d = O(log 1/delta)``).
    delta:
        Additive persistence error ``Delta``; the sampling probability is
        ``p = 1/Delta``.
    seed:
        Hash seed.  Two sketches can answer join queries only when built
        with identical ``width``, ``depth`` and ``seed``.
    independent_copies:
        History lists per counter component (2 enables self-join per
        Section 4.1; 1 halves space when only point/join queries are
        needed).
    sampling_seed:
        Seed of the Bernoulli sampler (independent of the hash seed so
        the two sketches of a join pair share hashes but not samples).
    """

    name = "Sample"

    def __init__(
        self,
        width: int,
        depth: int,
        delta: float,
        seed: int = 0,
        independent_copies: int = 2,
        sampling_seed: int | None = None,
    ):
        super().__init__()
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        if independent_copies < 1:
            raise ValueError("independent_copies must be >= 1")
        self.width = width
        self.depth = depth
        self.delta = float(delta)
        self.seed = seed
        self.copies = independent_copies
        self.probability = 1.0 / float(delta)
        config = HashConfig(width=width, depth=depth, seed=seed)
        self.buckets = BucketHashFamily(config)
        self.signs = SignHashFamily(config)
        # Seed audit: the Bernoulli sampler is decoupled from the hash
        # seed by an affine map (7919 is prime) so a join pair built via
        # make_ams_pair shares hashes but never sampling randomness; the
        # +11 offset keeps it disjoint from HistoricalAMS (+13) and the
        # L2 tracker (+101) when all derive from one experiment seed.
        self._rng = Random(seed * 7919 + 11 if sampling_seed is None else sampling_seed)
        # Current component values: per row, per column, [negative, positive].
        self._components: list[list[list[int]]] = [
            [[0, 0] for _ in range(width)] for _ in range(depth)
        ]
        # Lazily created history lists:
        # _histories[row][b][copy] maps column -> SampledHistoryList.
        self._histories: list[list[list[dict[int, SampledHistoryList]]]] = [
            [
                [{} for _ in range(independent_copies)]
                for _b in range(2)
            ]
            for _ in range(depth)
        ]
        self._log = ColumnLog(HISTORY)
        self.total = 0
        # Optional fractional-cascading index over the history lists;
        # see build_timeline().
        self._timeline: dict[
            tuple[int, int, int], tuple[list[int], TimelineIndex]
        ] | None = None
        self._timeline_clock = -1

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def _history(self, row: int, b: int, copy: int, col: int) -> SampledHistoryList:
        """Create component ``(row, col, b)``'s history list ``copy`` on
        its first offer; its log key is ``((row * 2 + b) * copies + copy)
        * width + col``."""
        history = SampledHistoryList(
            self.probability,
            self._rng,
            0,
            self._log,
            ((row * 2 + b) * self.copies + copy) * self.width + col,
        )
        self._histories[row][b][copy][col] = history
        return history

    def _ingest(self, item: int, count: int, time: int) -> None:
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        magnitude = abs(count)
        if magnitude == 0:
            return
        for row in range(self.depth):
            col = cols[row]
            effective = sgns[row] * count
            b = 1 if effective > 0 else 0
            component = self._components[row][col]
            value = component[b] + magnitude
            component[b] = value
            for copy in range(self.copies):
                history = self._histories[row][b][copy].get(col)
                if history is None:
                    history = self._history(row, b, copy, col)
                history.offer(time, value)
        self.total += count

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan, bit-identical to sequential sampling.

        The scalar path draws exactly one uniform per offer, in
        (update, row, copy) order; :func:`bulk_uniforms` pre-draws that
        exact sequence from the sketch RNG (and leaves the RNG in the
        same end state), so the accepted sample sets — and every later
        draw — match the scalar path bit-for-bit.  Component values come
        from per-(row, col, component) cumulative-magnitude runs.
        """
        magnitudes = np.abs(counts)
        active = np.flatnonzero(magnitudes > 0)
        m = int(active.shape[0])
        if m:
            a_items = items[active]
            a_times = times[active]
            a_mags = magnitudes[active]
            a_counts = counts[active]
            columns = self.buckets.buckets_many(a_items)
            signs = self.signs.signs_many(a_items)
            probability = self.probability
            uniforms = bulk_uniforms(
                self._rng, m * self.depth * self.copies
            ).reshape(m, self.depth, self.copies)
            for row in range(self.depth):
                # Group by (column, component): component streams are
                # independent monotone counters.
                b_flags = (signs[row] * a_counts > 0).astype(np.int64)
                _feed_sampled_row(
                    self._components[row],
                    self._histories[row],
                    columns[row],
                    b_flags,
                    a_times,
                    a_mags,
                    uniforms[:, row, :],
                    probability,
                    self.copies,
                    partial(self._history, row),
                )
        self.total += int(counts.sum())

    # ------------------------------------------------------------------ #
    # Counter reconstruction
    # ------------------------------------------------------------------ #

    def _component_at(self, row: int, b: int, copy: int, col: int, t: float) -> float:
        history = self._histories[row][b][copy].get(col)
        if history is None:
            return 0.0
        return history.estimate_at(t)

    def counter_estimate(self, row: int, col: int, t: float, copy: int = 0) -> float:
        """Unbiased estimate of counter ``C[row][col]`` at time ``t``."""
        self.flush_buffer()
        if t <= 0:
            return 0.0
        return self._component_at(row, 1, copy, col, t) - self._component_at(
            row, 0, copy, col, t
        )

    def _window_counter(self, row: int, col: int, s: float, t: float, copy: int) -> float:
        high = self.counter_estimate(row, col, t, copy)
        low = self.counter_estimate(row, col, s, copy) if s > 0 else 0.0
        return high - low

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` (Theorem 4.1 error bound)."""
        s, t = self._resolve_window(s, t)
        cols = self.buckets.buckets(item)
        sgns = self.signs.signs(item)
        return median(
            sgns[row] * self._window_counter(row, cols[row], s, t, copy=0)
            for row in range(self.depth)
        )

    def build_timeline(self) -> None:
        """Build a fractional-cascading index over the history lists.

        A join or self-join query must locate the predecessor of each
        window endpoint in every history list of a row (``O(w)`` lists);
        the index replaces the per-list binary searches with one search
        plus O(1) bridge-following per list — the query-time optimization
        of Sections 3.3/4.2 [10].  The index is static: it serves queries
        as of the stream position at build time and is rebuilt lazily by
        calling this method again after further ingest (holistic queries
        issued after new updates silently fall back to binary searches).
        """
        self.flush_buffer()
        contracts.check_log(self._log, what="history log")
        timeline = {}
        for row in range(self.depth):
            for b in range(2):
                for copy in range(self.copies):
                    lists = self._histories[row][b][copy]
                    cols = sorted(lists)
                    timeline[(row, b, copy)] = (
                        cols,
                        TimelineIndex(
                            [lists[col].sample_times() for col in cols]
                        ),
                    )
        self._timeline = timeline
        self._timeline_clock = self.now

    def _timeline_fresh(self) -> bool:
        return (
            self._timeline is not None and self._timeline_clock == self.now
        )

    def _bulk_window_counters(
        self, row: int, s: float, t: float, copy: int
    ) -> dict[int, float]:
        """Window counter estimates for every touched column of a row,
        via the fractional-cascading index."""
        if self._timeline is None:
            raise RuntimeError(
                "fractional-cascading index queried before build_timeline()"
            )
        out: dict[int, float] = {}
        for b, sign in ((1, 1.0), (0, -1.0)):
            cols, index = self._timeline[(row, b, copy)]
            if not cols:
                continue
            lists = self._histories[row][b][copy]
            pred_t = index.predecessors(t)
            pred_s = index.predecessors(s) if s > 0 else None
            for i, col in enumerate(cols):
                history = lists[col]
                value = history.estimate_at_index(pred_t[i])
                if pred_s is not None:
                    value -= history.estimate_at_index(pred_s[i])
                out[col] = out.get(col, 0.0) + sign * value
        return out

    def self_join_size(self, s: float = 0, t: float | None = None) -> float:
        """Estimate ``||f_{s,t}||_2^2`` (Theorem 4.2 with f = g).

        Requires ``independent_copies >= 2``: the two factors of each
        squared counter come from independent history lists, keeping the
        estimator's cross terms unbiased (Section 4.1).
        """
        if self.copies < 2:
            raise ValueError(
                "self-join estimation needs independent_copies >= 2"
            )
        s, t = self._resolve_window(s, t)
        row_estimates = []
        use_timeline = self._timeline_fresh()
        for row in range(self.depth):
            total = 0.0
            if use_timeline:
                a_by_col = self._bulk_window_counters(row, s, t, copy=0)
                b_by_col = self._bulk_window_counters(row, s, t, copy=1)
                for col, a in a_by_col.items():
                    total += a * b_by_col.get(col, 0.0)
            else:
                # Sorted column order: keeps the float accumulation order
                # deterministic and identical to the frozen query path.
                for col in sorted(self._touched_columns(row)):
                    a = self._window_counter(row, col, s, t, copy=0)
                    b = self._window_counter(row, col, s, t, copy=1)
                    total += a * b
            row_estimates.append(total)
        return median(row_estimates)

    def join_size(
        self, other: "PersistentAMS", s: float = 0, t: float | None = None
    ) -> float:
        """Estimate ``<f_{s,t}, g_{s,t}>`` with another stream's sketch.

        Both sketches must share ``width``, ``depth`` and hash ``seed``
        (Theorem 4.2); their ``delta`` values may differ.
        """
        if (
            self.width != other.width
            or self.depth != other.depth
            or self.seed != other.seed
        ):
            raise ValueError(
                "join-size estimation requires sketches with identical "
                "width, depth and hash seed"
            )
        other.flush_buffer()
        s, t = self._resolve_window(s, t)
        row_estimates = []
        use_timeline = self._timeline_fresh() and other._timeline_fresh()
        for row in range(self.depth):
            total = 0.0
            if use_timeline:
                f_by_col = self._bulk_window_counters(row, s, t, copy=0)
                g_by_col = other._bulk_window_counters(row, s, t, copy=0)
                small, large = (
                    (f_by_col, g_by_col)
                    if len(f_by_col) <= len(g_by_col)
                    else (g_by_col, f_by_col)
                )
                for col, value in small.items():
                    total += value * large.get(col, 0.0)
            else:
                cols = sorted(
                    self._touched_columns(row) & other._touched_columns(row)
                )
                for col in cols:
                    a = self._window_counter(row, col, s, t, copy=0)
                    b = other._window_counter(row, col, s, t, copy=0)
                    total += a * b
            row_estimates.append(total)
        return median(row_estimates)

    def _touched_columns(self, row: int) -> set[int]:
        touched: set[int] = set()
        for b in range(2):
            touched.update(self._histories[row][b][0].keys())
        return touched

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def persistence_words(self) -> int:
        self.flush_buffer()
        return self._log.words()

    def ephemeral_words(self) -> int:
        """Size of the underlying component arrays."""
        return 2 * self.width * self.depth
