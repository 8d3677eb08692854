"""Time-partitioned persistent sketching with retention.

Long-running deployments cannot keep a single sketch forever: even a
sublinear structure grows with the stream, and operators want to expire
history ("keep 90 days").  :class:`ShardedPersistentSketch` partitions
time into fixed-width shards, each backed by its own persistent
Count-Min sketch.  Window queries decompose over the shards they
overlap — point queries and heavy-hitter-style estimates are *linear* in
the frequency vector, so per-shard answers simply add (join-style
holistic queries do not decompose; use an unsharded
:class:`~repro.core.persistent_ams.PersistentAMS` for those).

Retention is shard-granular: :meth:`drop_before` atomically forgets
whole shards, bounding total memory for any retention window.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import columnar
from repro.core.base import PersistentSketch
from repro.core.persistent_countmin import PersistentCountMin


class ShardedPersistentSketch(PersistentSketch):
    """One persistent sketch per fixed-width time shard.

    Parameters
    ----------
    shard_length:
        Number of time units per shard; shard ``k`` covers
        ``(k * shard_length, (k + 1) * shard_length]``.
    width, depth, delta, seed:
        Parameters for each shard's sketch.
    sketch_factory:
        ``(width, depth, delta, seed) -> PersistentSketch`` for each
        shard; defaults to the PLA-based persistent Count-Min.
    """

    def __init__(
        self,
        shard_length: int,
        width: int,
        depth: int,
        delta: float,
        seed: int = 0,
        sketch_factory: Callable[[int, int, float, int], PersistentSketch]
        | None = None,
    ):
        super().__init__()
        if shard_length < 1:
            raise ValueError(
                f"shard_length must be >= 1, got {shard_length}"
            )
        self.shard_length = shard_length
        self._factory = sketch_factory or (
            lambda w, d, dl, sd: PersistentCountMin(
                width=w, depth=d, delta=dl, seed=sd
            )
        )
        self._params = (width, depth, delta, seed)
        self._shards: dict[int, PersistentSketch] = {}
        self._dropped_through = -1  # highest shard id expired so far

    # ------------------------------------------------------------------ #
    # Ingest and retention
    # ------------------------------------------------------------------ #

    def _shard_id(self, time: float) -> int:
        # Shard k covers times (k * L, (k + 1) * L]; time 0 is "before
        # the stream" and never carries an update.
        return (int(time) - 1) // self.shard_length

    def _ingest(self, item: int, count: int, time: int) -> None:
        shard_id = self._shard_id(time)
        if shard_id <= self._dropped_through:
            raise ValueError(
                f"time {time} falls in an expired shard (retention "
                f"boundary at shard {self._dropped_through})"
            )
        shard = self._shards.get(shard_id)
        if shard is None:
            width, depth, delta, seed = self._params
            shard = self._factory(width, depth, delta, seed + shard_id)
            self._shards[shard_id] = shard
        # Shard-local clocks are global times; they interleave correctly
        # because global time is strictly increasing.
        shard.update(item, count, time)

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: cut the batch at shard boundaries.

        Batch times are strictly increasing, so shard ids are
        non-decreasing and each shard's records form one contiguous
        slice, forwarded to the shard's own batch plan.  An expired-shard
        violation can only occur on the first slice, before any state is
        touched — exactly where the scalar path raises.
        """
        shard_ids = (times - 1) // self.shard_length
        starts, ends = columnar.run_bounds(shard_ids)
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            shard_id = int(shard_ids[lo])
            if shard_id <= self._dropped_through:
                raise ValueError(
                    f"time {int(times[lo])} falls in an expired shard "
                    f"(retention boundary at shard {self._dropped_through})"
                )
            shard = self._shards.get(shard_id)
            if shard is None:
                width, depth, delta, seed = self._params
                shard = self._factory(width, depth, delta, seed + shard_id)
                self._shards[shard_id] = shard
            shard.ingest_batch(times[lo:hi], items[lo:hi], counts[lo:hi])

    def drop_before(self, time: float) -> int:
        """Expire every shard that ends at or before ``time``.

        Returns the number of shards dropped.  Queries touching expired
        history raise, rather than silently undercounting.
        """
        # Staged updates may fall in the shards about to expire: apply
        # them first, exactly as an unbuffered sketch already has.
        self.flush_buffer()
        boundary = int(time) // self.shard_length - 1
        dropped = 0
        for shard_id in sorted(self._shards):
            if shard_id <= boundary:
                del self._shards[shard_id]
                dropped += 1
        self._dropped_through = max(self._dropped_through, boundary)
        return dropped

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]`` by summing per-shard estimates.

        Each overlapped shard contributes ``eps * ||f_shard||_1 + Delta``
        error, so long windows pay error proportional to the number of
        shards touched — the price of retention.
        """
        s, t = self._resolve_window(s, t)
        first = self._shard_id(s + 1)
        last = self._shard_id(t) if t > 0 else first - 1
        if first <= self._dropped_through and s < t:
            raise ValueError(
                "window reaches into expired shards; narrow s past the "
                "retention boundary"
            )
        total = 0.0
        for shard_id in range(first, last + 1):
            shard = self._shards.get(shard_id)
            if shard is None:
                continue
            shard_start = shard_id * self.shard_length
            shard_end = shard_start + self.shard_length
            # Clamp to the shard's own clock: a shard's history is frozen
            # after its last update, and times past it would (rightly)
            # be rejected by the shard's window validation.
            local_s = max(s, shard_start)
            local_t = min(t, shard_end, shard.now)
            if local_s >= local_t:
                continue  # no updates of this shard fall inside (s, t]
            total += shard.point(item, local_s, local_t)
        return total

    @property
    def shard_count(self) -> int:
        """Number of live shards."""
        self.flush_buffer()
        return len(self._shards)

    def persistence_words(self) -> int:
        self.flush_buffer()
        return sum(
            shard.persistence_words() for shard in self._shards.values()
        )
