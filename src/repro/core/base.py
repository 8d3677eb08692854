"""Shared machinery for the persistent sketches.

All persistent sketches ingest a stream of ``(item, count, time)`` updates
with strictly increasing integer timestamps (the discrete time model of
Section 1.2: update ``e_t`` arrives at time ``t``; ticks may be skipped).
When the caller does not supply timestamps, updates are assigned
consecutive ticks starting at 1.  Items are non-negative int64 values,
``0 <= item < 2**63``: the domain the columnar batches, the runtime's
records and the read verbs share.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis import contracts
from repro.core.buffer import DEFAULT_WINDOW, UpdateBuffer
from repro.parallel import IngestError, WorkerPool, fork_available
from repro.streams.model import Stream
from repro.streams.records import INT64_LIMIT

if TYPE_CHECKING:  # repro.engine depends on repro.core; import lazily.
    from repro.engine.frozen import (
        FrozenAMS,
        FrozenCountMin,
        FrozenHeavyHitters,
        FrozenPWCAMS,
    )
    from repro.parallel.pool import WorkerHandler

#: Longest validated run that replays through the scalar ``_ingest``
#: reference instead of the sketch's columnar plan.  The plan's cost is
#: mostly per call (vectorized Carter-Wegman hashing, the Mersenne
#: Twister hand-off of ``bulk_uniforms``, argsort setup), so a short run
#: pays milliseconds for work the scalar path does in microseconds; the
#: ``run_length`` leg of ``benchmarks/micro_run_cutover.py`` puts the
#: whole-store crossover just above this.
_SCALAR_RUN_MAX = 64


def _item_domain_error(item: int) -> ValueError:
    return ValueError(f"item must lie in [0, 2**63), got {item}")


class PersistentSketch(ABC):
    """Base class: clock management, bulk ingest, worker-pool lifecycle.

    With ``workers > 1`` a sketch that supports partition-parallel
    ingestion (:meth:`_parallel_supported`) routes every validated batch
    to a pool of forked workers, each *owning* a fixed partition of the
    sketch's independent state (hash rows, time shards, dyadic levels)
    for the life of the pool.  Worker state is merged back lazily: any
    query, freeze, serialization or scalar update first drains the pool
    (:meth:`_ensure_synced` / :meth:`detach_workers`), so callers never
    observe a half-merged sketch and parallel output stays bit-identical
    to serial.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._clock = 0
        self._workers = int(workers)
        self._pool: WorkerPool | None = None
        self._pool_stale = False
        self._pool_broken = False
        self._buffer: UpdateBuffer | None = None
        self._buffer_flushing = False

    @property
    def workers(self) -> int:
        """Worker-pool width used for parallel batch plans (1 = serial)."""
        return self._workers

    def set_workers(self, workers: int) -> None:
        """Change the pool width; takes effect on the next batch.

        Drains and retires any live pool first, so resizing never loses
        updates and is safe at any point between batches.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.detach_workers()
        self._workers = int(workers)

    @property
    def now(self) -> int:
        """Timestamp of the most recent update (0 before any update)."""
        return self._clock

    # ------------------------------------------------------------------ #
    # Update-buffer tier (two-stage ingest; see repro.core.buffer)
    # ------------------------------------------------------------------ #

    def configure_buffer(
        self, window: int | None = DEFAULT_WINDOW, mode: str = "exact"
    ) -> None:
        """Enable (or, with ``window=None``, disable) the update buffer.

        With a buffer configured, validated updates are absorbed at
        array-append cost and fed to the batch plan one ``window`` at a
        time; ``mode="coalesce"`` additionally merges same-item touches
        per window (lossy — see :mod:`repro.core.buffer` for the widened
        error bound).  Any staged updates are flushed before the
        configuration changes, so switching is always safe mid-stream.
        """
        self.flush_buffer()
        if window is None:
            self._buffer = None
        else:
            self._buffer = UpdateBuffer(window=window, mode=mode)

    @property
    def buffered(self) -> bool:
        """Whether the update-buffer tier is enabled."""
        return self._buffer is not None

    def flush_buffer(self) -> None:
        """Feed staged buffered updates through the normal batch plan.

        Every query, freeze, serialization or worker drain funnels
        through here (via :meth:`_ensure_synced`), so callers never
        observe a sketch that lags its absorbed stream.  The sketch
        clock is *not* rewound by the replayed tail: absorbed updates
        already advanced it at absorption time.
        """
        buffer = self._buffer
        if buffer is None or self._buffer_flushing or len(buffer) == 0:
            return
        self._buffer_flushing = True
        clock = self._clock
        try:
            buffer.flush(self._apply_batch)
        finally:
            self._buffer_flushing = False
            self._clock = clock

    def buffer_stats(self) -> dict | None:
        """Buffer accounting (``None`` when unbuffered); see
        :meth:`repro.core.buffer.UpdateBuffer.stats`."""
        buffer = self._buffer
        return None if buffer is None else buffer.stats()

    def update(self, item: int, count: int = 1, time: int | None = None) -> None:
        """Ingest one update.

        Parameters
        ----------
        item:
            Element identifier, ``0 <= item < 2**63``
            (:class:`ValueError` otherwise, before any state is touched).
        count:
            Frequency change; ``+1`` in the cash-register model, ``+/-1``
            in the turnstile model.
        time:
            Integer timestamp, strictly greater than all previous ones.
            Auto-incremented when omitted.
        """
        if not 0 <= item < INT64_LIMIT:
            raise _item_domain_error(item)
        if time is None:
            time = self._clock + 1
        elif time <= self._clock:
            raise ValueError(
                f"timestamps must be strictly increasing: {time} <= "
                f"{self._clock}"
            )
        if self._buffer is not None:
            # Buffered absorption touches no sketch state, so the pool
            # can stay attached; the eventual flush goes through the
            # same batch dispatch a direct batch would.
            self._buffer.absorb_scalar(time, item, count, self._apply_batch)
            self._clock = time
            return
        # Scalar updates mutate master-side state the forked workers can
        # never see; merge and retire any pool first so the next parallel
        # batch re-forks from the post-update state.
        self.detach_workers()
        # Apply before advancing the clock: a rejected update (bad item,
        # turnstile violation, ...) must not leave the clock pointing at
        # a time no structure ever recorded, or every later default-
        # window query would ask the sub-sketches about their future.
        self._ingest(item, count, time)
        self._clock = time

    def ingest(self, stream: Stream, batch_size: int = 8192) -> None:
        """Ingest a whole :class:`~repro.streams.model.Stream`.

        A thin wrapper over the chunked batch planner: the stream is cut
        into ``batch_size`` chunks and each chunk goes through
        :meth:`ingest_batch`.  Bit-identical to a loop of scalar
        :meth:`update` calls for every chunk size.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(stream)
        times = np.asarray(stream.times, dtype=np.int64)
        items = np.asarray(stream.items, dtype=np.int64)
        counts = np.asarray(stream.counts, dtype=np.int64)
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            self.ingest_batch(times[lo:hi], items[lo:hi], counts[lo:hi])

    def ingest_batch(
        self,
        times: np.ndarray,
        items: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        """Ingest a column of updates at once.

        Validates the whole batch up front — equal lengths, items in
        ``[0, 2**63)`` and first time beyond the clock
        (:class:`ValueError`, as scalar :meth:`update` raises), strictly
        increasing times inside the batch
        (:class:`~repro.analysis.contracts.ContractViolation`) — then
        hands the columns to :meth:`_apply_batch`: runs of at most
        ``_SCALAR_RUN_MAX`` records replay through the scalar reference,
        longer ones go through the sketch's columnar plan.  State after
        the call is bit-identical to the scalar :meth:`update` loop
        either way; no state is touched when validation fails.
        ``counts`` defaults to all-ones (the cash-register model).
        """
        times = np.asarray(times, dtype=np.int64)
        try:
            items = np.asarray(items, dtype=np.int64)
        except OverflowError:
            raise ValueError("items must lie in [0, 2**63)") from None
        n = times.shape[0]
        if counts is None:
            counts = np.ones(n, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
        if items.shape[0] != n or counts.shape[0] != n:
            raise ValueError(
                "times, items and counts must have equal lengths, got "
                f"{n}/{items.shape[0]}/{counts.shape[0]}"
            )
        if n == 0:
            return
        low = int(items.min())
        if low < 0:
            raise _item_domain_error(low)
        if int(times[0]) <= self._clock:
            raise ValueError(
                f"stream starts at {int(times[0])} but the sketch "
                f"clock is already at {self._clock}"
            )
        if n > 1:
            gaps = np.diff(times)
            if int(gaps.min()) <= 0:
                bad = int(np.argmax(gaps <= 0))
                raise contracts.ContractViolation(
                    f"batch stream timestamps must be strictly increasing: "
                    f"times[{bad + 1}]={int(times[bad + 1])} <= "
                    f"times[{bad}]={int(times[bad])}"
                )
        if self._buffer is not None:
            self._buffer.absorb(times, items, counts, self._apply_batch)
        else:
            self._apply_batch(times, items, counts)
        self._clock = int(times[-1])

    def _apply_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Dispatch one validated batch to the pool, the scalar
        reference or the columnar plan.

        The single hand-off point below the buffer tier: unbuffered
        batches come straight from :meth:`ingest_batch`, buffered ones
        from :meth:`flush_buffer` — both take exactly this path, which
        is what makes exact-mode buffering bit-identical to unbuffered
        ingestion (chunk boundaries are invisible to every route).

        A pool, when configured, takes every batch: forked workers own
        state the master cannot see.  Otherwise runs of at most
        ``_SCALAR_RUN_MAX`` records replay record by record through
        :meth:`PersistentSketch._ingest_batch`, after the plan's
        up-front content checks (:meth:`_prevalidate_batch`), so a
        rejected short run still touches no state.  Longer runs go
        through the sketch's columnar :meth:`_ingest_batch`.
        """
        if (
            self._workers > 1
            and self._parallel_supported()
            and fork_available()
        ):
            self._ingest_batch_via_pool(times, items, counts)
        elif times.shape[0] <= _SCALAR_RUN_MAX:
            self._prevalidate_batch(times, items, counts)
            PersistentSketch._ingest_batch(self, times, items, counts)
        else:
            self._ingest_batch(times, items, counts)

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle
    # ------------------------------------------------------------------ #

    def _parallel_supported(self) -> bool:
        """Whether this sketch type has a partition-parallel batch plan."""
        return False

    def _worker_handler(self, index: int, nworkers: int) -> WorkerHandler:
        """Build worker ``index``'s handler *inside* the forked child.

        ``self`` here is the fork-inherited copy of the master, so the
        handler can take ownership of its partition's live state without
        any serialization cost.
        """
        raise NotImplementedError

    def _ingest_batch_parallel(
        self,
        times: np.ndarray,
        items: np.ndarray,
        counts: np.ndarray,
        pool: WorkerPool,
    ) -> None:
        """Partition one validated batch and feed it to the pool."""
        raise NotImplementedError

    def _install_worker_states(self, states: list[Any]) -> None:
        """Merge every worker's collected partition state into master."""
        raise NotImplementedError

    def _prevalidate_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Content checks a columnar plan performs before touching state.

        Runs before the scalar short-run replay and before the parallel
        dispatch's poison scope, so a batch the columnar plan would
        reject cleanly (bad item, expired shard) is rejected just as
        cleanly on both — no record is applied, no worker sees it and
        the sketch stays usable.
        """

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(self._workers, self._worker_handler)
        return self._pool

    def _ingest_batch_via_pool(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        if self._pool_broken:
            raise IngestError(
                "parallel workers previously failed with unmerged updates; "
                "rebuild the sketch (e.g. recover from the WAL)"
            )
        self._prevalidate_batch(times, items, counts)
        try:
            pool = self._ensure_pool()
            self._ingest_batch_parallel(times, items, counts, pool)
        except BaseException:
            # The batch may be half-applied across workers and the
            # master's RNG/counter side may have advanced: poison the
            # sketch so queries refuse stale answers.  A durable
            # front-end (the runtime WAL) replays everything on recovery.
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close(terminate=True)
            self._pool_broken = True
            raise
        self._pool_stale = True

    def _ensure_synced(self) -> None:
        """Flush the buffer tier and merge outstanding worker state.

        The buffer flush comes first: a flush may itself feed the pool,
        and the collect below then drains exactly what it produced.
        After this returns, master state reflects every absorbed update
        (the pool stays alive for the next batch).
        """
        self.flush_buffer()
        if self._pool_broken:
            raise IngestError(
                "parallel workers died with unmerged updates; the sketch "
                "refuses to serve stale answers — recover from the WAL"
            )
        if not self._pool_stale:
            return
        pool = self._pool
        if pool is None or pool.closed:
            self._pool_broken = True
            raise IngestError(
                "worker pool vanished with unmerged updates; recover "
                "from the WAL"
            )
        try:
            self._install_worker_states(pool.collect())
        except BaseException:
            self._pool = None
            self._pool_broken = True
            pool.close(terminate=True)
            raise
        self._pool_stale = False

    def detach_workers(self) -> None:
        """Merge worker state and retire the pool (re-forked on demand).

        Required before any master-side mutation a forked worker cannot
        observe: scalar updates, finalize, freeze, serialization, shard
        expiry.  A no-op for serial sketches.
        """
        try:
            self._ensure_synced()
        finally:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

    def __getstate__(self) -> dict[str, Any]:
        # Pipes and child processes cannot cross pickle; drain first so
        # the pickled state is complete, then drop the pool itself.
        self.detach_workers()
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Apply one clock-validated batch; override with a columnar plan.

        This base body is the scalar reference: it replays the batch
        through :meth:`_ingest` one record at a time, advancing the
        clock per record so nested sketches see exactly the sequence
        scalar :meth:`update` calls would produce.  It is the short-run
        route of :meth:`_apply_batch` for every sketch, and the whole
        plan for sketches without a columnar override.
        """
        for t, i, c in zip(times.tolist(), items.tolist(), counts.tolist()):  # sketchlint: disable=SL010 — short-run route: per-record cost beats the columnar plan's per-call setup up to _SCALAR_RUN_MAX
            self._ingest(i, c, t)
            self._clock = t

    @abstractmethod
    def _ingest(self, item: int, count: int, time: int) -> None:
        """Apply one clock-validated update."""

    @abstractmethod
    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Estimate ``f_item(s, t]``; ``t`` defaults to :attr:`now`."""

    @abstractmethod
    def persistence_words(self) -> int:
        """Extra space (machine words) used to make the sketch persistent.

        This is the quantity Section 6.2 plots: the recorded histories,
        excluding the ephemeral counter array.
        """

    def freeze(self) -> FrozenCountMin | FrozenPWCAMS | FrozenAMS | FrozenHeavyHitters:
        """Compile this sketch into a frozen columnar query snapshot.

        Delegates to :func:`repro.engine.frozen.freeze` (imported lazily:
        ``repro.engine`` depends on ``repro.core``, not the other way
        around).  The snapshot answers ``point`` / ``point_many`` /
        holistic queries bit-equal to the live path; see
        :mod:`repro.engine.frozen`.
        """
        from repro.engine.frozen import freeze

        return freeze(self)

    def _resolve_window(self, s: float, t: float | None) -> tuple[float, float]:
        # Every query funnels through here: merge any outstanding worker
        # state first so answers never lag the ingested stream.
        self._ensure_synced()
        if t is None:
            t = self._clock
        elif t > self._clock:
            raise ValueError(
                f"window end {t} lies beyond the last update at "
                f"{self._clock}; queries cannot extrapolate past now"
            )
        if s < 0:
            s = 0  # nothing precedes time 0; clamp instead of extrapolating
        if s > t:
            raise ValueError(f"empty window: s={s} > t={t}")
        return s, t
