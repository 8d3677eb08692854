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
from repro.streams.model import Stream
from repro.streams.records import INT64_LIMIT

if TYPE_CHECKING:  # repro.engine depends on repro.core; import lazily.
    from repro.engine.frozen import (
        FrozenAMS,
        FrozenCountMin,
        FrozenHeavyHitters,
        FrozenPWCAMS,
    )

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


def _int64_column(values: Any, name: str) -> np.ndarray:
    """``values`` as an int64 column; :class:`ValueError` if one of them
    does not fit (numpy raises a bare ``OverflowError``)."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{name} must fit in int64") from None


class PersistentSketch(ABC):
    """Base class: clock management, bulk ingest, the update buffer."""

    def __init__(self) -> None:
        self._clock = 0
        self._buffer: UpdateBuffer | None = None
        self._buffer_flushing = False

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

        Every query, finalize, freeze, serialization and shard expiry
        calls this first, so callers never observe a sketch that lags
        its absorbed stream.  The sketch
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
            in the turnstile model.  Must fit in int64.
        time:
            Integer timestamp, strictly greater than all previous ones
            and below ``2**63``.  Auto-incremented when omitted.
        """
        if not 0 <= item < INT64_LIMIT:
            raise _item_domain_error(item)
        if not -INT64_LIMIT <= count < INT64_LIMIT:
            raise ValueError(f"count must fit in int64, got {count}")
        if time is None:
            time = self._clock + 1
        elif time <= self._clock:
            raise ValueError(
                f"timestamps must be strictly increasing: {time} <= "
                f"{self._clock}"
            )
        if time >= INT64_LIMIT:
            raise ValueError(f"time must fit in int64, got {time}")
        if self._buffer is not None:
            # Staged as a one-record batch: the eventual flush goes
            # through the same batch dispatch a direct batch would.
            self._buffer.absorb(
                np.array([time], dtype=np.int64),
                np.array([item], dtype=np.int64),
                np.array([count], dtype=np.int64),
                self._apply_batch,
            )
            self._clock = time
            return
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

        Validates the whole batch up front — equal lengths, times and
        counts that fit in int64, items in ``[0, 2**63)`` and first time
        beyond the clock (:class:`ValueError`, as scalar :meth:`update`
        raises), strictly
        increasing times inside the batch
        (:class:`~repro.analysis.contracts.ContractViolation`) — then
        hands the columns to :meth:`_apply_batch`: runs of at most
        ``_SCALAR_RUN_MAX`` records replay through the scalar reference,
        longer ones go through the sketch's columnar plan.  State after
        the call is bit-identical to the scalar :meth:`update` loop
        either way; no state is touched when validation fails.
        ``counts`` defaults to all-ones (the cash-register model).
        """
        times = _int64_column(times, "times")
        items = _int64_column(items, "items")
        n = times.shape[0]
        if counts is None:
            counts = np.ones(n, dtype=np.int64)
        else:
            counts = _int64_column(counts, "counts")
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
        """Dispatch one validated batch to the scalar reference or the
        columnar plan.

        The single hand-off point below the buffer tier: unbuffered
        batches come straight from :meth:`ingest_batch`, buffered ones
        from :meth:`flush_buffer` — both take exactly this path, which
        is what makes exact-mode buffering bit-identical to unbuffered
        ingestion (chunk boundaries are invisible to every route).

        Runs of at most ``_SCALAR_RUN_MAX`` records replay record by
        record through :meth:`PersistentSketch._ingest_batch`, after the
        plan's up-front content checks (:meth:`_prevalidate_batch`), so
        a rejected short run still touches no state.  Longer runs go
        through the sketch's columnar :meth:`_ingest_batch`.
        """
        if times.shape[0] <= _SCALAR_RUN_MAX:
            self._prevalidate_batch(times, items, counts)
            PersistentSketch._ingest_batch(self, times, items, counts)
        else:
            self._ingest_batch(times, items, counts)

    def _prevalidate_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Content checks a columnar plan performs before touching state.

        Runs before the scalar short-run replay, so a batch the columnar
        plan would reject cleanly (bad item) is rejected just as cleanly
        there: no record is applied and the sketch stays usable.
        """

    def __getstate__(self) -> dict[str, Any]:
        # Flush first so the pickled state is complete.
        self.flush_buffer()
        return dict(self.__dict__)

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
        # Every query funnels through here: flush staged updates first so
        # answers never lag the ingested stream.
        self.flush_buffer()
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
