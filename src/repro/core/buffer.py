"""Two-stage buffered update path: the slim front tier.

High-cardinality streams hit an ingest wall that no run planner can
crack: when nearly every update touches a different counter, per-update
work is dominated by the persistence trackers themselves, and the batch
path degenerates to the scalar loop plus overhead (BENCH_ingest.json
pre-v4: ObjectID at 0.74x scalar).  The fix, following SF-sketch's
slim/fat split and Alman & Yu's buffered turnstile updates (PAPERS.md),
is a *front tier* that absorbs updates at array-append cost and flushes
them to the trackers in amortized bulk.

:class:`UpdateBuffer` implements that tier.  It stages validated update
columns for a :class:`~repro.core.base.PersistentSketch` and hands them
back to the sketch's normal batch plan (``apply``) one *window* at a
time:

``exact`` mode
    The flush replays the staged columns verbatim.  Chunk boundaries
    are invisible to the batch plan (pinned by
    ``tests/test_batch_ingest.py::test_chunk_boundaries_are_invisible``),
    so buffered ingestion is **bit-identical** to unbuffered ingestion
    for every sketch type — the win is amortization only: bigger
    effective batches mean deeper per-counter runs and fewer planner
    passes.  The Delta error accounting of Theorems 3.1/3.2 is
    untouched.

``coalesce`` mode (lossy-by-design)
    Same-item touches inside a window are merged to one net update at
    the item's *last* touch time before the flush.  A window with k
    touches of an item costs one tracker feed instead of k — on
    ID-heavy traffic this is the 5x+ lever (ObjectID coalesces ~4x,
    ClientID ~7x per 10k-record window).  The flushed column is still a
    valid time-ordered update batch (last-touch times are distinct and
    sorted), so it flows through the *same* exact batch plan for every
    sketch type.  The cost is a widened error bound: within a window a
    counter's recorded trajectory lags its true trajectory by at most
    the absolute update mass that counter absorbed in the window, so a
    historical point query inside window ``w`` carries an extra
    ``+/- M_w`` per endpoint on top of the PLA bound, where ``M_w`` is
    the per-counter absorbed mass of that window (``<=`` the per-item
    mass tracked in :meth:`UpdateBuffer.stats` as ``max_item_mass``;
    exact counter-level values require the hash family and are gated in
    ``benchmarks/bench_ingest_throughput.py``).  Queries and freezes
    always flush first, so estimates *at or after* the flush boundary
    are never widened — only mid-window history is.  See
    ``docs/api.md`` ("The update-buffer tier") for the full accounting.

Flush points are deterministic where determinism matters: window-full
flushes land at exact multiples of ``window`` in absorbed-record count
(incoming batches are split, so chunking cannot move them), and
checkpoint flushes ride the runtime's fixed checkpoint cadence — which
is what makes crash recovery replay the buffered tail bit-identically
from the WAL.  Query-driven flushes are extra boundaries that exist
only on the live path; they are invisible in ``exact`` mode and
documented as divergence points for ``coalesce`` mode.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Default window: large enough that high-cardinality windows coalesce
#: several same-item touches, small enough that a buffered tail replay
#: stays cheap after a crash.
DEFAULT_WINDOW = 65_536

#: The two buffering disciplines; see the module docstring.
MODES = ("exact", "coalesce")

Apply = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


class UpdateBuffer:
    """Coalescing front tier for one sketch's validated update columns.

    The buffer never touches sketch state itself: every flush hands a
    time-ordered update batch to ``apply`` (the sketch's batch
    dispatch), which is exactly the path unbuffered batches take.
    Callers guarantee absorbed columns are already validated (equal
    lengths, strictly increasing times beyond the sketch clock) —
    the buffer preserves absorption order, so concatenated staged
    columns stay strictly increasing.
    """

    __slots__ = (
        "window",
        "mode",
        "_chunks",
        "_pending",
        "absorbed",
        "fed",
        "flushes",
        "max_item_mass",
    )

    def __init__(
        self, window: int = DEFAULT_WINDOW, mode: str = "exact"
    ) -> None:
        if window < 1:
            raise ValueError(f"buffer window must be >= 1, got {window}")
        if mode not in MODES:
            raise ValueError(
                f"buffer mode must be one of {MODES}, got {mode!r}"
            )
        self.window = int(window)
        self.mode = mode
        #: Staged ``(times, items, counts)`` array triples, absorption
        #: order.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending = 0
        #: Lifetime counters surfaced by :meth:`stats`.
        self.absorbed = 0
        self.fed = 0
        self.flushes = 0
        self.max_item_mass = 0

    def __len__(self) -> int:
        """Records absorbed but not yet flushed."""
        return self._pending

    # ------------------------------------------------------------------ #
    # Absorb
    # ------------------------------------------------------------------ #

    def absorb(
        self,
        times: np.ndarray,
        items: np.ndarray,
        counts: np.ndarray,
        apply: Apply,
    ) -> None:
        """Stage one validated batch, flushing at window multiples.

        Incoming batches are *split* so every window-full flush lands at
        an exact multiple of ``window`` in absorbed-record count — flush
        boundaries are therefore a function of the record stream alone,
        never of how callers chunked it.  That is what makes a WAL
        replay (which re-chunks arbitrarily) reproduce the same flush
        points and hence, in exact mode, bit-identical state.
        """
        n = times.shape[0]
        self.absorbed += n
        lo = 0
        while self._pending + (n - lo) >= self.window:
            take = self.window - self._pending
            self._stage(
                times[lo : lo + take],
                items[lo : lo + take],
                counts[lo : lo + take],
            )
            self._flush(apply)
            lo += take
        if lo < n:
            self._stage(times[lo:], items[lo:], counts[lo:])

    def _stage(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        self._chunks.append((times, items, counts))
        self._pending += times.shape[0]

    # ------------------------------------------------------------------ #
    # Flush
    # ------------------------------------------------------------------ #

    def flush(self, apply: Apply) -> None:
        """Feed everything staged downstream (no-op when empty)."""
        if self._pending:
            self._flush(apply)

    def _flush(self, apply: Apply) -> None:
        chunks = self._chunks
        if len(chunks) == 1:
            times, items, counts = chunks[0]
        else:
            times = np.concatenate([c[0] for c in chunks])
            items = np.concatenate([c[1] for c in chunks])
            counts = np.concatenate([c[2] for c in chunks])
        self._chunks = []
        self._pending = 0
        if self.mode == "coalesce":
            times, items, counts = self._coalesce(times, items, counts)
        self.fed += times.shape[0]
        self.flushes += 1
        apply(times, items, counts)

    def _coalesce(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merge same-item touches to one net update at last-touch time.

        Exact integer arithmetic throughout (``np.add.at``, not float
        ``bincount``).  Items whose net count is zero still emit their
        (count 0) update — every touched counter keeps a tracker record
        at the flush, mirroring the scalar path's count-0 semantics.
        The output times are a subsequence of the input times (distinct,
        re-sorted ascending), so the flushed column is a valid batch.
        """
        uniq, inverse = np.unique(items, return_inverse=True)
        net = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(net, inverse, counts)
        mass = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(mass, inverse, np.abs(counts))
        self.max_item_mass = max(self.max_item_mass, int(mass.max()))
        last = np.zeros(uniq.shape[0], dtype=np.int64)
        last[inverse] = np.arange(times.shape[0], dtype=np.int64)
        order = np.argsort(times[last])
        keep = last[order]
        return times[keep], uniq[order], net[order]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Lifetime accounting: absorption, flushes, coalescing, mass.

        ``max_item_mass`` is the largest absolute update mass any single
        item contributed within one window — the per-item envelope of
        the widened ``coalesce`` bound (a counter's mass is the sum over
        the items colliding into it; exact counter-level values need the
        hash family and live in the ingest benchmark's error gate).
        """
        return {
            "window": self.window,
            "mode": self.mode,
            "pending": self._pending,
            "absorbed": self.absorbed,
            "fed": self.fed,
            "flushes": self.flushes,
            "coalesced_away": self.absorbed - self._pending - self.fed,
            "max_item_mass": self.max_item_mass,
        }
