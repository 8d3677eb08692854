"""Generic persistence machinery shared by the persistent sketches.

* :class:`~repro.persistence.column_log.ColumnLog` — the append-only
  column log every persistent sketch keeps its history in: PLA
  segments, piecewise-constant records or sampled history entries, one
  row per entry, keyed by component.
* :class:`~repro.persistence.history_list.SampledHistoryList` — the
  Bernoulli-sampled counter history of the sampling-based technique
  (Section 4), with the ``+Delta-1`` unbiasedness compensation.
* :class:`~repro.persistence.tracker.CounterTracker` — the interface the
  PLA and piecewise-constant recorders share, so the persistent
  Count-Min wrapper is generic in the compression scheme.
* :class:`~repro.persistence.epochs.EpochManager` — the norm-doubling
  epoch rule of Section 5.
* :class:`~repro.persistence.timeline.TimelineIndex` — batched predecessor
  search across many history lists (the role fractional cascading plays in
  the paper's query-time analysis).
"""

from __future__ import annotations

from repro.persistence.column_log import ColumnLog
from repro.persistence.epochs import Epoch, EpochManager
from repro.persistence.history_list import SampledHistoryList
from repro.persistence.timeline import TimelineIndex
from repro.persistence.tracker import CounterTracker

__all__ = [
    "ColumnLog",
    "SampledHistoryList",
    "CounterTracker",
    "Epoch",
    "EpochManager",
    "TimelineIndex",
]
