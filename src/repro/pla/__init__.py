"""Piecewise approximation of counters over time.

This package provides the two "counter compression" substrates of the paper:

* :class:`~repro.pla.orourke.OnlinePLA` — O'Rourke's optimal online
  algorithm [24] for fitting a piecewise-linear function through vertical
  error bars of half-width ``delta``, used by the PLA-based persistent
  Count-Min sketch (Section 3).
* :class:`~repro.pla.piecewise_constant.OnlinePWC` — the piecewise-constant
  recorder of the baseline solution (Section 2): record a value whenever it
  deviates from the last recorded value by more than ``delta``.

Both append what they emit (:class:`~repro.pla.segment.Segment` rows or
``(time, value)`` records) to a
:class:`~repro.persistence.column_log.ColumnLog` and read it back by
predecessor search over their own log positions.
"""

from __future__ import annotations

from repro.pla.orourke import OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC
from repro.pla.segment import Segment

__all__ = [
    "Segment",
    "OnlinePLA",
    "OnlinePWC",
]
