"""Uniform interface over per-counter history compressors.

The PLA-based persistent Count-Min sketch and the PWC baselines differ only
in *how* each counter's history is compressed.  :class:`CounterTracker`
names the interface both recorders share, O'Rourke's
:class:`~repro.pla.orourke.OnlinePLA` (Section 3) and the
piecewise-constant :class:`~repro.pla.piecewise_constant.OnlinePWC`
(Section 2), so a single persistent-sketch wrapper (:mod:`repro.core`)
serves all of PLA / PWC_CountMin / PWC_AMS.  Both append what they
record to the sketch's :class:`~repro.persistence.column_log.ColumnLog`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class CounterTracker(Protocol):
    """History of one counter, fed on every change, readable at any time."""

    initial_value: float

    def feed(self, t: int, value: float) -> None:
        """Observe the counter's new value at time ``t``."""

    def feed_many(
        self,
        times: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> None:
        """Batch :meth:`feed`, bit-identical to the scalar loop."""

    def value_at(self, t: float) -> float:
        """Approximate counter value at time ``t``."""

    def words(self) -> int:
        """Persistence space in machine words."""

    def finalize(self) -> None:
        """Flush any open state (end of stream or epoch boundary)."""
