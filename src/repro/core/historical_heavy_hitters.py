"""Historical (s = 0) heavy hitters with purely relative error
(Theorem 5.2).

The dyadic decomposition of Section 3.2 (the level layout and descent of
:mod:`repro.core.heavy_hitters`) combined with the epoch-adaptive
Count-Min sketches of Section 5.1: one
:class:`~repro.core.historical_countmin.HistoricalCountMin` per dyadic
level, thresholded against the exact running mass ``||f_t||_1`` (a single
counter in the cash-register model).  Every element with
``f_i(t) >= (phi + eps) ||f_t||_1`` is reported with high probability and
nothing below ``phi ||f_t||_1`` — with **no additive term**, unlike the
general-window structure.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.base import PersistentSketch
from repro.core.heavy_hitters import (
    build_levels,
    check_item,
    check_universe,
    descend,
    rank_top_k,
)
from repro.core.historical_countmin import HistoricalCountMin
from repro.pla.piecewise_constant import OnlinePWC


class HistoricalHeavyHitters(PersistentSketch):
    """Dyadic stack of epoch-adaptive Count-Min sketches (s = 0 queries).

    Parameters
    ----------
    universe:
        Upper bound on element identifiers.
    width, depth:
        Per-level sketch shape; levels with at most ``width`` ranges use
        exact single-row counting (see
        :class:`~repro.core.heavy_hitters.PersistentHeavyHitters`).
    eps:
        Relative error target of the per-level sketches.
    sketch_factory:
        ``(width, depth, eps, seed, hashes=None) -> sketch`` building each
        level; defaults to :class:`HistoricalCountMin`.
    """

    name = "PLA_historical_HH"

    def __init__(
        self,
        universe: int,
        width: int,
        depth: int,
        eps: float,
        seed: int = 0,
        sketch_factory: Callable[..., PersistentSketch] | None = None,
    ):
        super().__init__()
        self.universe = universe
        self.eps = eps
        self._bits = 1  # fan-out 2
        factory = sketch_factory or (
            lambda w, d, e, sd, hashes=None: HistoricalCountMin(
                width=w, depth=d, eps=e, seed=sd, hashes=hashes
            )
        )
        self._sketches = build_levels(
            universe, width, depth, eps, seed, self._bits, factory
        )
        self.levels = len(self._sketches)
        # Exact running mass ||f_t||_1, tracked piecewise-constant at
        # relative resolution eps (so the threshold inherits only a
        # relative error): the records are made by the threshold below,
        # through ``record``, not by the recorder's own drift rule.
        self._mass_total = 0
        self._mass_records = OnlinePWC(delta=1.0)
        self._next_mass_record = 1.0

    def _ingest(self, item: int, count: int, time: int) -> None:
        check_item(item, self.universe)
        for level, sketch in enumerate(self._sketches):
            sketch.update(item >> (self._bits * level), count, time)
        self._mass_total += count
        if abs(self._mass_total) >= self._next_mass_record:
            self._mass_records.record(time, float(self._mass_total))
            self._next_mass_record = max(
                abs(self._mass_total) * (1.0 + self.eps),
                self._next_mass_record + 1.0,
            )

    def _ingest_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        """Columnar plan: forward the columns to every level at once.

        Items are validated up front (a bad item rejects the whole batch
        before any level is touched); the cheap mass-record walk stays
        sequential because the next recording threshold depends on each
        record in turn.
        """
        check_universe(items, self.universe)
        for level, sketch in enumerate(self._sketches):
            sketch.ingest_batch(times, items >> (self._bits * level), counts)
        for time, count in zip(times.tolist(), counts.tolist()):  # sketchlint: disable=SL010 — mass-record thresholds are sequential
            self._mass_total += count
            if abs(self._mass_total) >= self._next_mass_record:
                self._mass_records.record(time, float(self._mass_total))
                self._next_mass_record = max(
                    abs(self._mass_total) * (1.0 + self.eps),
                    self._next_mass_record + 1.0,
                )

    def _prevalidate_batch(
        self, times: np.ndarray, items: np.ndarray, counts: np.ndarray
    ) -> None:
        check_universe(items, self.universe)

    def point(self, item: int, s: float = 0, t: float | None = None) -> float:
        """Historical point estimate from the level-0 sketch (s = 0)."""
        if s != 0:
            raise ValueError(
                "HistoricalHeavyHitters answers s = 0 queries only; use "
                "PersistentHeavyHitters for general windows"
            )
        s, t = self._resolve_window(s, t)
        return self._sketches[0].point(item, 0, t)

    def mass(self, t: float | None = None) -> float:
        """Estimate of ``||f_t||_1`` within a ``(1 + eps)`` factor."""
        _, t = self._resolve_window(0, t)
        return self._mass_records.value_at(t)

    def heavy_hitters(
        self,
        phi: float,
        t: float | None = None,
        max_candidates: int | None = None,
    ) -> dict[int, float]:
        """Elements with estimated ``f_i(t) >= phi * ||f_t||_1``.

        Theorem 5.2: elements with ``f_i(t) >= (phi + eps) ||f_t||_1``
        are returned w.h.p.; elements below ``phi ||f_t||_1`` w.p. at
        most delta.
        """
        if not 0 < phi < 1:
            raise ValueError(f"phi must lie in (0, 1), got {phi}")
        _, t = self._resolve_window(0, t)
        threshold = phi * self.mass(t)
        cap = max_candidates or max(16, math.ceil(4.0 / phi))
        return descend(
            self.levels, self._bits, self.universe, threshold, cap,
            lambda level, ranges: np.array(
                [self._sketches[level].point(r, 0, t) for r in ranges.tolist()],
                dtype=np.float64,
            ),
        )

    def top_k(self, k: int, t: float | None = None) -> list[tuple[int, float]]:
        """The ~``k`` most frequent items as of time ``t``."""
        _, t = self._resolve_window(0, t)
        return rank_top_k(
            lambda phi, cap: self.heavy_hitters(phi, t, max_candidates=cap), k
        )

    def persistence_words(self) -> int:
        return (
            sum(sketch.persistence_words() for sketch in self._sketches)
            + self._mass_records.words()
        )
