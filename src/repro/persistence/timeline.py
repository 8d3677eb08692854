"""Fractional cascading over many counter histories.

A historical-window join-size query must locate the predecessor of the
query timestamp in *every* history list of a sketch row (``O(w)`` lists).
Doing an independent binary search per list costs ``O(w log m)``; the
paper's query-time remarks (Sections 3.3 and 4.2) invoke fractional
cascading [10] to reduce this to one binary search plus O(1) work per list.

:class:`TimelineIndex` implements the static variant: the lists are
cascaded bottom-up, with every second element of the augmented list at
level ``i+1`` merged into level ``i``.  Each augmented element carries two
pointers: the predecessor position in the level's *own* list, and a bridge
to its predecessor in the augmented list one level down.  A query binary
searches only the topmost augmented list and then follows bridges, walking
forward at most a couple of positions per level.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.analysis import contracts


class _Level:
    """One augmented level of the cascade."""

    __slots__ = ("times", "own_pred", "bridge")

    def __init__(self, times: list[int], own_pred: list[int], bridge: list[int]) -> None:
        self.times = times  # sorted augmented timestamps
        self.own_pred = own_pred  # predecessor index in the original list
        self.bridge = bridge  # predecessor position in the next level


class TimelineIndex:
    """Batched predecessor search across ``k`` sorted timestamp lists.

    Parameters
    ----------
    lists:
        The original sorted (ascending, duplicate-free) timestamp lists.
        Empty lists are allowed.

    Notes
    -----
    The structure is static: build it once after ingest (or rebuild when
    the lists change).  ``predecessors(t)`` returns, for each original
    list, the index of the largest element ``<= t`` or ``-1``.
    """

    def __init__(self, lists: Sequence[Sequence[int]]) -> None:
        self._lists = [list(lst) for lst in lists]
        # O(total) validation is deferred to the contract layer: always
        # on in the test suite (REPRO_CONTRACTS=1), free in production.
        contracts.check_sorted_timeline(self._lists, what="TimelineIndex")
        self._levels = self._build(self._lists)

    @staticmethod
    def _build(lists: list[list[int]]) -> list[_Level]:
        levels: list[_Level] = [None] * len(lists)  # type: ignore[list-item]
        next_level: _Level | None = None
        for i in range(len(lists) - 1, -1, -1):
            own = lists[i]
            sampled = next_level.times[1::2] if next_level is not None else []
            merged: list[int] = []
            own_pred: list[int] = []
            bridge: list[int] = []
            a = b = 0
            while a < len(own) or b < len(sampled):
                take_own = b >= len(sampled) or (
                    a < len(own) and own[a] <= sampled[b]
                )
                if take_own:
                    value = own[a]
                    a += 1
                else:
                    value = sampled[b]
                    b += 1
                merged.append(value)
                own_pred.append(a - 1)
                if next_level is None:
                    bridge.append(-1)
                else:
                    bridge.append(
                        bisect_right(next_level.times, value) - 1
                    )
            levels[i] = _Level(merged, own_pred, bridge)
            next_level = levels[i]
        return levels

    def predecessors(self, t: float) -> list[int]:
        """Index of the predecessor of ``t`` in each original list.

        Returns ``-1`` for lists with no element ``<= t``.
        """
        result: list[int] = []
        pos = -2  # sentinel: not yet located
        for level in self._levels:
            times = level.times
            if pos == -2:
                # Single binary search at the topmost level.
                pos = bisect_right(times, t) - 1
            else:
                # pos currently bounds the predecessor from below (it was
                # the bridge from one level up); walk forward.
                if pos < 0:
                    pos = bisect_right(times, t) - 1
                else:
                    n = len(times)
                    while pos + 1 < n and times[pos + 1] <= t:
                        pos += 1
            if pos < 0:
                result.append(-1)
                pos = -1
            else:
                result.append(level.own_pred[pos])
                pos = level.bridge[pos]
        return result

    def __len__(self) -> int:
        return len(self._lists)

    def words(self) -> int:
        """Index overhead in machine words (3 per augmented element)."""
        return sum(3 * len(level.times) for level in self._levels)
