"""Versioned (de)serialization of persistent sketches.

Document layout::

    {"format": "repro-sketch", "version": 1,
     "type": "<registered type name>", "state": {...}}

Supported types: ``PersistentCountMin``, ``PWCCountMin``,
``PersistentAMS``, ``PWCAMS``, ``PersistentHeavyHitters`` (whose state
embeds one document per level) and the epoch-adaptive
``HistoricalCountMin`` / ``HistoricalAMS`` (epoch managers, per-epoch
tracker runs / history lists and the auxiliary L2 tracker included).

Serializing a PLA-backed sketch first flushes open runs into segments
(:meth:`finalize`): the archive must be self-contained, and a flushed
run keeps exactly the same query answers.  Loaded sketches accept
further updates; the sampling RNG state of a ``PersistentAMS`` is
captured so its random behaviour continues identically.

The component codecs split every sketch into its append-only arrays
(PLA segments, PWC records, sampled history entries) and a small tail.
This module writes the two back together as one document; a store
checkpoint writes them apart, the arrays as columnar generations
(:mod:`repro.io.generations`).
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.heavy_hitters import PersistentHeavyHitters
from repro.core.historical_ams import HistoricalAMS, _EpochedComponent
from repro.core.historical_countmin import HistoricalCountMin, _EpochedCounter
from repro.core.persistent_ams import PersistentAMS
from repro.core.persistent_countmin import PersistentCountMin, PWCCountMin
from repro.core.pwc_ams import PWCAMS
from repro.hashing.families import IdentityHashFamily
from repro.io.atomic import atomic_write_bytes
from repro.persistence.epochs import Epoch, EpochManager
from repro.persistence.history_list import SampledHistoryList
from repro.persistence.tracker import PLATracker, PWCTracker, YoungPLATracker
from repro.pla.orourke import OnlinePLA
from repro.pla.segment import Segment
from repro.sketch.ams import AMSSketch

FORMAT = "repro-sketch"
VERSION = 1

#: gzip level of ``.gz`` archives.  Level 1 compresses a checkpoint an
#: order of magnitude faster than the default 9 for ~27% larger files;
#: the reader accepts every level.
GZIP_LEVEL = 1


class SerializationError(ValueError):
    """Raised for malformed or unsupported sketch documents."""


# --------------------------------------------------------------------- #
# Component codecs
# --------------------------------------------------------------------- #
#
# A component is one append-only history: a PLA tracker's segments, a
# PWC tracker's records or a sampled history list's entries.  Each kind
# splits a component into a small *skeleton* (its parameters, fixed once
# the component exists) and parallel entry *columns*.  The v1 document
# puts the columns inline next to the skeleton (``inline``/``outline``);
# the store's generations (:mod:`repro.io.generations`) write only the
# entry columns past a watermark (``entries``) and the skeleton once,
# packed into a fixed row (``pack``/``unpack``).  The frozen engine
# reads generation columns, a checkpoint's or a live sketch's, as table
# columns (``export``/``initials``) without building any component.


class _PLAKind:
    """PLA tracker: skeleton ``delta``, initial value and young staging."""

    name = "pla"
    columns = ("t_start", "t_end", "slope", "value_at_start")
    dtypes = (np.int64, np.int64, np.float64, np.float64)
    fields = ("delta", "initial_value", "young", "t0", "v0", "young_initial")
    field_dtypes = (
        np.float64, np.float64, np.int64, np.int64, np.float64, np.float64,
    )

    @staticmethod
    def skeleton(tracker: PLATracker) -> dict:
        # Young trackers carry a staged first touch next to the (possibly
        # still unmaterialized) PLA; keep it so decode restores the exact
        # structural state and a recovered store fingerprints identically
        # to the live one (tests/test_runtime_batch.py pins this).
        young: dict = {}
        if isinstance(tracker, YoungPLATracker):
            young = {
                "young": True,
                "t0": tracker._t0,
                "v0": tracker._v0,
                "initial_value": tracker._initial,
            }
        tracker.finalize()
        pla = tracker._pla
        return {
            "delta": pla.delta,
            "function": {"initial_value": pla.function.initial_value},
            **young,
        }

    @staticmethod
    def finalize(tracker: PLATracker) -> None:
        tracker.finalize()

    @staticmethod
    def length(tracker: PLATracker) -> int:
        return len(tracker._pla.function._segments)

    @staticmethod
    def entries(tracker: PLATracker, start: int) -> tuple[list, ...]:
        segments = tracker._pla.function._segments[start:]
        return (
            [seg.t_start for seg in segments],
            [seg.t_end for seg in segments],
            [seg.slope for seg in segments],
            [seg.value_at_start for seg in segments],
        )

    @staticmethod
    def build(skeleton: dict, context: Any) -> PLATracker:
        delta = skeleton["delta"]
        initial = skeleton["function"]["initial_value"]
        tracker: PLATracker
        if skeleton.get("young"):
            young_tracker = YoungPLATracker(
                delta=delta, initial_value=skeleton["initial_value"]
            )
            young_tracker._t0 = skeleton["t0"]
            young_tracker._v0 = skeleton["v0"]
            # Encoding finalized the live tracker, which materialized its
            # ``_pla``; mirror that state exactly (a finalized PLA is
            # fully described by its delta and emitted function).
            young_tracker._pla = OnlinePLA(delta=delta, initial_value=initial)
            tracker = young_tracker
        else:
            tracker = PLATracker(delta=delta, initial_value=initial)
        return tracker

    @staticmethod
    def prepare(columns: tuple[list, ...]) -> tuple[list, ...]:
        return columns[0], list(map(Segment, *columns))

    @staticmethod
    def extend(tracker: PLATracker, prepared: tuple[list, ...]) -> None:
        function = tracker._pla.function
        function._starts.extend(prepared[0])
        function._segments.extend(prepared[1])

    @staticmethod
    def inline(skeleton: dict, columns: tuple[list, ...]) -> dict:
        function = dict(skeleton["function"])
        function.update(zip(_PLAKind.columns, columns))
        return {**skeleton, "function": function}

    @staticmethod
    def outline(document: dict) -> tuple[dict, tuple[list, ...]]:
        function = document["function"]
        skeleton = {
            **document,
            "function": {"initial_value": function["initial_value"]},
        }
        return skeleton, tuple(function[name] for name in _PLAKind.columns)

    @staticmethod
    def pack(skeleton: dict) -> tuple:
        young = bool(skeleton.get("young"))
        return (
            skeleton["delta"],
            skeleton["function"]["initial_value"],
            int(young),
            skeleton["t0"] if young else -1,
            skeleton["v0"] if young else 0.0,
            skeleton["initial_value"] if young else 0.0,
        )

    @staticmethod
    def unpack(row: tuple) -> dict:
        delta, initial, young, t0, v0, young_initial = row
        skeleton: dict = {
            "delta": delta,
            "function": {"initial_value": initial},
        }
        if young:
            skeleton.update(
                young=True, t0=t0, v0=v0, initial_value=young_initial
            )
        return skeleton

    @staticmethod
    def default(context: Any) -> dict:
        return {"delta": context, "function": {"initial_value": 0.0}}

    @staticmethod
    def export(entries: dict[str, np.ndarray]) -> tuple:
        """Frozen table columns ``(starts, ends, slopes, values)`` of
        entry columns: the segments verbatim."""
        return (
            entries["t_start"],
            entries["t_end"],
            entries["slope"],
            entries["value_at_start"],
        )

    @staticmethod
    def initials(fields: dict[str, np.ndarray]) -> np.ndarray:
        """The built components' ``initial_value`` per packed skeleton."""
        return np.where(
            fields["young"] != 0,
            fields["young_initial"],
            fields["initial_value"],
        )


class _HistoryKind:
    """Sampled history list: skeleton ``probability`` and initial value."""

    name = "history"
    columns = ("times", "values")
    dtypes = (np.int64, np.int64)
    fields = ("probability", "initial_value")
    field_dtypes = (np.float64, np.int64)

    @staticmethod
    def skeleton(history: SampledHistoryList) -> dict:
        return {
            "probability": history.probability,
            "initial_value": history.initial_value,
        }

    @staticmethod
    def finalize(history: SampledHistoryList) -> None:
        """Sampled records are appended eagerly: nothing to flush."""

    @staticmethod
    def length(history: SampledHistoryList) -> int:
        return len(history._times)

    @staticmethod
    def entries(history: SampledHistoryList, start: int) -> tuple[list, ...]:
        return history._times[start:], history._values[start:]

    @staticmethod
    def build(skeleton: dict, context: Any) -> SampledHistoryList:
        return SampledHistoryList(
            probability=skeleton["probability"],
            rng=context[0],
            initial_value=skeleton["initial_value"],
        )

    @staticmethod
    def prepare(columns: tuple[list, ...]) -> tuple[list, ...]:
        return columns

    @staticmethod
    def extend(history: SampledHistoryList, columns: tuple[list, ...]) -> None:
        history._times.extend(columns[0])
        history._values.extend(columns[1])

    @staticmethod
    def inline(skeleton: dict, columns: tuple[list, ...]) -> dict:
        return {**skeleton, "times": columns[0], "values": columns[1]}

    @staticmethod
    def outline(document: dict) -> tuple[dict, tuple[list, ...]]:
        skeleton = {
            "probability": document["probability"],
            "initial_value": document["initial_value"],
        }
        return skeleton, (list(document["times"]), list(document["values"]))

    @staticmethod
    def pack(skeleton: dict) -> tuple:
        return (skeleton["probability"], skeleton["initial_value"])

    @staticmethod
    def unpack(row: tuple) -> dict:
        return {"probability": row[0], "initial_value": row[1]}

    @staticmethod
    def default(context: Any) -> dict:
        return {"probability": context[1], "initial_value": 0}

    @staticmethod
    def export(entries: dict[str, np.ndarray]) -> tuple:
        """``(times, None, None, values)``, values as floats: a read
        adds the ``1/p - 1`` compensation of Equation (1)."""
        return entries["times"], None, None, entries["values"].astype(np.float64)

    @staticmethod
    def initials(fields: dict[str, np.ndarray]) -> np.ndarray:
        return fields["initial_value"]


class _PWCKind:
    """PWC tracker: skeleton ``delta`` and initial value.

    ``last_recorded`` is part of the v1 skeleton but not of the packed
    one: it is always the last recorded value (the initial value before
    any record), so :meth:`extend` re-derives it.
    """

    name = "pwc"
    columns = ("times", "values")
    dtypes = (np.int64, np.float64)
    fields = ("delta", "initial_value")
    field_dtypes = (np.float64, np.float64)

    @staticmethod
    def skeleton(tracker: PWCTracker) -> dict:
        pwc = tracker._pwc
        return {
            "delta": pwc.delta,
            "initial_value": pwc.function.initial_value,
            "last_recorded": pwc._last_recorded,
        }

    finalize = staticmethod(_HistoryKind.finalize)

    @staticmethod
    def length(tracker: PWCTracker) -> int:
        return len(tracker._pwc.function._times)

    @staticmethod
    def entries(tracker: PWCTracker, start: int) -> tuple[list, ...]:
        function = tracker._pwc.function
        return function._times[start:], function._values[start:]

    @staticmethod
    def build(skeleton: dict, context: Any) -> PWCTracker:
        tracker = PWCTracker(
            delta=skeleton["delta"], initial_value=skeleton["initial_value"]
        )
        if "last_recorded" in skeleton:
            tracker._pwc._last_recorded = skeleton["last_recorded"]
        return tracker

    prepare = staticmethod(_HistoryKind.prepare)

    @staticmethod
    def extend(tracker: PWCTracker, columns: tuple[list, ...]) -> None:
        pwc = tracker._pwc
        for t, value in zip(*columns):
            pwc.function.append(t, value)
        if len(columns[1]):
            pwc._last_recorded = columns[1][-1]

    @staticmethod
    def inline(skeleton: dict, columns: tuple[list, ...]) -> dict:
        return {
            "delta": skeleton["delta"],
            "initial_value": skeleton["initial_value"],
            "times": columns[0],
            "values": columns[1],
            "last_recorded": skeleton["last_recorded"],
        }

    @staticmethod
    def outline(document: dict) -> tuple[dict, tuple[list, ...]]:
        skeleton = {
            "delta": document["delta"],
            "initial_value": document["initial_value"],
            "last_recorded": document["last_recorded"],
        }
        return skeleton, (document["times"], document["values"])

    @staticmethod
    def pack(skeleton: dict) -> tuple:
        return (skeleton["delta"], skeleton["initial_value"])

    @staticmethod
    def unpack(row: tuple) -> dict:
        return {"delta": row[0], "initial_value": row[1]}

    @staticmethod
    def default(context: Any) -> dict:
        return {"delta": context, "initial_value": 0.0}

    @staticmethod
    def export(entries: dict[str, np.ndarray]) -> tuple:
        """Each record as a zero-slope point segment: read clamped to
        ``[start, end]``, it evaluates like :meth:`PWCTracker.value_at`."""
        times = entries["times"]
        return times, times, np.zeros(len(times)), entries["values"]

    initials = staticmethod(_HistoryKind.initials)


PLA = _PLAKind()
HISTORY = _HistoryKind()
PWC = _PWCKind()


def _encode_component(kind: Any, component: Any) -> dict:
    return kind.inline(kind.skeleton(component), kind.entries(component, 0))


def _decode_component(kind: Any, document: dict, context: Any = None) -> Any:
    skeleton, columns = kind.outline(document)
    component = kind.build(skeleton, context)
    kind.extend(component, kind.prepare(columns))
    return component


def _encode_map(kind: Any, components: dict) -> dict:
    return {
        str(col): _encode_component(kind, component)
        for col, component in components.items()
    }


def _decode_map(kind: Any, documents: dict, context: Any = None) -> dict:
    return {
        int(col): _decode_component(kind, document, context)
        for col, document in documents.items()
    }


def _encode_rng_state(rng) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _decode_rng_state(encoded: list) -> tuple:
    version, internal, gauss = encoded
    return (version, tuple(internal), gauss)


@dataclass
class Container:
    """One map of same-kind components inside a sketch.

    ``key`` is ``(level, row, sign, copy)``: with the stream, the sketch
    and a component's column it forms the generation key.  ``context``
    is what :meth:`build` needs besides the skeleton; ``fixed`` marks a
    container whose skeletons live in the tail (the heavy-hitter mass
    tracker), so generations carry only its entries.
    """

    key: tuple[int, int, int, int]
    components: dict
    kind: Any
    context: Any
    fixed: bool = False


# --------------------------------------------------------------------- #
# Sketch codecs: a tail plus component maps
# --------------------------------------------------------------------- #


def _identity_hashes(state: dict):
    if not state["identity_hashes"]:
        return None
    return IdentityHashFamily(state["width"], state["depth"])


def _cm_tail(sketch: PersistentCountMin) -> dict:
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "delta": sketch.delta,
        "seed": sketch.seed,
        "identity_hashes": isinstance(sketch.hashes, IdentityHashFamily),
        "clock": sketch.now,
        "total": sketch.total,
        "counters": [list(row) for row in sketch._counters],
    }


def _cm_shell(state: dict, cls: type) -> PersistentCountMin:
    sketch = cls(
        width=state["width"],
        depth=state["depth"],
        delta=state["delta"],
        seed=state["seed"],
        hashes=_identity_hashes(state),
    )
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._counters = [list(row) for row in state["counters"]]
    return sketch


def _cm_containers(
    sketch: PersistentCountMin | PWCAMS, level: int
) -> list[Container]:
    kind = PWC if type(sketch) in (PWCCountMin, PWCAMS) else PLA
    return [
        Container((level, row, 0, 0), trackers, kind, sketch.delta)
        for row, trackers in enumerate(sketch._trackers)
    ]


def _encode_persistent_cm(sketch: PersistentCountMin) -> dict:
    return {
        **_cm_tail(sketch),
        "trackers": [_encode_map(PLA, row) for row in sketch._trackers],
    }


def _decode_persistent_cm(state: dict) -> PersistentCountMin:
    sketch = _cm_shell(state, PersistentCountMin)
    sketch._trackers = [_decode_map(PLA, row) for row in state["trackers"]]
    return sketch


def _encode_pwc_cm(sketch: PWCCountMin) -> dict:
    return {
        **_cm_tail(sketch),
        "trackers": [_encode_map(PWC, row) for row in sketch._trackers],
    }


def _decode_pwc_cm(state: dict) -> PWCCountMin:
    sketch = _cm_shell(state, PWCCountMin)
    sketch._trackers = [_decode_map(PWC, row) for row in state["trackers"]]
    return sketch


def _ams_tail(sketch: PersistentAMS) -> dict:
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "delta": sketch.delta,
        "seed": sketch.seed,
        "copies": sketch.copies,
        "clock": sketch.now,
        "total": sketch.total,
        "rng_state": _encode_rng_state(sketch._rng),
        "components": sketch._components,
    }


def _ams_shell(state: dict) -> PersistentAMS:
    sketch = PersistentAMS(
        width=state["width"],
        depth=state["depth"],
        delta=state["delta"],
        seed=state["seed"],
        independent_copies=state["copies"],
    )
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._rng.setstate(_decode_rng_state(state["rng_state"]))
    sketch._components = [
        [list(pair) for pair in row] for row in state["components"]
    ]
    return sketch


def _ams_containers(sketch: PersistentAMS) -> list[Container]:
    context = (sketch._rng, sketch.probability)
    return [
        Container((-1, row, b, copy), lists, HISTORY, context)
        for row, by_sign in enumerate(sketch._histories)
        for b, by_copy in enumerate(by_sign)
        for copy, lists in enumerate(by_copy)
    ]


def _encode_persistent_ams(sketch: PersistentAMS) -> dict:
    return {
        **_ams_tail(sketch),
        "histories": [
            [
                [_encode_map(HISTORY, lists) for lists in by_sign]
                for by_sign in row_hist
            ]
            for row_hist in sketch._histories
        ],
    }


def _decode_persistent_ams(state: dict) -> PersistentAMS:
    sketch = _ams_shell(state)
    context = (sketch._rng, sketch.probability)
    sketch._histories = [
        [
            [_decode_map(HISTORY, lists, context) for lists in by_sign]
            for by_sign in row_hist
        ]
        for row_hist in state["histories"]
    ]
    return sketch


def _encode_pwc_ams(sketch: PWCAMS) -> dict:
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "delta": sketch.delta,
        "seed": sketch.seed,
        "clock": sketch.now,
        "total": sketch.total,
        "counters": [list(row) for row in sketch._counters],
        "trackers": [_encode_map(PWC, row) for row in sketch._trackers],
    }


def _decode_pwc_ams(state: dict) -> PWCAMS:
    sketch = PWCAMS(
        width=state["width"],
        depth=state["depth"],
        delta=state["delta"],
        seed=state["seed"],
    )
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._counters = [list(row) for row in state["counters"]]
    sketch._trackers = [_decode_map(PWC, row) for row in state["trackers"]]
    return sketch


def _hh_shell(state: dict, levels: list) -> PersistentHeavyHitters:
    level0 = levels[0]
    structure = PersistentHeavyHitters(
        universe=state["universe"],
        width=level0.width,
        depth=level0.depth,
        delta=level0.delta,
    )
    structure._sketches = levels
    structure._clock = state["clock"]
    structure._mass_total = state["mass_total"]
    return structure


def _encode_heavy_hitters(structure: PersistentHeavyHitters) -> dict:
    return {
        "universe": structure.universe,
        "clock": structure.now,
        "mass_total": structure._mass_total,
        "mass": _encode_component(PLA, structure._mass),
        "levels": [to_dict(sketch) for sketch in structure._sketches],
    }


def _decode_heavy_hitters(state: dict) -> PersistentHeavyHitters:
    structure = _hh_shell(state, [from_dict(doc) for doc in state["levels"]])
    structure._mass = _decode_component(PLA, state["mass"])
    return structure


def _encode_epochs(manager: EpochManager) -> dict:
    return {
        "factor": manager.factor,
        "epochs": [
            [epoch.index, epoch.start_time, epoch.start_norm]
            for epoch in manager.epochs
        ],
    }


def _decode_epochs(state: dict) -> EpochManager:
    manager = EpochManager(factor=state["factor"])
    for index, start_time, start_norm in state["epochs"]:
        manager._epochs.append(
            Epoch(index=index, start_time=start_time, start_norm=start_norm)
        )
        manager._start_times.append(start_time)
    return manager


def _encode_historical_cm(sketch: HistoricalCountMin) -> dict:
    tracked = []
    for row in sketch._tracked:
        encoded_row = {}
        for col, counter in row.items():
            encoded_row[str(col)] = {
                "epoch_ids": list(counter.epoch_ids),
                "trackers": [
                    _encode_component(PLA, tracker)
                    for tracker in counter.trackers
                ],
            }
        tracked.append(encoded_row)
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "eps": sketch.eps,
        "seed": getattr(sketch, "seed", 0),
        "identity_hashes": isinstance(sketch.hashes, IdentityHashFamily),
        "clock": sketch.now,
        "total": sketch.total,
        "delta": sketch._delta,
        "epochs": _encode_epochs(sketch._epochs),
        "counters": [list(row) for row in sketch._counters],
        "tracked": tracked,
    }


def _decode_historical_cm(state: dict) -> HistoricalCountMin:
    sketch = HistoricalCountMin(
        width=state["width"],
        depth=state["depth"],
        eps=state["eps"],
        seed=state["seed"],
        hashes=_identity_hashes(state),
    )
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._delta = state["delta"]
    sketch._epochs = _decode_epochs(state["epochs"])
    sketch._counters = [list(row) for row in state["counters"]]
    tracked = []
    for row in state["tracked"]:
        decoded_row = {}
        for col, entry in row.items():
            counter = _EpochedCounter()
            counter.epoch_ids = list(entry["epoch_ids"])
            counter.trackers = [
                _decode_component(PLA, tr) for tr in entry["trackers"]
            ]
            decoded_row[int(col)] = counter
        tracked.append(decoded_row)
    sketch._tracked = tracked
    return sketch


def _encode_historical_ams(sketch: HistoricalAMS) -> dict:
    tracked = []
    for row_hist in sketch._tracked:
        by_sign = []
        for sign_hist in row_hist:
            copies = []
            for lists in sign_hist:
                copies.append(
                    {
                        str(col): {
                            "epoch_ids": list(entry.epoch_ids),
                            "histories": [
                                _encode_component(HISTORY, h)
                                for h in entry.histories
                            ],
                        }
                        for col, entry in lists.items()
                    }
                )
            by_sign.append(copies)
        tracked.append(by_sign)
    aux = sketch._aux._sketch
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "eps": sketch.eps,
        "seed": sketch.seed,
        "copies": sketch.copies,
        "check_cost": sketch._check_cost,
        "clock": sketch.now,
        "total": sketch.total,
        "probability": sketch._probability,
        "updates_until_check": sketch._updates_until_check,
        "rng_state": _encode_rng_state(sketch._rng),
        "epochs": _encode_epochs(sketch._epochs),
        "aux": {
            "width": aux.width,
            "depth": aux.depth,
            "seed": aux.seed,
            "total": aux.total,
            "counters": aux.counters.tolist(),
        },
        "components": sketch._components,
        "tracked": tracked,
    }


def _decode_historical_ams(state: dict) -> HistoricalAMS:
    sketch = HistoricalAMS(
        width=state["width"],
        depth=state["depth"],
        eps=state["eps"],
        seed=state["seed"],
        independent_copies=state["copies"],
        check_cost=state["check_cost"],
    )
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._probability = state["probability"]
    sketch._updates_until_check = state["updates_until_check"]
    sketch._rng.setstate(_decode_rng_state(state["rng_state"]))
    sketch._epochs = _decode_epochs(state["epochs"])
    aux_state = state["aux"]
    aux = AMSSketch(
        width=aux_state["width"],
        depth=aux_state["depth"],
        seed=aux_state["seed"],
    )
    aux.counters = np.asarray(aux_state["counters"], dtype=np.int64)
    aux.total = aux_state["total"]
    sketch._aux._sketch = aux
    sketch._components = [
        [list(pair) for pair in row] for row in state["components"]
    ]
    context = (sketch._rng, None)
    tracked = []
    for row_hist in state["tracked"]:
        by_sign = []
        for sign_hist in row_hist:
            copies = []
            for lists in sign_hist:
                decoded = {}
                for col, entry in lists.items():
                    component = _EpochedComponent()
                    component.epoch_ids = list(entry["epoch_ids"])
                    component.histories = [
                        _decode_component(HISTORY, h, context)
                        for h in entry["histories"]
                    ]
                    decoded[int(col)] = component
                copies.append(decoded)
            by_sign.append(copies)
        tracked.append(by_sign)
    sketch._tracked = tracked
    return sketch


# --------------------------------------------------------------------- #
# The split the store's generations are written from
# --------------------------------------------------------------------- #


def containers(sketch: Any) -> list[Container]:
    """The component maps of a sketch a store holds, in the fixed order
    :func:`split` writes them and :func:`shell` rebuilds them; and of a
    ``PWCAMS``, which only the frozen engine reads this way."""
    if type(sketch) in (PersistentCountMin, PWCCountMin, PWCAMS):
        return _cm_containers(sketch, -1)
    if type(sketch) is PersistentAMS:
        return _ams_containers(sketch)
    if type(sketch) is PersistentHeavyHitters:
        found = [
            Container((-1, 0, 0, 0), {0: sketch._mass}, PLA, None, fixed=True)
        ]
        for level, level_sketch in enumerate(sketch._sketches):
            found.extend(_cm_containers(level_sketch, level))
        return found
    raise SerializationError(
        f"no generation codec for {type(sketch).__name__}"
    )


def split(sketch: Any) -> tuple[dict, list[Container]]:
    """``(tail, containers)`` of a sketch a store holds.

    The tail is a JSON-ready dict of everything mutable (counters,
    clocks, totals, RNG state) with its ``"type"``; the containers are
    the sketch's live component maps (:func:`containers`).  Callers
    finalize each component (its kind's ``finalize``) before reading
    its entries.
    """
    found = containers(sketch)
    if type(sketch) is PersistentAMS:
        return {"type": "PersistentAMS", **_ams_tail(sketch)}, found
    if type(sketch) is PersistentHeavyHitters:
        return {
            "type": "PersistentHeavyHitters",
            "universe": sketch.universe,
            "clock": sketch.now,
            "mass_total": sketch._mass_total,
            "mass": PLA.skeleton(sketch._mass),
            "levels": [_cm_tail(level) for level in sketch._sketches],
        }, found
    if type(sketch) is PWCAMS:
        raise SerializationError("no generation codec for PWCAMS")
    return {"type": type(sketch).__name__, **_cm_tail(sketch)}, found


#: Fields every tail of a type must carry (checked before decoding).
_CM_TAIL = (
    "width", "depth", "delta", "seed", "identity_hashes", "clock", "total",
    "counters",
)
TAIL_FIELDS = {
    "PersistentCountMin": _CM_TAIL,
    "PWCCountMin": _CM_TAIL,
    "PersistentAMS": (
        "width", "depth", "delta", "seed", "copies", "clock", "total",
        "rng_state", "components",
    ),
    "PersistentHeavyHitters": (
        "universe", "clock", "mass_total", "mass", "levels",
    ),
}


def shell(tail: dict) -> tuple[Any, list[Container]]:
    """Rebuild a sketch from its tail, with empty component maps.

    Returns the sketch and its :func:`containers`, for the generations
    to fill.
    """
    name = tail.get("type")
    if name in ("PersistentCountMin", "PWCCountMin"):
        cls = PersistentCountMin if name == "PersistentCountMin" else PWCCountMin
        sketch = _cm_shell(tail, cls)
    elif name == "PersistentAMS":
        sketch = _ams_shell(tail)
    elif name == "PersistentHeavyHitters":
        levels = [_cm_shell(level, PersistentCountMin) for level in tail["levels"]]
        sketch = _hh_shell(tail, levels)
        sketch._mass = PLA.build(tail["mass"], None)
    else:
        raise SerializationError(f"no generation codec for tail type {name!r}")
    return sketch, containers(sketch)


_CODECS: dict[str, tuple[type, Callable[[Any], dict], Callable[[dict], Any]]] = {
    "PersistentCountMin": (
        PersistentCountMin, _encode_persistent_cm, _decode_persistent_cm,
    ),
    "PWCCountMin": (PWCCountMin, _encode_pwc_cm, _decode_pwc_cm),
    "PersistentAMS": (
        PersistentAMS, _encode_persistent_ams, _decode_persistent_ams,
    ),
    "PWCAMS": (PWCAMS, _encode_pwc_ams, _decode_pwc_ams),
    "PersistentHeavyHitters": (
        PersistentHeavyHitters, _encode_heavy_hitters, _decode_heavy_hitters,
    ),
    "HistoricalCountMin": (
        HistoricalCountMin, _encode_historical_cm, _decode_historical_cm,
    ),
    "HistoricalAMS": (
        HistoricalAMS, _encode_historical_ams, _decode_historical_ams,
    ),
}


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #


def to_dict(sketch: Any) -> dict:
    """Encode a sketch as a self-describing document.

    Flushes any staged buffered updates first: encoders read (and
    finalize) sketch state, so the archive must include every absorbed
    update.
    """
    flush = getattr(sketch, "flush_buffer", None)
    if callable(flush):
        flush()
    for name, (cls, encode, _decode) in _CODECS.items():
        # Exact type match: PWCCountMin subclasses PersistentCountMin but
        # needs its own codec.
        if type(sketch) is cls:
            return {
                "format": FORMAT,
                "version": VERSION,
                "type": name,
                "state": encode(sketch),
            }
    raise SerializationError(
        f"no serializer registered for {type(sketch).__name__}"
    )


def from_dict(document: dict) -> Any:
    """Decode a sketch from a document produced by :func:`to_dict`.

    A document that is not a sketch, or whose state lacks or mistypes a
    field, raises :class:`SerializationError`.
    """
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise SerializationError("not a repro-sketch document")
    if document.get("version") != VERSION:
        raise SerializationError(
            f"unsupported document version {document.get('version')!r}"
        )
    name = document.get("type")
    if name not in _CODECS:
        raise SerializationError(f"unknown sketch type {name!r}")
    if not isinstance(document.get("state"), dict):
        raise SerializationError(f"{name} document has no state")
    _cls, _encode, decode = _CODECS[name]
    try:
        return decode(document["state"])
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise SerializationError(
            f"malformed {name} state: {type(exc).__name__}: {exc}"
        ) from exc


def save(sketch: Any, path: str | Path) -> Path:
    """Serialize ``sketch`` to ``path`` (gzip when it ends with ``.gz``).

    The write is atomic (tmp + fsync + rename via :mod:`repro.io.atomic`):
    a crash mid-save leaves the previous archive intact, never a torn one.
    """
    path = Path(path)
    payload = json.dumps(to_dict(sketch), separators=(",", ":"))
    if path.suffix == ".gz":
        data = gzip.compress(payload.encode(), compresslevel=GZIP_LEVEL)
    else:
        data = payload.encode()
    return atomic_write_bytes(path, data)


def load(path: str | Path) -> Any:
    """Deserialize a sketch previously written by :func:`save`.

    Unreadable, truncated or corrupt archives (missing file, partial
    gzip stream, cut-off JSON, bad UTF-8) raise
    :class:`SerializationError` naming the offending path, so callers —
    notably checkpoint recovery — can distinguish "this snapshot is
    damaged, fall back" from a programming error.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            payload = gzip.decompress(path.read_bytes()).decode()
        else:
            payload = path.read_text(encoding="utf-8")
        document = json.loads(payload)
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise SerializationError(f"{path}: truncated or corrupt gzip archive: {exc}") from exc
    except OSError as exc:  # after BadGzipFile, an OSError subclass
        raise SerializationError(f"{path}: unreadable archive: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{path}: archive is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: archive is not valid JSON: {exc}") from exc
    try:
        return from_dict(document)
    except SerializationError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
