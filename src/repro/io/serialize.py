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

Every sketch is a small tail (counters, clocks, RNG state) plus its
column logs (PLA segments, PWC records, sampled history entries; see
:mod:`repro.persistence.column_log`).  This module writes the two back
together as one document, each component's rows inline; a store
checkpoint writes them apart, the log slices as columnar generations
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
from repro.persistence import column_log
from repro.persistence.column_log import ColumnLog
from repro.persistence.epochs import Epoch, EpochManager
from repro.persistence.history_list import SampledHistoryList
from repro.pla.orourke import OnlinePLA
from repro.pla.piecewise_constant import OnlinePWC
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
# A component is one history: a PLA tracker's segments, a PWC tracker's
# records or a sampled history list's entries, all rows of its sketch's
# column log (:mod:`repro.persistence.column_log`).  Each kind splits a
# component into a small *skeleton* (its parameter and initial value,
# fixed once the component exists) and its rows.  The v1 document puts
# the rows inline next to the skeleton (``inline``/``outline``); the
# store's generations (:mod:`repro.io.generations`) slice them straight
# from the log and pack the skeletons as columns (``LogKind.pack``),
# from which a load builds each component with ``new``.


class _PLAKind:
    """PLA tracker: skeleton ``delta`` and initial value."""

    kind = column_log.PLA

    @staticmethod
    def skeleton(tracker: OnlinePLA) -> dict:
        return {
            "delta": tracker.delta,
            "function": {"initial_value": tracker.initial_value},
        }

    @staticmethod
    def make(skeleton: dict, log: ColumnLog, key: int, rng: Any) -> OnlinePLA:
        # A skeleton's young staging fields name a first touch that the
        # save which wrote them had already finalized into the rows.
        return OnlinePLA(
            skeleton["delta"], skeleton["function"]["initial_value"], log, key
        )

    @staticmethod
    def inline(skeleton: dict, columns: tuple[list, ...]) -> dict:
        function = dict(skeleton["function"])
        function.update(zip(_PLAKind.kind.columns, columns))
        return {**skeleton, "function": function}

    @staticmethod
    def outline(document: dict) -> tuple[dict, tuple[list, ...]]:
        function = document["function"]
        skeleton = {
            **document,
            "function": {"initial_value": function["initial_value"]},
        }
        return skeleton, tuple(function[name] for name in _PLAKind.kind.columns)

    @staticmethod
    def new(
        param: float, initial: float, log: ColumnLog, key: int, rng: Any
    ) -> OnlinePLA:
        return OnlinePLA(param, initial, log, key)


class _HistoryKind:
    """Sampled history list: skeleton ``probability`` and initial value."""

    kind = column_log.HISTORY

    @staticmethod
    def skeleton(history: SampledHistoryList) -> dict:
        return {
            "probability": history.probability,
            "initial_value": history.initial_value,
        }

    @staticmethod
    def make(
        skeleton: dict, log: ColumnLog, key: int, rng: Any
    ) -> SampledHistoryList:
        return SampledHistoryList(
            skeleton["probability"], rng, skeleton["initial_value"], log, key
        )

    @staticmethod
    def inline(skeleton: dict, columns: tuple[list, ...]) -> dict:
        return {**skeleton, "times": columns[0], "values": columns[1]}

    @staticmethod
    def outline(document: dict) -> tuple[dict, tuple[list, ...]]:
        skeleton = {
            "probability": document["probability"],
            "initial_value": document["initial_value"],
        }
        return skeleton, (document["times"], document["values"])

    @staticmethod
    def new(
        param: float, initial: float, log: ColumnLog, key: int, rng: Any
    ) -> SampledHistoryList:
        return SampledHistoryList(param, rng, int(initial), log, key)


class _PWCKind:
    """PWC tracker: skeleton ``delta`` and initial value.

    ``last_recorded`` is part of the v1 skeleton but not of the packed
    one: it is always the last recorded value (the initial value before
    any record), so a load re-derives it.
    """

    kind = column_log.PWC

    @staticmethod
    def skeleton(tracker: OnlinePWC) -> dict:
        return {
            "delta": tracker.delta,
            "initial_value": tracker.initial_value,
            "last_recorded": tracker._last_recorded,
        }

    @staticmethod
    def make(skeleton: dict, log: ColumnLog, key: int, rng: Any) -> OnlinePWC:
        tracker = OnlinePWC(skeleton["delta"], skeleton["initial_value"], log, key)
        if "last_recorded" in skeleton:
            tracker._last_recorded = skeleton["last_recorded"]
        return tracker

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
    def new(
        param: float, initial: float, log: ColumnLog, key: int, rng: Any
    ) -> OnlinePWC:
        return OnlinePWC(param, initial, log, key)


PLA = _PLAKind()
HISTORY = _HistoryKind()
PWC = _PWCKind()

#: The codec of each log kind, by kind name.
CODECS = {codec.kind.name: codec for codec in (PLA, HISTORY, PWC)}


def _encode_component(codec: Any, component: Any) -> dict:
    if codec is PLA:
        component.finalize()
    return codec.inline(
        codec.skeleton(component), component.log.rows(component)
    )


@dataclass
class Slot:
    """One column log of a sketch, and where its components live.

    ``tables[(row * signs + sign) * copies + copy]`` maps a column to
    the component whose log key is ``table * width + col``; with the
    stream, the sketch slot and ``level`` that is its generation key
    ``(stream, sketch, level, row, col, sign, copy)``.  ``param`` is a
    new component's parameter (``delta`` or the sampling probability),
    ``rng`` a sampled one's random source; ``fixed`` marks the
    heavy-hitter mass tracker, whose skeleton lives in the tail, so
    generations carry only its rows.
    """

    level: int
    log: ColumnLog
    tables: list[dict]
    width: int
    param: float
    rng: Any = None
    signs: int = 1
    copies: int = 1
    fixed: bool = False

    @property
    def codec(self) -> Any:
        return CODECS[self.log.kind.name]

    def table(self, row: Any, sign: Any, copy: Any) -> Any:
        """Index into :attr:`tables` of ``(row, sign, copy)``: integers
        or numpy columns of them."""
        return (row * self.signs + sign) * self.copies + copy

    def create(
        self,
        tables: list[int],
        cols: list[int],
        params: list[float],
        initials: list[float],
    ) -> None:
        """Create components from their parameters and initial values,
        in order: the ``i``-th is column ``cols[i]`` of table
        ``tables[i]``."""
        new, log, rng, width = self.codec.new, self.log, self.rng, self.width
        for table, col, param, initial in zip(tables, cols, params, initials):
            self.tables[table][col] = new(
                param, initial, log, table * width + col, rng
            )

    def restore(
        self, row: int, col: int, document: dict, sign: int = 0, copy: int = 0
    ) -> None:
        """Rebuild a component from its v1 document."""
        table = self.table(row, sign, copy)
        self.tables[table][col] = _restore(
            self.codec, document, self.log, table * self.width + col, self.rng
        )


def _restore(codec: Any, document: dict, log: ColumnLog, key: int, rng: Any) -> Any:
    """A component rebuilt from its v1 document, as rows of ``log``."""
    skeleton, columns = codec.outline(document)
    component = codec.make(skeleton, log, key, rng)
    log.extend(component, columns)
    return component


def _encode_map(codec: Any, components: dict) -> dict:
    return {
        str(col): _encode_component(codec, component)
        for col, component in components.items()
    }


def _encode_rng_state(rng) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _decode_rng_state(encoded: list) -> tuple:
    version, internal, gauss = encoded
    return (version, tuple(internal), gauss)


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


def _cm_slot(sketch: PersistentCountMin | PWCAMS, level: int = -1) -> Slot:
    return Slot(level, sketch._log, sketch._trackers, sketch.width, sketch.delta)


def _restore_rows(slot: Slot, rows: list) -> None:
    for row, documents in enumerate(rows):
        for col, document in documents.items():
            slot.restore(row, int(col), document)


def _encode_cm(sketch: PersistentCountMin) -> dict:
    codec = _cm_slot(sketch).codec
    return {
        **_cm_tail(sketch),
        "trackers": [_encode_map(codec, row) for row in sketch._trackers],
    }


def _decoder_cm(cls: type) -> Callable[[dict], PersistentCountMin]:
    def decode(state: dict) -> PersistentCountMin:
        sketch = _cm_shell(state, cls)
        _restore_rows(_cm_slot(sketch), state["trackers"])
        return sketch

    return decode


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


def _ams_slot(sketch: PersistentAMS) -> Slot:
    return Slot(
        -1,
        sketch._log,
        [lists for by_sign in sketch._histories for by_copy in by_sign for lists in by_copy],
        sketch.width,
        sketch.probability,
        sketch._rng,
        signs=2,
        copies=sketch.copies,
    )


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
    slot = _ams_slot(sketch)
    for row, row_hist in enumerate(state["histories"]):
        for b, by_sign in enumerate(row_hist):
            for copy, documents in enumerate(by_sign):
                for col, document in documents.items():
                    slot.restore(row, int(col), document, b, copy)
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
    _restore_rows(_cm_slot(sketch), state["trackers"])
    return sketch


#: The fan-out of a hierarchy written before hierarchies had one (with
#: a root level, which readers drop).
LEGACY_FANOUT = 2


def _hh_shell(
    state: dict, levels: list, mass: OnlinePLA, fanout: int | None
) -> PersistentHeavyHitters:
    """A hierarchy of fan-out ``fanout`` around decoded level sketches.
    ``fanout`` is ``None`` for a hierarchy written before hierarchies had
    one: its fan-out is :data:`LEGACY_FANOUT` and its last level document
    is a root level, which no query reads, so it is dropped.  Any other
    level count is malformed."""
    level0 = levels[0]
    structure = PersistentHeavyHitters(
        universe=state["universe"],
        width=level0.width,
        depth=level0.depth,
        delta=level0.delta,
        fanout=LEGACY_FANOUT if fanout is None else fanout,
    )
    if len(levels) != structure.levels + (fanout is None):
        raise SerializationError(
            f"{len(levels)} level documents for {structure.levels} levels"
            + (" and a root" if fanout is None else "")
        )
    structure._sketches = levels[: structure.levels]
    structure._clock = state["clock"]
    structure._mass_total = state["mass_total"]
    structure._mass = mass
    return structure


def _hh_slot(structure: PersistentHeavyHitters) -> Slot:
    mass = structure._mass
    return Slot(-1, mass.log, [{0: mass}], 1, mass.delta, fixed=True)


def _encode_heavy_hitters(structure: PersistentHeavyHitters) -> dict:
    return {
        "universe": structure.universe,
        "fanout": structure.fanout,
        "clock": structure.now,
        "mass_total": structure._mass_total,
        "mass": _encode_component(PLA, structure._mass),
        "levels": [to_dict(sketch) for sketch in structure._sketches],
    }


def _decode_heavy_hitters(state: dict) -> PersistentHeavyHitters:
    return _hh_shell(
        state,
        [from_dict(doc) for doc in state["levels"]],
        _restore(PLA, state["mass"], ColumnLog(PLA.kind), 0, None),
        state.get("fanout"),
    )


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
    for row, documents in enumerate(state["tracked"]):
        decoded_row = {}
        for col, entry in documents.items():
            counter = _EpochedCounter()
            counter.epoch_ids = list(entry["epoch_ids"])
            counter.trackers = [
                _restore(PLA, doc, sketch._log, sketch._key(e, row, int(col)), None)
                for e, doc in zip(counter.epoch_ids, entry["trackers"])
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
    tracked = []
    for row, row_hist in enumerate(state["tracked"]):
        by_sign = []
        for b, sign_hist in enumerate(row_hist):
            copies = []
            for copy, lists in enumerate(sign_hist):
                decoded = {}
                for col, entry in lists.items():
                    component = _EpochedComponent()
                    component.epoch_ids = list(entry["epoch_ids"])
                    component.histories = [
                        _restore(
                            HISTORY, doc, sketch._log,
                            sketch._key(e, row, b, copy, int(col)), sketch._rng,
                        )
                        for e, doc in zip(component.epoch_ids, entry["histories"])
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


def slots(sketch: Any) -> list[Slot]:
    """The column logs of a sketch a store holds, in the fixed order
    :func:`split` writes them and :func:`shell` rebuilds them; and of a
    ``PWCAMS``, which only the frozen engine reads this way."""
    if type(sketch) in (PersistentCountMin, PWCCountMin, PWCAMS):
        return [_cm_slot(sketch)]
    if type(sketch) is PersistentAMS:
        return [_ams_slot(sketch)]
    if type(sketch) is PersistentHeavyHitters:
        return [_hh_slot(sketch)] + [
            _cm_slot(level_sketch, level)
            for level, level_sketch in enumerate(sketch._sketches)
        ]
    raise SerializationError(
        f"no generation codec for {type(sketch).__name__}"
    )


def split(sketch: Any) -> tuple[dict, list[Slot]]:
    """``(tail, slots)`` of a sketch a store holds.

    The tail is a JSON-ready dict of everything mutable (counters,
    clocks, totals, RNG state) with its ``"type"``; the slots are the
    sketch's column logs (:func:`slots`).
    """
    found = slots(sketch)
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


def shell(tail: dict, fanout: int | None = None) -> tuple[Any, list[Slot]]:
    """Rebuild a sketch from its tail, with empty column logs; a
    heavy-hitter hierarchy has the stream's ``fanout`` (``None`` when its
    manifest entry records none: see :func:`_hh_shell`).

    Returns the sketch and its :func:`slots`, for the generations to
    fill.
    """
    name = tail.get("type")
    if name in ("PersistentCountMin", "PWCCountMin"):
        cls = PersistentCountMin if name == "PersistentCountMin" else PWCCountMin
        sketch = _cm_shell(tail, cls)
    elif name == "PersistentAMS":
        sketch = _ams_shell(tail)
    elif name == "PersistentHeavyHitters":
        levels = [_cm_shell(level, PersistentCountMin) for level in tail["levels"]]
        mass = PLA.make(tail["mass"], ColumnLog(PLA.kind), 0, None)
        sketch = _hh_shell(tail, levels, mass, fanout)
    else:
        raise SerializationError(f"no generation codec for tail type {name!r}")
    return sketch, slots(sketch)


_CODECS: dict[str, tuple[type, Callable[[Any], dict], Callable[[dict], Any]]] = {
    "PersistentCountMin": (
        PersistentCountMin, _encode_cm, _decoder_cm(PersistentCountMin),
    ),
    "PWCCountMin": (PWCCountMin, _encode_cm, _decoder_cm(PWCCountMin)),
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
