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
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import Any, Callable

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
from repro.pla.piecewise import PiecewiseLinearFunction
from repro.pla.segment import Segment

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


def _encode_pla_function(function: PiecewiseLinearFunction) -> dict:
    return {
        "initial_value": function.initial_value,
        "t_start": [seg.t_start for seg in function],
        "t_end": [seg.t_end for seg in function],
        "slope": [seg.slope for seg in function],
        "value_at_start": [seg.value_at_start for seg in function],
    }


def _decode_pla_function(state: dict) -> PiecewiseLinearFunction:
    function = PiecewiseLinearFunction(initial_value=state["initial_value"])
    for t0, t1, slope, v0 in zip(
        state["t_start"], state["t_end"], state["slope"],
        state["value_at_start"],
    ):
        function.append(
            Segment(t_start=t0, t_end=t1, slope=slope, value_at_start=v0)
        )
    return function


def _encode_pla_tracker(tracker: PLATracker) -> dict:
    # Young trackers carry a staged first touch next to the (possibly
    # still unmaterialized) PLA; encode it so decode restores the exact
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
        "function": _encode_pla_function(pla.function),
        **young,
    }


def _decode_pla_tracker(state: dict) -> PLATracker:
    function = _decode_pla_function(state["function"])
    tracker: PLATracker
    if state.get("young"):
        young_tracker = YoungPLATracker(
            delta=state["delta"], initial_value=state["initial_value"]
        )
        young_tracker._t0 = state["t0"]
        young_tracker._v0 = state["v0"]
        # ``finalize()`` during encode materialized the live ``_pla``;
        # mirror that state exactly (a finalized PLA is fully described
        # by its delta and emitted function).
        young_tracker._pla = OnlinePLA(
            delta=state["delta"], initial_value=function.initial_value
        )
        tracker = young_tracker
    else:
        tracker = PLATracker(
            delta=state["delta"], initial_value=function.initial_value
        )
    pla = tracker._pla
    pla.function = function
    pla._on_segment = function.append
    return tracker


def _encode_pwc_tracker(tracker: PWCTracker) -> dict:
    pwc = tracker._pwc
    return {
        "delta": pwc.delta,
        "initial_value": pwc.function.initial_value,
        "times": list(pwc.function._times),
        "values": list(pwc.function._values),
        "last_recorded": pwc._last_recorded,
    }


def _decode_pwc_tracker(state: dict) -> PWCTracker:
    tracker = PWCTracker(
        delta=state["delta"], initial_value=state["initial_value"]
    )
    pwc = tracker._pwc
    for t, value in zip(state["times"], state["values"]):
        pwc.function.append(t, value)
    pwc._last_recorded = state["last_recorded"]
    return tracker


def _encode_history(history: SampledHistoryList) -> dict:
    return {
        "probability": history.probability,
        "initial_value": history.initial_value,
        "times": list(history._times),
        "values": list(history._values),
    }


def _decode_history(state: dict, rng) -> SampledHistoryList:
    history = SampledHistoryList(
        probability=state["probability"],
        rng=rng,
        initial_value=state["initial_value"],
    )
    history._times = list(state["times"])
    history._values = list(state["values"])
    return history


def _encode_rng_state(rng) -> list:
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def _decode_rng_state(encoded: list) -> tuple:
    version, internal, gauss = encoded
    return (version, tuple(internal), gauss)


# --------------------------------------------------------------------- #
# Sketch codecs
# --------------------------------------------------------------------- #


def _tracked_cm_state(sketch: PersistentCountMin, encode_tracker) -> dict:
    return {
        "width": sketch.width,
        "depth": sketch.depth,
        "delta": sketch.delta,
        "seed": sketch.seed,
        "identity_hashes": isinstance(sketch.hashes, IdentityHashFamily),
        "clock": sketch.now,
        "total": sketch.total,
        "counters": [list(row) for row in sketch._counters],
        "trackers": [
            {str(col): encode_tracker(tracker) for col, tracker in row.items()}
            for row in sketch._trackers
        ],
    }


def _restore_tracked_cm(sketch, state: dict, decode_tracker) -> None:
    sketch._clock = state["clock"]
    sketch.total = state["total"]
    sketch._counters = [list(row) for row in state["counters"]]
    sketch._trackers = [
        {int(col): decode_tracker(tr) for col, tr in row.items()}
        for row in state["trackers"]
    ]


def _encode_persistent_cm(sketch: PersistentCountMin) -> dict:
    return _tracked_cm_state(sketch, _encode_pla_tracker)


def _decode_persistent_cm(state: dict) -> PersistentCountMin:
    sketch = PersistentCountMin(
        width=state["width"],
        depth=state["depth"],
        delta=state["delta"],
        seed=state["seed"],
        hashes=(
            IdentityHashFamily(state["width"], state["depth"])
            if state["identity_hashes"]
            else None
        ),
    )
    _restore_tracked_cm(sketch, state, _decode_pla_tracker)
    return sketch


def _encode_pwc_cm(sketch: PWCCountMin) -> dict:
    return _tracked_cm_state(sketch, _encode_pwc_tracker)


def _decode_pwc_cm(state: dict) -> PWCCountMin:
    sketch = PWCCountMin(
        width=state["width"],
        depth=state["depth"],
        delta=state["delta"],
        seed=state["seed"],
        hashes=(
            IdentityHashFamily(state["width"], state["depth"])
            if state["identity_hashes"]
            else None
        ),
    )
    _restore_tracked_cm(sketch, state, _decode_pwc_tracker)
    return sketch


def _encode_persistent_ams(sketch: PersistentAMS) -> dict:
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
        "histories": [
            [
                [
                    {str(col): _encode_history(h) for col, h in lists.items()}
                    for lists in by_sign
                ]
                for by_sign in row_hist
            ]
            for row_hist in sketch._histories
        ],
    }


def _decode_persistent_ams(state: dict) -> PersistentAMS:
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
    sketch._histories = [
        [
            [
                {
                    int(col): _decode_history(h, sketch._rng)
                    for col, h in lists.items()
                }
                for lists in by_sign
            ]
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
        "trackers": [
            {
                str(col): _encode_pwc_tracker(tracker)
                for col, tracker in row.items()
            }
            for row in sketch._trackers
        ],
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
    sketch._trackers = [
        {int(col): _decode_pwc_tracker(tr) for col, tr in row.items()}
        for row in state["trackers"]
    ]
    return sketch


def _encode_heavy_hitters(structure: PersistentHeavyHitters) -> dict:
    structure._mass.finalize()
    return {
        "universe": structure.universe,
        "clock": structure.now,
        "mass_total": structure._mass_total,
        "mass": _encode_pla_tracker(structure._mass),
        "levels": [to_dict(sketch) for sketch in structure._sketches],
    }


def _decode_heavy_hitters(state: dict) -> PersistentHeavyHitters:
    levels = [from_dict(doc) for doc in state["levels"]]
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
    structure._mass = _decode_pla_tracker(state["mass"])
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
                    _encode_pla_tracker(tracker)
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
        hashes=(
            IdentityHashFamily(state["width"], state["depth"])
            if state["identity_hashes"]
            else None
        ),
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
                _decode_pla_tracker(tr) for tr in entry["trackers"]
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
                                _encode_history(h) for h in entry.histories
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
    import numpy as np

    from repro.sketch.ams import AMSSketch

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
                        _decode_history(h, sketch._rng)
                        for h in entry["histories"]
                    ]
                    decoded[int(col)] = component
                copies.append(decoded)
            by_sign.append(copies)
        tracked.append(by_sign)
    sketch._tracked = tracked
    return sketch


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
    """Decode a sketch from a document produced by :func:`to_dict`."""
    if document.get("format") != FORMAT:
        raise SerializationError("not a repro-sketch document")
    if document.get("version") != VERSION:
        raise SerializationError(
            f"unsupported document version {document.get('version')!r}"
        )
    name = document.get("type")
    if name not in _CODECS:
        raise SerializationError(f"unknown sketch type {name!r}")
    _cls, _encode, decode = _CODECS[name]
    return decode(document["state"])


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
    if not isinstance(document, dict):
        raise SerializationError(f"{path}: archive is not a sketch document")
    return from_dict(document)
