"""Runtime contract layer for the sketch invariants.

The paper's correctness argument leans on invariants the code can only
enforce dynamically: strictly increasing timestamps into every
persistence structure, monotone counter components behind the sampled
history lists, and Δ-bounded PLA segment error.  This module provides
lightweight decorators and validators the sketch classes opt into.

Contracts are **off by default** and cost nothing when off:

* decorators applied while disabled return the function object
  unchanged (identity), so decorated hot paths are byte-for-byte the
  undecorated ones;
* validators check :data:`ENABLED` first and return immediately.

Enable them with ``REPRO_CONTRACTS=1`` in the environment (read at
import time) or programmatically via :func:`set_enabled` /
:func:`enforced`.  The test suite force-enables them in
``tests/conftest.py`` so every test runs fully checked.

Violations raise :class:`ContractViolation`, a :class:`ValueError`
subclass, so existing ``except ValueError`` call sites keep working.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TypeVar
from weakref import WeakKeyDictionary

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pla.segment import Segment

F = TypeVar("F", bound=Callable[..., Any])

#: Whether contracts are live.  Mutated only via :func:`set_enabled`.
ENABLED: bool = os.environ.get("REPRO_CONTRACTS", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
    "off",
)


class ContractViolation(ValueError):
    """A dynamic invariant of the persistent-sketch analysis was broken."""


def enabled() -> bool:
    """Whether contracts are currently enforced."""
    return ENABLED


def set_enabled(flag: bool) -> None:
    """Turn enforcement on/off.

    Decorators consult the flag both when applied (identity if off) and
    per call, so flipping it affects already-decorated functions too —
    but functions decorated *while off* stay unwrapped permanently;
    import order matters for library classes.
    """
    global ENABLED
    ENABLED = bool(flag)


@contextmanager
def enforced(flag: bool = True) -> Iterator[None]:
    """Context manager scoping :func:`set_enabled` (used by tests)."""
    previous = ENABLED
    set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


#: Key for tracking plain (non-method) decorated functions.
_GLOBAL_KEY = object()


def monotone_timestamps(param: str = "t") -> Callable[[F], F]:
    """Enforce strictly increasing ``param`` across calls.

    Tracking is per instance for methods (first parameter named
    ``self``/``cls``) and per function otherwise.  A call that raises —
    from the contract or the wrapped function — does not advance the
    tracked timestamp.  ``None`` timestamps (auto-assignment sentinels)
    are skipped.

    Instances of ``__slots__`` classes must list ``__weakref__`` so the
    tracker can hold them weakly; unweakrefable instances fall back to
    an ``id()``-keyed table (fine for the test suite, documented as a
    leak for long-running enforcement).
    """

    def decorate(fn: F) -> F:
        if not ENABLED:
            return fn
        names = list(inspect.signature(fn).parameters)
        try:
            pos = names.index(param)
        except ValueError:
            raise TypeError(
                f"@monotone_timestamps: {fn.__qualname__} has no "
                f"parameter {param!r}"
            ) from None
        is_method = bool(names) and names[0] in ("self", "cls")
        weak_last: WeakKeyDictionary[Any, Any] = WeakKeyDictionary()
        strong_last: dict[int, Any] = {}

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not ENABLED:
                return fn(*args, **kwargs)
            if param in kwargs:
                t = kwargs[param]
            elif pos < len(args):
                t = args[pos]
            else:
                t = None
            if t is None:
                return fn(*args, **kwargs)
            key = args[0] if is_method and args else _GLOBAL_KEY
            try:
                previous = weak_last.get(key)
                weak = True
            except TypeError:
                previous = strong_last.get(id(key))
                weak = False
            if previous is not None and t <= previous:
                raise ContractViolation(
                    f"{fn.__qualname__}: timestamps must be strictly "
                    f"increasing, got {t!r} after {previous!r}"
                )
            result = fn(*args, **kwargs)
            if weak:
                weak_last[key] = t
            else:
                strong_last[id(key)] = t
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def check_sorted_timeline(
    lists: Sequence[Sequence[int]] | Sequence[list[int]],
    what: str = "timeline",
) -> None:
    """Every list must be strictly increasing (predecessor-searchable)."""
    if not ENABLED:
        return
    for which, lst in enumerate(lists):
        for i in range(len(lst) - 1):
            if lst[i] >= lst[i + 1]:
                raise ContractViolation(
                    f"{what}: list {which} is not strictly increasing at "
                    f"index {i} ({lst[i]} >= {lst[i + 1]})"
                )


def check_segment_error(
    segment: "Segment",
    times: Sequence[float],
    values: Sequence[float],
    delta: float,
    slack: float = 1e-6,
) -> None:
    """Every fed point of a run must sit within ``delta`` of the segment.

    This is Section 3's defining PLA guarantee; ``slack`` absorbs float
    rounding in the supporting-line bisector.
    """
    if not ENABLED:
        return
    bound = float(delta) + slack
    for t, v in zip(times, values):
        approx = segment.evaluate_clamped(t)
        if abs(approx - v) > bound:
            raise ContractViolation(
                f"PLA segment [{segment.t_start}, {segment.t_end}] deviates "
                f"by {abs(approx - v):.6g} > delta={delta:.6g} from the fed "
                f"point (t={t}, v={v})"
            )


def check_sketch(sketch: Any, what: str = "sketch") -> None:
    """Structural invariants of one persistent sketch, recursively.

    Duck-typed so the contract layer needs no imports from
    :mod:`repro.core` (which imports *this* module): a persistent sketch
    keeps its history in a column log ``_log``
    (:class:`~repro.persistence.column_log.ColumnLog`), and the dyadic
    heavy-hitter hierarchy exposes ``_sketches`` plus a ``_mass``
    tracker with a log of its own.  Used by checkpoint recovery to
    re-validate a rebuilt store before it may serve queries.
    """
    if not ENABLED:
        return
    subsketches = getattr(sketch, "_sketches", None)
    if subsketches is not None:
        for level, sub in enumerate(subsketches):
            check_sketch(sub, what=f"{what}[level {level}]")
    mass = getattr(sketch, "_mass", None)
    if mass is not None:
        check_log(mass.log, what=f"{what}.mass")
    log = getattr(sketch, "_log", None)
    if log is not None:
        check_log(log, what=what)


def check_log(log: Any, what: str = "log") -> None:
    """Timeline invariants of every component of a column log, checked
    with array operations over the rows grouped per component.

    Each component's times strictly increase; a PLA segment never ends
    before it starts; a sampled history's values never decrease and
    never undercut the component's initial value (the component is
    monotone by construction).
    """
    if not ENABLED:
        return
    keys, columns = log.entries()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    times = columns[0][order]
    same = keys[1:] == keys[:-1]
    _first_bad(
        same & (times[1:] <= times[:-1]), keys, times,
        f"{what}: a component's times are not strictly increasing",
    )
    if log.kind.name == "pla":
        _first_bad(
            columns[1][order] < times, keys, times,
            f"{what}: a PLA segment ends before it starts",
        )
    if log.kind.name == "history":
        values = columns[1][order]
        _first_bad(
            same & (values[1:] < values[:-1]), keys, times,
            f"{what}: a sampled value decreased; components must be monotone",
        )
        component_keys, _params, initials = log.components()
        by_key = np.argsort(component_keys)
        at = np.searchsorted(component_keys, keys, sorter=by_key)
        _first_bad(
            values < initials[by_key[at]], keys, times,
            f"{what}: a sampled value undercuts its component's starting value",
        )


def _first_bad(
    bad: np.ndarray, keys: np.ndarray, times: np.ndarray, message: str
) -> None:
    where = np.flatnonzero(bad)
    if len(where):
        i = int(where[0])
        raise ContractViolation(
            f"{message} (component key {int(keys[i])}, t={int(times[i])})"
        )


def check_store(store: Any, what: str = "store") -> None:
    """Re-validate every sketch of a :class:`~repro.store.SketchStore`.

    Called by :meth:`repro.runtime.IngestRuntime.recover` (inside an
    ``enforced(True)`` scope, so recovery is always checked even when
    contracts are off globally) after a checkpoint-plus-WAL rebuild.
    """
    if not ENABLED:
        return
    for name, state in sorted(store._streams.items()):
        for label, sketch in (
            ("point", state.point_sketch),
            ("hh", state.hh_sketch),
            ("join", state.join_sketch),
        ):
            if sketch is not None:
                check_sketch(sketch, what=f"{what}:{name}.{label}")


def check_history_list(history: Any, what: str = "history list") -> None:
    """Structural invariants of a sampled history list (Section 4.1):
    :func:`check_log` over the column log that holds its entries."""
    check_log(history.log, what=what)
