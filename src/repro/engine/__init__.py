"""Vectorized bulk engines: columnwise ingest and frozen query serving.

The per-update path of the persistent sketches is dominated by Python
interpreter overhead: ``d`` hash evaluations, ``d`` counter increments
and ``d`` tracker feeds per update.  For a *materialized* stream all of
that structure is known up front, so it can be computed columnwise with
numpy — all bucket columns for the whole stream at once, then per-counter
time-ordered feed groups — cutting ingest time by roughly an order of
magnitude while producing **bit-identical sketches** for the
deterministic schemes (asserted in ``tests/test_engine.py``).

    from repro.engine import batch_ingest
    sketch = PersistentCountMin(width=2048, depth=5, delta=25)
    batch_ingest(sketch, stream)      # == sketch.ingest(stream), faster

The read side is :mod:`repro.engine.frozen`: ``freeze(sketch)`` compiles
a sketch into an immutable columnar snapshot that answers ``point`` /
``point_many`` / holistic queries bit-equal to the live path (asserted
in ``tests/test_frozen.py``) via vectorized predecessor search.  The
frozen engine has one input layout, the generation columns a store
checkpoint writes (:mod:`repro.io.generations`): a live sketch is laid
out as one in-memory generation first, a checkpoint is read as written.
"""

from __future__ import annotations

from repro.engine.batch import batch_hash_columns, batch_ingest
from repro.engine.frozen import (
    FrozenAMS,
    FrozenCountMin,
    FrozenHeavyHitters,
    FrozenPWCAMS,
    FrozenShardedSketch,
    FrozenStoreView,
    freeze,
    freeze_store,
)

__all__ = [
    "batch_ingest",
    "batch_hash_columns",
    "freeze",
    "freeze_store",
    "FrozenCountMin",
    "FrozenPWCAMS",
    "FrozenAMS",
    "FrozenHeavyHitters",
    "FrozenShardedSketch",
    "FrozenStoreView",
]
