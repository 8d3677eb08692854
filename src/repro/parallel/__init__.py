"""Multi-core parallel execution layer.

Row/shard/level-parallel ingestion over long-lived forked worker pools
(:class:`WorkerPool`), with a deterministic in-process fallback when
``workers=1`` or the platform lacks ``fork``.  Parallel output is
bit-identical to serial for every sketch type — see ``docs/parallel.md``
for the determinism contract.  Reads never fan out: queries, freezes and
serialization run serially on the master after the pool's state is
merged back.
"""

from __future__ import annotations

from repro.parallel.errors import IngestError
from repro.parallel.pool import (
    WorkerHandler,
    WorkerPool,
    fork_available,
    install_pool_faults,
    pool_faults,
)

__all__ = [
    "IngestError",
    "WorkerHandler",
    "WorkerPool",
    "fork_available",
    "install_pool_faults",
    "pool_faults",
]
