"""Errors raised by the parallel execution layer."""

from __future__ import annotations


class IngestError(RuntimeError):
    """A parallel worker failed (died, was killed, or raised) mid-ingest.

    Raised by the worker pool when a child process becomes unreachable or
    reports an exception.  The failing batch was *not* applied from the
    caller's point of view: the master sketch keeps the state of the last
    successful merge, and a durable front-end (the WAL of
    :class:`repro.runtime.IngestRuntime`) still holds every record, so
    recovery replays to the exact pre-failure state plus the durable
    tail.  A sketch whose workers died with unmerged rows refuses further
    queries with this error rather than serving stale answers.

    Since the self-healing pool landed, plain worker death no longer
    raises this: the pool respawns the worker and replays the journaled
    batches bit-identically (see :class:`repro.parallel.WorkerPool`).
    What still poisons a pool is a handler that *raises* twice in a row
    (a deterministic bug, not a fault) or a slot whose inline serial
    fallback also fails.
    """

