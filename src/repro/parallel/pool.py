"""Fork-based ingest worker pool with task affinity and self-healing.

:class:`WorkerPool` is the one parallel execution primitive: long-lived
forked workers with *state ownership*.  Worker ``i`` of ``n`` owns a
fixed partition of a sketch's independent state (hash rows, time
shards, dyadic levels) for the life of the pool.  Each worker inherits
the full sketch via fork (copy-on-write, nothing is pickled on the way
in), applies every ``feed`` to its owned partition, and ships the
partition state back only on ``collect`` — the merge-at-finalize/
checkpoint model of the paper's independent-row observation.  A stock
``ProcessPoolExecutor`` cannot express this: its tasks land on
arbitrary idle workers, while row ownership needs every batch's row-``r``
slice to reach the *same* process that holds row ``r``'s trackers.

Batches and collected state travel in-band over each worker's duplex
pipe (pickled), so the pool runs wherever ``fork`` does.

Self-healing (the daemon-survivability contract)
------------------------------------------------
A long-lived service cannot afford PR 5's original semantics, where any
single worker death poisoned the whole pool and failed the batch.
:class:`WorkerPool` now detects a dead or hung worker (per-reply
deadlines + EOF), **respawns** it with capped exponential backoff, and
retries the failed batch *bit-identically*: the pool journals every
``feed`` payload since the last ``collect``, and a respawned worker — a
fresh fork of the master, whose partition state is exactly the
last-merged state — replays its slice of the journal before the retried
command.  This is bit-identical because payloads embed all randomness
(the sampled-AMS plan pre-draws its uniforms master-side *before*
dispatch) and the master's partition structures are never mutated
between merges.  When respawning keeps failing, the pool falls back to
running that worker's handler *inline* in the master process (the
partitions are disjoint, so mixing inline and forked workers is safe) —
the serial path, counted in :attr:`WorkerPool.serial_fallbacks`.  Only a
worker that *raises* twice (a deterministic handler bug, not a fault)
still poisons the pool with
:class:`~repro.parallel.errors.IngestError`.

Fault injection reaches pools through :func:`pool_faults` /
:func:`install_pool_faults` — a module-level plan (duck-typed to avoid
importing :mod:`repro.runtime.faults` here) scripting worker kills,
hung replies, respawn failures and reply-deadline overrides.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterator, Protocol, Sequence

from repro.parallel.errors import IngestError

_JOIN_TIMEOUT_S = 10.0

#: Grace window between SIGTERM and SIGKILL during forced shutdown.
#: Short on purpose: ``close(terminate=True)`` is already the impatient
#: path, so a worker ignoring SIGTERM gets seconds, not the full join
#: budget, before escalation.
_TERMINATE_GRACE_S = 2.0

#: Default per-reply deadline.  Generous on purpose: a false timeout is
#: harmless (the worker is respawned and the batch replayed to the same
#: bits, just slower), a hung daemon is not.
_DEFAULT_REPLY_DEADLINE_S = 600.0

#: Module-level scripted fault plan (see :func:`pool_faults`).
_pool_faults: Any | None = None


def install_pool_faults(plan: Any | None) -> None:
    """Install (or with ``None`` clear) the scripted pool fault plan.

    The plan is duck-typed — anything with ``pool_feed_actions()``,
    ``pool_respawn_should_fail()`` and a ``pool_reply_deadline_s``
    attribute works; in practice it is a
    :class:`repro.runtime.faults.FaultPlan`.  Module-level because pools
    are created deep inside sketches where tests cannot reach the
    constructor.
    """
    global _pool_faults
    _pool_faults = plan


@contextlib.contextmanager
def pool_faults(plan: Any) -> Iterator[None]:
    """Scoped :func:`install_pool_faults` (always uninstalls on exit)."""
    install_pool_faults(plan)
    try:
        yield
    finally:
        install_pool_faults(None)


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms  # sketchlint: disable=SL004,SL016 — capability probe, any failure means "no fork"
        return False


class WorkerHandler(Protocol):
    """What a sketch hands each forked worker (see ``_worker_handler``)."""

    def feed(self, payload: Any) -> None:
        """Apply one batch payload to the worker's owned partition."""

    def collect(self) -> Any:
        """Export the owned partition's state (pickled back to master)."""


class _WorkerGone(Exception):
    """Internal: a worker died or missed its reply deadline (healable)."""


class _WorkerRaised(Exception):
    """Internal: a worker's handler raised (carries the traceback)."""


def _worker_main(
    conn: Connection,
    handler_factory: Callable[[int, int], WorkerHandler],
    index: int,
    nworkers: int,
) -> None:
    """Command loop of one forked worker."""
    handler = handler_factory(index, nworkers)
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):  # master went away
            break
        if command == "exit":
            break
        if command == "hang":  # scripted fault: sleep without replying
            time.sleep(float(payload))
            continue
        try:
            if command == "feed":
                reply = ("ok", handler.feed(payload))
            elif command == "collect":
                reply = ("ok", handler.collect())
            else:
                raise ValueError(f"unknown worker command {command!r}")
        except BaseException:  # sketchlint: disable=SL004 — forwarded to master as an ("err", traceback) reply
            try:
                conn.send(("err", traceback.format_exc()))
            except Exception:  # sketchlint: disable=SL004 — master gone; nothing left to report to
                break
            continue
        try:
            conn.send(reply)
        except Exception:  # sketchlint: disable=SL004 — master gone; nothing left to report to
            break
    conn.close()


class WorkerPool:
    """``nworkers`` forked processes, each owning a state partition.

    ``handler_factory(index, nworkers)`` runs *inside* each forked child
    and returns the worker's handler; because the child is a fork of the
    master, the factory's closed-over sketch is the master's state at
    pool-creation time, shared copy-on-write.  The factory is retained
    master-side for healing: a respawned worker is a fresh fork of the
    *current* master (= state as of the last merge), and an inline
    fallback runs the factory in the master process itself.

    Parameters
    ----------
    nworkers:
        Pool width (>= 2; width 1 is the serial path, no pool needed).
    handler_factory:
        Builds worker ``index``'s handler; must be safe to re-run (both
        in fresh forks and inline).
    reply_deadline_s:
        Per-reply deadline in seconds; ``None`` uses the module default.
        A missed deadline is treated as a dead worker (kill + respawn +
        bit-identical replay), never as a lost batch.
    max_respawns:
        Fresh-fork attempts per incident before falling back to running
        the worker inline (serially, in the master process).
    backoff_base, backoff_factor, backoff_cap:
        Exponential backoff between consecutive respawn attempts,
        capped per sleep.
    sleep:
        Injectable sleep for deterministic tests.
    """

    def __init__(
        self,
        nworkers: int,
        handler_factory: Callable[[int, int], WorkerHandler],
        *,
        reply_deadline_s: float | None = None,
        max_respawns: int = 2,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_cap: float = 1.0,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if nworkers < 2:
            raise ValueError(f"a worker pool needs >= 2 workers, got {nworkers}")
        if not fork_available():
            raise IngestError(
                "parallel execution needs the fork start method; "
                "use workers=1 on this platform"
            )
        self._ctx = multiprocessing.get_context("fork")
        self.nworkers = nworkers
        self._handler_factory = handler_factory
        self._reply_deadline_s = reply_deadline_s
        self._max_respawns = max_respawns
        self._backoff_base = backoff_base
        self._backoff_factor = backoff_factor
        self._backoff_cap = backoff_cap
        self._sleep = time.sleep if sleep is None else sleep
        self._conns: list[Connection | None] = [None] * nworkers
        self._procs: list[multiprocessing.process.BaseProcess | None] = [
            None
        ] * nworkers
        self._inline: dict[int, WorkerHandler] = {}
        #: ``feed`` payload lists since the last ``collect`` — the replay
        #: script that makes a respawned worker bit-identical.
        self._journal: list[Sequence[Any]] = []
        self._closed = False
        #: Healing counters (surfaced via runtime health / tests).
        self.respawns = 0
        self.timeouts = 0
        self.serial_fallbacks = 0
        self.stuck_workers = 0
        for index in range(nworkers):
            self._spawn(index)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def pids(self) -> list[int]:
        """Child process ids (0 for an inline-fallback slot)."""
        return [proc.pid or 0 if proc is not None else 0 for proc in self._procs]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def inline_workers(self) -> list[int]:
        """Indices currently served by the inline serial fallback."""
        return sorted(self._inline)

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, index: int) -> None:
        """Fork a fresh worker for slot ``index``."""
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, self._handler_factory, index, self.nworkers),
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns[index] = parent
        self._procs[index] = proc

    def _discard_worker(self, index: int) -> None:
        """Kill and reap slot ``index``'s process, close its pipe."""
        proc = self._procs[index]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                self.stuck_workers += 1
        conn = self._conns[index]
        if conn is not None:
            try:
                conn.close()
            except Exception:  # sketchlint: disable=SL004,SL016 — best-effort fd cleanup
                pass
        self._procs[index] = None
        self._conns[index] = None

    def _deadline(self) -> float | None:
        """Effective per-reply deadline (fault plan can override)."""
        plan = _pool_faults
        override = getattr(plan, "pool_reply_deadline_s", None)
        if override is not None:
            return float(override)
        if self._reply_deadline_s is not None:
            return float(self._reply_deadline_s)
        return _DEFAULT_REPLY_DEADLINE_S

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #

    def _fail(self, index: int, cause: BaseException | str) -> None:
        proc = self._procs[index]
        alive = proc.is_alive() if proc is not None else False
        code = proc.exitcode if proc is not None else None
        pid = proc.pid if proc is not None else 0
        self.close(terminate=True)
        detail = cause if isinstance(cause, str) else type(cause).__name__
        raise IngestError(
            f"parallel worker {index} (pid {pid}) "
            + (
                f"raised:\n{detail}"
                if isinstance(cause, str)
                else f"became unreachable ({detail}; alive={alive}, "
                f"exitcode={code})"
            )
        ) from (None if isinstance(cause, str) else cause)

    def _recv(self, index: int) -> Any:
        """Await one reply from slot ``index`` under the deadline.

        Raises :class:`_WorkerGone` on death/timeout (healable) and
        :class:`_WorkerRaised` on a forwarded handler error.
        """
        conn = self._conns[index]
        if conn is None:
            raise _WorkerGone("no live process for slot")
        deadline = self._deadline()
        try:
            if deadline is not None and not conn.poll(deadline):
                self.timeouts += 1
                raise _WorkerGone(
                    f"no reply within {deadline}s (hung worker)"
                )
            status, value = conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerGone(f"connection lost: {type(exc).__name__}") from exc
        if status != "ok":
            raise _WorkerRaised(str(value))
        return value

    def _run_inline(self, index: int, command: str, payload: Any) -> Any:
        """Execute one command on slot ``index``'s inline handler."""
        handler = self._inline[index]
        if command == "feed":
            return handler.feed(payload)
        return handler.collect()

    def _replay_and_run(self, index: int, command: str, payload: Any) -> Any:
        """Bring a freshly-forked slot up to date, then run the command.

        The fork started from the master's last-merged partition state;
        replaying the journaled ``feed`` slices (in order) reproduces the
        dead worker's partition bit-for-bit, because payloads carry all
        randomness and feeds are deterministic given payload + state.
        """
        conn = self._conns[index]
        if conn is None:
            raise _WorkerGone("respawn produced no connection")
        for past in self._journal:
            conn.send(("feed", past[index]))
            self._recv(index)
        conn.send((command, payload))
        return self._recv(index)

    def _heal(
        self, index: int, command: str, payload: Any, cause: Exception
    ) -> Any:
        """Replace a dead/hung worker and retry its command bit-identically.

        Respawn attempts back off exponentially (capped); once the
        budget is spent the slot degrades to the inline serial fallback.
        A handler that *raises* during the retry is a deterministic bug:
        it poisons the pool (:class:`IngestError`), never loops.
        """
        plan = _pool_faults
        delay = self._backoff_base
        self._discard_worker(index)
        for attempt in range(self._max_respawns):
            if attempt > 0:
                self._sleep(min(delay, self._backoff_cap))
                delay *= self._backoff_factor
            self.respawns += 1
            if plan is not None and plan.pool_respawn_should_fail():
                continue  # scripted respawn failure (chaos tests)
            try:
                self._spawn(index)
                return self._replay_and_run(index, command, payload)
            except _WorkerGone:
                self._discard_worker(index)
            except _WorkerRaised as exc:
                self._fail(index, str(exc))
        # Respawn budget exhausted: degrade this slot to the serial path.
        self.serial_fallbacks += 1
        try:
            handler = self._handler_factory(index, self.nworkers)
            for past in self._journal:
                handler.feed(past[index])
            self._inline[index] = handler
            return self._run_inline(index, command, payload)
        except Exception as exc:  # sketchlint: disable=SL004 — _fail always raises IngestError
            self._fail(index, exc)

    def _apply_scripted_faults(self) -> None:
        """Kill or hang workers as scripted for this ``feed`` dispatch."""
        plan = _pool_faults
        if plan is None:
            return
        for index, action, arg in plan.pool_feed_actions():
            proc = self._procs[index]
            conn = self._conns[index]
            if index in self._inline or proc is None or conn is None:
                continue
            if action == "kill":
                if proc.pid:
                    os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=_JOIN_TIMEOUT_S)
            elif action == "hang":
                try:
                    conn.send(("hang", arg))
                except (BrokenPipeError, OSError):  # sketchlint: disable=SL016 — fault injection on a corpse; the roundtrip heals it
                    pass

    def _roundtrip(self, command: str, payloads: Sequence[Any]) -> list[Any]:
        """Send one command to every worker, gather every reply in order.

        All sends go out before any reply is awaited, so workers run
        concurrently; replies are drained in worker order (cheap — the
        slowest worker bounds the wall clock either way).  A worker that
        dies, hangs past the deadline, or errors is healed in place (see
        :meth:`_heal`); the batch result is bit-identical either way.
        """
        if self._closed:
            raise IngestError("worker pool is closed")
        results: list[Any] = [None] * self.nworkers
        done = [False] * self.nworkers
        for index in range(self.nworkers):
            if index in self._inline:
                continue  # ran after forked sends, in the await loop
            conn = self._conns[index]
            try:
                if conn is None:
                    raise _WorkerGone("no live process for slot")
                conn.send((command, payloads[index]))
            except (_WorkerGone, BrokenPipeError, OSError) as exc:
                results[index] = self._heal(
                    index, command, payloads[index],
                    exc if isinstance(exc, Exception) else _WorkerGone(str(exc)),
                )
                done[index] = True
        for index in range(self.nworkers):
            if done[index]:
                continue
            if index in self._inline:
                results[index] = self._run_inline(
                    index, command, payloads[index]
                )
                continue
            try:
                results[index] = self._recv(index)
            except _WorkerGone as exc:
                results[index] = self._heal(
                    index, command, payloads[index], exc
                )
            except _WorkerRaised as exc:
                # One bit-identical retry on a fresh worker; a second
                # raise inside _heal poisons the pool.
                results[index] = self._heal(
                    index, command, payloads[index], exc
                )
        return results

    def feed(self, payloads: Sequence[Any]) -> None:
        """Apply one per-worker payload list; blocks until all acked.

        The payload list is journaled (until the next :meth:`collect`)
        so a later healing respawn can replay it.
        """
        self._apply_scripted_faults()
        payloads = list(payloads)
        self._roundtrip("feed", payloads)
        self._journal.append(payloads)

    def collect(self) -> list[Any]:
        """Export every worker's owned partition state, in worker order.

        Clears the healing journal: the caller merges these states into
        the master, so a future respawn's fork already contains them.
        """
        results = self._roundtrip("collect", [None] * self.nworkers)
        self._journal.clear()
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _reap(
        self, proc: multiprocessing.process.BaseProcess, terminate: bool
    ) -> None:
        """Join one worker, escalating ``terminate()`` -> ``kill()``.

        The second ``join`` timing out as well means an unkillable
        (``D``-state) worker: it is counted and abandoned — workers are
        daemonic, so it can never hang interpreter shutdown.
        """
        if terminate and proc.is_alive():
            proc.terminate()
        proc.join(timeout=_TERMINATE_GRACE_S if terminate else _JOIN_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=_JOIN_TIMEOUT_S)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                self.stuck_workers += 1

    def close(self, terminate: bool = False) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not terminate:
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.send(("exit", None))
                except Exception:  # sketchlint: disable=SL004,SL016 — worker already dead; reap below handles it
                    pass
        for proc in self._procs:
            if proc is not None:
                self._reap(proc, terminate)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except Exception:  # sketchlint: disable=SL004,SL016 — best-effort fd cleanup on shutdown
                pass
        self._inline.clear()
        self._journal.clear()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close(terminate=True)
        except Exception:  # sketchlint: disable=SL004 — finalizers must never raise
            pass

