"""Thread-per-rank SPMD executor: one-shot runs and resident sessions.

:func:`run_spmd` is the single entry point used by every distributed
algorithm, example and benchmark in this repository: it executes
``fn(comm, *args, **kwargs)`` on ``size`` simulated ranks, each against its
own :class:`~repro.mpi.comm.SimComm`, and returns the per-rank results
together with an :class:`~repro.mpi.stats.SpmdReport` of modelled time and
traffic.

:class:`SpmdSession` is the resident variant behind iterative drivers
(:class:`~repro.core.driver.TsSession`, the baseline sessions): ``size``
worker threads are started **once** and then fed one task per call to
:meth:`SpmdSession.run`.  Each task gets fresh virtual clocks, statistics
and a fresh :class:`~repro.mpi.runtime.GroupContext` (so its report covers
only that task's incremental cost, and communicators never leak between
tasks), but the threads — and whatever rank-resident state the caller
threads through ``fn``'s closure — persist.  A multi-level MS-BFS thus
spawns ``p`` threads once per traversal instead of once per level.
``run_spmd`` itself is now a create–run–close :class:`SpmdSession`.

Failure semantics mirror ``MPI_Abort``: the first rank to raise triggers a
task-wide abort that releases every peer blocked in a collective or a
receive; the original traceback is re-raised as
:class:`~repro.mpi.errors.RankError` and the session transitions to
*dead* — further :meth:`~SpmdSession.run` calls are refused, exactly like
a communicator after ``MPI_Abort``.  A watchdog timeout converts genuine
communication-pattern deadlocks into
:class:`~repro.mpi.errors.DeadlockError` instead of hanging the caller.

Memory: :class:`SpmdSession` caps glibc at one malloc arena before it
starts its workers.  Per-thread arenas each keep, trim and re-fault their
own heap, so ``p`` rank threads would peak near the sum of ``p`` per-rank
high-water marks; a rank allocates under the GIL, so they never bought
allocation parallelism.  The setting is process-wide, limits only arenas
created after the call, and applies to glibc only.
"""

from __future__ import annotations

import ctypes
import queue
import threading
import time as _time
from typing import Any, Callable, List, Optional, Tuple

from .clock import VirtualClock
from .comm import SimComm
from .costmodel import PERLMUTTER, MachineProfile
from .errors import (
    DeadlockError,
    DeadSessionError,
    InjectedCrashFault,
    InjectedPermanentFault,
    RankError,
    SanitizerError,
    SpmdAbort,
)
from .faults import (
    FaultInjector,
    RankFailure,
    default_timeout,
    failure_kind,
    is_recoverable_failure,
)
from .runtime import AbortController, GroupContext
from .sanitize import TaskSanitizer, check_byte_conservation, sanitize_enabled
from .stats import RankStats, SpmdReport

#: Seconds ``close`` and ``shrink`` wait for each worker to exit before
#: abandoning it as a daemon thread.
JOIN_GRACE_S = 2.0


class SpmdResult:
    """Return value of :func:`run_spmd` / :meth:`SpmdSession.run`.

    Attributes
    ----------
    values:
        ``values[i]`` is whatever rank ``i``'s function returned.
    report:
        Modelled makespan, per-phase traffic and per-rank statistics.
    """

    def __init__(self, values: List[Any], report: SpmdReport):
        self.values = values
        self.report = report

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i: int) -> Any:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


class _SpmdTask:
    """One unit of work dispatched to every worker of a session.

    Owns the per-task runtime state: a fresh abort controller and group
    context (communicators must not leak between tasks), fresh clocks and
    statistics (so the task's report is incremental), the result slots and
    the first-error record.
    """

    def __init__(self, size: int, fn: Callable, args: tuple, kwargs: dict,
                 machine: MachineProfile,
                 sanitizer: Optional[TaskSanitizer] = None,
                 injector: Optional[FaultInjector] = None,
                 checksum: bool = False):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.machine = machine
        self.sanitizer = sanitizer
        self.injector = injector
        self.checksum = checksum
        self.abort = AbortController()
        self.ctx = GroupContext(size, self.abort, list(range(size)))
        self.clocks = [VirtualClock() for _ in range(size)]
        self.stats = [RankStats(rank=r) for r in range(size)]
        self.results: List[Any] = [None] * size
        self.completed = [False] * size
        #: Ranks whose worker thread must exit after this task — an
        #: injected crash simulates process death, not just a task error.
        self.worker_exit = [False] * size
        self.error: Optional[Tuple[int, BaseException]] = None
        self.cond = threading.Condition()
        self.done = 0

    def execute(self, rank: int) -> None:
        comm = SimComm(
            self.ctx, rank, self.machine, self.clocks[rank], self.stats[rank],
            self.sanitizer, self.injector, self.checksum,
        )
        try:
            self.results[rank] = self.fn(comm, *self.args, **self.kwargs)
        except SpmdAbort:
            pass  # collateral of another rank's failure
        except BaseException as exc:  # noqa: BLE001 - must catch everything
            if isinstance(exc, InjectedCrashFault):
                self.worker_exit[rank] = True
            with self.cond:
                if self.error is None:
                    self.error = (rank, exc)
            self.abort.abort()
        finally:
            if self.sanitizer is not None:
                # Wakes peers waiting on a sanitizer board for this rank:
                # a collective it can no longer join becomes a
                # CollectiveStallError diagnostic instead of a hang.
                self.sanitizer.mark_finished(self.ctx.global_ranks[rank])
            with self.cond:
                self.done += 1
                self.completed[rank] = True
                self.cond.notify_all()

    def report(self) -> SpmdReport:
        return SpmdReport(
            size=len(self.clocks),
            rank_stats=self.stats,
            clocks=[c.now for c in self.clocks],
            comm_times=[c.comm_time for c in self.clocks],
            compute_times=[c.compute_time for c in self.clocks],
        )


def _one_malloc_arena() -> None:
    """``mallopt(M_ARENA_MAX, 1)``; a no-op where libc has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-8, 1)  # M_ARENA_MAX in <malloc.h>


def _session_worker(rank: int, tasks: "queue.Queue") -> None:
    """Worker loop: execute tasks until the ``None`` shutdown sentinel.

    A module-level function on purpose: workers hold references only to
    their task queue, never to the owning :class:`SpmdSession`, so a
    dropped session is reference-collected promptly and its finalizer can
    shut the threads down.
    """
    while True:
        task = tasks.get()
        if task is None:
            return
        task.execute(rank)
        if task.worker_exit[rank]:
            # Injected crash: this worker is a dead process.  A
            # recoverable session respawns a fresh thread on the same
            # queue (safe: every task carries a fresh GroupContext).
            return


class SpmdSession:
    """A resident pool of ``size`` SPMD rank workers.

    Threads are started in the constructor and fed one :class:`_SpmdTask`
    per :meth:`run` call; rank-resident state lives in whatever the
    caller's ``fn`` closes over (e.g. :class:`~repro.core.driver.TsSession`
    threads its per-rank blocks through).  The session dies — refusing all
    further tasks — as soon as any task fails or deadlocks, and is shut
    down explicitly with :meth:`close` (idempotent; also invoked by the
    finalizer so abandoned sessions do not leak threads).
    """

    def __init__(
        self,
        size: int,
        *,
        machine: MachineProfile = PERLMUTTER,
        sanitize: Optional[bool] = None,
        recoverable: bool = False,
        injector: Optional[FaultInjector] = None,
        checksum: bool = False,
        respawn_budget: Optional[int] = None,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if respawn_budget is not None and respawn_budget < 0:
            raise ValueError(
                f"respawn_budget must be >= 0 when given, got {respawn_budget}"
            )
        self.size = size
        self.machine = machine
        #: Watchdog timeout: REPRO_SPMD_TIMEOUT, else 600 s.
        self.timeout = default_timeout()
        #: Resolved sanitize setting: an explicit True wins, otherwise
        #: the REPRO_SANITIZE environment variable decides.
        self.sanitize = sanitize_enabled(sanitize)
        #: Recoverable mode: a task failing with an *environment* fault
        #: (see :func:`~repro.mpi.faults.is_recoverable_failure`) leaves
        #: the session *degraded* instead of dead — crashed workers are
        #: respawned and the caller may retry after restoring state.
        self.recoverable = recoverable
        self.injector = injector
        self.checksum = checksum
        #: Crashed-worker respawn budget: ``None`` = unlimited.  Once
        #: ``respawns`` reaches the budget, a further rank crash is
        #: classified *shrinkable* (like an injected ``permfail``) — the
        #: worker is not respawned and the caller must :meth:`shrink`.
        self.respawn_budget = respawn_budget
        #: Workers respawned after injected crashes, over the lifetime.
        self.respawns = 0
        #: Completed :meth:`shrink` operations, over the lifetime.
        self.shrinks = 0
        #: Rank whose worker is permanently gone; set when a shrinkable
        #: failure skips the respawn, cleared by :meth:`shrink`.  While
        #: set, new tasks are refused (they could never complete).
        self._pending_dead: Optional[int] = None
        #: Structured records of recoverable failures, in order.
        self.failures: List[RankFailure] = []
        #: True between a recoverable failure and the next successful task.
        self.degraded = False
        self._tasks_run = 0
        self._queues: List[queue.Queue] = [queue.Queue() for _ in range(size)]
        self._closed = False
        self._dead_reason: Optional[str] = None
        # Serializes concurrent run() callers: tasks must reach every
        # rank queue in the same order or two overlapping tasks deadlock
        # each other's collectives.
        self._run_lock = threading.Lock()
        # Guards the closed flag + queue feeding so a close() racing a
        # run() cannot slip shutdown sentinels in front of a task on
        # some rank queues (which would strand the task's collectives).
        # Held only around enqueues — close() never waits on a task.
        self._queue_lock = threading.Lock()
        _one_malloc_arena()
        self._threads = [self._spawn_worker(r) for r in range(size)]

    def _spawn_worker(self, rank: int) -> threading.Thread:
        t = threading.Thread(
            target=_session_worker,
            args=(rank, self._queues[rank]),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        t.start()
        return t

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dead_reason(self) -> Optional[str]:
        """Why the session died (``None`` while alive or merely closed)."""
        return self._dead_reason

    def close(self, *, join: bool = True) -> None:
        """Shut the workers down (idempotent).  Safe to call on a dead
        session; stuck workers are abandoned as daemons after a short
        join grace."""
        with self._queue_lock:
            if self._closed:
                return
            self._closed = True
            for q in self._queues:
                q.put(None)
        if join:
            for t in self._threads:
                t.join(timeout=JOIN_GRACE_S)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close(join=False)
        except Exception:
            pass

    def _kill(self, reason: str) -> None:
        self._dead_reason = reason
        self.close(join=False)

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        timeout: Optional[float] = None,
        system: bool = False,
        **kwargs: Any,
    ) -> SpmdResult:
        """Execute ``fn(comm, *args, **kwargs)`` on every resident rank.

        Raises :class:`RankError`/:class:`DeadlockError` on failure — and
        in either case marks the whole session dead: like a real job after
        ``MPI_Abort``, a session with ranks in an unknown state must not
        accept further collectives.  Concurrent callers are serialized
        (one task in flight at a time).

        ``system=True`` marks an out-of-band runtime task (health pings
        from a session pool): it does **not** advance the fault
        injector's task counter and runs with injection suspended, so
        probing a session's liveness never shifts the deterministic
        ``task=`` indices that fault plans and the resilience tests pin,
        and never consumes a fault meant for real work.
        """
        if system and self.injector is not None:
            with self.injector.suspend():
                return self._run_task(
                    fn, args, kwargs, timeout, advance=False
                )
        return self._run_task(fn, args, kwargs, timeout, advance=not system)

    def _run_task(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        timeout: Optional[float],
        *,
        advance: bool,
    ) -> SpmdResult:
        with self._run_lock:
            sanitizer = TaskSanitizer(self.size) if self.sanitize else None
            if advance:
                if self.injector is not None:
                    self.injector.begin_task()
                self._tasks_run += 1
            task = _SpmdTask(
                self.size, fn, args, kwargs, self.machine, sanitizer,
                self.injector, self.checksum,
            )
            with self._queue_lock:
                if self._closed:
                    raise DeadSessionError(
                        "SPMD session is closed"
                        + (
                            f" (aborted: {self._dead_reason})"
                            if self._dead_reason
                            else ""
                        )
                        + "; create a new session",
                        reason=self._dead_reason or "",
                    )
                if self._pending_dead is not None:
                    # The lost rank has no worker: a task queued now could
                    # never complete its collectives.  Fail fast instead
                    # of letting the watchdog fire.
                    raise DeadSessionError(
                        f"rank {self._pending_dead} is permanently lost; "
                        "shrink() the session before running further tasks",
                        reason=f"rank {self._pending_dead} permanently lost",
                    )
                for q in self._queues:
                    q.put(task)

            deadline = _time.monotonic() + (
                self.timeout if timeout is None else timeout
            )
            timed_out = False
            with task.cond:
                while task.done < self.size:
                    remaining = deadline - _time.monotonic()
                    if remaining <= 0:
                        timed_out = True
                        break
                    task.cond.wait(remaining)
            stuck_ranks: List[int] = []
            if timed_out:
                # Snapshot who is blocked *now* — the abort below releases
                # abort-aware waits, so a post-grace reading would show an
                # empty set and lose the diagnostic.
                with task.cond:
                    stuck_ranks = [
                        r for r in range(self.size) if not task.completed[r]
                    ]
                task.abort.abort()
                grace = _time.monotonic() + 5.0
                with task.cond:
                    while task.done < self.size and _time.monotonic() < grace:
                        task.cond.wait(0.5)

            if task.error is not None:
                rank, exc = task.error
                if isinstance(exc, SanitizerError):
                    # A cross-rank structured finding, not one rank's bug:
                    # surface it directly instead of wrapping in RankError.
                    self._kill(f"sanitizer: {type(exc).__name__}: {exc}")
                    raise exc
                if self.recoverable and is_recoverable_failure(exc):
                    # Environment fault in a recoverable session: degrade
                    # instead of die.  Crashed workers are respawned on
                    # the same queues; the caller restores state from its
                    # checkpoints and retries.  Two losses are *not*
                    # respawned — a permanent fault, and a crash past the
                    # respawn budget: those are classified shrinkable and
                    # the caller must migrate state to a p-1 world.
                    budget_spent = (
                        self.respawn_budget is not None
                        and self.respawns >= self.respawn_budget
                    )
                    shrinkable = task.worker_exit[rank] and (
                        isinstance(exc, InjectedPermanentFault) or budget_spent
                    )
                    failure = RankFailure(
                        task=self._tasks_run - 1,
                        rank=rank,
                        kind=failure_kind(exc),
                        error=exc,
                        phase=task.stats[rank].current_phase,
                        shrinkable=shrinkable,
                    )
                    self.failures.append(failure)
                    self.degraded = True
                    for r in range(self.size):
                        if not task.worker_exit[r]:
                            continue
                        if shrinkable and r == rank:
                            self._pending_dead = rank
                            continue
                        self._threads[r] = self._spawn_worker(r)
                        self.respawns += 1
                    err = RankError(rank, exc)
                    err.failure = failure
                    # Partial report of the failed attempt: the retry
                    # loop merges it so aborted work is still charged.
                    err.report = task.report()
                    raise err from exc
                self._kill(
                    f"rank {rank} raised {type(exc).__name__}: {exc}"
                )
                raise RankError(rank, exc) from exc
            if timed_out:
                stuck = [f"spmd-rank-{r}" for r in stuck_ranks]
                detail = ""
                if task.sanitizer is not None:
                    last = [
                        f"rank {r} last issued "
                        f"{task.stats[r].events[-1].kind} at "
                        f"{task.stats[r].events[-1].site}"
                        for r in stuck_ranks
                        if task.stats[r].events
                    ]
                    if last:
                        detail = "; " + "; ".join(last)
                self._kill("watchdog timeout")
                raise DeadlockError(
                    f"SPMD run exceeded "
                    f"{self.timeout if timeout is None else timeout}s "
                    f"watchdog; blocked threads: {stuck}" + detail
                )
            if task.sanitizer is not None:
                check_byte_conservation(task.stats)
            self.degraded = False
            return SpmdResult(list(task.results), task.report())

    def shrink(self, dead_rank: int) -> None:
        """Remove ``dead_rank`` from the world: continue at ``size - 1``.

        The executor half of elastic degraded-mode recovery
        (docs/resilience.md): surviving workers are cycled onto a fresh
        ``size-1`` queue set — safe because every task carries a fresh
        :class:`~repro.mpi.runtime.GroupContext` and rank-resident state
        lives in driver closures keyed by the *new* rank ids, which the
        driver remaps before the next task.  State migration itself
        (blocks, plans, handles) is the driver's job
        (:meth:`repro.core.driver.TsSession.shrink`).
        """
        with self._run_lock:
            if self._closed:
                raise DeadSessionError(
                    "cannot shrink a closed session",
                    reason=self._dead_reason or "",
                )
            if not 0 <= dead_rank < self.size:
                raise ValueError(
                    f"dead_rank must be in [0, {self.size}), got {dead_rank}"
                )
            if self.size < 2:
                raise ValueError("cannot shrink a 1-rank world")
            dead_has_worker = self._pending_dead != dead_rank
            with self._queue_lock:
                for r, q in enumerate(self._queues):
                    if r != dead_rank or dead_has_worker:
                        q.put(None)
            for r, t in enumerate(self._threads):
                if r != dead_rank or dead_has_worker:
                    t.join(timeout=JOIN_GRACE_S)
            self.size -= 1
            self._queues = [queue.Queue() for _ in range(self.size)]
            self._threads = [self._spawn_worker(r) for r in range(self.size)]
            self._pending_dead = None
            self.shrinks += 1

    def ping(self, timeout: float = 30.0) -> bool:
        """Liveness probe: run a barrier as a *system* task.

        Returns ``True`` iff every rank worker joined the barrier within
        ``timeout``.  A failed ping kills the session (watchdog
        semantics: unresponsive ranks mean an unknown collective state),
        so callers — the serving tier's session pool — respawn rather
        than retry.  System tasks leave fault-plan task indices and
        injection state untouched.
        """
        if self._closed:
            return False
        try:
            self.run(_ping_program, timeout=timeout, system=True)
            return True
        except (DeadSessionError, DeadlockError, RankError, SanitizerError):
            return False


def _ping_program(comm) -> None:
    """Health-probe rank program: one barrier proves every worker alive
    and the collective path responsive.  Kept module-level so repeated
    pings share one code object (and one spmdlint site)."""
    comm.barrier()


class ResidentSession:
    """Base for driver-side sessions holding rank-resident state.

    Owns the :class:`SpmdSession` executor and its lifecycle —
    ``closed``, ``close()``, context-manager support — so every resident
    session (:class:`repro.core.driver.TsSession` and the SUMMA
    baselines' :class:`repro.baselines.summa.SummaSession`) shares one
    implementation of the session contract and protocol changes happen
    in one place.  A
    subclass that *shares* another session's executor (derived
    edge-subset sessions) sets ``_owns_exec = False`` so its ``close()``
    leaves the parent's workers running.
    """

    _owns_exec = True

    def __init__(
        self,
        p: int,
        machine: MachineProfile = PERLMUTTER,
        sanitize: Optional[bool] = None,
        *,
        recoverable: bool = False,
        injector: Optional[FaultInjector] = None,
        checksum: bool = False,
        respawn_budget: Optional[int] = None,
    ):
        self.p = p
        self.machine = machine
        self._exec = SpmdSession(
            p,
            machine=machine,
            sanitize=sanitize,
            recoverable=recoverable,
            injector=injector,
            checksum=checksum,
            respawn_budget=respawn_budget,
        )

    def _run_setup(self, setup: Callable) -> List[Any]:
        """Run the one-time distribution task; record its report."""
        result = self._exec.run(setup)
        self.setup_report = result.report
        return list(result.values)

    @property
    def closed(self) -> bool:
        return self._exec.closed

    @property
    def dead_reason(self) -> Optional[str]:
        """Why the underlying executor died (``None`` while healthy)."""
        return self._exec.dead_reason

    def ping(self, timeout: float = 30.0) -> bool:
        """Health-check the resident rank workers (see
        :meth:`SpmdSession.ping`); ``False`` means the session is dead
        and must be replaced, not retried."""
        return self._exec.ping(timeout)

    def close(self) -> None:
        """Shut down the rank workers (idempotent; no-op for sessions
        that share another session's executor)."""
        if self._owns_exec:
            self._exec.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineProfile = PERLMUTTER,
    sanitize: Optional[bool] = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute ``fn(comm, *args, **kwargs)`` on ``size`` simulated ranks.

    Parameters
    ----------
    size:
        Number of simulated ranks (threads).  The thread-based runtime is
        exercised faithfully up to a few hundred ranks; larger scales are
        covered by the analytic model (``repro.model``).
    fn:
        The SPMD rank program.  Its first argument is the rank's
        :class:`SimComm`; remaining arguments are shared (treat as
        read-only, like memory behind a real network).
    machine:
        The α–β/compute cost profile to charge against.

    The watchdog (``REPRO_SPMD_TIMEOUT`` real seconds, default 600)
    aborts a run that has not finished and raises :class:`DeadlockError`.

    Returns
    -------
    SpmdResult
        Per-rank return values plus the :class:`SpmdReport`.
    """
    session = SpmdSession(size, machine=machine, sanitize=sanitize)
    try:
        return session.run(fn, *args, **kwargs)
    finally:
        session.close()
