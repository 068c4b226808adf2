"""Error types raised by the simulated message-passing runtime.

The runtime executes one Python thread per simulated rank.  When any rank
raises, the executor aborts every synchronization primitive so the peer
ranks unwind instead of deadlocking; those peers observe :class:`SpmdAbort`
while the original exception is re-raised (wrapped in :class:`RankError`)
from :func:`repro.mpi.executor.run_spmd`.

Diagnostic errors — everything the runtime can say about *which ranks* and
*which call sites* were involved — share the :class:`SpmdDiagnosticError`
base so tooling can extract ``ranks``/``call_sites`` uniformly.  The
sanitizer-mode checks (``REPRO_SANITIZE=1``) raise the
:class:`SanitizerError` family: these are structured cross-rank findings
and are surfaced *directly* by :meth:`repro.mpi.executor.SpmdSession.run`
rather than wrapped in :class:`RankError`.
"""

from __future__ import annotations

from typing import Sequence


class SpmdError(RuntimeError):
    """Base class for all simulated-MPI runtime errors."""


class SpmdDiagnosticError(SpmdError):
    """Base for errors that can name the ranks and call sites involved.

    Attributes
    ----------
    ranks:
        Global ranks involved in the failure (possibly empty when the
        error predates rank attribution, e.g. a closed-session refusal).
    call_sites:
        ``"path:line"`` strings of the user-code frames involved.
    """

    def __init__(
        self,
        message: str,
        *,
        ranks: Sequence[int] = (),
        call_sites: Sequence[str] = (),
    ):
        super().__init__(message)
        self.ranks = tuple(ranks)
        self.call_sites = tuple(call_sites)


class SpmdAbort(SpmdDiagnosticError):
    """Raised inside surviving ranks after some other rank failed.

    This mirrors how a real MPI job is torn down by ``MPI_Abort``: ranks
    blocked in collectives or receives are released with an error rather
    than left hanging.
    """


class RankError(SpmdDiagnosticError):
    """Wraps the first exception raised by a rank program.

    Attributes
    ----------
    rank:
        The simulated rank whose program raised.
    original:
        The underlying exception instance.
    """

    def __init__(self, rank: int, original: BaseException):
        self.rank = rank
        self.original = original
        super().__init__(
            f"rank {rank} failed: {type(original).__name__}: {original}",
            ranks=(rank,),
        )


class CommMismatchError(SpmdDiagnosticError):
    """A collective was called with inconsistent arguments across ranks.

    Examples: differing ``root`` in a broadcast, or an ``alltoallv`` where a
    rank supplied the wrong number of per-destination buffers.  Raised
    *inside* the offending rank program (and therefore reaches the caller
    wrapped in :class:`RankError`).
    """


class DeadlockError(SpmdDiagnosticError):
    """The executor's watchdog timeout expired while ranks were blocked.

    In a correct SPMD program this indicates a communication-pattern bug
    (e.g. a receive with no matching send); the timeout converts an
    infinite hang into a test failure.
    """


class DeadSessionError(SpmdDiagnosticError):
    """A task was submitted to a session that already died or was closed.

    ``reason`` round-trips whatever :meth:`SpmdSession._kill` recorded when
    the session transitioned to dead — the original failure is named in
    every subsequent refusal instead of a bare "session is closed".
    """

    def __init__(self, message: str, *, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class InjectedFault(SpmdDiagnosticError):
    """Base for failures raised by the deterministic fault injector.

    These model *environment* failures (a dying node, a flaky link), not
    program bugs: in a session with ``recoverable=True`` they transition
    the session to *degraded* instead of *dead* so the driver can restore
    state from a checkpoint and retry (see ``docs/resilience.md``).

    Attributes
    ----------
    spec:
        The :class:`~repro.mpi.faults.FaultSpec` that fired, when known.
    """

    def __init__(self, message, *, ranks=(), spec=None):
        super().__init__(message, ranks=ranks)
        self.spec = spec


class InjectedCrashFault(InjectedFault):
    """Injected rank crash: the rank's worker dies with its resident state.

    Models a node failure.  The executor treats the worker thread as a
    dead process — a recoverable session respawns it and the driver must
    rebuild the lost rank's resident blocks (from a checkpoint replica,
    or from scratch under ``checkpoint="off"``).
    """


class InjectedTransientFault(InjectedFault):
    """Injected transient collective failure (flaky link / timeout).

    The rank and its state survive; the task fails and is simply retried
    after restoring the failed rank's operands from the last checkpoint.
    """


class InjectedPermanentFault(InjectedCrashFault):
    """Injected *permanent* rank loss: the node is gone for good.

    Subclasses :class:`InjectedCrashFault` because the immediate runtime
    effect is identical (the worker dies with its resident state), but the
    executor never respawns the rank: the failure is classified as
    *shrinkable* and the driver's elastic path migrates the lost rank's
    blocks to survivors and re-prepares for a ``p-1`` world
    (``docs/resilience.md``, degraded-mode section).
    """


class ShrinkRefusedError(SpmdDiagnosticError):
    """An elastic shrink was requested but cannot be performed.

    Raised when a permanently lost rank's state is unrecoverable — the
    session runs with ``checkpoint="off"`` (no replica of the dead rank's
    blocks exists), or the world is already at its minimum size.  The
    session transitions to dead; pool-level respawn is the only recourse.
    """


class PayloadCorruptionError(SpmdDiagnosticError):
    """A receiver's checksum did not match the sender's payload.

    Raised inside the receiving rank program when the session runs with
    ``checksum=True`` and an injected ``corrupt`` fault flipped bytes on
    the wire.  Recoverable: the payload is re-derivable from resident
    state, so the driver retries the task.
    """


class SanitizerError(SpmdDiagnosticError):
    """Base for findings of the runtime collective sanitizer.

    Unlike ordinary rank exceptions these are *cross-rank* findings: the
    executor re-raises them as-is (not wrapped in :class:`RankError`) so
    callers see the structured diagnostic directly.
    """


class CollectiveMismatchError(SanitizerError):
    """Sanitizer: ranks issued diverging collectives at a sync point.

    Names the operation kind, call site, phase and sequence number each
    group of ranks presented, e.g. rank 0 calling ``bcast`` at one line
    while the others sit in ``allreduce`` at another — the class of bug
    that hangs a real MPI job.
    """


class CollectiveStallError(SanitizerError):
    """Sanitizer: a collective can never complete because members left.

    Some ranks arrived at the collective while at least one member of the
    same communicator already finished its rank program — the collective
    would wait forever.  Lists the waiting ranks with their call sites and
    the ranks that already returned.
    """


class ByteConservationError(SanitizerError):
    """Sanitizer: per-phase sent and received bytes do not balance.

    Checked at task end: every byte booked as sent in a phase must be
    booked as received in the same phase by its destination (collectives
    guarantee this by construction; point-to-point traffic breaks it when
    a message is never received or the receiver books it under a
    different phase than the sender).
    """
