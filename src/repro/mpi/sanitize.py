"""Runtime collective sanitizer (TSan-style) for the simulated runtime.

With sanitize mode on (``TsConfig(sanitize=True)``, ``REPRO_SANITIZE=1``,
or ``SpmdSession(..., sanitize=True)``) every collective call first passes
through a side-channel exchange on a :class:`SanitizerBoard`: each rank
deposits a :class:`CollectiveRecord` — operation kind, user-code call
site, active phase, per-rank sequence number, and the operation's
consistency detail (fused section names, meta-header structure) — and the
snapshot is cross-validated *before* the real collective runs.

Divergence raises :class:`~repro.mpi.errors.CollectiveMismatchError`
naming every group of ranks with its call site, instead of the hang the
same bug produces on a real machine.  A collective some member can never
join (because its thread already finished the task) raises
:class:`~repro.mpi.errors.CollectiveStallError` listing who is waiting
where.  At task end the executor additionally asserts per-phase byte
conservation (:func:`check_byte_conservation`).

The consistency key deliberately excludes per-rank-legal values: payload
shapes and reduction operands differ across ranks in correct programs,
``split`` colors are rank-dependent by design, and a *root* disagreement
is left to the collective's own argument check (which raises
:class:`~repro.mpi.errors.CommMismatchError` inside the rank, preserving
the runtime's long-standing error surface).  Call sites are recorded and
reported but not compared — the same collective issued from two branches
of a rank-dependent ``if`` is legal SPMD as long as the kinds agree.

Overhead: one condition-variable exchange per collective per rank, and a
few strings per record.  Measured on the tier-1 suite this is a small
constant factor on *wall* time and exactly zero on the *virtual* clocks —
sanitizer traffic is never charged.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import (
    ByteConservationError,
    CollectiveMismatchError,
    CollectiveStallError,
    SpmdAbort,
)

#: Environment variable turning the sanitizer on globally (CI switch).
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = {"1", "true", "yes", "on"}

#: Directory of the runtime itself; frames from here are skipped when
#: attributing a collective to a user-code call site.
_RUNTIME_DIR = os.path.dirname(os.path.abspath(__file__))


def sanitize_enabled(override: Optional[bool] = None) -> bool:
    """Resolve the effective sanitize setting.

    An explicit ``True`` wins; otherwise the ``REPRO_SANITIZE``
    environment variable decides, so CI can sweep the whole suite through
    the sanitizer without touching call sites.
    """
    if override:
        return True
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY


def call_site() -> str:
    """``"path/file.py:line"`` of the nearest frame outside the runtime,
    starting from the caller's caller."""
    try:
        frame = sys._getframe(2)
    except ValueError:  # pragma: no cover - interpreter-startup edge
        return "<unknown>"
    while frame is not None:
        filename = frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(filename)) != _RUNTIME_DIR:
            return f"{_shorten(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


def _shorten(path: str) -> str:
    """Keep the last two path components — enough to identify a site."""
    parts = path.replace(os.sep, "/").split("/")
    return "/".join(parts[-2:]) if len(parts) >= 2 else path


def payload_summary(obj: Any) -> str:
    """A coarse, cheap description of a payload (diagnostics only).

    Shapes and values legitimately differ across ranks, so this is
    recorded in the event log and the error text but never compared.
    """
    dtype = getattr(obj, "dtype", None)
    shape = getattr(obj, "shape", None)
    if dtype is not None and shape is not None:
        return f"{type(obj).__name__}[{dtype}]{tuple(shape)}"
    if isinstance(obj, (list, tuple)):
        return f"{type(obj).__name__}(len={len(obj)})"
    return type(obj).__name__


def meta_structure(meta: Any) -> str:
    """Structural signature of a fused-exchange ``meta`` header.

    Values are per-rank by design (each rank ships its own header), but
    the *shape* of the agreement — None vs dict vs tuple, and a dict's
    key set — must be collectively consistent for the receiving control
    logic to make the same decision everywhere.
    """
    if meta is None:
        return "none"
    if isinstance(meta, dict):
        return "dict(" + ",".join(sorted(map(str, meta.keys()))) + ")"
    if isinstance(meta, (list, tuple)):
        return f"{type(meta).__name__}(len={len(meta)})"
    return type(meta).__name__


@dataclass(frozen=True)
class CollectiveRecord:
    """One rank's view of one collective call (sanitizer side channel)."""

    global_rank: int
    kind: str
    site: str
    phase: str
    seq: int
    #: Cross-checked consistency detail (e.g. fused section names,
    #: meta-header structure).  Must be hashable and rank-invariant in a
    #: correct program.
    detail: Tuple = ()
    #: Diagnostic-only payload description; never compared.
    payload: str = ""

    def key(self) -> Tuple:
        return (self.kind, self.phase, self.detail)

    def describe(self) -> str:
        extra = f", {'/'.join(map(str, self.detail))}" if self.detail else ""
        return f"{self.kind} at {self.site} (phase {self.phase!r}, seq {self.seq}{extra})"


class SanitizerBoard:
    """Condition-based record exchange for one communicator.

    Mirrors :meth:`repro.mpi.runtime.GroupContext.exchange` (deposit, read
    the full snapshot, then a release round so the board is reusable) but
    built on timed condition waits rather than :class:`threading.Barrier`
    — a barrier's ``wait(timeout)`` breaks the barrier for everyone,
    whereas a stalled sanitizer wait must be able to *observe* an abort or
    a finished peer and turn it into a diagnostic without poisoning the
    board for ranks that already deposited.
    """

    _POLL = 0.05  # seconds between abort/stall re-checks while waiting

    def __init__(self, size: int, global_ranks: Sequence[int], sanitizer: "TaskSanitizer"):
        self.size = size
        self.global_ranks = list(global_ranks)
        self._sanitizer = sanitizer
        self.cond = threading.Condition()
        self.slots: List[Optional[CollectiveRecord]] = [None] * size
        self.deposited = [False] * size
        self.round = 0
        self._read = 0

    def exchange(self, rank: int, record: CollectiveRecord, abort) -> List[CollectiveRecord]:
        """Deposit ``record``; return all members' records for this round."""
        with self.cond:
            my_round = self.round
            self.slots[rank] = record
            self.deposited[rank] = True
            self.cond.notify_all()
            while not all(self.deposited):
                if abort.aborted:
                    raise SpmdAbort("collective sanitizer released by task abort")
                finished = self._sanitizer.finished_members(self.global_ranks)
                if finished:
                    raise self._stall_error(finished)
                self.cond.wait(timeout=self._POLL)
            snapshot = [s for s in self.slots if s is not None]
            # Release round: the last reader resets the board; everyone
            # else waits for the round counter so no rank can re-deposit
            # over an unread snapshot.
            self._read += 1
            if self._read == self.size:
                self._read = 0
                self.deposited = [False] * self.size
                self.round += 1
                self.cond.notify_all()
            else:
                while self.round == my_round:
                    if abort.aborted:
                        raise SpmdAbort(
                            "collective sanitizer released by task abort"
                        )
                    self.cond.wait(timeout=self._POLL)
        return snapshot

    def _stall_error(self, finished: List[int]) -> CollectiveStallError:
        waiting = []
        ranks = []
        sites = []
        for r in range(self.size):
            rec = self.slots[r]
            if self.deposited[r] and rec is not None:
                waiting.append(f"rank {rec.global_rank} at {rec.describe()}")
                ranks.append(rec.global_rank)
                sites.append(rec.site)
        message = (
            "collective cannot complete: "
            + "; ".join(waiting)
            + f"; rank(s) {finished} already finished the task"
        )
        return CollectiveStallError(message, ranks=ranks, call_sites=sites)


class TaskSanitizer:
    """Per-task sanitizer state shared by all ranks (and sub-communicators).

    Holds one :class:`SanitizerBoard` per communicator (memoized by group
    context identity), the per-rank collective sequence counters, and the
    set of ranks whose programs already returned — the signal that turns
    a would-be hang into :class:`CollectiveStallError`.
    """

    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._boards: Dict[int, SanitizerBoard] = {}
        self._finished: set = set()
        # Indexed by global rank; each slot is touched only by its own
        # rank thread, so no lock is needed for the counter itself.
        self._seq = [0] * size

    def next_seq(self, global_rank: int) -> int:
        seq = self._seq[global_rank]
        self._seq[global_rank] = seq + 1
        return seq

    def board_for(self, ctx) -> SanitizerBoard:
        with self._lock:
            board = self._boards.get(id(ctx))
            if board is None:
                board = SanitizerBoard(ctx.size, ctx.global_ranks, self)
                self._boards[id(ctx)] = board
            return board

    def mark_finished(self, global_rank: int) -> None:
        """Record that ``global_rank``'s program returned; wake waiters."""
        with self._lock:
            self._finished.add(global_rank)
            boards = list(self._boards.values())
        for board in boards:
            with board.cond:
                board.cond.notify_all()

    def finished_members(self, global_ranks: Sequence[int]) -> List[int]:
        with self._lock:
            return [r for r in global_ranks if r in self._finished]


def validate_snapshot(snapshot: Sequence[CollectiveRecord]) -> None:
    """Raise :class:`CollectiveMismatchError` when records diverge."""
    groups: Dict[Tuple, List[CollectiveRecord]] = {}
    for rec in snapshot:
        groups.setdefault(rec.key(), []).append(rec)
    if len(groups) <= 1:
        return
    parts = []
    ranks: List[int] = []
    sites: List[str] = []
    for records in groups.values():
        members = [r.global_rank for r in records]
        ranks.extend(members)
        sites.append(records[0].site)
        parts.append(f"rank(s) {members} called {records[0].describe()}")
    raise CollectiveMismatchError(
        "collective mismatch across ranks: " + " | ".join(parts),
        ranks=ranks,
        call_sites=sites,
    )


def check_byte_conservation(rank_stats) -> None:
    """Assert per-phase sent == received bytes, summed over ranks.

    Every collective books each transferred byte once on its sender and
    once on its receiver under the same phase, so for collective-only
    phases the sums match exactly.  Point-to-point traffic matches only
    when every send is received — and received while the destination is
    in the same-named phase — which is precisely the charging discipline
    the lint's S4 rule demands.
    """
    sent: Dict[str, int] = {}
    recv: Dict[str, int] = {}
    for rs in rank_stats:
        for name, ps in rs.phases.items():
            sent[name] = sent.get(name, 0) + ps.bytes_sent
            recv[name] = recv.get(name, 0) + ps.bytes_recv
    bad = []
    for name in sorted(set(sent) | set(recv)):
        s, r = sent.get(name, 0), recv.get(name, 0)
        if s != r:
            bad.append(f"phase {name!r}: sent {s} B != received {r} B")
    if bad:
        raise ByteConservationError(
            "per-phase byte conservation violated at task end: "
            + "; ".join(bad)
        )
