"""Shared thread-synchronization state behind the simulated MPI runtime.

Three pieces live here:

* :class:`Mailbox` — one per rank per communicator; a condition-protected
  queue of in-flight point-to-point messages supporting tag/source
  matching, exactly like MPI's matching rules (``ANY_SOURCE``/``ANY_TAG``).
* :class:`GroupContext` — the state shared by all member ranks of one
  communicator: a cyclic barrier, a deposit board for collectives, the
  mailboxes, and the registry of child contexts created by ``split``.
* :class:`AbortController` — run-wide kill switch.  When any rank raises,
  the executor aborts every barrier and wakes every mailbox so peer ranks
  unwind with :class:`~repro.mpi.errors.SpmdAbort` instead of deadlocking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .errors import SpmdAbort

#: Wildcards accepted by ``recv`` for source and tag matching.
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Message:
    """One in-flight point-to-point message."""

    source: int
    tag: int
    payload: Any
    nbytes: int
    #: Virtual time at which the last byte is available at the receiver.
    available_at: float


class AbortController:
    """Run-wide abort fan-out.

    Every barrier and mailbox created anywhere in the run registers here;
    :meth:`abort` breaks them all, releasing blocked threads.
    """

    def __init__(self) -> None:
        self.event = threading.Event()
        self._lock = threading.Lock()
        self._barriers: List[threading.Barrier] = []
        self._mailboxes: List["Mailbox"] = []

    @property
    def aborted(self) -> bool:
        return self.event.is_set()

    def register_barrier(self, barrier: threading.Barrier) -> None:
        with self._lock:
            self._barriers.append(barrier)
            if self.event.is_set():
                barrier.abort()

    def register_mailbox(self, mailbox: "Mailbox") -> None:
        with self._lock:
            self._mailboxes.append(mailbox)

    def abort(self) -> None:
        self.event.set()
        with self._lock:
            for barrier in self._barriers:
                barrier.abort()
            for mailbox in self._mailboxes:
                with mailbox.cond:
                    mailbox.cond.notify_all()

    def check(self) -> None:
        """Raise :class:`SpmdAbort` if some rank already failed."""
        if self.event.is_set():
            raise SpmdAbort("run aborted by a failing rank")


class Mailbox:
    """Tag/source-matched message queue for one destination rank."""

    def __init__(self, abort: AbortController) -> None:
        self.cond = threading.Condition()
        self.messages: List[Message] = []
        self._abort = abort
        abort.register_mailbox(self)

    def put(self, message: Message) -> None:
        with self.cond:
            self.messages.append(message)
            self.cond.notify_all()

    def _match(self, source: int, tag: int) -> Optional[int]:
        for i, msg in enumerate(self.messages):
            if source != ANY_SOURCE and msg.source != source:
                continue
            if tag != ANY_TAG and msg.tag != tag:
                continue
            return i
        return None

    def get(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Block until a matching message arrives; FIFO per (source, tag)."""
        with self.cond:
            while True:
                if self._abort.aborted:
                    raise SpmdAbort("run aborted while waiting in recv")
                idx = self._match(source, tag)
                if idx is not None:
                    return self.messages.pop(idx)
                self.cond.wait(timeout=0.1)


class GroupContext:
    """State shared by the member threads of one communicator.

    ``global_ranks[i]`` is the root-communicator rank of group rank ``i``;
    the root context maps to itself.  Two deposit ``boards`` used
    alternately plus the cyclic ``barrier`` implement an all-to-all value
    exchange (see :meth:`exchange`) from which every collective is built.
    """

    def __init__(self, size: int, abort: AbortController, global_ranks: List[int]):
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        if len(global_ranks) != size:
            raise ValueError("global_ranks length must equal size")
        self.size = size
        self.abort = abort
        self.global_ranks = list(global_ranks)
        self.barrier = threading.Barrier(size)
        abort.register_barrier(self.barrier)
        self.boards: Tuple[List[Any], List[Any]] = ([None] * size, [None] * size)
        # Which board each rank deposits into next: every rank performs the
        # same exchanges in the same order, so the parities agree.
        self._turn = [0] * size
        self.mailboxes = [Mailbox(abort) for _ in range(size)]
        # split bookkeeping: all member ranks execute collectives in the
        # same order, so a per-rank count of exchanges performed uniquely
        # identifies each split call site without extra synchronization.
        self._children_lock = threading.Lock()
        self.child_contexts: Dict[Tuple[int, Any], "GroupContext"] = {}

    def exchange(self, rank: int, value: Any) -> List[Any]:
        """Deposit ``value`` and return the list deposited by all ranks.

        One barrier publishes all deposits; exchange ``k`` uses board
        ``k % 2``.  That is enough to make the boards reusable: a rank can
        deposit for exchange ``k + 2`` only after passing the barrier of
        ``k + 1``, which every rank reaches only after it has read its
        snapshot of ``k`` — so by then nobody still reads the board of
        ``k``.  A failing rank breaks the barrier and every peer leaves
        with :class:`SpmdAbort`, as before.
        """
        self.abort.check()
        turn = self._turn[rank]
        self._turn[rank] = turn ^ 1
        board = self.boards[turn]
        board[rank] = value
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise SpmdAbort("collective aborted by a failing rank") from None
        return list(board)

    def create_child(
        self, key: Tuple[int, Any], size: int, global_ranks: List[int]
    ) -> "GroupContext":
        """Create (once) and memoize the child context for a split group."""
        with self._children_lock:
            ctx = self.child_contexts.get(key)
            if ctx is None:
                ctx = GroupContext(size, self.abort, global_ranks)
                self.child_contexts[key] = ctx
            return ctx
