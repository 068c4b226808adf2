"""Collective operations of the simulated communicator.

Implemented as a mixin consumed by :class:`repro.mpi.comm.SimComm`.  Every
collective follows the same recipe:

1. each rank deposits ``(payload, entry_time, consistency-metadata)`` on the
   communicator's exchange board (one barrier; two boards used in turn);
2. consistency metadata (e.g. the ``root`` argument) is cross-checked and a
   :class:`~repro.mpi.errors.CommMismatchError` is raised on divergence —
   the simulated equivalent of an MPI program hanging on mismatched
   collectives;
3. virtual clocks synchronize: no rank exits before the slowest entrant,
   then each rank pays its own α–β cost from
   :class:`~repro.mpi.costmodel.MachineProfile`;
4. byte counters are recorded per rank (senders are charged once per
   destination, receivers once per source — see ``stats.py``).

Data movement itself is by reference (threads share an address space);
only the *accounting* models the wire.  Algorithms must treat received
payloads as read-only, as they would with real MPI buffers.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List, Optional, Sequence

from .errors import CommMismatchError
from .faults import payload_checksum
from .payload import payload_nbytes
from .sanitize import meta_structure


def _check_consistent(values: Sequence[Any], what: str) -> Any:
    first = values[0]
    for v in values[1:]:
        if v != first:
            raise CommMismatchError(
                f"inconsistent {what} across ranks in collective: {list(values)!r}"
            )
    return first


class CollectivesMixin:
    """Collective algorithms; mixed into ``SimComm``.

    Relies on the host class providing ``rank``, ``size``, ``_ctx``,
    ``machine``, ``_clock``, ``_stats`` and ``_charge_comm_until``.
    """

    # The host class defines these; listed for readability.
    rank: int
    size: int

    # ------------------------------------------------------------------
    def _sync_exit(self, entries: Sequence[float], my_cost: float) -> None:
        """Advance this rank's clock to ``max(entries) + my_cost``."""
        t0 = max(entries)
        self._charge_comm_until(t0 + my_cost)

    def barrier(self) -> None:
        """Synchronize all ranks of this communicator."""
        self._sanitize("barrier")
        board = self._ctx.exchange(self.rank, self._clock.now)
        self._stats.record_collective(0, 0)
        self._sync_exit(board, self.machine.barrier(self.size))

    # ------------------------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; returns the object on all ranks."""
        self._sanitize("bcast", payload=obj)
        self._check_rank(root, "root")
        payload = obj if self.rank == root else None
        board = self._ctx.exchange(self.rank, (self._clock.now, root, payload))
        entries = [b[0] for b in board]
        _check_consistent([b[1] for b in board], "root")
        result = board[root][2]
        nbytes = payload_nbytes(result)
        if self.rank == root:
            self._stats.record_collective(nbytes * (self.size - 1), 0)
        else:
            self._stats.record_collective(0, nbytes)
        self._sync_exit(entries, self.machine.bcast(self.size, nbytes))
        return result

    # ------------------------------------------------------------------
    def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        """Gather one object per rank to ``root`` (None elsewhere)."""
        self._sanitize("gather", payload=obj)
        self._check_rank(root, "root")
        nbytes = payload_nbytes(obj)
        board = self._ctx.exchange(self.rank, (self._clock.now, root, nbytes, obj))
        entries = [b[0] for b in board]
        _check_consistent([b[1] for b in board], "root")
        total_other = sum(b[2] for i, b in enumerate(board) if i != root)
        if self.rank == root:
            self._stats.record_collective(0, total_other)
            cost = self.machine.gather(self.size, total_other)
        else:
            self._stats.record_collective(nbytes, 0)
            cost = self.machine.p2p(nbytes)
        self._sync_exit(entries, cost)
        return [b[3] for b in board] if self.rank == root else None

    def allgather(self, obj: Any) -> List[Any]:
        """Gather one object per rank onto every rank."""
        self._sanitize("allgather", payload=obj)
        nbytes = payload_nbytes(obj)
        board = self._ctx.exchange(self.rank, (self._clock.now, nbytes, obj))
        entries = [b[0] for b in board]
        total_other = sum(b[1] for i, b in enumerate(board) if i != self.rank)
        self._stats.record_collective(nbytes * (self.size - 1), total_other)
        self._sync_exit(entries, self.machine.allgather(self.size, total_other + nbytes))
        return [b[2] for b in board]

    # ------------------------------------------------------------------
    def scatter(self, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
        """Scatter ``objs[i]`` from ``root`` to rank ``i``."""
        self._sanitize("scatter")
        self._check_rank(root, "root")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CommMismatchError(
                    f"scatter root must supply exactly {self.size} objects"
                )
            payload: Any = list(objs)
        else:
            payload = None
        board = self._ctx.exchange(self.rank, (self._clock.now, root, payload))
        entries = [b[0] for b in board]
        _check_consistent([b[1] for b in board], "root")
        items = board[root][2]
        mine = items[self.rank]
        my_nbytes = payload_nbytes(mine)
        if self.rank == root:
            sent = sum(payload_nbytes(x) for i, x in enumerate(items) if i != root)
            self._stats.record_collective(sent, 0)
            cost = self.machine.scatter(self.size, sent)
        else:
            self._stats.record_collective(0, my_nbytes)
            cost = self.machine.p2p(my_nbytes)
        self._sync_exit(entries, cost)
        return mine

    # ------------------------------------------------------------------
    def alltoall(self, sendlist: Sequence[Any]) -> List[Any]:
        """Irregular personalized all-to-all (MPI ``Alltoallv``).

        ``sendlist[j]`` goes to rank ``j``; returns the list whose ``i``-th
        entry came from rank ``i``.  Per-rank cost follows the
        pairwise-exchange model of §III-E.
        """
        self._sanitize("alltoall")
        if len(sendlist) != self.size:
            raise CommMismatchError(
                f"alltoall requires {self.size} payloads, got {len(sendlist)}"
            )
        # most slots of a sparse exchange are None: sized without a call
        sizes = [0 if x is None else payload_nbytes(x) for x in sendlist]
        # Checksums (opt-in) are computed *before* the payload probe: an
        # injected corruption models bytes flipped on the wire, so the
        # receiver's recomputation disagrees with the sender's digest.
        checks = (
            [payload_checksum(x) for x in sendlist] if self._checksum else None
        )
        sendlist = self._fault_payload(list(sendlist))
        board = self._ctx.exchange(
            self.rank, (self._clock.now, sizes, list(sendlist), checks)
        )
        entries = [b[0] for b in board]
        recv = [b[2][self.rank] for b in board]
        if self._checksum:
            for i, b in enumerate(board):
                expected = b[3][self.rank] if b[3] is not None else None
                self._verify_checksum(expected, recv[i], i)
        # Both directions count every slot but my own.
        sent_bytes = sum(sizes) - sizes[self.rank]
        recv_bytes = sum([b[1][self.rank] for b in board]) - sizes[self.rank]
        self._stats.record_collective(sent_bytes, recv_bytes)
        self._stats.record_alltoall_round()
        self._sync_exit(
            entries, self.machine.alltoallv(self.size, sent_bytes, recv_bytes)
        )
        return recv

    #: Alias — the implementation is inherently "v" (variable-size).
    alltoallv = alltoall

    # ------------------------------------------------------------------
    def alltoall_fused(self, sections, meta: Any = None):
        """One combined all-to-all carrying several *tagged sections*.

        ``sections`` is a sequence of ``(name, sendlist)`` pairs, each
        ``sendlist`` shaped like :meth:`alltoall`'s argument.  All the
        payloads bound for one peer travel as a single combined message,
        so the rank pays the exchange's latency (α plus per-partner γ)
        **once** instead of once per section — the FusedMM lever against
        the α·rounds term of iterative multiplies.

        Accounting keeps every section auditable: each section's bytes
        are recorded under its *own* name (as if it had been a separate
        exchange inside ``comm.phase(name)``), so per-phase byte totals
        are conserved exactly; the single round and its time land under
        the phase active at the call site.  Section names must agree
        across ranks (checked, like any collective's metadata).

        ``meta`` is a small control value that rides the message
        envelope — uncharged, like a flag bit in an MPI header that is
        transmitted anyway — and is delivered to every rank.  It exists
        for collectively-consistent control decisions (e.g. "does any
        rank have remote partials to exchange?" → skip the follow-up
        round everywhere or nowhere).

        Returns ``(received, metas)``: ``received[name][i]`` is the
        section payload rank ``i`` addressed to this rank, ``metas[i]``
        rank ``i``'s ``meta``.
        """
        sections = list(sections)
        if not sections:
            raise CommMismatchError("alltoall_fused needs at least one section")
        names = tuple(name for name, _ in sections)
        if len(set(names)) != len(names):
            raise CommMismatchError(f"duplicate fused section names: {names!r}")
        for name, sendlist in sections:
            if len(sendlist) != self.size:
                raise CommMismatchError(
                    f"fused section {name!r} requires {self.size} payloads, "
                    f"got {len(sendlist)}"
                )
        self._sanitize(
            "alltoall_fused",
            detail=("sections:" + ",".join(names), "meta:" + meta_structure(meta)),
        )
        sizes = [
            [0 if x is None else payload_nbytes(x) for x in sl] for _, sl in sections
        ]
        payloads = [list(sl) for _, sl in sections]
        checks = (
            [
                payload_checksum([sl[j] for sl in payloads])
                for j in range(self.size)
            ]
            if self._checksum
            else None
        )
        payloads = self._fault_payload(payloads)
        board = self._ctx.exchange(
            self.rank,
            (self._clock.now, names, sizes, payloads, meta, checks),
        )
        entries = [b[0] for b in board]
        _check_consistent([b[1] for b in board], "fused section names")
        if self._checksum:
            for i, b in enumerate(board):
                expected = b[5][self.rank] if b[5] is not None else None
                self._verify_checksum(
                    expected, [sl[self.rank] for sl in b[3]], i
                )
        pairs = []
        for s, name in enumerate(names):
            # Both directions count every slot but my own.
            own = sizes[s][self.rank]
            sent = sum(sizes[s]) - own
            recv = sum([b[2][s][self.rank] for b in board]) - own
            self._stats.record_section_bytes(name, sent, recv)
            pairs.append((sent, recv))
        self._stats.record_collective(0, 0)  # bytes live on the sections
        self._stats.record_alltoall_round()
        self._sync_exit(entries, self.machine.alltoallv_fused(self.size, pairs))
        received = {
            name: [b[3][s][self.rank] for b in board]
            for s, name in enumerate(names)
        }
        return received, [b[4] for b in board]

    # ------------------------------------------------------------------
    def reduce(
        self,
        obj: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        root: int = 0,
    ) -> Optional[Any]:
        """Reduce with ``op`` (folded in rank order) onto ``root``."""
        self._sanitize("reduce", payload=obj)
        self._check_rank(root, "root")
        nbytes = payload_nbytes(obj)
        board = self._ctx.exchange(self.rank, (self._clock.now, root, nbytes, obj))
        entries = [b[0] for b in board]
        _check_consistent([b[1] for b in board], "root")
        if self.rank == root:
            self._stats.record_collective(0, sum(b[2] for b in board) - nbytes)
        else:
            self._stats.record_collective(nbytes, 0)
        self._sync_exit(entries, self.machine.reduce(self.size, nbytes))
        if self.rank != root:
            return None
        acc = board[0][3]
        for b in board[1:]:
            acc = op(acc, b[3])
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = operator.add) -> Any:
        """Reduce with ``op`` and deliver the result to every rank."""
        self._sanitize("allreduce", payload=obj)
        nbytes = payload_nbytes(obj)
        board = self._ctx.exchange(self.rank, (self._clock.now, nbytes, obj))
        entries = [b[0] for b in board]
        self._stats.record_collective(nbytes, nbytes)
        self._sync_exit(entries, self.machine.allreduce(self.size, nbytes))
        acc = board[0][2]
        for b in board[1:]:
            acc = op(acc, b[2])
        return acc

    def scan(self, obj: Any) -> Any:
        """Inclusive prefix sum (``+``) in rank order."""
        self._sanitize("scan", payload=obj)
        nbytes = payload_nbytes(obj)
        board = self._ctx.exchange(self.rank, (self._clock.now, nbytes, obj))
        entries = [b[0] for b in board]
        self._stats.record_collective(nbytes, nbytes)
        self._sync_exit(entries, self.machine.reduce(self.size, nbytes))
        acc = board[0][2]
        for b in board[1 : self.rank + 1]:
            acc = acc + b[2]
        return acc

    # ------------------------------------------------------------------
    def split(self, color: Optional[int], key: int = 0) -> Optional["CollectivesMixin"]:
        """Partition the communicator by ``color`` (MPI ``Comm_split``).

        Ranks passing the same ``color`` form a new communicator, ordered
        by ``(key, old rank)``.  Passing ``color=None`` opts out and
        returns ``None``.
        """
        site = self._next_split_site()
        self._sanitize("split")
        board = self._ctx.exchange(self.rank, (self._clock.now, color, key))
        entries = [b[0] for b in board]
        self._sync_exit(entries, self.machine.barrier(self.size))
        self._stats.record_collective(0, 0)
        if color is None:
            return None
        members = sorted(
            (r for r in range(self.size) if board[r][1] == color),
            key=lambda r: (board[r][2], r),
        )
        global_ranks = [self._ctx.global_ranks[r] for r in members]
        child = self._ctx.create_child((site, color), len(members), global_ranks)
        return self._make_sibling(child, members.index(self.rank))

    # Helpers the host class provides --------------------------------
    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise CommMismatchError(f"{what}={r} out of range for size {self.size}")
