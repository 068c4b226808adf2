"""``SimComm`` — the simulated communicator handed to every rank program.

A rank program is an ordinary Python function ``fn(comm, ...)`` executed by
:func:`repro.mpi.executor.run_spmd` with one thread per rank.  ``SimComm``
exposes an mpi4py-flavoured API (``rank``/``size``, ``send``/``recv``,
``bcast``/``gather``/``alltoallv``/``allreduce``/``split``…) plus the
virtual-time hooks unique to this simulation:

* ``charge_spgemm`` / ``charge_spmm`` / ``charge_touch`` — advance this
  rank's virtual clock by the modelled cost of local computation;
* ``phase("name")`` — label traffic and time for per-phase reporting;
* ``time`` — the rank's current virtual clock.

All communicators created by ``split`` share the owning rank's clock and
statistics, mirroring how a real process has a single timeline regardless
of how many communicators it uses.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from .clock import VirtualClock
from .collectives import CollectivesMixin
from .costmodel import MachineProfile
from .errors import PayloadCorruptionError
from .faults import FaultInjector, corrupt_payload, payload_checksum
from .payload import payload_nbytes
from .runtime import ANY_SOURCE, ANY_TAG, GroupContext, Message
from .sanitize import (
    CollectiveRecord,
    TaskSanitizer,
    call_site,
    validate_snapshot,
)
from .stats import RankStats


class SimComm(CollectivesMixin):
    """Simulated communicator bound to one rank of one group."""

    def __init__(
        self,
        ctx: GroupContext,
        rank: int,
        machine: MachineProfile,
        clock: VirtualClock,
        stats: RankStats,
        sanitizer: Optional[TaskSanitizer] = None,
        injector: Optional[FaultInjector] = None,
        checksum: bool = False,
    ):
        self._ctx = ctx
        self.rank = rank
        self.machine = machine
        self._clock = clock
        self._stats = stats
        self._sanitizer = sanitizer
        self._injector = injector
        self._checksum = checksum
        self._split_sites = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._ctx.size

    @property
    def global_rank(self) -> int:
        """This rank's id in the root communicator of the run."""
        return self._ctx.global_ranks[self.rank]

    @property
    def time(self) -> float:
        """Current virtual time of this rank, in modelled seconds."""
        return self._clock.now

    @property
    def stats(self) -> RankStats:
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SimComm(rank={self.rank}, size={self.size})"

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eagerly send ``obj`` to ``dest`` (buffered: never blocks).

        The sender is charged the latency α; the payload becomes available
        at the receiver after the full α + β·bytes wire time.
        """
        self._check_rank(dest, "dest")
        nbytes = payload_nbytes(obj)
        available_at = self._clock.now + self.machine.p2p(nbytes)
        self._ctx.mailboxes[dest].put(
            Message(self.rank, tag, obj, nbytes, available_at)
        )
        self._stats.record_send(nbytes)
        dt = self.machine.alpha
        self._clock.advance_comm(dt)
        self._stats.record_comm_time(dt)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Block until a matching message arrives; returns its payload."""
        if source != ANY_SOURCE:
            self._check_rank(source, "source")
        msg = self._ctx.mailboxes[self.rank].get(source, tag)
        self._stats.record_recv(msg.nbytes)
        self._charge_comm_until(msg.available_at)
        return msg.payload

    def sendrecv(
        self, obj: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0
    ) -> Any:
        """Combined send-then-receive (safe because sends are buffered)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    # ------------------------------------------------------------------
    # virtual-cost charging
    # ------------------------------------------------------------------
    def charge_spgemm(self, flops: int, *, d: int, kernel: str = None) -> None:
        """Charge the modelled time of ``flops`` local SpGEMM operations.

        ``kernel`` — when the caller knows which registry kernel actually
        ran — selects that kernel's calibrated compute constant
        (:data:`repro.mpi.costmodel.KERNEL_COMPUTE_SCALE`) instead of the
        coarse SPA/hash accumulator dichotomy
        (:meth:`~repro.mpi.costmodel.MachineProfile.spgemm_time`).
        """
        self._charge_compute(self.machine.spgemm_time(flops, d=d, kernel=kernel))

    def charge_spmm(self, flops: int) -> None:
        """Charge the modelled time of ``flops`` CSR × dense flops."""
        self._charge_compute(self.machine.spmm_time(flops))

    def charge_sddmm(self, flops: int) -> None:
        """Charge the modelled time of ``flops`` SDDMM multiply-adds."""
        self._charge_compute(self.machine.sddmm_time(flops))

    def charge_symbolic(self, flops: int, *, kernel: str = None) -> None:
        """Charge ``flops`` pattern-only operations (symbolic step)."""
        self._charge_compute(self.machine.symbolic_time(flops, kernel=kernel))

    def charge_touch(self, nbytes: int) -> None:
        """Charge streaming ``nbytes`` through memory (packing, merging)."""
        self._charge_compute(self.machine.touch_time(nbytes))

    def charge_seconds(self, dt: float) -> None:
        """Charge an explicit amount of modelled compute seconds."""
        self._charge_compute(dt)

    def phase(self, name: str):
        """Context manager labelling traffic/time recorded inside it."""
        return self._stats.phase(name)

    # ------------------------------------------------------------------
    # internals shared with CollectivesMixin
    # ------------------------------------------------------------------
    def _charge_comm_until(self, t: float) -> None:
        dt = t - self._clock.now
        if dt > 0:
            self._clock.advance_comm(dt)
            self._stats.record_comm_time(dt)

    def _charge_compute(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative compute charge: {dt}")
        self._clock.advance_compute(dt)
        self._stats.record_compute_time(dt)

    def _next_split_site(self) -> int:
        site = self._split_sites
        self._split_sites += 1
        return site

    def _fault_point(self, kind: str) -> None:
        """Fault-injection probe at the entry of every collective.

        Colocated with the sanitizer hook so every collective of every
        rank is a deterministic probe point without per-collective edits;
        active independently of sanitize mode.  ``slow`` specs charge
        their delay on this rank's clock; ``crash``/``transient`` specs
        raise the corresponding :class:`~repro.mpi.errors.InjectedFault`.
        """
        inj = self._injector
        if inj is None:
            return
        spec = inj.fire(self.global_rank, self._stats.current_phase, "collective")
        if spec is None:
            return
        if spec.kind == "slow":
            self._charge_compute(spec.delay)
        else:
            inj.raise_for(spec, self.global_rank)

    def _fault_payload(self, payload: Any) -> Any:
        """Payload probe: return ``payload``, possibly corrupted on-wire.

        Called by the all-to-all variants on the outgoing send list after
        any checksums were computed.  Corruption copies the affected
        containers, so the sender's resident data stays intact — only the
        receiver observes flipped bytes.
        """
        inj = self._injector
        if inj is None:
            return payload
        spec = inj.fire(self.global_rank, self._stats.current_phase, "payload")
        if spec is None:
            return payload
        corrupted, done = corrupt_payload(payload)
        return corrupted if done else payload

    def _verify_checksum(self, expected: Any, payload: Any, source: int) -> None:
        """Receiver-side checksum check (only when ``checksum=True``)."""
        if expected is None:
            return
        actual = payload_checksum(payload)
        if actual != expected:
            raise PayloadCorruptionError(
                f"checksum mismatch on payload from rank {source} in phase "
                f"{self._stats.current_phase!r}: expected {expected:#010x}, "
                f"got {actual:#010x}",
                ranks=(source, self.global_rank),
            )

    def _sanitize(self, kind: str, detail: Tuple = (), payload: Any = None) -> None:
        """Sanitizer pre-collective hook (no-op unless sanitize mode).

        Exchanges a :class:`~repro.mpi.sanitize.CollectiveRecord` with the
        other members of this communicator *before* the real collective
        and raises a structured
        :class:`~repro.mpi.errors.CollectiveMismatchError` /
        :class:`~repro.mpi.errors.CollectiveStallError` on divergence —
        instead of the hang or silent garbage the bug would otherwise
        produce.  The record also lands on ``stats.events`` so watchdog
        diagnostics can name each rank's last known collective.
        """
        self._fault_point(kind)
        san = self._sanitizer
        if san is None:
            return
        from .sanitize import payload_summary

        site = call_site()
        seq = san.next_seq(self.global_rank)
        summary = "" if payload is None else payload_summary(payload)
        self._stats.record_collective_event(kind, site, seq, summary)
        record = CollectiveRecord(
            global_rank=self.global_rank,
            kind=kind,
            site=site,
            phase=self._stats.current_phase,
            seq=seq,
            detail=detail,
            payload=summary,
        )
        board = san.board_for(self._ctx)
        snapshot = board.exchange(self.rank, record, self._ctx.abort)
        validate_snapshot(snapshot)

    def _make_sibling(self, ctx: GroupContext, rank: int) -> "SimComm":
        return SimComm(
            ctx, rank, self.machine, self._clock, self._stats, self._sanitizer,
            self._injector, self._checksum,
        )
