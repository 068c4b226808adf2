"""Per-rank communication and computation statistics.

Every :class:`repro.mpi.comm.SimComm` records, per *phase*, how many
messages and bytes it moved and how much virtual time it spent.  Phases are
opened with ``comm.phase("fetch-B")`` context managers by the algorithms so
benchmarks can report the same decomposition the paper plots (e.g. Fig 11's
communication-time-only scaling, Fig 12(b)'s communicated nonzeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class PhaseStats:
    """Counters for one named phase on one rank."""

    bytes_sent: int = 0
    bytes_recv: int = 0
    messages_sent: int = 0
    messages_recv: int = 0
    collectives: int = 0
    #: All-to-all exchanges entered inside this phase.  A *fused*
    #: multi-section exchange counts as one round no matter how many
    #: sections it carries — this is the α·rounds term the fused
    #: communication layer shrinks, surfaced per task by
    #: :meth:`SpmdReport.alltoall_rounds`.
    alltoall_rounds: int = 0
    comm_time: float = 0.0
    compute_time: float = 0.0

    def merge(self, other: "PhaseStats") -> None:
        """Accumulate ``other`` into this instance (used for aggregation)."""
        self.bytes_sent += other.bytes_sent
        self.bytes_recv += other.bytes_recv
        self.messages_sent += other.messages_sent
        self.messages_recv += other.messages_recv
        self.collectives += other.collectives
        self.alltoall_rounds += other.alltoall_rounds
        self.comm_time += other.comm_time
        self.compute_time += other.compute_time


@dataclass
class CollectiveEvent:
    """One collective call as observed by the runtime sanitizer.

    Recorded (only in sanitize mode) in rank order of execution, so a
    diverging rank's history can be laid side by side with its peers':
    operation kind, user-code call site, the phase it was booked under,
    this rank's collective sequence number and a coarse payload summary
    (type/dtype/shape — diagnostics, never compared across ranks).
    """

    kind: str
    site: str
    phase: str
    seq: int
    payload: str = ""


@dataclass
class RankStats:
    """All statistics gathered by one rank during one SPMD run."""

    rank: int
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: Per-collective call-site trace; populated only in sanitize mode.
    events: List[CollectiveEvent] = field(default_factory=list)
    _stack: List[str] = field(default_factory=lambda: ["total"])

    @property
    def current_phase(self) -> str:
        return self._stack[-1]

    def phase_stats(self, name: Optional[str] = None) -> PhaseStats:
        """Return (creating if needed) the counters for ``name``."""
        key = self.current_phase if name is None else name
        stats = self.phases.get(key)
        if stats is None:
            stats = self.phases[key] = PhaseStats()
        return stats

    def phase(self, name: str) -> "_Phase":
        """Label all traffic recorded inside the ``with`` block with ``name``.

        Phases nest; counters are recorded under the innermost label only,
        so ``totals()`` (which sums all phases) never double-counts.
        """
        return _Phase(self, name)

    # Recording helpers used by SimComm -------------------------------
    def record_send(self, nbytes: int) -> None:
        stats = self.phase_stats()
        stats.bytes_sent += nbytes
        stats.messages_sent += 1

    def record_recv(self, nbytes: int) -> None:
        stats = self.phase_stats()
        stats.bytes_recv += nbytes
        stats.messages_recv += 1

    def record_collective(self, sent: int, recv: int) -> None:
        stats = self.phase_stats()
        stats.collectives += 1
        stats.bytes_sent += sent
        stats.bytes_recv += recv

    def record_alltoall_round(self) -> None:
        """Count one all-to-all exchange under the current phase."""
        self.phase_stats().alltoall_rounds += 1

    def record_section_bytes(self, name: str, sent: int, recv: int) -> None:
        """Record one fused-exchange section's traffic under ``name``.

        Sections of a fused all-to-all are booked under their *own* phase
        names — exactly where the same bytes would have landed had each
        section been a separate exchange — so per-phase byte totals are
        conserved while the round count (and its latency) drops.
        """
        stats = self.phase_stats(name)
        stats.bytes_sent += sent
        stats.bytes_recv += recv

    def record_collective_event(
        self, kind: str, site: str, seq: int, payload: str = ""
    ) -> None:
        """Append one sanitizer trace entry under the current phase."""
        self.events.append(
            CollectiveEvent(kind, site, self.current_phase, seq, payload)
        )

    def record_comm_time(self, dt: float) -> None:
        self.phase_stats().comm_time += dt

    def record_compute_time(self, dt: float) -> None:
        self.phase_stats().compute_time += dt

    def totals(self) -> PhaseStats:
        """Sum of every phase recorded on this rank."""
        out = PhaseStats()
        for stats in self.phases.values():
            out.merge(stats)
        return out


class _Phase:
    """:meth:`RankStats.phase`: pushes the label, yields its counters."""

    __slots__ = ("_stats", "_name")

    def __init__(self, stats: RankStats, name: str):
        self._stats, self._name = stats, name

    def __enter__(self) -> PhaseStats:
        self._stats._stack.append(self._name)
        return self._stats.phase_stats(self._name)

    def __exit__(self, *exc) -> None:
        self._stats._stack.pop()


@dataclass
class SpmdReport:
    """Run-level summary returned by :func:`repro.mpi.executor.run_spmd`.

    ``runtime`` is the modelled makespan: the maximum per-rank virtual
    clock.  ``comm_time``/``compute_time`` report the same maximum-over-
    ranks decomposition the paper's figures use.
    """

    size: int
    rank_stats: List[RankStats]
    clocks: List[float]
    comm_times: List[float]
    compute_times: List[float]

    @property
    def runtime(self) -> float:
        return max(self.clocks) if self.clocks else 0.0

    @property
    def comm_time(self) -> float:
        return max(self.comm_times) if self.comm_times else 0.0

    @property
    def compute_time(self) -> float:
        return max(self.compute_times) if self.compute_times else 0.0

    def total_bytes(self) -> int:
        """Total bytes sent across all ranks.

        Each transferred byte is counted once on its sender, so this is the
        total traffic on the simulated interconnect.
        """
        return sum(rs.totals().bytes_sent for rs in self.rank_stats)

    def total_messages(self) -> int:
        return sum(rs.totals().messages_sent for rs in self.rank_stats)

    def phase_bytes(self) -> Dict[str, int]:
        """Bytes sent per phase name, summed over ranks."""
        out: Dict[str, int] = {}
        for rs in self.rank_stats:
            for name, stats in rs.phases.items():
                out[name] = out.get(name, 0) + stats.bytes_sent
        return out

    def max_rank_bytes_recv(self) -> int:
        """Largest per-rank received volume — the memory-pressure proxy
        used by Fig 5(a)'s tile-width/memory study."""
        return max((rs.totals().bytes_recv for rs in self.rank_stats), default=0)

    def alltoall_rounds(self) -> int:
        """All-to-all exchanges this task performed (max over ranks).

        All ranks of a communicator enter every all-to-all together, so
        per-rank counts agree on collective-clean programs; the max makes
        the metric robust should a rank sit out via a sub-communicator.
        A fused multi-section exchange counts once — the round count is
        the α-term lever the fused communication layer pulls.
        """
        return max(
            (rs.totals().alltoall_rounds for rs in self.rank_stats), default=0
        )


def project_report(report: "SpmdReport", dead_rank: int) -> "SpmdReport":
    """The ``p-1`` survivors' view of a ``p``-sized report.

    Used by the driver's elastic shrink: a failed attempt was charged on
    the old world, but every later report — the shrink task itself, the
    retry, all subsequent multiplies — has ``p-1`` ranks, and
    :func:`merge_reports` (rightly) refuses to mix sizes.  This drops the
    dead rank's entry and renumbers the survivors, who each lived through
    the attempt; the dead rank's partial charges die with it, exactly
    like its partial work did.  The input is not mutated (the projected
    rank stats share the survivors' phase tables by reference).
    """
    if not 0 <= dead_rank < report.size:
        raise IndexError(
            f"dead_rank {dead_rank} out of range for size {report.size}"
        )
    keep = [r for r in range(report.size) if r != dead_rank]
    rank_stats = []
    for new_rank, old_rank in enumerate(keep):
        rs = report.rank_stats[old_rank]
        rank_stats.append(
            RankStats(rank=new_rank, phases=rs.phases, events=rs.events)
        )
    return SpmdReport(
        size=report.size - 1,
        rank_stats=rank_stats,
        clocks=[report.clocks[r] for r in keep],
        comm_times=[report.comm_times[r] for r in keep],
        compute_times=[report.compute_times[r] for r in keep],
    )


def merge_reports(reports: List["SpmdReport"]) -> "SpmdReport":
    """Combine several same-size task reports into one aggregate.

    Used by the driver's retry loop to charge failed attempts and
    recovery tasks honestly, and by the serving tier to fold thousands
    of per-batch reports whose completion order is scheduler-dependent.
    The merge is therefore **order-stable**: phase tables are rebuilt in
    sorted name order, event traces are sorted by a total key, integer
    counters are plain sums and float time fields are correctly-rounded
    sums (:func:`math.fsum`), so any permutation of ``reports`` produces
    a bit-identical report.  It is also **associative**:
    ``merge([merge([a, b]), c])`` equals ``merge([a, b, c])`` exactly in
    every integer counter, event trace and phase ordering; the float
    time sums agree to one rounding of the intermediate result.
    Virtual clocks add elementwise (the rank lived through every attempt
    in sequence).  The inputs are not mutated.
    """
    if not reports:
        raise ValueError("merge_reports needs at least one report")
    size = reports[0].size
    for r in reports[1:]:
        if r.size != size:
            raise ValueError(
                f"cannot merge reports of sizes {size} and {r.size}"
            )
    merged_stats: List[RankStats] = []
    for rank in range(size):
        out = RankStats(rank=rank)
        names = sorted(
            {name for r in reports for name in r.rank_stats[rank].phases}
        )
        for name in names:
            parts = [
                r.rank_stats[rank].phases[name]
                for r in reports
                if name in r.rank_stats[rank].phases
            ]
            target = out.phase_stats(name)
            target.bytes_sent = sum(s.bytes_sent for s in parts)
            target.bytes_recv = sum(s.bytes_recv for s in parts)
            target.messages_sent = sum(s.messages_sent for s in parts)
            target.messages_recv = sum(s.messages_recv for s in parts)
            target.collectives = sum(s.collectives for s in parts)
            target.alltoall_rounds = sum(s.alltoall_rounds for s in parts)
            target.comm_time = math.fsum(s.comm_time for s in parts)
            target.compute_time = math.fsum(s.compute_time for s in parts)
        for r in reports:
            out.events.extend(r.rank_stats[rank].events)
        out.events.sort(key=lambda e: (e.seq, e.kind, e.site, e.phase, e.payload))
        merged_stats.append(out)
    return SpmdReport(
        size=size,
        rank_stats=merged_stats,
        clocks=[
            math.fsum(r.clocks[i] for r in reports) for i in range(size)
        ],
        comm_times=[
            math.fsum(r.comm_times[i] for r in reports) for i in range(size)
        ],
        compute_times=[
            math.fsum(r.compute_times[i] for r in reports)
            for i in range(size)
        ],
    )
