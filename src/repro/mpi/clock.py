"""Per-rank virtual clocks.

Each simulated rank owns a :class:`VirtualClock`.  Local compute advances
only that rank's clock; synchronizing communication first aligns the
participants (a rank cannot leave a collective before the slowest entrant)
and then adds each rank's own communication cost.  The maximum clock over
ranks at the end of a run is the modelled makespan reported as "runtime"
by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class VirtualClock:
    """A monotonically advancing virtual time for one rank.

    Attributes
    ----------
    now:
        Current virtual time in seconds.
    compute_time / comm_time:
        Decomposition of ``now`` into locally-charged compute seconds and
        communication seconds (synchronization waits are attributed to
        ``comm_time``, matching how the paper's timers bracket MPI calls).
    """

    now: float = 0.0
    compute_time: float = 0.0
    comm_time: float = 0.0

    def advance_compute(self, dt: float) -> None:
        """Charge ``dt`` virtual seconds of local computation."""
        if dt < 0:
            raise ValueError(f"negative compute time: {dt}")
        self.now += dt
        self.compute_time += dt

    def advance_comm(self, dt: float) -> None:
        """Charge ``dt`` virtual seconds of communication."""
        if dt < 0:
            raise ValueError(f"negative comm time: {dt}")
        self.now += dt
        self.comm_time += dt
