"""Simulated distributed-memory message-passing runtime.

This package stands in for MPI on Perlmutter (see DESIGN.md §2): rank
programs are ordinary Python functions executed one-thread-per-rank with an
mpi4py-flavoured communicator, and all "runtime" numbers come from per-rank
virtual clocks driven by an α–β cost model.

Typical usage::

    from repro.mpi import run_spmd

    def program(comm):
        data = comm.allgather(comm.rank)
        return sum(data)

    result = run_spmd(4, program)
    assert result.values == [6, 6, 6, 6]
    print(result.report.runtime)   # modelled seconds
"""

from .clock import VirtualClock
from .comm import SimComm
from .cartesian import Grid3D, layered_grid_dims, make_grid3d, square_grid_dims
from .costmodel import (
    ETHERNET_CLUSTER,
    PERLMUTTER,
    PROFILES,
    SCALED_PERLMUTTER,
    MachineProfile,
    get_profile,
)
from .errors import (
    ByteConservationError,
    CollectiveMismatchError,
    CollectiveStallError,
    CommMismatchError,
    DeadlockError,
    DeadSessionError,
    InjectedCrashFault,
    InjectedFault,
    InjectedPermanentFault,
    InjectedTransientFault,
    PayloadCorruptionError,
    RankError,
    SanitizerError,
    ShrinkRefusedError,
    SpmdAbort,
    SpmdDiagnosticError,
    SpmdError,
)
from .executor import ResidentSession, SpmdResult, SpmdSession, run_spmd
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankFailure,
    default_timeout,
    is_recoverable_failure,
    payload_checksum,
)
from .marker import rank_program
from .payload import payload_nbytes
from .runtime import ANY_SOURCE, ANY_TAG
from .sanitize import sanitize_enabled
from .stats import CollectiveEvent, PhaseStats, RankStats, SpmdReport, merge_reports

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ByteConservationError",
    "CollectiveEvent",
    "CollectiveMismatchError",
    "CollectiveStallError",
    "CommMismatchError",
    "DeadSessionError",
    "DeadlockError",
    "ETHERNET_CLUSTER",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "Grid3D",
    "InjectedCrashFault",
    "InjectedFault",
    "InjectedPermanentFault",
    "InjectedTransientFault",
    "MachineProfile",
    "PERLMUTTER",
    "PROFILES",
    "PayloadCorruptionError",
    "PhaseStats",
    "RankError",
    "RankFailure",
    "RankStats",
    "ResidentSession",
    "SCALED_PERLMUTTER",
    "SanitizerError",
    "ShrinkRefusedError",
    "SimComm",
    "SpmdAbort",
    "SpmdDiagnosticError",
    "SpmdError",
    "SpmdReport",
    "SpmdResult",
    "SpmdSession",
    "VirtualClock",
    "default_timeout",
    "get_profile",
    "is_recoverable_failure",
    "layered_grid_dims",
    "make_grid3d",
    "merge_reports",
    "payload_checksum",
    "payload_nbytes",
    "rank_program",
    "run_spmd",
    "sanitize_enabled",
    "square_grid_dims",
]
