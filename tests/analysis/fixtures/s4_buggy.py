"""S4 fixture: bytes/time booked outside any ``comm.phase`` block —
directly in a root, in a helper reached without phase coverage, and in a
closure that uses its enclosing rank program's ``comm`` and is called
outside a phase (the closure's write into the enclosing frame is
per-rank state, not an S3 race)."""

from repro.mpi import rank_program


def _merge(comm, payload):
    comm.charge_touch(len(payload))  # EXPECT: S4


def program(comm):
    comm.charge_touch(1024)  # EXPECT: S4
    _merge(comm, b"xx")
    with comm.phase("sync"):
        return comm.allreduce(comm.rank)


@rank_program
def multiply(A):
    comm = A.comm
    stats = {"flops": 0}

    def _payload(n):
        comm.charge_spmm(n)  # EXPECT: S4
        stats["flops"] += n

    _payload(8)
    with comm.phase("sync"):
        return comm.allreduce(stats["flops"])
