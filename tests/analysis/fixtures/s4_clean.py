"""S4 clean twin: every booking happens under a phase — the helper's
direct charge is covered because its only call site is phased, and so is
the closure's."""

from repro.mpi import rank_program


def _merge(comm, payload):
    comm.charge_touch(len(payload))


def program(comm):
    with comm.phase("merge"):
        comm.charge_touch(1024)
        _merge(comm, b"xx")
    with comm.phase("sync"):
        return comm.allreduce(comm.rank)


@rank_program
def multiply(A):
    comm = A.comm
    stats = {"flops": 0}

    def _payload(n):
        comm.charge_spmm(n)
        stats["flops"] += n

    with comm.phase("send-C"):
        _payload(8)
    with comm.phase("sync"):
        return comm.allreduce(stats["flops"])
