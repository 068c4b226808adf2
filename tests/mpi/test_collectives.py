"""Correctness tests for every collective of the simulated communicator."""

import numpy as np
import pytest

from repro.mpi import CommMismatchError, RankError, run_spmd


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
def test_barrier_completes(size):
    run_spmd(size, lambda comm: comm.barrier())


@pytest.mark.parametrize("size", [1, 2, 5])
@pytest.mark.parametrize("root", [0, -0])
def test_bcast_scalar(size, root):
    def program(comm):
        value = 42 if comm.rank == root else None
        return comm.bcast(value, root=root)

    assert run_spmd(size, program).values == [42] * size


def test_bcast_from_nonzero_root():
    def program(comm):
        value = {"payload": comm.rank} if comm.rank == 2 else None
        return comm.bcast(value, root=2)["payload"]

    assert run_spmd(4, program).values == [2] * 4


def test_bcast_numpy_array_identity():
    def program(comm):
        arr = np.arange(10, dtype=np.float64) if comm.rank == 0 else None
        out = comm.bcast(arr, root=0)
        return float(out.sum())

    assert run_spmd(3, program).values == [45.0] * 3


def test_bcast_mismatched_root_raises():
    def program(comm):
        return comm.bcast(comm.rank, root=comm.rank % 2)

    with pytest.raises(RankError) as exc_info:
        run_spmd(4, program)
    assert isinstance(exc_info.value.original, CommMismatchError)


def test_bcast_root_out_of_range():
    with pytest.raises(RankError):
        run_spmd(2, lambda comm: comm.bcast(1, root=5))


@pytest.mark.parametrize("size", [1, 3, 6])
def test_gather(size):
    def program(comm):
        return comm.gather(comm.rank * comm.rank, root=0)

    values = run_spmd(size, program).values
    assert values[0] == [r * r for r in range(size)]
    assert all(v is None for v in values[1:])


@pytest.mark.parametrize("size", [1, 2, 4, 9])
def test_allgather(size):
    def program(comm):
        return comm.allgather(chr(ord("a") + comm.rank))

    expected = [chr(ord("a") + r) for r in range(size)]
    assert run_spmd(size, program).values == [expected] * size


def test_scatter():
    def program(comm):
        items = [i * 10 for i in range(comm.size)] if comm.rank == 1 else None
        return comm.scatter(items, root=1)

    assert run_spmd(4, program).values == [0, 10, 20, 30]


def test_scatter_wrong_length_raises():
    def program(comm):
        items = [0] * (comm.size + 1) if comm.rank == 0 else None
        return comm.scatter(items, root=0)

    with pytest.raises(RankError) as exc_info:
        run_spmd(3, program)
    assert isinstance(exc_info.value.original, CommMismatchError)


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_alltoall_permutation(size):
    def program(comm):
        send = [comm.rank * 100 + dest for dest in range(comm.size)]
        return comm.alltoall(send)

    values = run_spmd(size, program).values
    for j in range(size):
        assert values[j] == [i * 100 + j for i in range(size)]


def test_alltoall_with_numpy_payloads():
    def program(comm):
        send = [np.full(dest + 1, comm.rank, dtype=np.int64) for dest in range(comm.size)]
        recv = comm.alltoall(send)
        return [int(arr.sum()) for arr in recv]

    values = run_spmd(3, program).values
    # rank j receives from each i an array of j+1 entries all equal to i
    for j in range(3):
        assert values[j] == [i * (j + 1) for i in range(3)]


def test_alltoall_wrong_count_raises():
    def program(comm):
        return comm.alltoall([1] * (comm.size - 1 if comm.rank else comm.size))

    with pytest.raises(RankError) as exc_info:
        run_spmd(3, program)
    assert isinstance(exc_info.value.original, CommMismatchError)


def test_alltoallv_alias():
    def program(comm):
        return comm.alltoallv([None] * comm.size)

    assert run_spmd(2, program).values == [[None, None]] * 2


@pytest.mark.parametrize("size", [1, 2, 5])
def test_reduce_sum(size):
    def program(comm):
        return comm.reduce(comm.rank + 1, root=0)

    values = run_spmd(size, program).values
    assert values[0] == size * (size + 1) // 2
    assert all(v is None for v in values[1:])


def test_reduce_custom_op():
    def program(comm):
        return comm.reduce(comm.rank + 1, op=lambda a, b: a * b, root=0)

    assert run_spmd(4, program).values[0] == 24


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_allreduce_sum(size):
    result = run_spmd(size, lambda comm: comm.allreduce(comm.rank))
    expected = size * (size - 1) // 2
    assert result.values == [expected] * size


def test_allreduce_max():
    result = run_spmd(5, lambda comm: comm.allreduce(comm.rank, op=max))
    assert result.values == [4] * 5


def test_scan_inclusive_prefix():
    result = run_spmd(4, lambda comm: comm.scan(comm.rank + 1))
    assert result.values == [1, 3, 6, 10]


def test_collectives_compose_repeatedly():
    def program(comm):
        total = 0
        for i in range(10):
            total += comm.allreduce(comm.rank + i)
        return total

    size = 4
    expected = sum(sum(r + i for r in range(size)) for i in range(10))
    assert run_spmd(size, program).values == [expected] * size


def test_none_slots_are_sized_like_any_payload():
    """``alltoall`` / ``alltoall_fused`` size a ``None`` slot without calling
    ``payload_nbytes``: the bytes booked per phase and per section are still
    the sum of ``payload_nbytes`` over what each rank addressed elsewhere."""
    from repro.mpi import payload_nbytes

    def sendlists(rank, size):
        plain = [None] * size
        plain[(rank + 1) % size] = np.arange(rank + 2, dtype=np.int64)
        nested = [(None, "mode", np.ones(dest + 1)) for dest in range(size)]
        nested[rank] = None
        return {"plain": plain, "nested": nested, "nothing": [None] * size}

    def program(comm):
        lists = sendlists(comm.rank, comm.size)
        for name, sendlist in lists.items():
            with comm.phase(name):
                got = comm.alltoall(sendlist)
            assert [x is None for x in got] == [
                sendlists(src, comm.size)[name][comm.rank] is None
                for src in range(comm.size)
            ]
        with comm.phase("fused-round"):
            comm.alltoall_fused([("f-" + name, sl) for name, sl in lists.items()])

    size = 4
    report = run_spmd(size, program).report
    for rank, stats in enumerate(report.rank_stats):
        for name in ("plain", "nested", "nothing"):
            sent = sum(
                payload_nbytes(x)
                for dest, x in enumerate(sendlists(rank, size)[name])
                if dest != rank
            )
            recv = sum(
                payload_nbytes(sendlists(src, size)[name][rank])
                for src in range(size)
                if src != rank
            )
            for phase in (name, "f-" + name):
                booked = stats.phases[phase]
                assert (booked.bytes_sent, booked.bytes_recv) == (sent, recv)
        assert stats.phases["nothing"].bytes_sent == 0
        assert stats.phases["plain"].bytes_sent == 8 * (rank + 2)
