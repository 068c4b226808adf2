"""Tests for the SPMD executor: launch, results, failure propagation."""

import ctypes
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.mpi import DeadlockError, RankError, SpmdResult, SpmdSession, run_spmd


def test_single_rank_returns_value():
    result = run_spmd(1, lambda comm: comm.rank * 10 + comm.size)
    assert result.values == [1]


def test_each_rank_gets_distinct_rank():
    result = run_spmd(5, lambda comm: comm.rank)
    assert result.values == [0, 1, 2, 3, 4]


def test_size_reported_consistently():
    result = run_spmd(7, lambda comm: comm.size)
    assert result.values == [7] * 7


def test_args_and_kwargs_forwarded():
    def program(comm, a, b, scale=1):
        return (a + b) * scale + comm.rank

    result = run_spmd(3, program, 2, 3, scale=10)
    assert result.values == [50, 51, 52]


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        run_spmd(0, lambda comm: None)


def test_rank_exception_wrapped_with_rank_id():
    def program(comm):
        if comm.rank == 2:
            raise ValueError("boom on rank 2")
        comm.barrier()  # peers must be released, not deadlock

    with pytest.raises(RankError) as exc_info:
        run_spmd(4, program)
    assert exc_info.value.rank == 2
    assert isinstance(exc_info.value.original, ValueError)


def test_failure_during_collective_releases_peers():
    def program(comm):
        if comm.rank == 0:
            raise RuntimeError("early failure")
        # Peers block in a collective that rank 0 never joins.
        comm.allgather(comm.rank)

    with pytest.raises(RankError) as exc_info:
        run_spmd(3, program)
    assert exc_info.value.rank == 0


def test_failure_during_recv_releases_peers():
    def program(comm):
        if comm.rank == 0:
            raise RuntimeError("no send will ever come")
        comm.recv(source=0)

    with pytest.raises(RankError):
        run_spmd(2, program)


def test_watchdog_detects_deadlock(monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "1.0")

    def program(comm):
        if comm.rank == 0:
            comm.recv(source=1)  # rank 1 never sends: genuine deadlock

    with pytest.raises(DeadlockError):
        run_spmd(2, program)


def test_result_is_sequence_like():
    result = run_spmd(3, lambda comm: comm.rank)
    assert isinstance(result, SpmdResult)
    assert len(result) == 3
    assert list(result) == [0, 1, 2]
    assert result[2] == 2


def test_report_has_per_rank_entries():
    result = run_spmd(4, lambda comm: None)
    report = result.report
    assert report.size == 4
    assert len(report.clocks) == 4
    assert len(report.rank_stats) == 4
    assert report.runtime >= 0.0


def test_many_ranks_complete():
    # Thread-based runtime must handle a "large" rank count.
    result = run_spmd(64, lambda comm: comm.allreduce(1))
    assert result.values == [64] * 64


def test_threads_do_not_leak():
    before = threading.active_count()
    run_spmd(8, lambda comm: comm.barrier())
    after = threading.active_count()
    assert after <= before + 1  # allow for unrelated daemon churn


# Run in a fresh interpreter: glibc fixes its arena limit once a process
# has more than eight arenas, so threads of earlier tests could have
# settled it already.
_MALLOC_INFO_SCRIPT = """
import ctypes, sys
import numpy as np
from repro.mpi import SpmdSession

def program(comm):
    blocks = [np.full(1000 + 10 * i, comm.rank) for i in range(50)]
    comm.barrier()
    return sum(int(b.sum()) for b in blocks)

session = SpmdSession(8)
session.run(program)
libc = ctypes.CDLL(None)
libc.fopen.argtypes = (ctypes.c_char_p, ctypes.c_char_p)
libc.fopen.restype = ctypes.c_void_p
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.malloc_info.restype = ctypes.c_int
libc.fclose.argtypes = (ctypes.c_void_p,)
libc.fclose.restype = ctypes.c_int
fp = libc.fopen(sys.argv[1].encode(), b"w")
assert fp and libc.malloc_info(0, fp) == 0
libc.fclose(fp)
session.close()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_rank_threads_share_one_malloc_arena(tmp_path):
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "malloc_info.xml"
    subprocess.run(
        [sys.executable, "-c", _MALLOC_INFO_SCRIPT, str(out)],
        env=env, check=True, timeout=120,
    )
    assert out.read_text().count("<heap nr=") == 1


def test_runs_where_libc_has_no_mallopt(monkeypatch):
    class LibcWithoutMallopt:
        def __init__(self, name, *args, **kwargs):
            pass

    monkeypatch.setattr(ctypes, "CDLL", LibcWithoutMallopt)
    assert run_spmd(4, lambda comm: comm.allreduce(1)).values == [4] * 4


class TestSpmdSession:
    """Resident rank workers: reuse, abort fan-out, dead-session contract."""

    def test_tasks_reuse_the_same_worker_threads(self):
        session = SpmdSession(4)
        try:
            idents1 = session.run(lambda comm: threading.get_ident()).values
            idents2 = session.run(lambda comm: threading.get_ident()).values
            assert idents1 == idents2  # persistent workers, not respawned
            assert len(set(idents1)) == 4
        finally:
            session.close()

    def test_per_task_reports_are_incremental(self):
        """Each task gets fresh clocks/stats: a second task's report must
        not include the first task's traffic."""
        session = SpmdSession(3)
        try:
            first = session.run(lambda comm: comm.allgather(b"x" * 1000))
            second = session.run(lambda comm: comm.barrier())
            assert first.report.total_bytes() > 0
            assert second.report.total_bytes() == 0
        finally:
            session.close()

    def test_rank_failure_aborts_whole_session(self):
        """A rank raising mid-task must release peers blocked in a
        collective and kill the session cleanly."""
        session = SpmdSession(4)

        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom on rank 1")
            comm.allgather(comm.rank)  # peers must be released

        with pytest.raises(RankError) as exc_info:
            session.run(program)
        assert exc_info.value.rank == 1
        assert session.closed

    def test_dead_session_refuses_further_runs(self):
        session = SpmdSession(2)

        def program(comm):
            if comm.rank == 0:
                raise RuntimeError("die")
            comm.barrier()

        with pytest.raises(RankError):
            session.run(program)
        with pytest.raises(RuntimeError, match="closed"):
            session.run(lambda comm: comm.rank)

    def test_deadlock_kills_session(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "1.0")
        session = SpmdSession(2)

        def program(comm):
            if comm.rank == 0:
                comm.recv(source=1)  # rank 1 never sends

        with pytest.raises(DeadlockError):
            session.run(program)
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.run(lambda comm: comm.rank)

    def test_close_is_idempotent_and_joins_workers(self):
        before = threading.active_count()
        session = SpmdSession(6)
        session.run(lambda comm: comm.barrier())
        session.close()
        session.close()  # idempotent
        after = threading.active_count()
        assert after <= before + 1
        with pytest.raises(RuntimeError, match="closed"):
            session.run(lambda comm: comm.rank)

    def test_session_survives_many_tasks(self):
        session = SpmdSession(3)
        try:
            for i in range(20):
                result = session.run(lambda comm, i=i: comm.allreduce(i))
                assert result.values == [3 * i] * 3
        finally:
            session.close()

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SpmdSession(0)
