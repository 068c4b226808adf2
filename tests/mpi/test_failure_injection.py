"""Failure injection: the runtime must unwind cleanly from bad programs."""

import threading

import numpy as np
import pytest

from repro.mpi import (
    CommMismatchError,
    DeadlockError,
    RankError,
    SpmdAbort,
    run_spmd,
)


class TestAbortPropagation:
    @pytest.fixture(autouse=True)
    def _bounded_hang(self, monkeypatch):
        # an abort that fails to release a peer fails here in 30 s, not 600
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "30")

    def test_failure_inside_subcommunicator_collective(self):
        def program(comm):
            sub = comm.split(color=comm.rank % 2)
            if comm.rank == 1:
                raise RuntimeError("dies before the collective")
            sub.allreduce(1)  # peers blocked in the child communicator

        with pytest.raises(RankError) as exc_info:
            run_spmd(4, program)
        assert exc_info.value.rank == 1

    def test_failure_after_many_successful_collectives(self):
        def program(comm):
            for i in range(20):
                comm.allreduce(i)
            if comm.rank == 0:
                raise ValueError("late failure")
            comm.barrier()

        with pytest.raises(RankError):
            run_spmd(3, program)

    def test_all_ranks_fail_first_reported(self):
        def program(comm):
            raise RuntimeError(f"rank {comm.rank} failing")

        with pytest.raises(RankError) as exc_info:
            run_spmd(4, program)
        assert 0 <= exc_info.value.rank < 4

    def test_failure_with_pending_p2p_messages(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("orphaned", dest=1)
                raise RuntimeError("sender dies after send")
            # receiver may or may not get the message before abort; it
            # must not hang either way
            try:
                comm.recv(source=0)
                comm.recv(source=0)  # never sent
            except SpmdAbort:
                pass

        with pytest.raises(RankError):
            run_spmd(2, program)

    def test_nested_split_failure_releases_everyone(self):
        def program(comm):
            half = comm.split(color=comm.rank // 2)
            quarter = half.split(color=half.rank)
            if comm.rank == 3:
                raise RuntimeError("deep failure")
            comm.barrier()

        with pytest.raises(RankError) as exc_info:
            run_spmd(4, program)
        assert exc_info.value.rank == 3


class TestMisuseDetection:
    def test_mismatched_collective_types_detected_or_mismatch(self):
        """Ranks disagreeing on the collective *kind* is user error; the
        runtime raises rather than silently exchanging garbage (here the
        payload tuples differ in arity, caught by the root check)."""

        def program(comm):
            if comm.rank == 0:
                comm.bcast("x", root=0)
            else:
                comm.bcast("x", root=1)  # inconsistent root

        with pytest.raises(RankError) as exc_info:
            run_spmd(2, program)
        assert isinstance(exc_info.value.original, CommMismatchError)

    def test_negative_root_rejected(self):
        with pytest.raises(RankError):
            run_spmd(2, lambda comm: comm.bcast(1, root=-1))

    def test_deadlock_reports_blocked_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "1.0")

        def program(comm):
            comm.recv(source=(comm.rank + 1) % comm.size)  # circular wait

        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(2, program)
        assert "blocked" in str(exc_info.value)

    def test_recv_from_invalid_source(self):
        with pytest.raises(RankError):
            run_spmd(2, lambda comm: comm.recv(source=9))


class TestRecoveryAcrossRuns:
    def test_runtime_usable_after_failed_run(self):
        """A failed run must not poison subsequent runs (fresh state)."""

        def bad(comm):
            raise RuntimeError("boom")

        with pytest.raises(RankError):
            run_spmd(4, bad)
        result = run_spmd(4, lambda comm: comm.allreduce(comm.rank))
        assert result.values == [6] * 4

    def test_many_sequential_runs_no_thread_leak(self):
        before = threading.active_count()
        for _ in range(10):
            run_spmd(4, lambda comm: comm.barrier())
        assert threading.active_count() <= before + 1

    def test_failed_and_good_runs_interleaved(self):
        for i in range(5):
            if i % 2 == 0:
                with pytest.raises(RankError):
                    run_spmd(3, lambda comm: (_ for _ in ()).throw(ValueError()))
            else:
                assert run_spmd(3, lambda comm: comm.size).values == [3, 3, 3]
