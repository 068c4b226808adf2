"""One barrier per collective: ``GroupContext.exchange`` on two boards.

Exchange ``k`` deposits into board ``k % 2`` and waits once.  The board
of ``k`` may be overwritten by ``k + 2`` only because nobody can get that
far before every rank has read ``k`` — pinned here under deliberate skew
(one rank late, the rest racing ahead), through an abort, under the
sanitizer, and as a count of barrier waits.
"""

import itertools
import threading
import time

import numpy as np
import pytest

from repro.mpi import RankError, SpmdAbort, run_spmd

ROUNDS = 520  # half with one fixed straggler, half with a different one each round


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("p", [2, 5, 16])
def test_every_snapshot_is_its_rounds_deposits_under_skew(p, sanitize, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "60")
    delays = np.random.default_rng(17).uniform(0.0, 0.002, ROUNDS)

    def program(comm):
        wrong = 0
        for k in range(ROUNDS):
            straggler = p - 1 if k < ROUNDS // 2 else k % p
            if comm.rank == straggler:
                time.sleep(delays[k])
            got = comm.allgather((k, comm.rank))
            wrong += got != [(k, r) for r in range(p)]
        return wrong

    assert run_spmd(p, program, sanitize=sanitize).values == [0] * p


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("p", [2, 5, 16])
def test_a_rank_raising_mid_stream_releases_every_peer(p, sanitize, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "30")
    released = [None] * p

    def program(comm):
        try:
            for k in range(ROUNDS):
                if k == 137 and comm.rank == p - 1:
                    raise ValueError("mid-stream failure")
                comm.allgather(k)
        except SpmdAbort:
            released[comm.rank] = k
            raise

    with pytest.raises(RankError) as exc_info:
        run_spmd(p, program, sanitize=sanitize)
    assert exc_info.value.rank == p - 1
    assert isinstance(exc_info.value.__cause__, ValueError)
    # Every peer left through SpmdAbort: in the round the failing rank never
    # joined, or still draining out of the barrier of the one before.
    assert released[-1] is None and all(k in (136, 137) for k in released[:-1]), released


def test_one_barrier_wait_per_rank_per_collective(monkeypatch):
    """A count, not a timing: with one board every collective waited twice."""
    waits = itertools.count()
    real_wait = threading.Barrier.wait

    def counting_wait(self, timeout=None):
        next(waits)
        return real_wait(self, timeout)

    monkeypatch.setattr(threading.Barrier, "wait", counting_wait)
    p = 4

    def program(comm):
        comm.barrier()
        comm.bcast(comm.rank, root=1)
        comm.allgather(comm.rank)
        comm.allreduce(comm.rank)
        comm.alltoall([comm.rank] * p)
        comm.alltoall_fused([("a", [None] * p), ("b", [comm.rank] * p)])
        comm.gather(comm.rank)
        comm.scan(comm.rank)
        return 8  # collectives above

    values = run_spmd(p, program, sanitize=False).values
    assert next(waits) == sum(values)
