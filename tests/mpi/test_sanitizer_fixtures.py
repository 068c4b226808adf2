"""The runtime layer raises on every defect class ``spmdlint`` leaves to it.

Collective-consistency and session-lifecycle defects are not linted: the
sanitizer (``run_spmd(..., sanitize=True)``), the watchdog and the
session/pool checks raise on them when the code runs.  Each buggy rank
program below is one such defect, executed at a small world size; each
must raise the structured error named in its case, and each clean twin
must run green.  ``docs/spmdlint.md`` maps the cases to the retired rule
ids (S1, S2, S6, S8, S9, S10, S12, S14).
"""

import inspect
from pathlib import Path

import pytest

from repro.core.driver import TsSession
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    ByteConservationError,
    CollectiveMismatchError,
    CollectiveStallError,
    CommMismatchError,
    DeadlockError,
    DeadSessionError,
    RankError,
    run_spmd,
)
from repro.serve.pool import SessionPool

from ..conftest import csr_from_dense, random_dense

#: Watchdog for the cases that can only hang; the rest raise at once.
TIMEOUT = 2.0


# ----------------------------------------------------------------------
# collectives under rank-dependent control flow (formerly S1, S8)
# ----------------------------------------------------------------------
def branch_buggy(comm):
    if comm.rank == 0:
        with comm.phase("sync"):
            return comm.allreduce(1)
    return None


def branch_clean(comm):
    with comm.phase("sync"):
        return comm.allreduce(1 if comm.rank == 0 else 0)


def loop_buggy(comm):
    steps = comm.rank + 1
    while steps > 0:
        comm.barrier()
        steps -= 1


def loop_clean(comm):
    for _ in range(comm.size):
        comm.barrier()


def _reduce_steps(comm, steps):
    with comm.phase("work"):
        for _ in range(steps):
            comm.allreduce(1)


def helper_trip_buggy(comm):
    _reduce_steps(comm, comm.rank + 1)


def helper_trip_clean(comm):
    _reduce_steps(comm, comm.size)


def order_buggy(comm):
    with comm.phase("sync"):
        if comm.rank == 0:
            comm.barrier()
            return comm.allreduce(1)
        total = comm.allreduce(1)
        comm.barrier()
        return total


def order_clean(comm):
    with comm.phase("sync"):
        comm.barrier()
        return comm.allreduce(1)


# ----------------------------------------------------------------------
# sends nobody receives (formerly S2, S9)
# ----------------------------------------------------------------------
def tag_buggy(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with comm.phase("ring"):
        comm.send(b"payload", dest=right, tag=7)
        return comm.recv(source=left, tag=3)


def tag_clean(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with comm.phase("ring"):
        comm.send(b"payload", dest=right, tag=7)
        return comm.recv(source=left, tag=7)


def tag_wildcard_clean(comm):
    right = (comm.rank + 1) % comm.size
    with comm.phase("ring"):
        comm.send(b"payload", dest=right, tag=42)
        return comm.recv(source=ANY_SOURCE, tag=ANY_TAG)


def unreceived_buggy(comm):
    with comm.phase("pipeline"):
        if comm.rank == 0:
            comm.send(b"work", dest=1, tag=7)
        elif comm.rank > 1:
            return comm.recv(source=0, tag=7)
    return None


def unreceived_clean(comm):
    with comm.phase("pipeline"):
        if comm.rank == 0:
            comm.send(b"work", dest=1, tag=7)
        elif comm.rank == 1:
            return comm.recv(source=0, tag=7)
    return None


# ----------------------------------------------------------------------
# rank-dependent fused section sets (formerly S6)
# ----------------------------------------------------------------------
def sections_buggy(comm):
    sections = [("tile-%d" % t, [None] * comm.size) for t in range(comm.rank + 1)]
    with comm.phase("fused"):
        return comm.alltoall_fused(sections)


def sections_static_clean(comm):
    sections = [("fetch-B", [None] * comm.size), ("send-C", [None] * comm.size)]
    with comm.phase("fused"):
        return comm.alltoall_fused(sections)


def sections_meta_clean(comm):
    sections = [("tile-%d" % t, [None] * comm.size) for t in range(3)]
    with comm.phase("fused"):
        return comm.alltoall_fused(sections, meta={"tiles": 3})


# ----------------------------------------------------------------------
# hard-coded world size (formerly S14): run at p = 3, written for 4
# ----------------------------------------------------------------------
def world_size_buggy(comm):
    mode = "ring" if comm.size == 4 else "star"
    total = 0
    for peer in range(4):
        if peer != comm.rank:
            with comm.phase("exchange"):
                comm.send(mode, peer, tag=7)
    for _ in range(comm.size - 1):
        with comm.phase("exchange"):
            total += len(comm.recv(tag=7))
    return total


def world_size_clean(comm):
    mode = "ring" if comm.size > 1 else "solo"
    total = 0
    for peer in range(comm.size):
        if peer != comm.rank:
            with comm.phase("exchange"):
                comm.send(mode, peer, tag=7)
    for _ in range(comm.size - 1):
        with comm.phase("exchange"):
            total += len(comm.recv(tag=7))
    return total


#: (world size, buggy program, the error it raises, clean twins)
CASES = {
    "branch": (2, branch_buggy, CollectiveStallError, [branch_clean]),
    "loop": (2, loop_buggy, CollectiveStallError, [loop_clean]),
    "helper-trip": (2, helper_trip_buggy, CollectiveStallError, [helper_trip_clean]),
    "order": (2, order_buggy, CollectiveMismatchError, [order_clean]),
    "tag": (2, tag_buggy, DeadlockError, [tag_clean, tag_wildcard_clean]),
    "unreceived": (2, unreceived_buggy, ByteConservationError, [unreceived_clean]),
    "sections": (
        2,
        sections_buggy,
        CollectiveMismatchError,
        [sections_static_clean, sections_meta_clean],
    ),
    "world-size": (3, world_size_buggy, RankError, [world_size_clean]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_buggy_program_raises_its_structured_error(case, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", str(TIMEOUT))
    p, buggy, expected, _ = CASES[case]
    with pytest.raises(expected) as exc_info:
        run_spmd(p, buggy, sanitize=True)
    if expected is RankError:
        # the peer past the shrunken world is refused by the send itself
        assert isinstance(exc_info.value.original, CommMismatchError)


def _site(fn, text):
    """``dir/file:line`` (as the sanitizer renders a call site) of the
    first line of ``fn`` containing ``text``."""
    lines, start = inspect.getsourcelines(fn)
    offset = next(i for i, line in enumerate(lines) if text in line)
    here = Path(__file__)
    return f"{here.parent.name}/{here.name}:{start + offset}"


#: What each error must say to point at its defect: the ranks, the
#: operations and their call sites, the phase — the counterexample a
#: static divergence report would have carried.
MESSAGES = {
    "branch": [
        f"rank 0 at allreduce at {_site(branch_buggy, 'comm.allreduce')}",
        "rank(s) [1] already finished",
    ],
    "loop": [
        f"rank 1 at barrier at {_site(loop_buggy, 'comm.barrier')}",
        "rank(s) [0] already finished",
    ],
    "helper-trip": [
        f"rank 1 at allreduce at {_site(_reduce_steps, 'comm.allreduce')}",
        "phase 'work', seq 1",
        "rank(s) [0] already finished",
    ],
    "order": [
        f"rank(s) [0] called barrier at {_site(order_buggy, 'comm.barrier')}",
        "rank(s) [1] called allreduce at "
        + _site(order_buggy, "total = comm.allreduce"),
    ],
    "sections": [
        "rank(s) [0] called alltoall_fused",
        "sections:tile-0/",
        "sections:tile-0,tile-1/",
    ],
    "tag": [f"{TIMEOUT}s watchdog", "spmd-rank-0", "spmd-rank-1"],
    "unreceived": ["phase 'pipeline'", "received 0 B"],
    "world-size": ["failed: CommMismatchError", "dest=3 out of range for size 3"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_structured_error_points_at_the_defect(case, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", str(TIMEOUT))
    p, buggy, expected, _ = CASES[case]
    with pytest.raises(expected) as exc_info:
        run_spmd(p, buggy, sanitize=True)
    message = str(exc_info.value)
    for part in MESSAGES[case]:
        assert part in message


@pytest.mark.parametrize("case", sorted(CASES))
def test_clean_twins_run_green(case, monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", str(TIMEOUT))
    p, _, _, clean = CASES[case]
    for fn in clean:
        run_spmd(p, fn, sanitize=True)


# ----------------------------------------------------------------------
# driver-side lifecycle (formerly S10, S12)
# ----------------------------------------------------------------------
@pytest.fixture
def operands(rng):
    A = csr_from_dense(random_dense(rng, 24, 24, density=0.2))
    B = csr_from_dense(random_dense(rng, 24, 4, density=0.5))
    return A, B


def test_handle_from_another_session_is_refused(operands):
    A, B = operands
    left, right = TsSession(A, 2), TsSession(A, 2)
    try:
        handle = left.scatter(B)
        with pytest.raises(ValueError, match="different session"):
            right.multiply(handle)
        # the owning session still accepts it
        assert left.multiply(handle).C.nnz >= 0
    finally:
        left.close()
        right.close()


def test_closed_session_refuses_work(operands):
    A, B = operands
    session = TsSession(A, 2)
    session.close()
    with pytest.raises(DeadSessionError):
        session.update_operand(A)
    with pytest.raises(DeadSessionError):
        session.multiply(B)


def test_leaked_checkout_starves_a_one_slot_pool(operands):
    A, _ = operands
    pool = SessionPool(A, 2, slots=1)
    try:
        slot = pool.checkout(timeout=1.0)
        with pytest.raises(TimeoutError):
            pool.checkout(timeout=0.2)
        pool.checkin(slot)
        pool.checkin(pool.checkout(timeout=1.0))
    finally:
        pool.close()
