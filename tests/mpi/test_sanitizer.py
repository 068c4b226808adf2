"""Runtime collective-sanitizer tests (``REPRO_SANITIZE`` layer 2).

Each seeded bug is a live :func:`run_spmd`/:class:`SpmdSession` run; the
sanitizer must turn the would-be hang into a structured error naming the
diverging ranks and both call sites.
"""

import pytest

from repro.mpi import (
    ByteConservationError,
    CollectiveMismatchError,
    CollectiveStallError,
    DeadlockError,
    DeadSessionError,
    RankError,
    SanitizerError,
    SpmdDiagnosticError,
    SpmdSession,
    run_spmd,
)
from repro.mpi.sanitize import sanitize_enabled
from repro.mpi.stats import RankStats


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------
def test_sanitize_enabled_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert not sanitize_enabled()
    assert sanitize_enabled(True)
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled()
        assert sanitize_enabled(None)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize_enabled()


# ----------------------------------------------------------------------
# seeded mismatches -> structured errors
# ----------------------------------------------------------------------
def test_mismatched_collective_kinds_name_both_call_sites():
    def program(comm):
        if comm.rank == 0:
            return comm.bcast("x", root=0)
        return comm.allreduce(1)

    with pytest.raises(CollectiveMismatchError) as exc_info:
        run_spmd(3, program, sanitize=True)
    err = exc_info.value
    message = str(err)
    assert "collective mismatch across ranks" in message
    assert "bcast" in message and "allreduce" in message
    assert "rank(s) [0]" in message and "rank(s) [1, 2]" in message
    # Structured fields: every diverging rank, one call site per group,
    # both pointing into this test file.
    assert sorted(err.ranks) == [0, 1, 2]
    assert len(err.call_sites) == 2
    assert all("test_sanitizer.py" in site for site in err.call_sites)
    # A cross-rank finding, not one rank's bug: never RankError-wrapped.
    assert isinstance(err, SanitizerError)
    assert isinstance(err, SpmdDiagnosticError)
    assert not isinstance(err, RankError)


def test_mismatched_phase_labels_are_detected():
    def program(comm):
        label = "fetch" if comm.rank == 0 else "merge"
        with comm.phase(label):
            return comm.allreduce(1)

    with pytest.raises(CollectiveMismatchError) as exc_info:
        run_spmd(2, program, sanitize=True)
    assert "'fetch'" in str(exc_info.value)
    assert "'merge'" in str(exc_info.value)


def test_mismatched_fused_meta_structure_is_detected():
    def program(comm):
        sections = [("fetch-B", [None] * comm.size)]
        meta = {"tiles": comm.size} if comm.rank == 0 else None
        with comm.phase("fused"):
            return comm.alltoall_fused(sections, meta=meta)

    with pytest.raises(CollectiveMismatchError) as exc_info:
        run_spmd(2, program, sanitize=True)
    message = str(exc_info.value)
    assert "meta:dict(tiles)" in message and "meta:none" in message


def test_consistent_program_is_untouched_by_the_sanitizer():
    def program(comm):
        with comm.phase("sync"):
            total = comm.allreduce(comm.rank)
        with comm.phase("ring"):
            comm.send(comm.rank, dest=(comm.rank + 1) % comm.size, tag=1)
            left = comm.recv(source=(comm.rank - 1) % comm.size, tag=1)
        return total, left

    plain = run_spmd(3, program, sanitize=False)
    checked = run_spmd(3, program, sanitize=True)
    assert plain.values == checked.values
    # Sanitizer traffic is never charged to the virtual clocks.
    assert checked.report.clocks == plain.report.clocks


def test_sanitizer_records_collective_events():
    def program(comm):
        with comm.phase("sync"):
            comm.allreduce(1)
        comm.barrier()

    result = run_spmd(2, program, sanitize=True)
    for rs in result.report.rank_stats:
        kinds = [e.kind for e in rs.events]
        assert kinds == ["allreduce", "barrier"]
        assert [e.seq for e in rs.events] == [0, 1]
        assert rs.events[0].phase == "sync"
        assert all("test_sanitizer.py" in e.site for e in rs.events)


# ----------------------------------------------------------------------
# stalls: a collective a finished rank can never join
# ----------------------------------------------------------------------
def test_collective_after_peer_returned_is_a_stall_not_a_hang():
    def program(comm):
        if comm.rank == 0:
            return "done early"
        comm.barrier()

    with pytest.raises(CollectiveStallError) as exc_info:
        run_spmd(3, program, sanitize=True)
    message = str(exc_info.value)
    assert "cannot complete" in message
    assert "barrier" in message
    assert "already finished the task" in message
    assert 0 in [int(r) for r in exc_info.value.ranks] or "[0]" in message


def test_watchdog_reports_last_collective_of_stuck_ranks(monkeypatch):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "1.0")

    def program(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.recv(source=1, tag=5)  # never sent: genuine hang

    with pytest.raises(DeadlockError) as exc_info:
        run_spmd(2, program, sanitize=True)
    message = str(exc_info.value)
    assert "spmd-rank-0" in message
    assert "rank 0 last issued barrier" in message
    assert "test_sanitizer.py" in message


# ----------------------------------------------------------------------
# byte conservation at task end
# ----------------------------------------------------------------------
def test_phase_lopsided_p2p_fails_byte_conservation():
    def program(comm):
        if comm.rank == 0:
            with comm.phase("handoff"):
                comm.send(b"payload", dest=1, tag=2)
        else:
            with comm.phase("drain"):
                comm.recv(source=0, tag=2)

    with pytest.raises(ByteConservationError) as exc_info:
        run_spmd(2, program, sanitize=True)
    message = str(exc_info.value)
    assert "handoff" in message and "drain" in message


def test_byte_conservation_unit_check():
    from repro.mpi.sanitize import check_byte_conservation

    a, b = RankStats(rank=0), RankStats(rank=1)
    with a.phase("x"):
        a.record_send(100)
    with b.phase("x"):
        b.record_recv(100)
    check_byte_conservation([a, b])  # balanced: no raise
    with a.phase("y"):
        a.record_send(50)
    with pytest.raises(ByteConservationError, match="'y'"):
        check_byte_conservation([a, b])


# ----------------------------------------------------------------------
# session death: reasons must round-trip (regression)
# ----------------------------------------------------------------------
def test_kill_reason_round_trips_into_dead_session_error():
    session = SpmdSession(2)

    def program(comm):
        if comm.rank == 0:
            raise ValueError("kaboom xyz")
        comm.recv(source=0, tag=9)

    with pytest.raises(RankError):
        session.run(program)
    assert session.closed
    with pytest.raises(DeadSessionError) as exc_info:
        session.run(lambda comm: comm.rank)
    err = exc_info.value
    assert "rank 0 raised ValueError: kaboom xyz" in err.reason
    assert err.reason in str(err)


def test_sanitizer_finding_kills_session_with_reason():
    session = SpmdSession(2, sanitize=True)

    def program(comm):
        if comm.rank == 0:
            return comm.bcast(1, root=0)
        return comm.allreduce(1)

    with pytest.raises(CollectiveMismatchError):
        session.run(program)
    assert session.closed
    with pytest.raises(DeadSessionError) as exc_info:
        session.run(lambda comm: comm.rank)
    assert "sanitizer: CollectiveMismatchError" in exc_info.value.reason
