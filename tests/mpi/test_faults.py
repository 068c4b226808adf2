"""Deterministic fault injection: grammar, injector, session semantics.

Covers the runtime half of the resilience layer (docs/resilience.md):
the ``FaultSpec`` grammar, injector determinism (every failure mode is
exactly reproducible), recoverable-session degradation/respawn, payload
checksums, slow-fault charging, sanitizer interplay, and the watchdog
timeout configuration (``REPRO_SPMD_TIMEOUT`` / ``TsConfig``).
"""

import numpy as np
import pytest

from repro.core import TsConfig
from repro.mpi import (
    DeadSessionError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PayloadCorruptionError,
    RankError,
    SpmdSession,
    default_timeout,
    is_recoverable_failure,
    payload_checksum,
)
from repro.mpi.errors import InjectedCrashFault, InjectedTransientFault
from repro.mpi.faults import corrupt_payload

from ..conftest import fault_env_seeds, seeded_fault_plan

P = 4


def _alltoall_program(comm):
    """One phased all-to-all; every rank returns the sum of first elements
    (``sum(range(size))`` on a clean run)."""
    with comm.phase("work"):
        payload = [
            np.full(3, comm.rank, dtype=np.int64) for _ in range(comm.size)
        ]
        received = comm.alltoall(payload)
    return sum(int(chunk[0]) for chunk in received if chunk is not None)


CLEAN_VALUE = sum(range(P))


# ----------------------------------------------------------------------
# spec grammar
# ----------------------------------------------------------------------
class TestFaultSpecGrammar:
    def test_parse_render_round_trip(self):
        text = (
            "crash@1,task=2,seq=3;transient@0,phase=fetch-B;"
            "slow@2,delay=0.5;corrupt@3"
        )
        plan = FaultPlan.parse(text)
        assert plan.render() == text
        assert FaultPlan.parse(plan.render()) == plan

    def test_unconstrained_fields_are_wildcards(self):
        (spec,) = FaultPlan.parse("crash@2").specs
        assert (spec.task, spec.phase, spec.seq) == (None, None, None)
        assert spec.matches(2, 17, "anything", 99)
        assert not spec.matches(1, 0, "anything", 0)

    def test_constraints_all_match(self):
        (spec,) = FaultPlan.parse("transient@1,task=3,phase=fetch-B,seq=2").specs
        assert spec.matches(1, 3, "fetch-B", 2)
        assert not spec.matches(1, 3, "fetch-B", 1)
        assert not spec.matches(1, 2, "fetch-B", 2)
        assert not spec.matches(1, 3, "send-C", 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "boom@1",          # unknown kind
            "crash",           # no @rank
            "crash@",          # empty rank
            "crash@x",         # non-integer rank
            "crash@1,frob=2",  # unknown constraint
            "crash@-1",        # negative rank
            "slow@0,delay=-1", # negative delay
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")
        assert FaultPlan.parse("crash@0")

    def test_seeded_plans_are_deterministic(self):
        a = seeded_fault_plan(7, 8, n=6)
        b = seeded_fault_plan(7, 8, n=6)
        assert a == b and a.render() == b.render()
        assert seeded_fault_plan(8, 8, n=6) != a

    def test_config_validates_fault_spec_eagerly(self):
        with pytest.raises(ValueError):
            TsConfig(faults="bogus")
        with pytest.raises(ValueError):
            TsConfig(checkpoint="sideways")
        with pytest.raises(ValueError):
            TsConfig(retry_backoff=-0.1)
        assert TsConfig(faults="crash@0,task=1").faults == "crash@0,task=1"

    def test_fault_env_seeds(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert fault_env_seeds() == (0,)
        assert fault_env_seeds(default=(1, 2)) == (1, 2)
        monkeypatch.setenv("REPRO_FAULTS", "3, 5,8")
        assert fault_env_seeds() == (3, 5, 8)


# ----------------------------------------------------------------------
# injector determinism
# ----------------------------------------------------------------------
class TestInjectorDeterminism:
    def test_fires_at_exact_point_and_only_once(self):
        inj = FaultInjector(FaultPlan.parse("transient@1,task=1,seq=2"))
        inj.begin_task()  # task 0
        assert inj.fire(1, "work") is None
        inj.begin_task()  # task 1: seq counts restart
        assert inj.fire(1, "work") is None  # seq 0
        assert inj.fire(0, "work") is None  # other rank, own counter
        assert inj.fire(1, "work") is None  # seq 1
        spec = inj.fire(1, "work")          # seq 2 -> fires
        assert spec is not None and spec.kind == "transient"
        # at most once, ever — even at the same point of a later task
        inj.begin_task()
        assert all(inj.fire(1, "work") is None for _ in range(4))

    def test_phase_constraint(self):
        inj = FaultInjector(FaultPlan.parse("crash@0,phase=fetch-B"))
        inj.begin_task()
        assert inj.fire(0, "prepare") is None
        assert inj.fire(0, "fetch-B") is not None

    def test_point_kind_separation(self):
        inj = FaultInjector(FaultPlan.parse("corrupt@0;crash@0"))
        inj.begin_task()
        # A collective probe can only fire crash/transient/slow...
        assert inj.fire(0, "work", point="collective").kind == "crash"
        # ...and a payload probe only corrupt.
        assert inj.fire(0, "work", point="payload").kind == "corrupt"

    def test_suspend_counts_probes_without_firing(self):
        inj = FaultInjector(FaultPlan.parse("crash@0,task=0,seq=1"))
        inj.begin_task()
        with inj.suspend():
            assert inj.fire(0, "work") is None  # seq 0
            assert inj.fire(0, "work") is None  # seq 1: match suppressed
        # Counters advanced during suspension, so seq 1 is already past —
        # a suspended window never re-arms earlier sequence points.
        assert inj.fire(0, "work") is None      # seq 2

    def test_raise_for_maps_kinds_to_errors(self):
        inj = FaultInjector(FaultPlan.parse("crash@0;transient@1"))
        crash, transient = inj.plan.specs
        with pytest.raises(InjectedCrashFault):
            inj.raise_for(crash, 0)
        with pytest.raises(InjectedTransientFault) as ei:
            inj.raise_for(transient, 1)
        assert is_recoverable_failure(ei.value)


# ----------------------------------------------------------------------
# session semantics
# ----------------------------------------------------------------------
class TestRecoverableSession:
    def test_crash_degrades_respawns_and_recovers(self):
        inj = FaultInjector(FaultPlan.parse("crash@2,task=0,seq=0"))
        session = SpmdSession(P, recoverable=True, injector=inj)
        try:
            with pytest.raises(RankError) as ei:
                session.run(_alltoall_program)
            failure = ei.value.failure
            assert failure.rank == 2 and failure.kind == "crash"
            assert session.degraded
            assert session.failures == [failure]
            # Partial report of the failed attempt rides on the error.
            assert ei.value.report is not None
            # Crashed worker was respawned: the retry runs clean.
            result = session.run(_alltoall_program)
            assert result.values == [CLEAN_VALUE] * P
            assert not session.degraded
            assert session.dead_reason is None
        finally:
            session.close()

    def test_transient_fault_degrades_without_killing(self):
        inj = FaultInjector(FaultPlan.parse("transient@1,task=0,seq=0"))
        session = SpmdSession(P, recoverable=True, injector=inj)
        try:
            with pytest.raises(RankError) as ei:
                session.run(_alltoall_program)
            assert ei.value.failure.kind == "transient"
            assert session.run(_alltoall_program).values == [CLEAN_VALUE] * P
        finally:
            session.close()

    def test_nonrecoverable_session_dies_with_reason(self):
        inj = FaultInjector(FaultPlan.parse("crash@1,task=0,seq=0"))
        session = SpmdSession(P, recoverable=False, injector=inj)
        try:
            with pytest.raises(RankError):
                session.run(_alltoall_program)
            assert session.dead_reason
            with pytest.raises(DeadSessionError) as ei:
                session.run(_alltoall_program)
            assert "InjectedCrashFault" in ei.value.reason
        finally:
            session.close()

    def test_program_bugs_are_not_recoverable(self):
        """Only *environment* faults degrade; a program bug still kills."""

        def buggy(comm):
            if comm.rank == 0:
                raise ValueError("logic error")
            comm.barrier()

        session = SpmdSession(2, recoverable=True)
        try:
            with pytest.raises(RankError) as ei:
                session.run(buggy, timeout=30.0)
            assert getattr(ei.value, "failure", None) is None
            assert session.dead_reason
        finally:
            session.close()


class TestChecksums:
    def test_corruption_detected_with_checksums(self):
        inj = FaultInjector(FaultPlan.parse("corrupt@0,task=0,seq=0"))
        session = SpmdSession(P, recoverable=True, injector=inj, checksum=True)
        try:
            with pytest.raises(RankError) as ei:
                session.run(_alltoall_program)
            assert isinstance(ei.value.original, PayloadCorruptionError)
            assert ei.value.failure.kind == "corrupt"
            assert session.run(_alltoall_program).values == [CLEAN_VALUE] * P
        finally:
            session.close()

    def test_corruption_silent_without_checksums(self):
        """The detector is opt-in: without it the bad value flows through —
        the run 'succeeds' with wrong numbers (why ``checksum=True`` exists)."""
        inj = FaultInjector(FaultPlan.parse("corrupt@0,task=0,seq=0"))
        session = SpmdSession(P, injector=inj, checksum=False)
        try:
            result = session.run(_alltoall_program)
            assert result.values != [CLEAN_VALUE] * P
            assert session.dead_reason is None
        finally:
            session.close()

    def test_corrupt_payload_copies_on_write(self):
        obj = [np.arange(5), {"k": np.ones(3)}]
        before = payload_checksum(obj)
        mutated, done = corrupt_payload(obj)
        assert done
        assert payload_checksum(mutated) != before
        # The sender's resident arrays are untouched (wire-only flip).
        assert np.array_equal(obj[0], np.arange(5))
        assert payload_checksum(obj) == before

    def test_checksum_ignores_container_identity(self):
        a = {"x": np.arange(4), "y": [np.zeros(2)]}
        b = {"x": np.arange(4), "y": [np.zeros(2)]}
        assert payload_checksum(a) == payload_checksum(b)


class TestSlowFaults:
    def test_slow_fault_charges_virtual_time(self):
        baseline = SpmdSession(P)
        try:
            base = baseline.run(_alltoall_program).report.runtime
        finally:
            baseline.close()
        inj = FaultInjector(
            FaultPlan.parse("slow@1,task=0,seq=0,delay=0.25")
        )
        session = SpmdSession(P, injector=inj)
        try:
            slowed = session.run(_alltoall_program)
            assert slowed.values == [CLEAN_VALUE] * P  # output unaffected
            assert slowed.report.runtime >= base + 0.2
        finally:
            session.close()


class TestSanitizerInterplay:
    def test_transient_fault_is_no_byte_conservation_false_positive(self):
        """A fault aborts the task mid-flight; the sanitizer must not
        misreport the resulting imbalance — conservation is only checked
        on success, and the sanitized retry passes it."""
        inj = FaultInjector(FaultPlan.parse("transient@1,task=0,seq=0"))
        session = SpmdSession(
            P, recoverable=True, injector=inj, sanitize=True
        )
        try:
            with pytest.raises(RankError) as ei:
                session.run(_alltoall_program)
            assert ei.value.failure.kind == "transient"
            assert session.run(_alltoall_program).values == [CLEAN_VALUE] * P
        finally:
            session.close()


# ----------------------------------------------------------------------
# watchdog timeout configuration
# ----------------------------------------------------------------------
class TestWatchdogConfig:
    def test_env_sets_default_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPMD_TIMEOUT", raising=False)
        assert default_timeout() == 600.0
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "42.5")
        assert default_timeout() == 42.5
        session = SpmdSession(2)
        try:
            assert session.timeout == 42.5
        finally:
            session.close()

    @pytest.mark.parametrize("bad", ["banana", "-3", "0"])
    def test_bad_env_values_rejected(self, bad, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", bad)
        with pytest.raises(ValueError):
            default_timeout()

    @pytest.mark.parametrize("name", ["TS-SpGEMM", "SUMMA-2D", "SUMMA-3D"])
    def test_env_timeout_reaches_every_session_kind(self, monkeypatch, name):
        from repro.baselines import make_session
        from repro.sparse import random_csr

        A = random_csr(24, 24, nnz_per_row=4, rng=np.random.default_rng(3))
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "33")
        session = make_session(name, A, 4)
        try:
            assert session._exec.timeout == 33.0
        finally:
            session.close()
