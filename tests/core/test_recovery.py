"""Checkpoint/recovery: bit-identical results under injected faults.

The acceptance matrix of the resilience layer (docs/resilience.md): for
every fault point × checkpoint policy × communication-fusion setting the
application-level outputs (MS-BFS visited set, embedding Z) must be
**bit-identical** to the fault-free run — recovery restores exact state,
never approximately-equal state.

Fault-point indexing (see docs/resilience.md): task indices count every
session task including checkpoint tasks, so with checkpointing on the
first multiply is task 2 (0 = setup, 1 = setup-checkpoint); with
``checkpoint="off"`` (or a non-recoverable session) it is task 1.  A
fused multiply has exactly one collective probe per rank (``seq=0``).
"""

import numpy as np
import pytest

from repro.apps import msbfs, train_sparse_embedding
from repro.core import TsConfig
from repro.core.driver import MAX_RETRIES, TsSession
from repro.data import erdos_renyi, random_sources
from repro.mpi import DeadSessionError, RankError
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix

from ..conftest import fault_env_seeds, seeded_fault_plan

P = 4
N = 48


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def _graph(seed=5):
    return erdos_renyi(N, 4, seed=seed)


def _A(seed=5):
    """Square sparse A with distinct per-edge values (value-refresh tests
    need values the identity-pattern graph weights would hide)."""
    adj = erdos_renyi(N, 4, seed=seed)
    rng = np.random.default_rng(seed + 100)
    data = rng.random(adj.nnz) + 0.5
    return CsrMatrix(adj.shape, adj.indptr, adj.indices, data, check=False)


def _operand(seed=7):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((N, 6)) < 0.3, rng.random((N, 6)), 0.0)
    return CsrMatrix.from_dense(dense)


def _recoverable(**overrides) -> TsConfig:
    overrides.setdefault("retry_backoff", 0.0)
    return TsConfig(recoverable=True, **overrides)


def _fault_seeds():
    """CI sweep seeds: ``REPRO_FAULTS`` when set, else a small default."""
    return fault_env_seeds(default=(0, 1))


# ----------------------------------------------------------------------
# the acceptance matrix: MS-BFS bit-identity
# ----------------------------------------------------------------------
class TestMsbfsBitIdentity:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver", "off"])
    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("kind", ["transient", "crash"])
    def test_fault_matrix(self, checkpoint, fuse, kind):
        adj = _graph()
        sources = random_sources(N, 4, seed=1)
        mult_task = 1 if checkpoint == "off" else 2
        clean = msbfs(adj, sources, P, config=TsConfig(fuse_comm=fuse))
        faulted = msbfs(
            adj,
            sources,
            P,
            config=_recoverable(
                fuse_comm=fuse,
                checkpoint=checkpoint,
                faults=f"{kind}@1,task={mult_task},seq=0",
            ),
        )
        assert bitwise_equal(clean.visited, faulted.visited)
        assert sum(it.retries for it in faulted.iterations) == 1
        assert sum(it.recoveries for it in faulted.iterations) == 1
        # The clean run's trace shows no resilience activity.
        assert sum(it.retries for it in clean.iterations) == 0

    def test_setup_crash_retries_clean(self):
        """A crash during setup (task 0) has no state to restore — the
        retry rebuilds from the driver-held input."""
        adj = _graph()
        sources = random_sources(N, 4, seed=1)
        clean = msbfs(adj, sources, P)
        faulted = msbfs(
            adj, sources, P,
            config=_recoverable(faults="crash@0,task=0,seq=0"),
        )
        assert bitwise_equal(clean.visited, faulted.visited)

    @pytest.mark.parametrize("seed", _fault_seeds())
    def test_seeded_fault_sweep(self, seed):
        """Randomized plans (the CI ``REPRO_FAULTS`` sweep): a drawn point
        the program never reaches simply does not fire, so every seed is
        a legal member — bit-identity must hold regardless."""
        adj = _graph()
        sources = random_sources(N, 4, seed=2)
        plan = seeded_fault_plan(
            seed, P, kinds=("transient", "crash"), n=2, max_task=5, max_seq=2
        )
        clean = msbfs(adj, sources, P)
        faulted = msbfs(
            adj, sources, P, config=_recoverable(faults=plan.render())
        )
        assert bitwise_equal(clean.visited, faulted.visited)


# ----------------------------------------------------------------------
# embedding bit-identity (prologue + epilogue + value refresh path)
# ----------------------------------------------------------------------
class TestEmbeddingBitIdentity:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver"])
    @pytest.mark.parametrize("kind", ["transient", "crash"])
    def test_fault_in_first_epoch(self, checkpoint, kind):
        adj = _graph(seed=9)
        kwargs = dict(d=8, sparsity=0.5, epochs=3, seed=1)
        clean = train_sparse_embedding(adj, P, **kwargs)
        faulted = train_sparse_embedding(
            adj,
            P,
            config=_recoverable(
                checkpoint=checkpoint, faults=f"{kind}@1,task=2,seq=0"
            ),
            **kwargs,
        )
        assert bitwise_equal(clean.Z, faulted.Z)
        assert clean.accuracy == faulted.accuracy
        assert sum(e.retries for e in faulted.epochs) == 1


# ----------------------------------------------------------------------
# session-level mechanics
# ----------------------------------------------------------------------
class TestSessionRecovery:
    def test_checkpoint_and_recover_phase_accounting(self):
        """Replica traffic is charged under its own phases, conserved
        under the sanitizer, and a recovery ships one rank's blocks —
        strictly less than the full-session checkpoint."""
        config = _recoverable(
            checkpoint="neighbor",
            faults="transient@2,task=2,seq=0",
            sanitize=True,
        )
        session = TsSession(_A(), P, config=config)
        try:
            assert session.setup_report.phase_bytes().get("checkpoint", 0) > 0
            result = session.multiply(_operand(seed=8))
            assert result.report.phase_bytes().get("recover", 0) > 0
            assert result.diagnostics["retries"] == 1
            assert result.diagnostics["recoveries"] == 1
            assert session.checkpoint_bytes > 0
            assert 0 < session.recover_bytes < session.checkpoint_bytes
            assert [f.describe() for f in session.recovery_events]
        finally:
            session.close()

    @pytest.mark.parametrize(
        "semiring, full, values_only",
        [(BOOL_AND_OR, 43_888, 3_536), (PLUS_TIMES, 68_640, 28_288)],
    )
    def test_a_replica_is_the_local_block_and_the_column_copy(
        self, semiring, full, values_only
    ):
        """Every blob's ``nbytes`` is the wire size of that rank's local
        block + column copy — pattern and values on the first checkpoint
        of a pattern, values only afterwards — and that is what the
        ``checkpoint`` / ``recover`` phases ship.  Strips and subtiles are
        re-derived on restore: the restored rank's next multiply is an
        unfaulted run's.  (Setup and its checkpoint are tasks 0-1, the
        update and its checkpoint 2-3, the crashed multiply task 4.)"""
        graph = erdos_renyi(300, 6, seed=0)
        rng = np.random.default_rng(9)
        A = CsrMatrix(
            graph.shape, graph.indptr, graph.indices,
            semiring.coerce(rng.random(graph.nnz) + 0.5), check=False,
        )
        A2 = CsrMatrix(A.shape, A.indptr, A.indices, semiring.coerce(A.data * 2), check=False)
        B = CsrMatrix.from_dense(semiring.coerce(rng.random((300, 6)) < 0.3))

        def wire_bytes(session, arrays):
            return [
                sum(getattr(mat, name).nbytes for mat in state[1:3] for name in arrays)
                for state in session._state
            ]

        config = _recoverable(faults="crash@1,task=4,seq=0")
        with TsSession(A, P, semiring=semiring, config=config) as session, TsSession(
            A, P, semiring=semiring
        ) as plain:
            blobs = [blob["nbytes"] for blob in session._ckpt]
            assert blobs == wire_bytes(session, ("data", "indptr", "indices"))
            assert sum(blobs) == session.checkpoint_bytes == full
            assert session.setup_report.phase_bytes()["checkpoint"] == full
            report = session.update_operand(A2)
            blobs = [blob["nbytes"] for blob in session._ckpt]
            assert blobs == wire_bytes(session, ("data",))
            assert sum(blobs) == session.checkpoint_resident_bytes == values_only
            assert report.phase_bytes()["checkpoint"] == values_only
            assert session.checkpoint_bytes == full + values_only
            plain.update_operand(A2)
            got, want = session.multiply(B), plain.multiply(B)
            assert got.diagnostics["recoveries"] == 1
            assert session.recover_bytes == blobs[1]
            assert got.report.phase_bytes()["recover"] == blobs[1]
            assert bitwise_equal(want.C, got.C)
            got, want = session.multiply(B), plain.multiply(B)
            assert bitwise_equal(want.C, got.C) and got.report == want.report

    def test_every_state_change_commits_one_checkpoint(self, monkeypatch):
        """Setup, a prologue multiply, a same-pattern update, a new
        pattern, a derivation and a shrink each store new per-rank state
        and replicate it once, its charge in the task's report; a plain
        multiply stores nothing and replicates nothing."""
        seen = []
        checkpoint = TsSession._checkpoint

        def counting(session):
            seen.append(session)
            return checkpoint(session)

        def double(comm, operand):
            operand.refresh_values(operand.local.data * 2.0)

        monkeypatch.setattr(TsSession, "_checkpoint", counting)
        a = _A()
        with TsSession(a, P, config=_recoverable()) as session:
            assert seen == [session]
            assert session.setup_report.phase_bytes()["checkpoint"] > 0
            session.multiply(_operand())
            assert seen == [session]
            child = session.derive_edge_subset(np.arange(a.nnz) % 2 == 0)
            child.close()
            reports = [
                session.multiply(_operand(), prologue=double).report,
                session.update_operand(a),
                session.update_operand(_A(seed=6)),
                child.setup_report,
                session.shrink(1),
            ]
            assert seen == [session, child, session, session, session, session]
            assert all(r.phase_bytes()["checkpoint"] > 0 for r in reports)

    def test_checkpoint_off_rebuilds_from_input(self):
        config = _recoverable(checkpoint="off", faults="crash@1,task=1,seq=0")
        session = TsSession(_A(), P, config=config)
        plain = TsSession(_A(), P, config=TsConfig())
        try:
            B = _operand(seed=8)
            want = plain.multiply(B).C
            got = session.multiply(B)
            assert bitwise_equal(want, got.C)
            assert got.diagnostics["recoveries"] == 1
            assert session.checkpoint_bytes == 0
        finally:
            session.close()
            plain.close()

    def test_recovered_session_keeps_working(self):
        """Post-recovery multiplies stay bit-identical — the restored
        state is not subtly stale."""
        config = _recoverable(faults="crash@3,task=2,seq=0")
        session = TsSession(_A(), P, config=config)
        plain = TsSession(_A(), P, config=TsConfig())
        try:
            for seed in (8, 11, 12):
                B = _operand(seed=seed)
                assert bitwise_equal(
                    plain.multiply(B).C, session.multiply(B).C
                )
            assert session.retries == 1
        finally:
            session.close()
            plain.close()

    def test_update_operand_then_recovery_uses_fresh_values(self):
        """A recovery after ``update_operand`` must restore the *updated*
        values, not the construction-time ones."""
        A = _A()
        A2 = CsrMatrix(A.shape, A.indptr, A.indices, A.data * 2.0, check=False)
        B = _operand(seed=8)

        clean = TsSession(A, P, config=_recoverable())
        try:
            clean.multiply(B)
            clean.update_operand(A2)
            next_task = clean._exec._tasks_run  # the faulted run's target
            want = clean.multiply(B).C
        finally:
            clean.close()

        faulted = TsSession(
            A, P,
            config=_recoverable(faults=f"crash@2,task={next_task},seq=0"),
        )
        try:
            faulted.multiply(B)
            faulted.update_operand(A2)
            got = faulted.multiply(B)
            assert bitwise_equal(want, got.C)
            assert got.diagnostics["retries"] == 1
        finally:
            faulted.close()

    def test_retry_budget_exhaustion_raises(self):
        # One crash per attempt of the multiply: the first try and every
        # one of the MAX_RETRIES retries (each spec fires once).
        crashes = ";".join(["crash@1,phase=fused-round"] * (MAX_RETRIES + 1))
        session = TsSession(_A(), P, config=_recoverable(faults=crashes))
        try:
            with pytest.raises(RankError):
                session.multiply(_operand(seed=8))
            assert session.retries == MAX_RETRIES
        finally:
            session.close()

    def test_a_budget_of_crashes_is_absorbed(self):
        crashes = ";".join(["crash@1,phase=fused-round"] * MAX_RETRIES)
        B = _operand(seed=8)
        session = TsSession(_A(), P, config=_recoverable(faults=crashes))
        try:
            got = session.multiply(B)
            assert session.retries == MAX_RETRIES
        finally:
            session.close()
        plain = TsSession(_A(), P, config=TsConfig())
        try:
            assert bitwise_equal(plain.multiply(B).C, got.C)
        finally:
            plain.close()

    def test_diagnostics_only_on_recoverable_sessions(self):
        B = _operand(seed=8)
        plain = TsSession(_A(), P, config=TsConfig())
        rec = TsSession(_A(), P, config=_recoverable())
        try:
            base = plain.multiply(B)
            assert "retries" not in base.diagnostics
            result = rec.multiply(B)
            assert result.diagnostics["retries"] == 0
            assert result.diagnostics["recoveries"] == 0
            # Recoverable mode alone changes no numbers.
            assert bitwise_equal(base.C, result.C)
        finally:
            plain.close()
            rec.close()


# ----------------------------------------------------------------------
# derived sessions
# ----------------------------------------------------------------------
class TestDerivedSessions:
    def _keep_mask(self, A, seed=3):
        rng = np.random.default_rng(seed)
        return rng.random(A.nnz) < 0.7

    def test_derived_session_recovers_from_its_own_checkpoint(self):
        A = _A()
        B = _operand(seed=8)
        keep = self._keep_mask(A)

        clean_parent = TsSession(A, P, config=_recoverable())
        try:
            clean_child = clean_parent.derive_edge_subset(keep)
            next_task = clean_parent._exec._tasks_run
            want = clean_child.multiply(B).C
        finally:
            clean_parent.close()

        parent = TsSession(
            A, P,
            config=_recoverable(faults=f"crash@2,task={next_task},seq=0"),
        )
        try:
            child = parent.derive_edge_subset(keep)
            got = child.multiply(B)
            assert bitwise_equal(want, got.C)
            assert got.diagnostics["recoveries"] == 1
        finally:
            parent.close()

    def test_derived_session_without_checkpoint_cannot_recover(self):
        """checkpoint='off' recovery re-runs setup from the driver-held
        input — which a derived session does not have."""
        A = _A()
        keep = self._keep_mask(A)

        probe = TsSession(A, P, config=_recoverable(checkpoint="off"))
        try:
            probe.derive_edge_subset(keep)
            next_task = probe._exec._tasks_run
        finally:
            probe.close()

        parent = TsSession(
            A, P,
            config=_recoverable(
                checkpoint="off", faults=f"crash@2,task={next_task},seq=0"
            ),
        )
        try:
            child = parent.derive_edge_subset(keep)
            with pytest.raises(RuntimeError, match="derived"):
                child.multiply(_operand(seed=8))
        finally:
            parent.close()


# ----------------------------------------------------------------------
# dead-session follow-on UX
# ----------------------------------------------------------------------
class TestDeadSessionUx:
    def test_gather_after_abort_names_the_original_fault(self):
        # recoverable=False: injection kills the session (task 1 is the
        # first multiply — no checkpoint tasks without recoverable mode).
        config = TsConfig(faults="crash@1,task=1,seq=0")
        session = TsSession(_A(), P, config=config)
        try:
            handle = session.scatter(_operand(seed=8))
            with pytest.raises(RankError):
                session.multiply(handle, gather=False)
            with pytest.raises(DeadSessionError) as ei:
                handle.gather()
            assert "InjectedCrashFault" in ei.value.reason
            assert "re-create the session" in str(ei.value)
        finally:
            session.close()
