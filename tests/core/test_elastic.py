"""Elastic degraded-mode execution: shrinking the world after permfail.

The acceptance matrix of the elastic layer (docs/resilience.md): a
``permfail`` — a *permanent* rank loss, or a crash once the respawn
budget is exhausted — must not kill the session.  Instead the world
shrinks to p-1: the dead rank's row blocks are re-adopted by a survivor
from checkpoint replicas, resident handles are remapped, and the failed
task re-executes on the smaller communicator.

Bit-identity references differ by semiring:

* boolean outputs (MS-BFS, serve batches) are partition-invariant, so
  the reference is the fault-free run at the *original* p;
* float outputs follow the partition's accumulation order, so the
  reference is a fresh session at the *merged* p-1 layout
  (``row_bounds=...``) — dead rank 1 at p=4, n=48 merges into bounds
  ``(0, 12, 36, 48)``.

Fault-point indexing follows docs/resilience.md: with checkpointing on,
setup is task 0, the setup checkpoint task 1 and the first multiply
task 2; a recovery consumes two more tasks (restore + retried multiply),
so the second multiply after one recovery is task 5.
"""

import numpy as np
import pytest

from repro.apps import msbfs, train_sparse_embedding
from _oracles import reference_reachability
from repro.core import TsConfig
from repro.core.driver import TsSession
from repro.data import erdos_renyi, random_sources
from repro.mpi import DeadSessionError, ShrinkRefusedError, SpmdSession
from repro.mpi.stats import RankStats, SpmdReport, merge_reports, project_report
from repro.serve import QueryService, bfs_query, split_visited_columns
from repro.serve.metrics import _pad_report
from repro.sparse import CsrMatrix

P = 4
N = 48
#: Layout after rank 1 of 4 dies (12-row blocks): the adopter (old rank
#: 2) absorbs the dead block, so the survivor bounds merge to this.
MERGED_BOUNDS = (0, 12, 36, 48)


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


# ----------------------------------------------------------------------
# the acceptance matrix: MS-BFS survives a permanent rank loss
# ----------------------------------------------------------------------
class TestMsbfsElastic:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver"])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_fault_matrix(self, checkpoint, fuse):
        """Boolean reachability is partition-invariant: the degraded p-1
        run must reproduce the fault-free original-p run bit for bit."""
        adj = _graph()
        sources = random_sources(N, 4, seed=1)
        clean = msbfs(adj, sources, P, config=TsConfig(fuse_comm=fuse))
        faulted = msbfs(
            adj,
            sources,
            P,
            config=_recoverable(
                fuse_comm=fuse,
                checkpoint=checkpoint,
                faults="permfail@1,task=2,seq=0",
            ),
        )
        assert bitwise_equal(clean.visited, faulted.visited)
        assert sum(it.retries for it in faulted.iterations) == 1
        assert sum(it.shrinks for it in faulted.iterations) == 1
        # A permanent loss is never "recovered" in place.
        assert sum(it.recoveries for it in faulted.iterations) == 0
        assert sum(it.shrinks for it in clean.iterations) == 0


# ----------------------------------------------------------------------
# embedding: float training shrinks mid-run, bit-identical at p-1
# ----------------------------------------------------------------------
class TestEmbeddingElastic:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver"])
    @pytest.mark.parametrize("fuse", [True, False])
    def test_fault_matrix(self, checkpoint, fuse):
        """The permfail fires at the very first multiply, so the whole
        training run effectively executes at the merged p-1 layout: the
        reference is a fresh p-1 session pinned to those row bounds."""
        adj = _graph(seed=9)
        kwargs = dict(d=8, sparsity=0.5, epochs=3, seed=1)
        faulted = train_sparse_embedding(
            adj,
            P,
            config=_recoverable(
                fuse_comm=fuse,
                checkpoint=checkpoint,
                faults="permfail@1,task=2,seq=0",
            ),
            **kwargs,
        )
        reference = train_sparse_embedding(
            adj,
            P - 1,
            config=TsConfig(fuse_comm=fuse),
            row_bounds=MERGED_BOUNDS,
            **kwargs,
        )
        assert bitwise_equal(reference.Z, faulted.Z)
        assert reference.accuracy == faulted.accuracy
        assert sum(e.shrinks for e in faulted.epochs) == 1
        assert sum(e.recoveries for e in faulted.epochs) == 0


# ----------------------------------------------------------------------
# serving: a live service keeps answering through a shrink
# ----------------------------------------------------------------------
class TestServeElastic:
    @pytest.mark.parametrize("checkpoint", ["neighbor", "driver"])
    def test_batch_survives_permfail_exactly_once(self, checkpoint):
        adj = _graph().astype(bool)
        sources = list(range(10))
        expected = split_visited_columns(
            reference_reachability(adj, np.asarray(sources))
        )
        config = _recoverable(
            checkpoint=checkpoint, faults="permfail@1,task=2,seq=0"
        )
        with QueryService(adj, P, config=config, batch_width=4) as svc:
            tickets = [svc.submit(bfs_query(s)) for s in sources]
            results = [t.result(timeout=120.0) for t in tickets]
            degraded_width = svc.pool.world_size
            regrown = svc.health_check()
            healed_width = svc.pool.world_size
        for j, res in enumerate(results):
            assert res.ok, f"query {j} not served: {res.status}"
            assert np.array_equal(res.value[0], expected[j])
        snap = svc.metrics.snapshot()
        assert snap["shrinks"] == 1
        assert snap["world_size"] == P - 1
        assert snap["duplicates"] == 0
        assert snap["ok"] == snap["accepted"] == len(sources)
        assert snap["failed"] == 0
        # The slot kept serving at p-1 until health_check regrew it.
        assert degraded_width == P - 1
        assert regrown >= 1
        assert healed_width == P

    def test_modelled_report_folds_across_the_shrink(self):
        """Mixed-size per-batch reports (p then p-1) still fold into one
        modelled report — padded, never a merge error.  Wave 1 serves at
        full width (the one BFS on this graph spans tasks 2-6); the
        fault fires mid-wave-2, so its batch reports p-1 ranks."""
        adj = _graph().astype(bool)
        config = _recoverable(faults="permfail@1,task=8,seq=0")
        with QueryService(adj, P, config=config, batch_width=2) as svc:
            first = svc.submit(bfs_query(0)).result(timeout=120.0)
            second = svc.submit(bfs_query(0)).result(timeout=120.0)
        assert first.ok and second.ok
        assert np.array_equal(first.value[0], second.value[0])
        report = svc.metrics.modelled_report()
        assert report is not None
        assert report.size == P
        assert svc.metrics.snapshot()["shrinks"] == 1


# ----------------------------------------------------------------------
# respawn budget: exhaustion turns ordinary crashes into shrinks
# ----------------------------------------------------------------------
class TestRespawnBudget:
    def test_budget_zero_shrinks_on_first_crash(self):
        """With no respawn budget a plain crash is immediately treated
        as permanent: no in-place recovery ever happens."""
        adj = _graph()
        sources = random_sources(N, 4, seed=1)
        clean = msbfs(adj, sources, P)
        faulted = msbfs(
            adj,
            sources,
            P,
            config=_recoverable(
                respawn_budget=0, faults="crash@1,task=2,seq=0"
            ),
        )
        assert bitwise_equal(clean.visited, faulted.visited)
        assert sum(it.shrinks for it in faulted.iterations) == 1
        assert sum(it.recoveries for it in faulted.iterations) == 0

    def test_recover_until_exhausted_then_shrink(self):
        """Ordering contract: crashes recover in place while budget
        remains, and the first crash past the budget shrinks instead.
        Task 5 is the second multiply (task 2 + restore 3 + retry 4)."""
        config = _recoverable(
            respawn_budget=1,
            faults="crash@1,task=2,seq=0;crash@1,task=5,seq=0",
        )
        session = TsSession(_A(), P, config=config)
        try:
            session.multiply(_operand())
            assert (session.recoveries, session.shrinks) == (1, 0)
            result = session.multiply(_operand(seed=8))
            assert (session.recoveries, session.shrinks) == (1, 1)
            assert session.p == P - 1
            reference = TsSession(
                _A(), P - 1, row_bounds=session._rows.bounds
            )
            try:
                assert bitwise_equal(
                    reference.multiply(_operand(seed=8)).C, result.C
                )
            finally:
                reference.close()
        finally:
            session.close()


# ----------------------------------------------------------------------
# session-level mechanics
# ----------------------------------------------------------------------
class TestSessionShrink:
    @pytest.mark.parametrize("mode_policy", ["hybrid", "local", "remote"])
    def test_float_multiply_bit_identical_at_merged_layout(self, mode_policy):
        """After the shrink each survivor's plan is the one a fresh session
        at the merged layout prepares: same C, and the same per-rank
        charges on every later multiply."""
        config = _recoverable(
            faults="permfail@1,task=2,seq=0", mode_policy=mode_policy
        )
        session = TsSession(_A(), P, config=config)
        reference = None
        try:
            result = session.multiply(_operand())
            assert session.p == P - 1
            assert session.shrinks == 1
            assert session._rows.bounds == MERGED_BOUNDS
            reference = TsSession(
                _A(), P - 1, config=TsConfig(mode_policy=mode_policy),
                row_bounds=MERGED_BOUNDS,
            )
            assert bitwise_equal(reference.multiply(_operand()).C, result.C)
            # The shrunken session keeps working, bit-identically.
            for seed in (8, 11, 12):
                B = _operand(seed=seed)
                want, got = reference.multiply(B), session.multiply(B)
                assert bitwise_equal(want.C, got.C)
                assert repr(got.report.rank_stats) == repr(
                    want.report.rank_stats
                )
        finally:
            session.close()
            if reference is not None:
                reference.close()

    def test_resident_handles_survive_the_shrink(self):
        """A handle scattered before the loss gathers bit-identically
        after it: the dead rank's block migrated to the adopter."""
        config = _recoverable(faults="permfail@1,task=2,seq=0")
        session = TsSession(_A(), P, config=config)
        try:
            B = _operand()
            # scatter stages driver-side (no session task): the multiply
            # is still task 2 and fires the fault after the handle exists
            handle = session.scatter(B)
            session.multiply(_operand(seed=8))
            assert session.shrinks == 1
            assert handle.rows.bounds == MERGED_BOUNDS
            assert len(handle.blocks) == P - 1
            assert bitwise_equal(B, handle.gather())
        finally:
            session.close()

    def test_shrink_phase_accounting(self):
        """Driver-policy migration is charged under the dedicated
        ``shrink`` phase and byte-conserving under the sanitizer; the
        neighbor policy moves zero wire bytes for this fault point (the
        replica already lives on the adopter)."""
        migrated = {}
        for checkpoint in ("driver", "neighbor"):
            config = _recoverable(
                checkpoint=checkpoint,
                faults="permfail@1,task=2,seq=0",
                sanitize=True,
            )
            session = TsSession(_A(), P, config=config)
            try:
                result = session.multiply(_operand())
                phase = result.report.phase_bytes().get("shrink", 0)
                migrated[checkpoint] = phase
                assert session.shrink_bytes > 0
                assert [f.describe() for f in session.shrink_events]
                assert all(
                    "[shrinkable]" in f.describe()
                    for f in session.shrink_events
                )
            finally:
                session.close()
        # dead rank 1's replica: rank 0 under driver policy (wire bytes
        # flow to the adopter), rank 2 == the adopter under neighbor
        # policy (already resident, zero wire traffic).
        assert migrated["driver"] > 0
        assert migrated["neighbor"] == 0

    def test_shrink_refused_without_checkpoints(self):
        """checkpoint='off' leaves nothing to rebuild the dead rank's
        rows from: the shrink is refused and the session dies (the
        documented MPI_Abort analogue)."""
        config = _recoverable(
            checkpoint="off", faults="permfail@1,task=1,seq=0"
        )
        session = TsSession(_A(), P, config=config)
        try:
            with pytest.raises(ShrinkRefusedError, match="checkpoint"):
                session.multiply(_operand())
            with pytest.raises(DeadSessionError):
                session.multiply(_operand())
        finally:
            session.close()

    def test_shrink_refused_on_derived_sessions(self):
        adj = _graph()
        session = TsSession(adj, P, config=_recoverable())
        derived = None
        try:
            derived = session.derive_edge_subset(
                np.ones(adj.nnz, dtype=bool)
            )
            with pytest.raises(ShrinkRefusedError, match="derived"):
                derived.shrink(1)
        finally:
            if derived is not None:
                derived.close()
            session.close()

    def test_shrink_rejects_out_of_range_rank(self):
        session = TsSession(_A(), P, config=_recoverable())
        try:
            with pytest.raises(ValueError):
                session.shrink(P)
            # A bad argument is not a failure: the session stays alive.
            assert bitwise_equal(
                TsSession(_A(), P).multiply(_operand()).C,
                session.multiply(_operand()).C,
            )
        finally:
            session.close()


# ----------------------------------------------------------------------
# executor-level: SpmdSession.shrink rebuilds a smaller world
# ----------------------------------------------------------------------
class TestExecutorShrink:
    def test_shrink_renumbers_the_world(self):
        session = SpmdSession(4)
        try:
            assert session.run(lambda comm: comm.size).values == [4] * 4
            session.shrink(1)
            assert session.size == 3
            assert session.shrinks == 1
            result = session.run(lambda comm: (comm.rank, comm.size))
            assert result.values == [(0, 3), (1, 3), (2, 3)]
        finally:
            session.close()


# ----------------------------------------------------------------------
# report projection / padding units
# ----------------------------------------------------------------------
def _report(size, base=0.0):
    return SpmdReport(
        size=size,
        rank_stats=[RankStats(rank=r) for r in range(size)],
        clocks=[base + r for r in range(size)],
        comm_times=[0.0] * size,
        compute_times=[0.0] * size,
    )


class TestReportProjection:
    def test_project_drops_and_renumbers(self):
        report = _report(4, base=1.0)
        projected = project_report(report, 1)
        assert projected.size == 3
        assert [rs.rank for rs in projected.rank_stats] == [0, 1, 2]
        assert projected.clocks == [1.0, 3.0, 4.0]
        # The input is not mutated.
        assert report.size == 4 and len(report.clocks) == 4

    def test_project_rejects_bad_rank(self):
        with pytest.raises(IndexError):
            project_report(_report(3), 3)

    def test_projected_report_merges_with_shrunken_reports(self):
        merged = merge_reports([project_report(_report(4), 0), _report(3)])
        assert merged.size == 3

    def test_pad_report_widens_for_the_fold(self):
        padded = _pad_report(_report(3, base=2.0), 5)
        assert padded.size == 5
        assert padded.clocks == [2.0, 3.0, 4.0, 0.0, 0.0]
        assert merge_reports([padded, _report(5)]).size == 5
