"""Cached-plan equivalence and amortization tests (persistent plans).

The contract of :mod:`repro.core.plan`: a multiply served by a reused
:class:`PreparedA` must be **bit-identical** to a fresh-plan multiply for
any sequence of ``B`` operands against the same ``A`` — while paying the
B-independent symbolic + tiling cost only once.  The suite drives
BFS-like (thinning boolean frontiers) and embedding-like (re-sparsified
float) ``B`` sequences over multiple semirings and all three mode
policies, then checks the amortization itself on the deterministic
virtual clocks and (smoke, with margin) on wall-clock.
"""

import threading
from collections import Counter, defaultdict

import numpy as np
import pytest
from _oracles import assert_same_plan, single_program_msbfs

from repro.core import (
    PreparedA,
    TsConfig,
    TsSession,
    prepare_multiply,
    replan,
    spmm_multiply,
    tiled_multiply,
    ts_spgemm,
)
from repro.core.symbolic import DIAGONAL
from repro.core.tiled import _drop_kept_slices
from repro.mpi import merge_reports, run_spmd
from repro.partition import DistSparseMatrix
from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    CsrMatrix,
    random_csr,
    row_topk,
)
from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4

#: Modelled per-multiply setup work: the phases a prepared plan amortizes.
PLAN_PHASES = ("prepare", "tiling", "symbolic")


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Exact structural and value equality (no float tolerance)."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def bfs_like_sequence(rng, n, d, levels=4):
    """Thinning boolean frontiers: density spikes then decays (Fig 12a)."""
    out = []
    for density in (0.3, 0.5, 0.12, 0.03)[:levels]:
        out.append(csr_from_dense(random_dense(rng, n, d, density, dtype=np.bool_)))
    return out


def embedding_like_sequence(rng, n, d, epochs=3, keep=2):
    """Re-sparsified float embeddings: top-k rows of drifting dense Z."""
    return [
        row_topk(rng.standard_normal((n, d)), keep)[0]
        for _ in range(epochs)
    ]


def setup_compute(report) -> float:
    """Max-over-ranks modelled compute seconds in the plan phases."""
    worst = 0.0
    for rs in report.rank_stats:
        t = sum(
            ps.compute_time
            for name, ps in rs.phases.items()
            if name in PLAN_PHASES
        )
        worst = max(worst, t)
    return worst


class TestCachedPlanEquivalence:
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize(
        "semiring,sequence",
        [
            (BOOL_AND_OR, "bfs"),
            (PLUS_TIMES, "embedding"),
            (MIN_PLUS, "embedding"),
        ],
    )
    def test_session_bitwise_matches_fresh(self, rng, policy, semiring, sequence):
        a = csr_from_dense(random_dense(rng, N, N, 0.15, dtype=semiring.dtype))
        bs = (
            bfs_like_sequence(rng, N, D)
            if sequence == "bfs"
            else embedding_like_sequence(rng, N, D)
        )
        if semiring is BOOL_AND_OR:
            bs = [b.astype(np.bool_) for b in bs]
        else:
            bs = [b.astype(semiring.dtype) for b in bs]
        config = TsConfig(mode_policy=policy)
        session = TsSession(a, P, semiring=semiring, config=config)
        for b in bs:
            fresh = ts_spgemm(a, b, P, semiring=semiring, config=config)
            reused = session.multiply(b)
            assert bitwise_equal(reused.C, fresh.C)
            assert reused.diagnostics["plan_reused"] == P
            if policy != "hybrid":
                # forced policies need no B-dependent pattern products
                assert reused.diagnostics["symbolic_products"] == 0
            else:
                assert (
                    reused.diagnostics["symbolic_products"]
                    == fresh.diagnostics["symbolic_products"]
                )

    @pytest.mark.parametrize("width,height", [(1, None), (2, 7)])
    def test_nondefault_tiling_equivalence(self, rng, width, height):
        a = csr_from_dense(random_dense(rng, 30, 30, 0.2))
        config = TsConfig(tile_width_factor=width, tile_height=height)
        session = TsSession(a, 3, config=config)
        for density in (0.5, 0.1):
            b = csr_from_dense(random_dense(rng, 30, 5, density))
            fresh = ts_spgemm(a, b, 3, config=config)
            assert bitwise_equal(session.multiply(b).C, fresh.C)

    def test_every_session_holds_a_plan(self, rng):
        """Set-up prepares on every rank, and a derived session inherits
        one — what the multiply, refresh, restore and shrink paths read
        without checking."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        with TsSession(a, P) as session:
            child = session.derive_edge_subset(rng.random(a.nnz) < 0.5)
            for s in (session, child):
                assert all(isinstance(state[3], PreparedA) for state in s._state)
            assert all(state[3].strips is not None for state in session._state)

    def test_update_operand_values_only(self, rng):
        """Same pattern, new values: the session refreshes numeric state
        (blocks, bools, strips) and stays bit-exact vs a fresh run."""
        dense = random_dense(rng, N, N, 0.2)
        a1 = csr_from_dense(dense)
        session = TsSession(a1, P)
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        assert bitwise_equal(session.multiply(b).C, ts_spgemm(a1, b, P).C)
        # perturb values on the identical pattern
        a2 = CsrMatrix(a1.shape, a1.indptr, a1.indices, a1.data * 3.5, check=False)
        session.update_operand(a2)
        assert bitwise_equal(session.multiply(b).C, ts_spgemm(a2, b, P).C)

    def test_update_operand_pattern_change_falls_back(self, rng):
        a1 = csr_from_dense(random_dense(rng, N, N, 0.2))
        a2 = csr_from_dense(random_dense(rng, N, N, 0.25))
        session = TsSession(a1, P)
        session.update_operand(a2)  # different pattern: full re-setup
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        assert bitwise_equal(session.multiply(b).C, ts_spgemm(a2, b, P).C)

    def test_prepared_plan_of_another_world_rejected(self, rng):
        """A plan is one rank's of one world: prepared at p = 2, it is
        refused at p = 3 (a multiply takes its settings from the plan, so
        the rank and world size are all there is to disagree on)."""
        a = csr_from_dense(random_dense(rng, 21, 21, 0.3))
        b = csr_from_dense(random_dense(rng, 21, 4, 0.5))

        def prepare(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            return prepare_multiply(dist_a, TsConfig(tile_height=5))

        plans = run_spmd(2, prepare).values

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_b = DistSparseMatrix.scatter_rows(comm, b)
            tiled_multiply(dist_a, dist_b, prepared=plans[comm.rank % 2])

        from repro.mpi.errors import RankError

        with pytest.raises(RankError, match="prepared plan belongs to rank"):
            run_spmd(3, program)

    def test_spmm_prepared_equivalence(self, rng):
        """The SpMM mode table is fully B-independent: the prepared path
        skips the symbolic phase outright and output is identical."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b1 = rng.standard_normal((N, D))
        b2 = rng.standard_normal((N, D))

        def program(comm):
            from repro.partition.distmat import DistDenseMatrix

            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            prepared = prepare_multiply(dist_a, TsConfig())
            outs = []
            lo, hi = dist_a.local_range
            for b in (b1, b2):
                dist_b = DistDenseMatrix(comm, dist_a.rows, b[lo:hi], D)
                fresh, _ = spmm_multiply(
                    dist_a, dist_b, prepared=prepare_multiply(dist_a, TsConfig())
                )
                cached, _ = spmm_multiply(dist_a, dist_b, prepared=prepared)
                outs.append((fresh.local, cached.local))
            return outs, prepared.spmm_cache is not None

        result = run_spmd(P, program)
        for outs, cache_filled in result.values:
            assert cache_filled
            for fresh_local, cached_local in outs:
                np.testing.assert_array_equal(fresh_local, cached_local)


class TestAmortization:
    """Deterministic virtual-clock checks of the charging rules."""

    def _workload(self):
        rng = np.random.default_rng(7)
        a = random_csr(256, 256, nnz_per_row=8, rng=rng)
        bs = [
            csr_from_dense(
                random_dense(rng, 256, 32, density, dtype=np.bool_)
            )
            for density in (0.05, 0.02, 0.01)
        ]
        return a.astype(np.bool_), bs

    def test_reused_multiply_skips_prepare_and_tiling(self):
        a, bs = self._workload()
        session = TsSession(a, 8, semiring=BOOL_AND_OR)
        for b in bs:
            report = session.multiply(b).report
            for rs in report.rank_stats:
                assert "prepare" not in rs.phases
                assert "tiling" not in rs.phases

    def test_modelled_setup_reduced_at_least_2x(self):
        """Acceptance gate: per-iteration symbolic+tiling+prepare time of
        a reused plan is >= 2x below the fresh path — a new session per
        iteration, its set-up and its multiply together — on the bench
        config (exact, from the virtual clocks)."""
        a, bs = self._workload()
        session = TsSession(a, 8, semiring=BOOL_AND_OR)
        for b in bs:
            with TsSession(a, 8, semiring=BOOL_AND_OR) as once:
                fresh = setup_compute(
                    merge_reports([once.setup_report, once.multiply(b).report])
                )
            reused = setup_compute(session.multiply(b).report)
            assert fresh > 0
            assert reused <= fresh / 2.0, (
                f"reused plan setup {reused:.3e}s vs fresh {fresh:.3e}s"
            )

    def test_forced_policy_replan_is_free(self):
        a, bs = self._workload()
        config = TsConfig(mode_policy="local")
        session = TsSession(a, 8, semiring=BOOL_AND_OR, config=config)
        report = session.multiply(bs[0]).report
        # no pattern products, no prepare, no tiling: zero plan compute
        assert setup_compute(report) == 0.0

    def test_single_program_reuse_improves_modelled_runtime(self):
        from repro.data import random_sources, rmat

        adj = rmat(256, 8, seed=12)
        sources = random_sources(256, 16, seed=3)
        on = single_program_msbfs(adj, sources, 4, prepare=True)
        off = single_program_msbfs(adj, sources, 4, prepare=False)
        assert on.visited.equal(off.visited)
        assert on.levels == off.levels >= 3
        assert on.total_runtime < off.total_runtime

    def test_single_program_per_level_comm_bytes_match_registry(self):
        """Satellite: the SPMD trace now reports real per-level phase
        bytes (was a 0 placeholder) and matches the registry path."""
        from repro.apps import msbfs
        from repro.data import erdos_renyi, random_sources

        adj = erdos_renyi(80, 4, seed=5)
        sources = random_sources(80, 6, seed=6)
        resident = single_program_msbfs(adj, sources, 4)
        driver = msbfs(adj, sources, 4)
        assert resident.levels == driver.levels
        assert sum(it.comm_bytes for it in resident.iterations) > 0
        for got, want in zip(resident.iterations, driver.iterations):
            assert got.comm_bytes == want.comm_bytes
            assert got.comm_time > 0


class TestPlanReusePerfSmoke:
    """What a prepared plan saves, as counts (a wall-clock ratio stood here
    and passed or failed with the host's mood): a prepared multiply builds
    no ``PreparedSubtile`` and scans no nonzero columns — a fresh one
    builds every (peer, row tile) slot and scans once — and a ``replan``
    constructs a ``SubtileInfo`` per *stored* slot, nothing per EMPTY one.
    """

    def test_a_prepared_multiply_rebuilds_nothing(self, rng, monkeypatch):
        import repro.core.plan as plan_module

        calls = defaultdict(Counter)  # per rank thread, so no count races

        def counted(name):
            real = getattr(plan_module, name)

            def wrapper(*args, **kwargs):
                calls[threading.get_ident()][name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(plan_module, name, wrapper)

        for name in ("PreparedSubtile", "SubtileInfo", "nonzero_columns_by_rows"):
            counted(name)
        a = csr_from_dense(random_dense(rng, N, N, 0.04, dtype=np.bool_))
        bs = bfs_like_sequence(rng, N, D, levels=2)
        config = TsConfig(tile_height=3)

        def program(comm):
            mine = calls[threading.get_ident()]

            def spent(fn):
                before = Counter(mine)
                fn()
                return Counter(mine) - before  # zero counts drop out

            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_bs = [DistSparseMatrix.scatter_rows(comm, b) for b in bs]
            fresh = spent(lambda: tiled_multiply(
                dist_a, dist_bs[0], BOOL_AND_OR,
                prepared=prepare_multiply(dist_a, config),
            ))
            prepared = prepare_multiply(dist_a, config)
            replan(prepared, dist_a, dist_bs[0])  # builds the stored-slot index
            slots = sum(map(len, prepared.subtiles.values()))
            stored = sum(ps.stored for subs in prepared.subtiles.values() for ps in subs)
            assert fresh == {
                "PreparedSubtile": slots, "nonzero_columns_by_rows": 1,
                "SubtileInfo": slots + stored,  # the shared EMPTY skeleton, once
            }
            reused = spent(
                lambda: tiled_multiply(
                    dist_a, dist_bs[1], BOOL_AND_OR, prepared=prepared
                )
            )
            assert reused == spent(lambda: replan(prepared, dist_a, dist_bs[1]))
            assert reused == ({"SubtileInfo": stored} if stored else {})
            return slots, stored

        counts = run_spmd(P, program).values
        assert all(slots == P * (N // P // 3) for slots, _ in counts)
        assert 0 < sum(stored for _, stored in counts) < sum(slots for slots, _ in counts)


class TestPlansShareNoMutableState:
    """Plans made from one ``PreparedA`` share its index's EMPTY infos and
    nothing they write: a later ``replan``, or dropping its kept slices,
    leaves an earlier plan as it was."""

    @pytest.mark.parametrize("tile_height", [None, 3])
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_a_second_replan_leaves_the_first_plan_alone(self, rng, policy, tile_height):
        a = csr_from_dense(random_dense(rng, N, N, 0.15, dtype=np.bool_))
        b1, b2 = bfs_like_sequence(rng, N, D, levels=2)
        config = TsConfig(tile_height=tile_height, mode_policy=policy)

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_b1 = DistSparseMatrix.scatter_rows(comm, b1)
            dist_b2 = DistSparseMatrix.scatter_rows(comm, b2)
            prepared = prepare_multiply(dist_a, config)
            first = replan(prepared, dist_a, dist_b1)
            second = replan(prepared, dist_a, dist_b2)
            _drop_kept_slices(second)
            # As planned from an index of its own, with nothing after it:
            want = replan(prepare_multiply(dist_a, config), dist_a, dist_b1)
            assert_same_plan(first, want)
            kept = sum(
                info.symbolic is not None for infos in first.produced.values() for info in infos
            )
            assert not any(
                info.symbolic is not None for infos in second.produced.values() for info in infos
            )
            for peer, infos in first.by_mode[DIAGONAL].items():
                assert first.produced[peer] is not second.produced[peer]
            return kept

        kept = run_spmd(P, program).values
        assert (sum(kept) > 0) == (policy == "hybrid")
