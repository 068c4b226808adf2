"""Distributed operand/result handles: correctness and zero driver traffic.

The contract of the handle path (:class:`repro.partition.DistHandle` +
``TsSession.multiply(..., gather=False)``): a chain of multiplies whose
intermediates never leave the ranks must be **bit-identical** to the
driver-gather path — for any semiring, kernel and mode policy — while
moving exactly zero bytes through the driver per multiply.  The registry
MS-BFS rides this path end-to-end (scatter-once → resident chain →
one final gather), so the same guarantees are asserted on whole
traversals against the driver round-trip reference
(``driver_round_trip_msbfs``) and the serial reference.
"""

import numpy as np
import pytest
from _oracles import (
    driver_round_trip_msbfs,
    reference_reachability,
    single_program_msbfs,
)

from repro.apps import msbfs, msbfs_on_session
from repro.core import TsConfig, TsSession, ts_spgemm
from repro.data import erdos_renyi, random_sources, rmat
from repro.partition import DistHandle
from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    CsrMatrix,
    mask_entries,
)
from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class TestHandleChaining:
    """C = A·B chained into the next B without leaving the ranks."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize(
        "semiring", [BOOL_AND_OR, PLUS_TIMES, MIN_PLUS], ids=lambda s: s.name
    )
    def test_chain_bitwise_matches_driver_chain(self, rng, policy, semiring):
        a = csr_from_dense(random_dense(rng, N, N, 0.15, dtype=semiring.dtype))
        b = csr_from_dense(
            random_dense(rng, N, D, 0.4, dtype=semiring.dtype)
        ).astype(semiring.dtype)
        config = TsConfig(mode_policy=policy)
        with TsSession(a, P, semiring=semiring, config=config) as session:
            handle = session.scatter(b)
            reference = b
            for _ in range(3):
                mult = session.multiply(handle, gather=False)
                handle = mult.C
                assert isinstance(handle, DistHandle)
                reference = ts_spgemm(
                    a, reference, P, semiring=semiring, config=config
                ).C
                assert bitwise_equal(handle.gather(), reference)

    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "spa"])
    def test_chain_across_kernels(self, rng, kernel):
        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        b = csr_from_dense(random_dense(rng, N, D, 0.3, dtype=np.bool_))
        config = TsConfig(kernel=kernel)
        with TsSession(a, P, semiring=BOOL_AND_OR, config=config) as session:
            handle = session.multiply(session.scatter(b), gather=False).C
            fresh = ts_spgemm(a, b, P, semiring=BOOL_AND_OR, config=config)
            assert bitwise_equal(handle.gather(), fresh.C)

    def test_gather_false_equals_gather_true(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            h = session.scatter(b)
            c_resident = session.multiply(h, gather=False).C.gather()
            c_gathered = session.multiply(h, gather=True).C
            assert bitwise_equal(c_resident, c_gathered)


class TestDriverTraffic:
    """The point of the PR: handles move zero bytes through the driver."""

    def test_handle_multiply_reports_zero_driver_bytes(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            mult = session.multiply(session.scatter(b), gather=False)
            assert mult.diagnostics["driver_scatter_bytes"] == 0
            assert mult.diagnostics["driver_gather_bytes"] == 0
            phases = mult.report.phase_bytes()
            assert "scatter-B" not in phases
            assert "gather-C" not in phases

    def test_charge_driver_ablation_charges_round_trip(self, rng):
        """With charge_driver=True a plain CsrMatrix operand pays the
        per-multiply root scatter and gather=True the root gather — the
        driver_gather ablation's cost."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            mult = session.multiply(b, gather=True, charge_driver=True)
            assert mult.diagnostics["driver_scatter_bytes"] > 0
            assert mult.diagnostics["driver_gather_bytes"] > 0

    def test_default_accounting_matches_per_call_path(self, rng):
        """Without the ablation knob, a session multiply charges exactly
        like the per-call ts_spgemm path (pre-distributed convention)."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            mult = session.multiply(b, gather=True)
            assert mult.diagnostics["driver_scatter_bytes"] == 0
            assert mult.diagnostics["driver_gather_bytes"] == 0
            fresh = ts_spgemm(a, b, P)
            assert mult.comm_bytes() == fresh.comm_bytes()
            assert bitwise_equal(mult.C, fresh.C)

    def test_multiply_traffic_identical_across_paths(self, rng):
        """Stripping the driver round-trip is *all* the handle path
        changes: the multiply's own wire traffic stays byte-identical."""
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            via_handle = session.multiply(session.scatter(b), gather=False)
            via_driver = session.multiply(b, gather=True, charge_driver=True)
        driver_overhead = (
            via_driver.diagnostics["driver_scatter_bytes"]
            + via_driver.diagnostics["driver_gather_bytes"]
        )
        assert via_driver.comm_bytes() - driver_overhead == via_handle.comm_bytes()


class TestHandleSemantics:
    def test_foreign_handle_rejected(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as s1, TsSession(a, P) as s2:
            handle = s1.scatter(b)
            with pytest.raises(ValueError, match="different session"):
                s2.multiply(handle)

    def test_scatter_validates_shape(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        with TsSession(a, P) as session:
            with pytest.raises(ValueError, match="rows"):
                session.scatter(csr_from_dense(random_dense(rng, N + 1, D, 0.4)))

    def test_handle_nnz_and_gather_roundtrip(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P) as session:
            h = session.scatter(b)
            assert h.nnz == b.nnz
            assert h.shape == b.shape
            assert bitwise_equal(h.gather(), b)

    def test_closed_session_refuses_multiply(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        session = TsSession(a, P)
        h = session.scatter(b)
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.multiply(h)


class TestMsbfsOnHandles:
    """The registry MS-BFS path rides handles end-to-end by default."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "spa"])
    def test_bit_identical_visited_vs_driver_gather(self, policy, kernel):
        adj = rmat(128, 6, seed=7)
        sources = random_sources(128, 8, seed=3)
        config = TsConfig(mode_policy=policy, kernel=kernel)
        resident = msbfs(adj, sources, P, config=config)
        gathered = driver_round_trip_msbfs(adj, sources, P, config=config)
        assert bitwise_equal(resident.visited, gathered.visited)
        assert resident.levels == gathered.levels
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(resident.visited, ref)

    def test_per_level_driver_bytes_zero_on_handle_path(self):
        adj = rmat(128, 6, seed=8)
        sources = random_sources(128, 8, seed=4)
        resident = msbfs(adj, sources, P)
        gathered = driver_round_trip_msbfs(adj, sources, P)
        for it in resident.iterations:
            assert it.driver_scatter_bytes == 0
            assert it.driver_gather_bytes == 0
        assert all(
            it.driver_scatter_bytes > 0 and it.driver_gather_bytes > 0
            for it in gathered.iterations
        )

    def test_per_level_comm_matches_spmd_reference(self):
        """The handle path's per-level trace still decomposes exactly like
        the single-program reference (the Fig 12 invariant)."""
        adj = erdos_renyi(80, 4, seed=5)
        sources = random_sources(80, 6, seed=6)
        resident = msbfs(adj, sources, P)
        spmd = single_program_msbfs(adj, sources, P)
        assert resident.levels == spmd.levels
        for got, want in zip(resident.iterations, spmd.iterations):
            assert got.comm_bytes == want.comm_bytes
            assert got.frontier_nnz == want.frontier_nnz

    def test_round_trip_reference_runs_the_same_multiplies(self):
        """Only the driver round trip tells the two loops apart: per level
        the same frontier, exchanges and communicated nonzeros, and
        ``comm_bytes`` apart by exactly the driver's scatter + gather."""
        adj = rmat(128, 6, seed=8)
        sources = random_sources(128, 8, seed=4)
        resident = msbfs(adj, sources, P)
        gathered = driver_round_trip_msbfs(adj, sources, P)
        assert resident.levels == gathered.levels
        for it_h, it_g in zip(resident.iterations, gathered.iterations):
            assert (it_h.frontier_nnz, it_h.rounds, it_h.comm_nnz) == (
                it_g.frontier_nnz, it_g.rounds, it_g.comm_nnz
            )
            driver = it_g.driver_scatter_bytes + it_g.driver_gather_bytes
            assert it_g.comm_bytes == it_h.comm_bytes + driver

    def test_modelled_time_improves_vs_driver_gather(self):
        adj = rmat(256, 8, seed=10)
        sources = random_sources(256, 16, seed=2)
        resident = msbfs(adj, sources, P)
        gathered = driver_round_trip_msbfs(adj, sources, P)
        assert resident.total_runtime < gathered.total_runtime

    def test_summa_session_like_for_like(self):
        """Fig 12(d)'s baseline now amortizes its setup through a
        resident session as well — results unchanged."""
        adj = erdos_renyi(48, 3, seed=7)
        sources = random_sources(48, 4, seed=4)
        result = msbfs(adj, sources, 4, algorithm="SUMMA-2D")
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert bitwise_equal(result.visited, ref)


class TestDerivedEdgeSubsetSessions:
    """Influence satellite: per-sample sessions masked from the full graph."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_derived_multiply_bit_identical(self, rng, policy):
        a = rmat(160, 6, seed=11).astype(np.bool_)
        config = TsConfig(mode_policy=policy)
        with TsSession(a, P, semiring=BOOL_AND_OR, config=config) as base:
            for draw in range(3):
                keep = rng.random(a.nnz) < 0.5
                live = mask_entries(a, keep)
                derived = base.derive_edge_subset(keep)
                b = csr_from_dense(
                    random_dense(rng, 160, D, 0.2, dtype=np.bool_)
                )
                got = derived.multiply(b)
                want = ts_spgemm(live, b, P, semiring=BOOL_AND_OR, config=config)
                assert bitwise_equal(got.C, want.C), (policy, draw)

    def test_derived_msbfs_matches_fresh_session(self, rng):
        a = rmat(128, 8, seed=12)
        a_bool = a.astype(np.bool_)
        sources = random_sources(128, 6, seed=5)
        keep = rng.random(a.nnz) < 0.4
        live = mask_entries(a, keep)
        with TsSession(a_bool, P, semiring=BOOL_AND_OR) as base:
            derived = base.derive_edge_subset(keep)
            via_derived = msbfs_on_session(derived, sources)
        via_fresh = msbfs(live, sources, P)
        assert bitwise_equal(via_derived.visited, via_fresh.visited)

    def test_derived_session_skips_reprepare_traffic(self, rng):
        """Derivation is a rank-local masking pass: no scatter, no Ac
        all-to-all — only the forced-policy mode exchange may appear."""
        a = rmat(128, 6, seed=13).astype(np.bool_)
        with TsSession(a, P, semiring=BOOL_AND_OR) as base:
            keep = rng.random(a.nnz) < 0.5
            derived = base.derive_edge_subset(keep)
            phases = derived.setup_report.phase_bytes()
            assert phases.get("build-Ac", 0) == 0
            assert base.setup_report.phase_bytes()["build-Ac"] > 0

    def test_keep_mask_length_validated(self, rng):
        a = rmat(64, 4, seed=14).astype(np.bool_)
        with TsSession(a, 2, semiring=BOOL_AND_OR) as base:
            with pytest.raises(ValueError, match="stored edges"):
                base.derive_edge_subset(np.ones(a.nnz + 1, dtype=bool))
