"""The SPMD-resident embedding loop vs its driver-gather ablation.

The contract: the default loop — distributed SDDMM → TS-SpGEMM → fused
SGD/top-k epilogue, all rank-resident — produces an embedding
**bit-identical** (pattern and values) to the ``driver_gather=True``
ablation that round-trips through the driver every epoch, while moving
exactly zero per-epoch driver bytes, for any kernel, mode policy and
negative-refresh period.
"""

import threading

import numpy as np
import pytest

from repro.apps import train_sparse_embedding
from repro.core import TsConfig
from repro.data import planted_partition
from repro.sparse import CsrMatrix


@pytest.fixture(scope="module")
def community_graph():
    adj, _ = planted_partition(96, 3, p_in=0.25, p_out=0.02, seed=21)
    return adj


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def train_pair(adj, **kwargs):
    resident = train_sparse_embedding(adj, 3, driver_gather=False, **kwargs)
    ablation = train_sparse_embedding(adj, 3, driver_gather=True, **kwargs)
    return resident, ablation


class TestBitIdenticalZ:
    @pytest.mark.parametrize(
        "kernel", ["auto", "scipy", "esc-vectorized", "spa"]
    )
    def test_across_kernels(self, community_graph, kernel):
        resident, ablation = train_pair(
            community_graph, d=8, sparsity=0.5, epochs=3, seed=3,
            config=TsConfig(kernel=kernel),
        )
        assert bitwise_equal(resident.Z, ablation.Z)
        assert resident.accuracy == ablation.accuracy

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_across_mode_policies(self, community_graph, policy):
        resident, ablation = train_pair(
            community_graph, d=8, sparsity=0.5, epochs=3, seed=4,
            config=TsConfig(mode_policy=policy),
        )
        assert bitwise_equal(resident.Z, ablation.Z)

    @pytest.mark.parametrize("refresh", [1, 2, 3])
    def test_negative_refresh_composition(self, community_graph, refresh):
        """Plan reuse between redraws composes with the resident SDDMM:
        the prepared state survives value refreshes, redraws re-setup,
        and the result never drifts from the ablation."""
        resident, ablation = train_pair(
            community_graph, d=8, sparsity=0.5, epochs=5, seed=5,
            negative_refresh=refresh,
        )
        assert bitwise_equal(resident.Z, ablation.Z)


class TestDriverTraffic:
    def test_resident_epochs_move_zero_driver_bytes(self, community_graph):
        result = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=4, seed=7
        )
        for e in result.epochs:
            assert e.driver_scatter_bytes == 0
            assert e.driver_gather_bytes == 0

    def test_ablation_pays_the_round_trip_every_epoch(self, community_graph):
        result = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=4, seed=7,
            driver_gather=True,
        )
        for e in result.epochs:
            assert e.driver_scatter_bytes > 0
            assert e.driver_gather_bytes > 0

    def test_resident_modelled_runtime_beats_ablation(self, community_graph):
        resident, ablation = train_pair(
            community_graph, d=16, sparsity=0.5, epochs=3, seed=8
        )
        assert resident.total_runtime < ablation.total_runtime

    def test_sddmm_fetch_is_charged(self, community_graph):
        """The distributed SDDMM's row fetch must appear as wire traffic —
        the honest accounting the driver-side simplification skipped."""
        result = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=9
        )
        assert all(e.comm_bytes > 0 for e in result.epochs)

    def test_sddmm_fetch_falls_with_sparsity(self, community_graph):
        """Fetched Z rows ship sparse, so epoch traffic still falls as the
        embedding gets sparser (the Fig 13c invariant on the resident
        path)."""
        dense = train_sparse_embedding(
            community_graph, 3, d=16, sparsity=0.0, epochs=2, seed=10
        )
        sparse = train_sparse_embedding(
            community_graph, 3, d=16, sparsity=0.875, epochs=2, seed=10
        )
        assert sparse.total_comm_bytes < dense.total_comm_bytes


class TestSessionLifecycle:
    def test_repeated_training_releases_sessions(self, community_graph):
        """Each run closes its session; rank-worker threads must not
        accumulate across trainings."""
        train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=11
        )
        baseline = threading.active_count()
        for _ in range(3):
            train_sparse_embedding(
                community_graph, 3, d=8, sparsity=0.5, epochs=2, seed=11
            )
        assert threading.active_count() <= baseline + 3

    def test_determinism_across_runs(self, community_graph):
        r1 = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=3, seed=12
        )
        r2 = train_sparse_embedding(
            community_graph, 3, d=8, sparsity=0.5, epochs=3, seed=12
        )
        assert bitwise_equal(r1.Z, r2.Z)
        assert r1.accuracy == r2.accuracy

    def test_derive_still_works_on_embedding_style_sessions(self, rng):
        """Value-refreshed sessions keep the derive machinery intact:
        refresh values via a prologue, then derive an edge subset — the
        child must match a fresh session on the refreshed masked matrix."""
        from repro.core import TsSession, ts_spgemm
        from repro.sparse import mask_entries
        from ..conftest import csr_from_dense, random_dense

        a = csr_from_dense(random_dense(rng, 48, 48, 0.2))
        b = csr_from_dense(random_dense(rng, 48, 6, 0.4))
        new_vals = rng.random(a.nnz) + 0.5
        keep = rng.random(a.nnz) < 0.7

        def prologue(comm, operand):
            lo, hi = operand.rows.range_of(comm.rank)
            operand.refresh_values(new_vals[a.indptr[lo] : a.indptr[hi]])

        with TsSession(a, 4) as session:
            session.multiply(b, prologue=prologue)
            child = session.derive_edge_subset(keep)
            got = child.multiply(b).C
        a2 = CsrMatrix(a.shape, a.indptr, a.indices, new_vals, check=False)
        want = ts_spgemm(mask_entries(a2, keep), b, 4).C
        assert bitwise_equal(got, want)
