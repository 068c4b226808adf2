"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    bfs_frontier,
    erdos_renyi,
    get_dataset,
    load,
    planted_partition,
    random_sources,
    rmat,
    tall_skinny,
)
from repro.sparse import CsrMatrix


class TestErdosRenyi:
    def test_shape_and_degree(self):
        g = erdos_renyi(500, 8, seed=1)
        assert g.shape == (500, 500)
        avg = g.nnz / 500
        assert 6 < avg < 10

    def test_symmetric(self):
        g = erdos_renyi(100, 6, seed=2)
        from repro.sparse import transpose

        assert transpose(g).equal(g)

    def test_no_self_loops(self):
        g = erdos_renyi(100, 6, seed=3)
        rows = g.row_ids()
        assert not np.any(rows == g.indices)

    def test_deterministic(self):
        assert erdos_renyi(50, 4, seed=7).equal(erdos_renyi(50, 4, seed=7))
        assert not erdos_renyi(50, 4, seed=7).equal(erdos_renyi(50, 4, seed=8))


class TestRmat:
    def test_shape_and_degree(self):
        g = rmat(512, 16, seed=1)
        assert g.shape == (512, 512)
        avg = g.nnz / 512
        assert 8 < avg < 20  # duplicate collapse reduces below target

    def test_skewed_degrees(self):
        """RMAT must produce a heavier tail than ER at equal avg degree."""
        n, k = 1024, 16
        g_rmat = rmat(n, k, seed=5)
        g_er = erdos_renyi(n, k, seed=5)
        assert g_rmat.row_nnz().max() > 2 * g_er.row_nnz().max()

    def test_no_self_loops(self):
        g = rmat(256, 8, seed=2)
        assert not np.any(g.row_ids() == g.indices)

    def test_symmetric(self):
        g = rmat(256, 8, seed=3)
        from repro.sparse import transpose

        assert transpose(g).equal(g)

    def test_deterministic(self):
        assert rmat(128, 8, seed=9).equal(rmat(128, 8, seed=9))


class TestPlantedPartition:
    def test_returns_labels(self):
        adj, labels = planted_partition(200, 4, seed=1)
        assert adj.shape == (200, 200)
        assert len(labels) == 200
        assert set(np.unique(labels)) <= set(range(4))

    def test_intra_community_denser(self):
        adj, labels = planted_partition(300, 3, p_in=0.2, p_out=0.004, seed=2)
        rows = adj.row_ids()
        same = labels[rows] == labels[adj.indices]
        # most edges should be intra-community
        assert same.mean() > 0.7

    def test_symmetric(self):
        adj, _ = planted_partition(150, 3, seed=3)
        from repro.sparse import transpose

        assert transpose(adj).equal(adj)


class TestTallSkinny:
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.8, 0.99])
    def test_sparsity_honoured(self, sparsity):
        b = tall_skinny(2000, 100, sparsity, seed=1)
        density = b.nnz / (2000 * 100)
        assert density == pytest.approx(1 - sparsity, abs=0.02)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            tall_skinny(10, 4, 1.5)

    def test_fully_sparse(self):
        assert tall_skinny(50, 8, 1.0).nnz == 0

    def test_deterministic(self):
        assert tall_skinny(100, 16, 0.8, seed=4).equal(
            tall_skinny(100, 16, 0.8, seed=4)
        )


class TestBfsFrontier:
    def test_one_nonzero_per_column(self):
        sources = np.array([5, 0, 9])
        f = bfs_frontier(10, sources)
        assert f.shape == (10, 3)
        assert f.nnz == 3
        dense = f.to_dense()
        for j, s in enumerate(sources):
            assert dense[s, j]

    def test_bool_dtype(self):
        f = bfs_frontier(5, np.array([1]))
        assert f.dtype == np.bool_

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_frontier(5, np.array([7]))

    def test_random_sources_distinct(self):
        s = random_sources(100, 20, seed=1)
        assert len(np.unique(s)) == 20

    def test_random_sources_clamped(self):
        s = random_sources(5, 10, seed=1)
        assert len(s) == 5


class TestDatasets:
    def test_registry_has_all_table5_rows(self):
        expected = {"pubmed", "flicker", "cora", "citeseer", "arabic", "it", "gap", "uk", "ER"}
        assert set(DATASETS) == expected

    def test_paper_statistics_recorded(self):
        uk = get_dataset("uk")
        assert uk.paper_vertices == 18_520_486
        assert uk.avg_degree == pytest.approx(16.0)

    @pytest.mark.parametrize("alias", ["uk", "ER", "cora"])
    def test_generate(self, alias):
        g = load(alias, scale=0.1, seed=0)
        assert isinstance(g, CsrMatrix)
        assert g.nrows > 0 and g.nnz > 0

    def test_scale_changes_size(self):
        small = load("uk", scale=0.05)
        big = load("uk", scale=0.2)
        assert big.nrows > small.nrows

    def test_labels_for_planted(self):
        adj, labels = get_dataset("cora").generate_with_labels(scale=0.5)
        assert labels is not None and len(labels) == adj.nrows

    def test_no_labels_for_rmat(self):
        _, labels = get_dataset("uk").generate_with_labels(scale=0.05)
        assert labels is None

    def test_unknown_alias(self):
        with pytest.raises(KeyError):
            get_dataset("twitter")
