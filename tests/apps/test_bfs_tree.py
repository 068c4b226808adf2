"""Tests for BFS parent-tree reconstruction with (sel2nd, min)."""

import networkx as nx
import numpy as np
import pytest

from repro.apps import msbfs, msbfs_tree, validate_forest
from repro.data import erdos_renyi, random_sources, rmat
from repro.sparse import from_edges


class TestSmallGraphs:
    def test_chain_parents(self):
        adj = from_edges([0, 1, 2, 3], [1, 2, 3, 4], 5, symmetric=True)
        result = msbfs_tree(adj, np.array([0]), 2)
        assert result.parent_of(0, 0) == 0  # source is its own parent
        assert result.parent_of(1, 0) == 0
        assert result.parent_of(2, 0) == 1
        assert result.parent_of(4, 0) == 3
        np.testing.assert_array_equal(result.levels[:, 0], [0, 1, 2, 3, 4])

    def test_star_parents_all_hub(self):
        adj = from_edges([0] * 6, list(range(1, 7)), 7, symmetric=True)
        result = msbfs_tree(adj, np.array([3]), 2)
        assert result.parent_of(0, 0) == 3
        for leaf in (1, 2, 4, 5, 6):
            assert result.parent_of(leaf, 0) == 0  # via the hub
        assert result.levels[0, 0] == 1
        assert result.levels[5, 0] == 2

    def test_ties_resolved_to_min_parent(self):
        # diamond: 0 - {1, 2} - 3 ; vertex 3 has two candidate parents
        adj = from_edges([0, 0, 1, 2], [1, 2, 3, 3], 4, symmetric=True)
        result = msbfs_tree(adj, np.array([0]), 2)
        assert result.parent_of(3, 0) == 1  # min(1, 2)

    def test_unreached_vertices_have_no_parent(self):
        adj = from_edges([0], [1], 4, symmetric=True)  # 2, 3 isolated
        result = msbfs_tree(adj, np.array([0]), 2)
        assert result.parent_of(2, 0) is None
        assert result.levels[2, 0] == -1

    def test_multi_source_columns_independent(self):
        adj = from_edges([0, 1, 3, 4], [1, 2, 4, 5], 6, symmetric=True)
        result = msbfs_tree(adj, np.array([0, 3]), 2)
        assert result.parent_of(2, 0) == 1
        assert result.parent_of(5, 1) == 4
        assert result.parent_of(5, 0) is None  # other component


class TestForestInvariants:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_er_forest_valid(self, p):
        adj = erdos_renyi(60, 4, seed=3)
        sources = random_sources(60, 5, seed=1)
        result = msbfs_tree(adj, sources, p)
        assert validate_forest(adj, sources, result)

    def test_rmat_forest_valid(self):
        adj = rmat(128, 6, seed=9)
        sources = random_sources(128, 8, seed=2)
        result = msbfs_tree(adj, sources, 4)
        assert validate_forest(adj, sources, result)

    def test_levels_match_networkx_distances(self):
        adj = erdos_renyi(50, 4, seed=7)
        sources = random_sources(50, 4, seed=5)
        result = msbfs_tree(adj, sources, 2)
        g = nx.Graph()
        g.add_nodes_from(range(50))
        g.add_edges_from(zip(adj.row_ids().tolist(), adj.indices.tolist()))
        for j, s in enumerate(sources):
            dist = nx.single_source_shortest_path_length(g, int(s))
            for v in range(50):
                expected = dist.get(v, -1)
                assert result.levels[v, j] == expected, (v, j)

    def test_reachability_matches_bool_msbfs(self):
        adj = erdos_renyi(64, 3, seed=11)
        sources = random_sources(64, 6, seed=4)
        tree = msbfs_tree(adj, sources, 2)
        plain = msbfs(adj, sources, 2)
        reached_tree = set(
            zip(tree.parents.row_ids().tolist(), tree.parents.indices.tolist())
        )
        reached_plain = set(
            zip(plain.visited.row_ids().tolist(), plain.visited.indices.tolist())
        )
        assert reached_tree == reached_plain

    def test_non_square_rejected(self):
        from repro.sparse import CsrMatrix

        with pytest.raises(ValueError):
            msbfs_tree(CsrMatrix.empty((2, 3)), np.array([0]), 2)
