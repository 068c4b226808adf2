"""Multi-source BFS correctness (vs networkx and the serial reference)."""

import importlib

import networkx as nx
import numpy as np
import pytest

from repro.apps import msbfs
from _oracles import reference_reachability
from repro.baselines import ALGORITHMS, SESSIONS, make_session
from repro.data import erdos_renyi, random_sources, rmat
from repro.sparse import CsrMatrix, from_edges


def nx_graph(adj: CsrMatrix) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(adj.nrows))
    g.add_edges_from(zip(adj.row_ids().tolist(), adj.indices.tolist()))
    return g


def nx_reachability(adj: CsrMatrix, sources) -> set:
    g = nx_graph(adj)
    out = set()
    for j, s in enumerate(sources):
        for v in nx.node_connected_component(g, int(s)):
            out.add((v, j))
    return out


def visited_set(visited: CsrMatrix) -> set:
    return set(zip(visited.row_ids().tolist(), visited.indices.tolist()))


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_networkx_er(self, p):
        adj = erdos_renyi(60, 3, seed=5)
        sources = random_sources(60, 4, seed=1)
        result = msbfs(adj, sources, p)
        assert visited_set(result.visited) == nx_reachability(adj, sources)

    def test_matches_networkx_rmat(self):
        adj = rmat(128, 6, seed=2)
        sources = random_sources(128, 8, seed=3)
        result = msbfs(adj, sources, 4)
        assert visited_set(result.visited) == nx_reachability(adj, sources)

    def test_matches_serial_reference(self):
        adj = erdos_renyi(50, 4, seed=9)
        sources = random_sources(50, 5, seed=2)
        result = msbfs(adj, sources, 3)
        ref = reference_reachability(adj.astype(np.bool_), sources)
        assert result.visited.equal(ref)

    def test_chain_graph_level_by_level(self):
        # path 0-1-2-3-4: BFS from 0 discovers one vertex per level; Alg 3
        # iterates while nnz(F) > 0, so a final empty-discovery level runs.
        adj = from_edges([0, 1, 2, 3], [1, 2, 3, 4], 5, symmetric=True)
        result = msbfs(adj, np.array([0]), 2)
        assert result.levels == 5
        fronts = [it.frontier_nnz for it in result.iterations]
        assert fronts == [1, 1, 1, 1, 1]
        assert result.iterations[-1].discovered_nnz == 0
        assert result.reachable_counts()[0] == 5

    def test_star_graph_two_levels(self):
        # star: hub 0; BFS from a leaf reaches hub then all other leaves,
        # plus Alg 3's terminal empty-discovery level.
        leaves = list(range(1, 8))
        adj = from_edges([0] * 7, leaves, 8, symmetric=True)
        result = msbfs(adj, np.array([3]), 2)
        assert result.levels == 3
        assert result.iterations[0].discovered_nnz == 1  # the hub
        assert result.iterations[1].discovered_nnz == 6  # other leaves
        assert result.reachable_counts()[0] == 8

    def test_disconnected_components(self):
        # two disjoint edges; BFS from 0 must not reach component {2,3}
        adj = from_edges([0, 2], [1, 3], 4, symmetric=True)
        result = msbfs(adj, np.array([0, 2]), 2)
        dense = result.visited.to_dense()
        assert dense[0, 0] and dense[1, 0]
        assert not dense[2, 0] and not dense[3, 0]
        assert dense[2, 1] and dense[3, 1]

    def test_isolated_source_terminates(self):
        adj = from_edges([0], [1], 4, symmetric=True)  # vertices 2,3 isolated
        result = msbfs(adj, np.array([2]), 2)
        assert result.levels <= 1
        assert result.reachable_counts()[0] == 1

    def test_max_levels_cuts_off(self):
        adj = from_edges([0, 1, 2, 3], [1, 2, 3, 4], 5, symmetric=True)
        result = msbfs(adj, np.array([0]), 2, max_levels=2)
        assert result.levels == 2
        assert result.reachable_counts()[0] == 3  # 0,1,2

    def test_reachable_counts_covers_every_source(self):
        # One count per source (int64), also for trailing sources whose
        # visited column is empty, and for a wholly empty visited set.
        from repro.apps.msbfs import BfsResult

        visited = CsrMatrix.from_dense(
            np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]], dtype=bool)
        )
        counts = BfsResult(visited).reachable_counts()
        assert counts.dtype == np.int64
        assert counts.tolist() == [2, 2, 0, 0]
        empty = BfsResult(CsrMatrix.empty((3, 4), dtype=np.bool_)).reachable_counts()
        assert empty.dtype == np.int64 and empty.tolist() == [0, 0, 0, 0]

    def test_non_square_rejected(self):
        from repro.sparse import CsrMatrix

        with pytest.raises(ValueError):
            msbfs(CsrMatrix.empty((3, 4)), np.array([0]), 2)


def nx_level_sizes(adj: CsrMatrix, sources) -> list:
    """nnz(F) entering each Alg 3 level: the (vertex, source) pairs at
    BFS distance ``level``, up to the largest distance."""
    g = nx_graph(adj)
    dists = [
        d
        for s in sources
        for d in nx.single_source_shortest_path_length(g, int(s)).values()
    ]
    return np.bincount(dists).tolist()


class TestAlgorithmChoices:
    """Every registry algorithm through ``msbfs`` — the handle loop (TS
    sessions), the driver loop on a session (SUMMA) and per call
    (PETSc-1D) — traverses level for level like the serial BFS."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_same_reachability_all_algorithms(self, algorithm):
        adj = erdos_renyi(48, 3, seed=7)
        sources = random_sources(48, 4, seed=4)
        fronts = nx_level_sizes(adj, sources)
        assert len(fronts) > 2
        # p = 4: a 2 x 2 grid for SUMMA-2D, 1 x 1 x 4 layers for SUMMA-3D
        result = msbfs(adj, sources, 4, algorithm=algorithm)
        assert visited_set(result.visited) == nx_reachability(adj, sources)
        assert [it.frontier_nnz for it in result.iterations] == fronts
        capped = msbfs(adj, sources, 4, algorithm=algorithm, max_levels=2)
        assert [it.frontier_nnz for it in capped.iterations] == fronts[:2]


class TestSessionLifecycle:
    @pytest.mark.parametrize("algorithm", sorted(SESSIONS))
    def test_msbfs_closes_the_session_it_made(self, monkeypatch, algorithm):
        msbfs_module = importlib.import_module("repro.apps.msbfs")

        made = []

        def recording(*args, **kwargs):
            made.append(make_session(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(msbfs_module, "make_session", recording)
        msbfs(erdos_renyi(40, 3, seed=2), np.array([0, 5]), 4, algorithm=algorithm)
        assert len(made) == 1 and made[0].closed

    def test_unknown_algorithm_fails_before_any_session(self, monkeypatch):
        msbfs_module = importlib.import_module("repro.apps.msbfs")

        def refuse(*args, **kwargs):
            raise AssertionError("a session was built for an unknown algorithm")

        monkeypatch.setattr(msbfs_module, "make_session", refuse)
        with pytest.raises(KeyError, match="FOO"):
            msbfs(erdos_renyi(40, 3, seed=2), np.array([0]), 4, algorithm="FOO")


class TestIterationStats:
    def test_frontier_rises_then_falls_on_scale_free(self):
        """Fig 12(a): the frontier densifies for a few levels, then thins."""
        adj = rmat(512, 8, seed=11)
        sources = random_sources(512, 16, seed=5)
        result = msbfs(adj, sources, 4)
        fronts = [it.frontier_nnz for it in result.iterations]
        assert len(fronts) >= 2
        peak = int(np.argmax(fronts))
        assert fronts[peak] > fronts[0]
        assert fronts[-1] <= fronts[peak]

    def test_comm_tracks_frontier(self):
        """Fig 12(b)-(c): communication follows the frontier size."""
        adj = rmat(256, 8, seed=13)
        sources = random_sources(256, 8, seed=6)
        result = msbfs(adj, sources, 4)
        fronts = np.array([it.frontier_nnz for it in result.iterations])
        comm = np.array([it.comm_bytes for it in result.iterations])
        peak = int(np.argmax(fronts))
        assert comm[peak] >= comm[-1]

    def test_runtime_recorded_per_level(self):
        adj = erdos_renyi(40, 3, seed=1)
        result = msbfs(adj, np.array([0, 1]), 2)
        assert all(it.runtime > 0 for it in result.iterations)
        assert result.total_runtime > 0
