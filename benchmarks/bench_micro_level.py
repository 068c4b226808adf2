"""Microbenchmark: ``replan`` over the stored slots vs over every slot.

One level of MS-BFS plans once per rank.  ``replan`` used to visit every
(peer, row tile) slot of ``prepared.subtiles`` — a fresh ``SubtileInfo``
even for the EMPTY ones — and multiply all ``n`` rows of ``Ac_j`` with two
prefix arrays over them; it now walks an index of the stored slots, built
once per pattern, multiplies the row span that holds them and builds no
prefix array for a product without a multiplication.  The dense loop is
kept as ``_oracles.per_slot_replan``; this bench holds the replacement to
its plan field for field (``assert_same_plan``) with the same per-rank
``symbolic`` ``PhaseStats``, and gates the time of one plan per rank per
frontier, every 6th level of a traversal, each rank timed alone while the
others wait (summed over ranks):

* on the 40 x 40 grid at p = 16, d = 8 — ``msbfs_deep``'s operand, where
  46 of the 256 (rank, peer, tile) slots store anything — >= 1.2x
  (measured 1.33-1.36x; a probe that times all 16 rank threads at once
  reads 1.44-1.79x, too wide to gate on);
* on a relabelled RMAT graph at p = 16 where every slot is stored — the
  case with nothing to skip — not slower than 0.95x.

Results land in ``benchmarks/results/micro_level.txt``.
"""

import time

import numpy as np

from repro.analysis import print_table
from repro.apps.msbfs import msbfs
from repro.core import TsConfig, prepare_multiply, replan
from repro.data.generators import bfs_frontier, rmat
from repro.mpi import run_spmd
from repro.partition import DistSparseMatrix
from repro.sparse import BOOL_AND_OR, CsrMatrix, dispatch_spgemm, from_edges
from repro.sparse.ops import difference_and_union

from _oracles import assert_same_plan, per_slot_replan

P, D = 16, 8
REPEATS, CALLS = 5, 10  # best of REPEATS rounds of CALLS plans per frontier


def _grid(side=40):
    idx = np.arange(side * side).reshape(side, side)
    src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return from_edges(src, dst, side * side, symmetric=True).astype(np.bool_)


def _relabelled_rmat(n=4096, degree=32, seed=5):
    """RMAT with its vertices renumbered at random (as Graph500 does), so
    no (rank, peer) block of the 16 x 16 partition is left empty."""
    graph = rmat(n, degree, seed=seed).to_scipy()
    perm = np.random.default_rng(seed).permutation(n)
    return CsrMatrix.from_scipy(graph[perm][:, perm].tocsr()).astype(np.bool_)


def _frontiers(a, levels):
    """The MS-BFS frontiers of ``a`` from D seeded sources at ``levels``."""
    sources = np.random.default_rng(8).choice(a.nrows, size=D, replace=False)
    frontier = visited = bfs_frontier(a.nrows, sources)
    out = []
    for level in range(max(levels) + 1):
        if level in levels:
            out.append(frontier)
        reached, _ = dispatch_spgemm(a, frontier, BOOL_AND_OR)
        frontier, visited = difference_and_union(reached, visited, BOOL_AND_OR)
    return out


def _plans_and_phases(planner, a, b, config):
    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a)
        dist_a.build_column_copy()
        dist_b = DistSparseMatrix.scatter_rows(comm, b)
        return planner(prepare_multiply(dist_a, config), dist_a, dist_b)

    result = run_spmd(P, program)
    return result.values, [rs.phases["symbolic"] for rs in result.report.rank_stats]


def _race(a, bs, config):
    """Both planners on every rank, the ranks taking turns so each is timed
    with the process to itself; best of REPEATS, summed over ranks:
    ``(stored-slot seconds, per-slot seconds, stored slots, slots)``.
    The planners swap places on every repeat, so a burst of host load
    does not always fall on the same side."""

    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a)
        dist_a.build_column_copy()
        dist_bs = [DistSparseMatrix.scatter_rows(comm, b) for b in bs]
        prepared = prepare_multiply(dist_a, config)
        best = [float("inf"), float("inf")]
        sides = [(0, replan), (1, per_slot_replan)]
        for turn in range(comm.size):
            for repeat in range(REPEATS if comm.rank == turn else 0):
                for side, planner in sides if repeat % 2 == 0 else sides[::-1]:
                    t0 = time.perf_counter()
                    for _ in range(CALLS):
                        for dist_b in dist_bs:
                            planner(prepared, dist_a, dist_b)
                    best[side] = min(best[side], time.perf_counter() - t0)
            comm.barrier()
        stored = sum(ps.stored for subs in prepared.subtiles.values() for ps in subs)
        return best[0], best[1], stored, sum(map(len, prepared.subtiles.values()))

    values = run_spmd(P, program).values
    return tuple(sum(v[k] for v in values) for k in range(4))


def bench_micro_level(benchmark, sink):
    config = TsConfig()
    grid, graph = _grid(), _relabelled_rmat()
    cases = [
        ("40x40 grid", grid, _frontiers(grid, range(0, 78, 6)), 1.2),
        ("RMAT 4096, relabelled", graph, _frontiers(graph, range(4)), 0.95),
    ]
    table = []
    for label, a, bs, floor in cases:
        for b in bs:
            got, got_phase = _plans_and_phases(replan, a, b, config)
            want, want_phase = _plans_and_phases(per_slot_replan, a, b, config)
            assert got_phase == want_phase  # per rank: clocks and counters
            for rank_got, rank_want in zip(got, want):
                assert_same_plan(rank_got, rank_want)
        t_new, t_old, stored, slots = _race(a, bs, config)
        assert (stored == slots) == (floor < 1.0), f"{label}: {stored} of {slots} stored"
        per_plan = P * CALLS * len(bs)
        table.append(
            [
                label, f"{stored} / {slots}", f"{t_old / per_plan * 1e6:.0f} us",
                f"{t_new / per_plan * 1e6:.0f} us", f"{t_old / t_new:.2f}x",
            ]
        )
        assert t_old >= floor * t_new, (
            f"{label}: stored-slot replan must be >= {floor}x the per-slot "
            f"loop, got {t_new * 1e3:.1f} ms vs {t_old * 1e3:.1f} ms"
        )
    print_table(
        f"replan, p={P}, d={D}: per plan, each rank timed alone (best of {REPEATS})",
        ["operand", "stored slots", "every slot", "stored slots only", "speedup"],
        table,
        file=sink,
    )
    sources = np.random.default_rng(8).choice(grid.nrows, size=D, replace=False)
    benchmark(lambda: msbfs(grid, sources, P, config=config, max_levels=4))
