"""Benchmark: distributed operand/result handles on the MS-BFS loop.

Measures what the handle path (scatter-once → rank-resident chain → one
final gather) eliminates from the registry MS-BFS driver loop, on the
Fig 12 configuration (RMAT graph, d = 128 concurrent sources, p = 8):

1. **Per-level driver traffic** — the driver round-trip reference
   (``_oracles.driver_round_trip_msbfs``) ships every level's frontier
   and result through the driver (charged B scatter + C gather); the
   handle path must report exactly **zero** such bytes on every level.
2. **End-to-end MS-BFS** — modelled runtime (exact, virtual clocks) must
   improve on the handle path at every level, with **bit-identical
   visited sets**; the two paths must run the same multiplies (per level:
   the same frontier, exchanges and communicated nonzeros, and
   ``comm_bytes`` apart by exactly the driver's scatter + gather bytes);
   and the handle path's per-level ``comm_bytes`` must still match the
   single-program reference (``_oracles.single_program_msbfs``) exactly
   (the Fig 12 trace invariant).  Wall clock is printed, not asserted:
   the differential is a few percent of a multiply-dominated total,
   inside a loaded runner's jitter, while every gate above is exact.

Results land in ``benchmarks/results/distributed_handles.txt``.
"""

import numpy as np
from _oracles import driver_round_trip_msbfs, single_program_msbfs
from _timing import best_of_interleaved

from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.apps import msbfs
from repro.core import TsConfig
from repro.data import random_sources, rmat
from repro.mpi import SCALED_PERLMUTTER

P = 8
#: Fig 12-flavoured configuration: RMAT graph, hundreds of concurrent
#: sources (tall-and-skinny boolean frontier), p = 8.  Sized so the
#: per-level driver round-trip is a measurable fraction of wall time.
N, D = 4096, 256


def bench_distributed_handles(benchmark, sink):
    """Per-level driver traffic + end-to-end MS-BFS, handles vs gather."""
    adj = rmat(N, 8, seed=9)
    sources = random_sources(N, D, seed=4)
    machine = SCALED_PERLMUTTER
    config = TsConfig()

    # One untimed warm-up traversal (imports, allocator, thread pools)
    # so neither path pays cold-start costs in its timed runs.
    msbfs(adj, sources, P, config=config, machine=machine)

    (wall_handles, wall_gather), (res_handles, res_gather) = best_of_interleaved(
        [
            lambda: msbfs(adj, sources, P, config=config, machine=machine),
            lambda: driver_round_trip_msbfs(
                adj, sources, P, config=config, machine=machine
            ),
        ],
        repeats=4,
    )
    res_spmd = single_program_msbfs(adj, sources, P, config=config, machine=machine)

    rows = []
    for it_h, it_g in zip(res_handles.iterations, res_gather.iterations):
        rows.append(
            [
                it_h.iteration,
                f"{it_h.frontier_nnz:,}",
                fmt_bytes(it_h.driver_scatter_bytes + it_h.driver_gather_bytes),
                fmt_bytes(it_g.driver_scatter_bytes + it_g.driver_gather_bytes),
                fmt_seconds(it_h.runtime),
                fmt_seconds(it_g.runtime),
            ]
        )
    print_table(
        f"Per-level driver traffic and modelled time (rmat {N}, d={D}, p={P}, "
        f"{res_handles.levels} levels)",
        ["level", "frontier nnz", "driver bytes (handles)",
         "driver bytes (gather)", "runtime (handles)", "runtime (gather)"],
        rows,
        file=sink,
    )

    # ---- acceptance gates -------------------------------------------
    # 1. zero per-level driver scatter/gather bytes on the handle path
    for it in res_handles.iterations:
        assert it.driver_scatter_bytes == 0 and it.driver_gather_bytes == 0, (
            f"handle path leaked driver traffic at level {it.iteration}"
        )
    assert all(
        it.driver_scatter_bytes > 0 and it.driver_gather_bytes > 0
        for it in res_gather.iterations
    ), "gather ablation shows no driver traffic; gate is vacuous"

    # 2. bit-identical visited sets
    v_h, v_g = res_handles.visited, res_gather.visited
    assert (
        np.array_equal(v_h.indptr, v_g.indptr)
        and np.array_equal(v_h.indices, v_g.indices)
        and np.array_equal(v_h.data, v_g.data)
    ), "visited sets differ between handle and gather paths"

    # 3. per-level multiply traffic still matches the single-program reference
    assert res_handles.levels == res_spmd.levels
    for got, want in zip(res_handles.iterations, res_spmd.iterations):
        assert got.comm_bytes == want.comm_bytes, (
            f"level {got.iteration}: handle-path comm_bytes {got.comm_bytes} "
            f"!= single-program reference {want.comm_bytes}"
        )

    # 4. the same multiplies: only the driver round trip tells them apart
    assert res_handles.levels == res_gather.levels
    for it_h, it_g in zip(res_handles.iterations, res_gather.iterations):
        assert (it_h.frontier_nnz, it_h.rounds, it_h.comm_nnz) == (
            it_g.frontier_nnz, it_g.rounds, it_g.comm_nnz
        ), f"level {it_h.iteration}: the two paths ran different multiplies"
        driver = it_g.driver_scatter_bytes + it_g.driver_gather_bytes
        assert it_g.comm_bytes == it_h.comm_bytes + driver, (
            f"level {it_h.iteration}: comm_bytes {it_g.comm_bytes} (gather) != "
            f"{it_h.comm_bytes} (handles) + {driver} driver bytes"
        )

    # 5. modelled improvement, level by level; wall clock printed only
    for it_h, it_g in zip(res_handles.iterations, res_gather.iterations):
        assert it_h.runtime < it_g.runtime, (
            f"level {it_h.iteration}: modelled runtime did not improve: "
            f"handles={it_h.runtime} gather={it_g.runtime}"
        )
    m_h, m_g = res_handles.total_runtime, res_gather.total_runtime
    print_table(
        "MS-BFS end-to-end, handles vs driver gather",
        ["path", "modelled runtime", "best wall-clock"],
        [
            ["handles (default)", fmt_seconds(m_h), fmt_seconds(wall_handles)],
            ["driver round trip", fmt_seconds(m_g), fmt_seconds(wall_gather)],
            ["gather / handles", f"{m_g / m_h:.2f}x", f"{wall_gather / wall_handles:.2f}x"],
        ],
        file=sink,
    )

    benchmark(
        lambda: msbfs(
            adj, sources, P, config=config, machine=machine, max_levels=1
        )
    )
