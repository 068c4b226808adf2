"""Figure 6: data transferred — hybrid (local+remote tiles) vs local-only.

Paper setup: 8 nodes, GAP-web, w = 16·n/p, tile height swept downward.
Expected shape: hybrid mode transfers no more than local-only at every
height, with the gap widening as tiles get shorter (short tiles are
exactly the minibatch regime where remote tiles pay off, §IV-B).
"""

import pytest

from _configs import moved_bytes
from repro.analysis import fmt_bytes, print_table
from repro.core import TsConfig, ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER

P = 16


def bench_fig06_hybrid_vs_local(benchmark, sink):
    A = load("gap", scale=1.0, seed=0)
    n = A.nrows
    B = tall_skinny(n, 128, 0.80, seed=1)
    n_over_p = n // P
    heights = [
        n_over_p,
        n_over_p // 2,
        n_over_p // 4,
        n_over_p // 8,
        n_over_p // 16,
    ]

    rows = []
    for h in heights:
        results, moved = {}, {}
        for policy in ("hybrid", "local"):
            cfg = TsConfig(tile_height=h, mode_policy=policy)
            results[policy], moved[policy] = moved_bytes(A, B, P, cfg, SCALED_PERLMUTTER)
        hybrid_bytes, local_bytes = moved["hybrid"], moved["local"]
        remote_tiles = results["hybrid"].diagnostics["remote_tiles"]
        rows.append(
            [
                f"n/p/{n_over_p // h}" if h != n_over_p else "n/p",
                fmt_bytes(local_bytes),
                fmt_bytes(hybrid_bytes),
                f"{(1 - hybrid_bytes / local_bytes) * 100:.1f}%",
                remote_tiles,
            ]
        )
        assert results["hybrid"].C.equal(results["local"].C)
        assert hybrid_bytes <= local_bytes, "hybrid must never move more data"

    print_table(
        f"Fig 6: data transferred, hybrid vs local-only mode [gap stand-in, "
        f"p={P}, w=16n/p, d=128, 80% sparse B]",
        ["tile height", "local-only bytes", "hybrid bytes", "saving", "remote tiles"],
        rows,
        file=sink,
    )

    cfg = TsConfig(tile_height=n_over_p // 8)
    benchmark(
        lambda: ts_spgemm(A, B, P, config=cfg, machine=SCALED_PERLMUTTER)
    )
