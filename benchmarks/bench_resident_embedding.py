"""Benchmark: the SPMD-resident embedding loop vs the driver-gather ablation.

Measures what the distributed SDDMM + dense/sparse handle chain removes
from sparse-embedding training on a Fig 13-flavoured configuration (cora
stand-in, d = 64, 80 % sparse Z, b = 0.5·n/p mini-batch tiles, p = 4,
one negative redraw mid-run so plan reuse and re-setup both appear):

1. **Per-epoch driver traffic** — the ``driver_gather=True`` ablation
   round-trips Z and the gradient through the driver every epoch
   (charged scatter + gather, SDDMM computed driver-side); the resident
   path must report exactly **zero** such bytes on every epoch.
2. **End-to-end training** — modelled runtime (virtual clocks, now
   including the honestly-charged SDDMM row fetches) must improve, with
   a **bit-identical** embedding (pattern and values).  Wall clock is
   printed, not asserted: the differential is a few percent of a
   multiply-dominated total, inside a loaded runner's jitter.

Results land in ``benchmarks/results/resident_embedding.txt``.
"""

import numpy as np
from _timing import best_of_interleaved

from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.apps import train_sparse_embedding
from repro.core import TsConfig
from repro.data import get_dataset
from repro.mpi import SCALED_PERLMUTTER

P = 4
D = 64
SPARSITY = 0.8
EPOCHS = 8
NEGATIVE_REFRESH = 4  # one redraw mid-run: exercises re-setup + plan reuse



def bench_resident_embedding(benchmark, sink):
    """Per-epoch driver traffic + end-to-end training, resident vs gather."""
    adj, _ = get_dataset("cora").generate_with_labels(scale=1.0, seed=4)
    n = adj.nrows
    batch = max(n // P // 2, 1)  # b = 0.5 n/p (Table IV / §V-G)
    config = TsConfig(tile_height=batch)
    kwargs = dict(
        d=D, sparsity=SPARSITY, epochs=EPOCHS, seed=1, learning_rate=0.05,
        config=config, machine=SCALED_PERLMUTTER,
        negative_refresh=NEGATIVE_REFRESH,
    )

    # One untimed warm-up (imports, allocator, thread pools) so neither
    # path pays cold-start costs in its timed runs.
    train_sparse_embedding(
        adj, P, d=D, epochs=1, config=config, machine=SCALED_PERLMUTTER
    )

    (wall_res, wall_abl), (res, abl) = best_of_interleaved(
        [
            lambda: train_sparse_embedding(adj, P, **kwargs),
            lambda: train_sparse_embedding(
                adj, P, driver_gather=True, **kwargs
            ),
        ],
        repeats=4,
    )

    rows = []
    for e_r, e_a in zip(res.epochs, abl.epochs):
        rows.append(
            [
                e_r.epoch,
                f"{e_r.z_nnz:,}",
                fmt_bytes(e_r.driver_scatter_bytes + e_r.driver_gather_bytes),
                fmt_bytes(e_a.driver_scatter_bytes + e_a.driver_gather_bytes),
                fmt_seconds(e_r.runtime),
                fmt_seconds(e_a.runtime),
            ]
        )
    print_table(
        f"Per-epoch driver traffic and modelled time (cora stand-in n={n}, "
        f"d={D}, {SPARSITY:.0%} sparse Z, p={P}, "
        f"negative refresh {NEGATIVE_REFRESH})",
        ["epoch", "Z nnz", "driver bytes (resident)", "driver bytes (gather)",
         "runtime (resident)", "runtime (gather)"],
        rows,
        file=sink,
    )

    # ---- acceptance gates -------------------------------------------
    # 1. zero per-epoch driver scatter/gather bytes on the resident path
    for e in res.epochs:
        assert e.driver_scatter_bytes == 0 and e.driver_gather_bytes == 0, (
            f"resident path leaked driver traffic at epoch {e.epoch}"
        )
    assert all(
        e.driver_scatter_bytes > 0 and e.driver_gather_bytes > 0
        for e in abl.epochs
    ), "gather ablation shows no driver traffic; gate is vacuous"

    # 2. bit-identical embedding (pattern and values)
    z_r, z_a = res.Z, abl.Z
    assert (
        np.array_equal(z_r.indptr, z_a.indptr)
        and np.array_equal(z_r.indices, z_a.indices)
        and np.array_equal(z_r.data, z_a.data)
    ), "embeddings differ between resident and gather paths"
    assert res.accuracy == abl.accuracy

    # 3. end-to-end modelled improvement; wall clock printed only
    m_r, m_a = res.total_runtime, abl.total_runtime
    print_table(
        "Embedding training end-to-end, resident vs driver gather",
        ["path", "modelled runtime", "best wall-clock", "epoch comm (mean)"],
        [
            [
                "resident (default)", fmt_seconds(m_r),
                fmt_seconds(wall_res),
                fmt_bytes(res.total_comm_bytes // EPOCHS),
            ],
            [
                "driver_gather=True", fmt_seconds(m_a),
                fmt_seconds(wall_abl),
                fmt_bytes(abl.total_comm_bytes // EPOCHS),
            ],
        ],
        file=sink,
    )
    assert m_r < m_a, (
        f"modelled training time did not improve: resident={m_r} gather={m_a}"
    )

    benchmark(
        lambda: train_sparse_embedding(
            adj, P, d=D, sparsity=SPARSITY, epochs=1, seed=1,
            config=config, machine=SCALED_PERLMUTTER,
        )
    )
