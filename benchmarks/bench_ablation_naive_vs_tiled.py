"""Ablation: Algorithm 1 (naive) vs Algorithm 2 (tiled) — what the Ac
column copy and tiling actually buy.

DESIGN.md §5 calls out two claims to isolate:

* the **request round** — Alg 1 spends an extra all-to-all shipping column
  indices that the Ac copy eliminates entirely;
* the **memory bound** — Alg 1 must hold every fetched B row at once,
  while tiling caps the resident footprint per round (Fig 5's mechanism
  and the reason PETSc dies at moderate d in Fig 8).

Alg 1 runs as the ``PETSc-1D`` baseline (:func:`repro.baselines.petsc1d`).
The size is ``_configs.NAIVE_VS_TILED``; the claims are asserted, at that
size, by ``tests/paper/test_ablation_naive_vs_tiled_claims.py``.  This
bench prints the table.
"""

from _configs import NAIVE_VS_TILED
from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.baselines import petsc1d
from repro.core import ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER


def bench_ablation_naive_vs_tiled(benchmark, sink):
    P, config = NAIVE_VS_TILED["p"], NAIVE_VS_TILED["config"]
    A = load(NAIVE_VS_TILED["dataset"], scale=NAIVE_VS_TILED["scale"], seed=0)
    n = A.nrows
    rows = []
    for d, sparsity in NAIVE_VS_TILED["cases"]:
        B = tall_skinny(n, d, sparsity, seed=1)
        naive = petsc1d(A, B, P, machine=SCALED_PERLMUTTER)
        tiled = ts_spgemm(A, B, P, config=config, machine=SCALED_PERLMUTTER)
        rows.append(
            [
                f"d={d}, {sparsity:.0%}",
                fmt_bytes(naive.report.phase_bytes().get("request-indices", 0)),
                fmt_bytes(naive.report.max_rank_bytes_recv()),
                fmt_bytes(tiled.diagnostics["peak_recv_b_bytes"]),
                fmt_seconds(naive.multiply_time),
                fmt_seconds(tiled.multiply_time),
            ]
        )
    print_table(
        f"Ablation: naive (Alg 1) vs tiled (Alg 2, w=2n/p) "
        f"[{NAIVE_VS_TILED['dataset']} stand-in, p={P}]",
        [
            "workload",
            "naive request bytes",
            "naive resident B",
            "tiled peak B/round",
            "naive runtime",
            "tiled runtime",
        ],
        rows,
        file=sink,
    )

    d, sparsity = NAIVE_VS_TILED["cases"][0]
    B = tall_skinny(n, d, sparsity, seed=1)
    benchmark(lambda: petsc1d(A, B, P, machine=SCALED_PERLMUTTER))
