"""Figure 7: TS-SpGEMM vs SpMM — communication volume and runtime vs
B sparsity.

Paper setup: 32 nodes (p = 256), both variants sharing the identical
communication pattern.  Expected shape: SpGEMM's communicated volume falls
linearly with sparsity and crosses below SpMM's (constant) volume around
50 % — the index-vs-values accounting of §V-C — while its *runtime*
crossover sits somewhat above 50 % because sparse accumulation costs more
per flop.  The paper's recommendation: use TS-SpGEMM once B is ≥50 %
sparse.

The size is ``_configs.FIG07``; the claims are asserted, at that size, by
``tests/paper/test_fig07_claims.py``.  This bench prints the sweep.
"""

import numpy as np

from _configs import FIG07
from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.baselines import shift15d_spmm
from repro.core import ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER


def bench_fig07_spgemm_vs_spmm(benchmark, sink):
    P, d = FIG07["p"], FIG07["d"]
    A = load(FIG07["dataset"], scale=FIG07["scale"], seed=0)
    n = A.nrows
    dense_b = np.random.default_rng(1).random((n, d)) + 0.05

    # SpMM cost does not depend on B's sparsity: run once.
    spmm_res = ts_spgemm(A, dense_b, P, machine=SCALED_PERLMUTTER)
    rows = []
    crossover_seen = None
    for s in FIG07["sparsities"]:
        B = tall_skinny(n, d, s, seed=2)
        spgemm_res = ts_spgemm(A, B, P, machine=SCALED_PERLMUTTER)
        winner = (
            "SpGEMM" if spgemm_res.multiply_time < spmm_res.multiply_time else "SpMM"
        )
        if winner == "SpGEMM" and crossover_seen is None:
            crossover_seen = s
        rows.append(
            [
                f"{s:.1%}",
                fmt_bytes(spgemm_res.comm_bytes()),
                fmt_bytes(spmm_res.comm_bytes()),
                fmt_seconds(spgemm_res.multiply_time),
                fmt_seconds(spmm_res.multiply_time),
                winner,
            ]
        )
    print_table(
        f"Fig 7: TS-SpGEMM vs SpMM [{FIG07['dataset']} stand-in, p={P}, d={d}]",
        [
            "B sparsity",
            "SpGEMM comm",
            "SpMM comm",
            "SpGEMM runtime",
            "SpMM runtime",
            "faster",
        ],
        rows,
        file=sink,
    )
    crossover = "never" if crossover_seen is None else f"~{crossover_seen:.0%} sparsity"
    print(
        f"\nRuntime crossover: TS-SpGEMM becomes faster at {crossover} "
        "(paper: recommend SpGEMM for >= 50% sparse B).",
        file=sink,
    )

    # §V-C footnote: "our SpMM performs comparably or better than the
    # 1.5D dense shifting algorithm" — include the comparator.
    shift_res = shift15d_spmm(A, dense_b, P, machine=SCALED_PERLMUTTER)
    print_table(
        "SpMM implementation check (§V-C): fetch-based vs 1.5D shifting",
        ["variant", "comm", "runtime"],
        [
            ["fetch-based (ours)", fmt_bytes(spmm_res.comm_bytes()),
             fmt_seconds(spmm_res.multiply_time)],
            ["1.5D dense shifting", fmt_bytes(shift_res.comm_bytes()),
             fmt_seconds(shift_res.runtime)],
        ],
        file=sink,
    )

    benchmark(lambda: ts_spgemm(A, dense_b, P, machine=SCALED_PERLMUTTER))
