"""Microbenchmark: the fused-key k-way merge vs the seed's lexsort merge.

Algorithm 2 ends every tile round in ``Ci = MERGE(Ci, C_partial)``; at
p = 16 that is ``merge_csrs`` over up to 16 partials, each already a
sorted CSR.  The seed concatenated them and ran a two-key ``np.lexsort``
from scratch; ``merge_csrs`` now sorts one fused ``row·ncols + col`` key
with a stable (run-adaptive) sort, which on 16 sorted runs is a run merge.
This bench holds the two to bit-identity — float partials, so the
``reduceat`` summation order is pinned too — and gates the speedup.

Results land in ``benchmarks/results/micro_merge.txt``.
"""

import numpy as np

from repro.analysis import print_table
from repro.sparse import PLUS_TIMES, merge_csrs, random_csr

from _oracles import lexsort_merge
from _timing import best_of_interleaved

K, NROWS, D = 16, 1024, 128  # one rank's round at p = 16, d = 128
NNZ_PER_ROW = 12


def bench_micro_merge(benchmark, sink):
    rng = np.random.default_rng(5)
    parts = [
        random_csr(NROWS, D, nnz_per_row=NNZ_PER_ROW, rng=rng) for _ in range(K)
    ]

    (t_new, t_old), (got, want) = best_of_interleaved(
        [
            lambda: merge_csrs(parts, PLUS_TIMES),
            lambda: lexsort_merge(parts, PLUS_TIMES),
        ],
        repeats=7,
    )

    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()

    total = sum(p.nnz for p in parts)
    print_table(
        f"Merge microbench ({K} sorted {NROWS} x {D} partials, "
        f"{total:,} entries in, {got.nnz:,} out, best of 7)",
        ["merge", "time", "speedup"],
        [
            ["concatenate + np.lexsort (seed)", f"{t_old * 1e3:.2f} ms", "1.0x"],
            ["merge_csrs (fused key)", f"{t_new * 1e3:.2f} ms", f"{t_old / t_new:.1f}x"],
        ],
        file=sink,
    )

    assert t_old >= 2.0 * t_new, (
        f"fused-key merge must be >= 2x the lexsort merge: "
        f"{t_new * 1e3:.2f} ms vs {t_old * 1e3:.2f} ms"
    )

    benchmark(lambda: merge_csrs(parts, PLUS_TIMES))
