"""Microbenchmark: the fused-key k-way merge vs the seed's lexsort merge.

Algorithm 2 ends every tile round in ``Ci = MERGE(Ci, C_partial)``; at
p = 16 that is ``merge_csrs`` over up to 16 partials, each already a
sorted CSR.  The seed concatenated them and ran a two-key ``np.lexsort``
from scratch; ``merge_csrs`` now sorts one fused ``row·ncols + col`` key
with a stable (run-adaptive) sort, which on 16 sorted runs is a run merge.
This bench holds the two to bit-identity — float partials, so the
``reduceat`` summation order is pinned too — and gates the speedup.

A second case is the merge MS-BFS does: 16 sorted 256 x 64 *boolean*
partials.  ``logical_or`` is order-free, so ``merge_csrs`` folds them
through the dense accumulator the ``spa`` kernel uses instead of sorting;
same oracle, same bit-identity, same >= 2x gate.

Results land in ``benchmarks/results/micro_merge.txt``.
"""

import numpy as np

from repro.analysis import print_table
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, merge_csrs, random_csr

from _oracles import lexsort_merge
from _timing import best_of_interleaved

K = 16  # one rank's round at p = 16


def _gate(sink, parts, semiring, how):
    """Time ``merge_csrs`` against the lexsort oracle on ``parts``; assert
    bit-identity and the >= 2x speedup; print the table."""
    (t_new, t_old), (got, want) = best_of_interleaved(
        [lambda: merge_csrs(parts, semiring), lambda: lexsort_merge(parts, semiring)],
        repeats=7,
    )

    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()

    total = sum(p.nnz for p in parts)
    nrows, d = parts[0].shape
    print_table(
        f"Merge microbench ({K} sorted {nrows} x {d} {got.data.dtype} partials, "
        f"{total:,} entries in, {got.nnz:,} out, best of 7)",
        ["merge", "time", "speedup"],
        [
            ["concatenate + np.lexsort (seed)", f"{t_old * 1e3:.3f} ms", "1.0x"],
            [f"merge_csrs ({how})", f"{t_new * 1e3:.3f} ms", f"{t_old / t_new:.1f}x"],
        ],
        file=sink,
    )

    assert t_old >= 2.0 * t_new, (
        f"merge_csrs ({how}) must be >= 2x the lexsort merge: "
        f"{t_new * 1e3:.3f} ms vs {t_old * 1e3:.3f} ms"
    )


def bench_micro_merge(benchmark, sink):
    rng = np.random.default_rng(5)
    floats = [random_csr(1024, 128, nnz_per_row=12, rng=rng) for _ in range(K)]
    _gate(sink, floats, PLUS_TIMES, "fused key")
    # The MS-BFS merge: boolean partials of a 256-row block at d = 64,
    # one of them carrying stored False so values are folded, not skipped.
    bools = [
        random_csr(256, 64, nnz_per_row=4, rng=rng, dtype=np.bool_) for _ in range(K)
    ]
    bools[3].data[::7] = False
    _gate(sink, bools, BOOL_AND_OR, "dense accumulator")

    benchmark(lambda: merge_csrs(floats, PLUS_TIMES))
