"""Microbenchmark: the k-way merge vs the seed's lexsort merge.

Algorithm 2 ends every tile round in ``Ci = MERGE(Ci, C_partial)``; at
p = 16 that is ``merge_csrs`` over up to 16 partials, each already a
sorted CSR.  The seed concatenated them and ran a two-key ``np.lexsort``
from scratch; PR 12 sorted one fused ``row·ncols + col`` key with a stable
(run-adaptive) sort, which on 16 sorted runs is a run merge — still the
path of blocks outside the dense bound; inside it ``merge_csrs`` now
counting-sorts the values into the very order that sort produced and
folds them with the same ``reduceat``.  This bench holds all three to
bit-identity — float partials, so the summation order is pinned too — and
gates the speedup over both: >= 2x the lexsort seed, >= 1.3x the sorted
merge.

A second case is the merge MS-BFS does: 16 sorted 256 x 64 *boolean*
partials.  ``logical_or`` is order-free, so ``merge_csrs`` folds them
through the dense accumulator the ``spa`` kernel uses instead of sorting;
same oracle, same bit-identity, same >= 2x gate.

Tile products reach the merge unsorted (``dispatch_spgemm`` with
``ordered`` false): each case is merged again with every row of every
partial in a shuffled order, and must give the sorted partials' bits at
>= 0.9x their speed.

Results land in ``benchmarks/results/micro_merge.txt``.
"""

import numpy as np

from repro.analysis import print_table
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, merge_csrs, random_csr

from _oracles import assert_bit_identical, lexsort_merge, shuffled_rows, sorted_float_merge
from _timing import best_of_interleaved

K = 16  # one rank's round at p = 16


def _gate(sink, parts, semiring, how, sorted_floor=None):
    """Time ``merge_csrs`` against the lexsort oracle on ``parts``; assert
    bit-identity and the >= 2x speedup; print the table.  ``sorted_floor``
    adds the fused-key sorted merge as a second oracle, with its own gate."""
    oracles = [lexsort_merge] + ([sorted_float_merge] if sorted_floor else [])
    (t_new, t_old, *t_sorted), (got, *wants) = best_of_interleaved(
        [lambda: merge_csrs(parts, semiring)]
        + [lambda oracle=oracle: oracle(parts, semiring) for oracle in oracles],
        repeats=7,
    )

    for want in wants:
        assert_bit_identical(got, want)

    total = sum(p.nnz for p in parts)
    nrows, d = parts[0].shape
    print_table(
        f"Merge microbench ({K} sorted {nrows} x {d} {got.data.dtype} partials, "
        f"{total:,} entries in, {got.nnz:,} out, best of 7)",
        ["merge", "time", "speedup"],
        [
            ["concatenate + np.lexsort (seed)", f"{t_old * 1e3:.3f} ms", "1.0x"],
            *(
                ["concatenate + fused-key stable sort", f"{t * 1e3:.3f} ms", f"{t_old / t:.1f}x"]
                for t in t_sorted
            ),
            [f"merge_csrs ({how})", f"{t_new * 1e3:.3f} ms", f"{t_old / t_new:.1f}x"],
        ],
        file=sink,
    )

    assert t_old >= 2.0 * t_new, (
        f"merge_csrs ({how}) must be >= 2x the lexsort merge: "
        f"{t_new * 1e3:.3f} ms vs {t_old * 1e3:.3f} ms"
    )
    for t in t_sorted:
        assert t >= sorted_floor * t_new, (
            f"merge_csrs ({how}) must be >= {sorted_floor}x the sorted merge: "
            f"{t_new * 1e3:.3f} ms vs {t * 1e3:.3f} ms"
        )
    _gate_accumulator_order(sink, parts, semiring, how)


def _gate_accumulator_order(sink, parts, semiring, how):
    """The same partials, each row in a shuffled (accumulator) order: the
    merge's bits must not move, nor its time by more than 10 %."""
    rng = np.random.default_rng(6)
    shuffled = [shuffled_rows(p, rng) for p in parts]
    (t_new, t_old), (got, want) = best_of_interleaved(
        [lambda: merge_csrs(shuffled, semiring), lambda: merge_csrs(parts, semiring)],
        repeats=7,
    )
    assert_bit_identical(got, want)
    print_table(
        f"merge_csrs ({how}) on the same partials, rows sorted vs in accumulator order",
        ["partials", "time", "speed vs sorted"],
        [
            ["rows sorted", f"{t_old * 1e3:.3f} ms", "1.00x"],
            ["rows in accumulator order", f"{t_new * 1e3:.3f} ms", f"{t_old / t_new:.2f}x"],
        ],
        file=sink,
    )
    assert t_old >= 0.9 * t_new, (
        f"merge_csrs ({how}) on partials in accumulator order must be >= 0.9x "
        f"the sorted partials' merge: {t_new * 1e3:.3f} ms vs {t_old * 1e3:.3f} ms"
    )


def bench_micro_merge(benchmark, sink):
    rng = np.random.default_rng(5)
    floats = [random_csr(1024, 128, nnz_per_row=12, rng=rng) for _ in range(K)]
    _gate(sink, floats, PLUS_TIMES, "counting sort", sorted_floor=1.3)
    # The MS-BFS merge: boolean partials of a 256-row block at d = 64,
    # one of them carrying stored False so values are folded, not skipped.
    bools = [
        random_csr(256, 64, nnz_per_row=4, rng=rng, dtype=np.bool_) for _ in range(K)
    ]
    bools[3].data[::7] = False
    _gate(sink, bools, BOOL_AND_OR, "dense accumulator")

    benchmark(lambda: merge_csrs(floats, PLUS_TIMES))
