"""Microbenchmark: one pass over a row block vs one pass per column block.

The paper's set-up (§III-A/B) cuts every rank's row block ``Ai`` by the
``p`` column ranges — to ship the ``Ac`` strips, to tile the consumer side,
to refresh values — and reads each ``Ac_j`` subtile's ``nzc``.  ``src/`` ran
``p`` masked ``extract_col_range`` passes per split (four splits per
operand pattern) and one ``np.unique`` per (peer, row tile); it now splits
once, in one pass (``ColumnStrips``: owner lookup, radix sort of an 8-bit
key, one gather), and reads all ``nzc`` lists in one pass
(``nonzero_columns_by_rows``: one boolean scratch).  The two loops are kept
in ``_oracles.py``; this bench holds the replacements to array-for-array
equality on blocks shaped like one rank's share of each spine workload
(uniform random columns) and gates:

* the one-pass split >= 2x the masked passes on the one-shot-shaped block
  (1 024 x 16 384, p = 16) and not slower on the serve-shaped one
  (75 x 300, p = 4), where fixed cost is all there is;
* the one-pass ``nzc`` >= 2x the ``np.unique`` loop at p = 16.

Results land in ``benchmarks/results/micro_split.txt``.
"""

import numpy as np

from repro.analysis import print_table
from repro.partition import Block1D
from repro.sparse import ColumnStrips, nonzero_columns_by_rows, random_csr, transpose

from _oracles import assert_bit_identical, masked_column_split, unique_per_row_range
from _timing import best_of_interleaved

#: (workload, p, block rows, n, entries per row, split floor, nzc floor):
#: one rank's ``n/p x n`` row block; a floor is the gated speedup or None.
SHAPES = [
    ("multiply_oneshot", 16, 1024, 16384, 67, 2.0, 2.0),
    ("msbfs_uk", 16, 256, 4096, 22, None, 2.0),
    ("embed_cora", 8, 338, 2708, 6, None, None),
    ("serve_mixed", 4, 75, 300, 6, 1.0, None),
]


def _race(case, one_pass, per_range, floor):
    """Time both, gate the speedup; ``(table row, one-pass result, oracle's)``."""
    (t_new, t_old), (got, want) = best_of_interleaved([one_pass, per_range], repeats=25)
    if floor is not None:
        assert t_old >= floor * t_new, (
            f"{case}: one pass must be >= {floor}x the per-range loop, got "
            f"{t_new * 1e6:.0f} us vs {t_old * 1e6:.0f} us"
        )
    row = [case, f"{t_old * 1e6:.0f} us", f"{t_new * 1e6:.0f} us", f"{t_old / t_new:.1f}x"]
    return row, got, want


def bench_micro_split(benchmark, sink):
    rng = np.random.default_rng(20)
    table = []
    for label, p, nrows, n, per_row, split_floor, nzc_floor in SHAPES:
        block = random_csr(nrows, n, nnz_per_row=per_row, rng=rng)
        ranges = Block1D(n, p).ranges

        row, strips, masked = _race(
            f"split {label} ({nrows} x {n}, {block.nnz:,} entries, p={p})",
            lambda: ColumnStrips(block, ranges),
            lambda: masked_column_split(block, ranges),
            split_floor,
        )
        table.append(row)
        for (c0, c1), got, sel, want in zip(ranges, strips.strips, strips.selections, masked):
            assert got.shape == want.shape
            assert_bit_identical(got, want)
            mask = (block.indices >= c0) & (block.indices < c1)
            assert np.array_equal(sel, np.flatnonzero(mask))

        # nzc of the p peer row blocks of an Ac_j-shaped block (n x n/p).
        col_copy = transpose(block)
        bounds = [0, *(hi for _, hi in ranges)]
        row, got, want = _race(
            f"nzc   {label} ({n} x {nrows}, {col_copy.nnz:,} entries, {p} ranges)",
            lambda: nonzero_columns_by_rows(col_copy, bounds),
            lambda: unique_per_row_range(col_copy, bounds),
            nzc_floor,
        )
        table.append(row)
        assert len(got) == len(want) == p
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    print_table(
        "Column split and per-range nzc: one pass vs one pass per range (best of 25)",
        ["case", "per-range loop", "one pass", "speedup"],
        table,
        file=sink,
    )
    benchmark(lambda: ColumnStrips(block, ranges))
