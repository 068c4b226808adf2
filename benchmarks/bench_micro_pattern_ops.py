"""Microbenchmark: sorted-key merge/membership vs the seed's rebuild path.

The BFS epilogue runs two elementwise pattern ops per level —
``F ← N \\ S`` (:func:`pattern_difference`) and ``S ← S ∨ N``
(:func:`ewise_add`) — whose seed implementations were ``np.isin``-bound
(membership re-sorted both key sets every call) and rebuilt the union
through a full two-key ``np.lexsort``.  Both inputs are sorted CSRs, so
membership is a plain binary search and the union the two-operand case
of the shared fused-key merge (a stable sort of two sorted runs); this
bench measures the win on a Fig 12-sized frontier/visited pair and
pins the results to the legacy implementations bit for bit.

Alg 3 runs the two together, and :func:`difference_and_union` takes both
from one search of the reached keys in the visited keys; it is held to
the pair bit for bit and gated at >= 1.3x the pair on a rank-block-sized
update (256 x 64, ~1.3 k visited / ~240 reached entries — where a level
of ``msbfs_uk`` or ``msbfs_deep`` spends its epilogue) and >= 0.9x on the
Fig 12-sized pair, whose cost is the merge itself either way.

Results land in ``benchmarks/results/micro_pattern_ops.txt``.
"""

import time

import numpy as np

from repro.analysis import print_table
from repro.sparse import BOOL_AND_OR, CsrMatrix, ewise_add, pattern_difference
from repro.sparse.ops import difference_and_union, mask_entries

from _oracles import assert_bit_identical, lexsort_merge
from _timing import best_of_interleaved

N, D = 20_000, 128  # visited-set shape of a Fig 12-style MS-BFS mid-level
DENSITY_N, DENSITY_S = 0.02, 0.08


def _legacy_member(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """The seed's membership: np.isin over encoded keys (internal sort)."""
    a_keys = a.row_ids() * a.ncols + a.indices
    b_keys = b.row_ids() * b.ncols + b.indices
    return np.isin(a_keys, b_keys, assume_unique=False)


def _best_of(fn, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_micro_pattern_ops(benchmark, sink):
    rng = np.random.default_rng(3)
    reached = CsrMatrix.from_dense(rng.random((N, D)) < DENSITY_N)
    visited = CsrMatrix.from_dense(rng.random((N, D)) < DENSITY_S)

    t_new_diff, got_diff = _best_of(lambda: pattern_difference(reached, visited))
    t_old_diff, want_diff = _best_of(
        lambda: mask_entries(reached, ~_legacy_member(reached, visited))
    )
    t_new_add, got_add = _best_of(lambda: ewise_add(visited, reached, BOOL_AND_OR))
    t_old_add, want_add = _best_of(
        lambda: lexsort_merge([visited, reached], BOOL_AND_OR)
    )

    # bit-identical to the legacy path
    for got, want in ((got_diff, want_diff), (got_add, want_add)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    print_table(
        f"Pattern-op microbench (reached {reached.nnz:,} nnz, "
        f"visited {visited.nnz:,} nnz, best of 5)",
        ["op", "seed path", "merge path", "speedup"],
        [
            [
                "pattern_difference (F <- N \\ S)",
                f"{t_old_diff * 1e3:.2f} ms",
                f"{t_new_diff * 1e3:.2f} ms",
                f"{t_old_diff / t_new_diff:.1f}x",
            ],
            [
                "ewise_add (S <- S v N)",
                f"{t_old_add * 1e3:.2f} ms",
                f"{t_new_add * 1e3:.2f} ms",
                f"{t_old_add / t_new_add:.1f}x",
            ],
        ],
        file=sink,
    )

    # Alg 3's update as one call, against the pair it replaces in the BFS
    # loops: (label, reached, visited, gated speedup).
    block_visited = CsrMatrix.from_dense(rng.random((256, 64)) < 1350 / (256 * 64))
    block_reached = CsrMatrix.from_dense(rng.random((256, 64)) < 240 / (256 * 64))
    fused_rows = []
    for label, n_mat, s_mat, floor in (
        ("rank block 256 x 64", block_reached, block_visited, 1.3),
        (f"Fig 12 level {N:,} x {D}", reached, visited, 0.9),
    ):
        (t_fused, t_pair), (got, want) = best_of_interleaved(
            [
                lambda: difference_and_union(n_mat, s_mat, BOOL_AND_OR),
                lambda: (
                    pattern_difference(n_mat, s_mat),
                    ewise_add(s_mat, n_mat, BOOL_AND_OR),
                ),
            ],
            repeats=25,
        )
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert_bit_identical(g, w)
        fused_rows.append(
            [
                f"{label} ({n_mat.nnz:,} reached, {s_mat.nnz:,} visited)",
                f"{t_pair * 1e6:.0f} us", f"{t_fused * 1e6:.0f} us",
                f"{t_pair / t_fused:.2f}x",
            ]
        )
        assert t_pair >= floor * t_fused, (
            f"difference_and_union on {label} must be >= {floor}x the two "
            f"ops, got {t_fused * 1e6:.0f} us vs {t_pair * 1e6:.0f} us"
        )
    print_table(
        "Alg 3 update: difference_and_union vs pattern_difference + ewise_add (best of 25)",
        ["operands", "two ops", "one search", "speedup"],
        fused_rows,
        file=sink,
    )

    # the point of the rewrite: both hot spots must actually be faster
    assert t_new_diff < t_old_diff, (
        f"searchsorted membership lost to np.isin: "
        f"{t_new_diff:.4f}s vs {t_old_diff:.4f}s"
    )
    assert t_new_add < t_old_add, (
        f"fused-key ewise_add lost to the lexsort rebuild: "
        f"{t_new_add:.4f}s vs {t_old_add:.4f}s"
    )

    benchmark(lambda: ewise_add(visited, reached, BOOL_AND_OR))
