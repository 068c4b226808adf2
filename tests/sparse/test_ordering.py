"""The row-major ordering primitive and the summation order it pins.

``row_major_order`` stands in for ``np.lexsort((cols, rows))`` everywhere
in ``src/``; bit-identity of every merge and kernel rests on it being the
*same permutation*, ties included.
"""

import numpy as np
import pytest
from _oracles import assert_bit_identical, lexsort_merge
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    SEL2ND_MIN,
    CsrMatrix,
    coo_to_csr,
    merge_csrs,
    random_csr,
)
from repro.sparse.build import row_major_order
from repro.sparse.merge import DENSE_MERGE_SLOTS_PER_ENTRY


@st.composite
def triples(draw, max_dim=9, max_len=60):
    """(rows, cols, shape): small dims so duplicate pairs are the norm."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    n = draw(st.integers(0, max_len))
    rows = draw(st.lists(st.integers(0, nrows - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, ncols - 1), min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), (nrows, ncols)


def assert_is_lexsort(rows, cols, shape):
    np.testing.assert_array_equal(
        row_major_order(rows, cols, shape), np.lexsort((cols, rows))
    )


class TestRowMajorOrder:
    @given(triples())
    @settings(max_examples=200, deadline=None)
    def test_random_triples_with_duplicates(self, t):
        assert_is_lexsort(*t)

    @given(triples())
    @settings(max_examples=100, deadline=None)
    def test_presorted_input_is_the_identity(self, t):
        rows, cols, shape = t
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        assert_is_lexsort(rows, cols, shape)
        np.testing.assert_array_equal(
            row_major_order(rows, cols, shape), np.arange(len(rows))
        )

    @given(st.lists(triples(max_len=20), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_sorted_runs(self, runs):
        """The shape of every merge: k sorted runs back to back."""
        shape = (
            max(s[0] for _, _, s in runs),
            max(s[1] for _, _, s in runs),
        )
        sorted_runs = []
        for rows, cols, _ in runs:
            order = np.lexsort((cols, rows))
            sorted_runs.append((rows[order], cols[order]))
        rows = np.concatenate([r for r, _ in sorted_runs])
        cols = np.concatenate([c for _, c in sorted_runs])
        assert_is_lexsort(rows, cols, shape)

    @given(triples())
    @settings(max_examples=50, deadline=None)
    def test_overflowing_shape_falls_back(self, t):
        """nrows * ncols > 2^63 - 1: the fused key cannot be formed."""
        rows, cols, _ = t
        big = 1 << 32
        rows, cols = rows * (big // 16), cols * (big // 16)
        shape = (big, big)  # 2^64 positions
        assert shape[0] * shape[1] > np.iinfo(np.int64).max
        assert_is_lexsort(rows, cols, shape)

    def test_largest_fused_shape_is_exact(self):
        """Just under the limit the fused key is still exact."""
        nrows, ncols = (1 << 31) - 1, 1 << 32  # product < 2^63
        rows = np.array([nrows - 1, 0, nrows - 1, 0], dtype=np.int64)
        cols = np.array([0, ncols - 1, ncols - 1, 0], dtype=np.int64)
        assert_is_lexsort(rows, cols, (nrows, ncols))

    def test_narrow_index_dtype_is_promoted_first(self):
        """int32 inputs must not wrap inside ``row * ncols``."""
        rows = np.array([70_000, 1, 70_000], dtype=np.int32)
        cols = np.array([5, 69_999, 4], dtype=np.int32)
        assert_is_lexsort(rows, cols, (70_001, 70_000))


def test_merge_float_summation_order_is_pinned(rng):
    """≥ 8 float contributions per entry: float addition is not
    associative, so bit-equality with the lexsort oracle holds only if the
    merge adds every entry's contributions in partial order, left to
    right, through the same ``reduceat`` — on the counting-sort path (the
    block fits the dense bound) and on the sorted one (bound shrunk)."""
    n, d, k = 40, 12, 10
    stored = rng.random((n, d)) < 0.5
    # every stored entry is missing from one or two of the k partials
    skip_a, skip_b = rng.integers(0, k, (n, d)), rng.integers(0, k + 3, (n, d))
    parts = []
    for i in range(k):
        mask = stored & (skip_a != i) & (skip_b != i)
        # magnitudes 1e-8 .. 1e8: any reordering changes the rounded sum
        vals = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, (n, d))
        parts.append(CsrMatrix.from_dense(np.where(mask, vals, 0.0)))
    want = lexsort_merge(parts, PLUS_TIMES)
    contributions = np.bincount(
        np.concatenate([p.row_ids() * d + p.indices for p in parts])
    )
    assert contributions[contributions > 0].min() >= 8
    for bound, counted in ((None, 1), (n * d - 1, 0)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            folds, sorts = _spy_on_fold(monkeypatch, bound=bound)
            merged = merge_csrs(parts, PLUS_TIMES)
            reversed_merge = merge_csrs(parts[::-1], PLUS_TIMES)
        assert (folds, len(sorts)) == ([], 2 * counted)
        assert_bit_identical(merged, want)
        # and the order matters: the reversed merge differs somewhere
        assert reversed_merge.data.tobytes() != want.data.tobytes()


# ----------------------------------------------------------------------
# inside the dense bound the boolean merge folds through the accumulator
# and every other add through the counting sort; outside it, both sort
# ----------------------------------------------------------------------
def _spy_on_fold(monkeypatch, bound=None):
    """Record, per dense fold ``merge_csrs`` makes, whether it skipped the
    values, and per counting sort its scratch size; optionally shrink the
    scratch bound so tiny shapes straddle it.  Returns ``(folds, sorts)``."""
    import repro.sparse.merge as merge_module

    folds, fold = [], merge_module.spa_fold
    monkeypatch.setattr(
        merge_module,
        "spa_fold",
        lambda flat, vals, size, sr: folds.append(vals is None) or fold(flat, vals, size, sr),
    )
    sorts, counting_sort = [], merge_module._counting_sort_fold
    monkeypatch.setattr(
        merge_module,
        "_counting_sort_fold",
        lambda flat, part_vals, size, sr: sorts.append(size)
        or counting_sort(flat, part_vals, size, sr),
    )
    if bound is not None:
        monkeypatch.setattr(merge_module, "SPA_MAX_SCRATCH_ELEMS", bound)
    return folds, sorts


@st.composite
def partials(draw, dtype):
    """k = 1..16 equal-shape partials, some empty, boolean ones storing
    explicit ``False`` and float ones ``0.0`` / ``-0.0``, few enough
    positions that most get several contributions.  With the bound at 30
    slots, (6, 5) just fits the scratch and (5, 7) just does not.  Float
    partials merge under ``plus_times``, ``min_plus`` or ``sel2nd_min``."""
    shape = draw(st.sampled_from([(1, 1), (6, 5), (5, 7), (3, 40)]))
    k = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.bool_:
        semiring = BOOL_AND_OR
    else:
        semiring = draw(st.sampled_from([PLUS_TIMES, MIN_PLUS, SEL2ND_MIN]))
    parts = []
    for _ in range(k):
        n = int(rng.integers(0, 25)) * int(rng.random() < 0.8)  # ~20 % empty
        if dtype == np.bool_:
            vals = rng.random(n) < 0.5
        else:  # magnitudes 1e-8 .. 1e8: any reordering changes the sum
            vals = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            # signed zeros: which one a minimum keeps depends on the order
            vals[rng.random(n) < 0.2] = 0.0
            vals[rng.random(n) < 0.1] = -0.0
        # coo_to_csr takes the sort path whatever the semiring
        parts.append(coo_to_csr(
            rng.integers(0, shape[0], n), rng.integers(0, shape[1], n),
            vals, shape, semiring,
        ))
    return parts, semiring


def _is_dense(parts, bound):
    """Whether ``merge_csrs`` takes a dense branch under scratch ``bound``."""
    nonempty = [p for p in parts if p.nnz]
    size, entries = parts[0].nrows * parts[0].ncols, sum(p.nnz for p in nonempty)
    return len(nonempty) > 1 and size <= min(bound, DENSE_MERGE_SLOTS_PER_ENTRY * entries)


def assert_merge_is_the_oracle(parts, semiring):
    merged = merge_csrs(parts, semiring)
    nonempty = [p for p in parts if p.nnz]
    if not nonempty:
        assert merged.nnz == 0 and merged.dtype == semiring.dtype
        return
    assert merged.dtype == semiring.dtype
    assert_bit_identical(merged, lexsort_merge(nonempty, semiring))


@given(partials(np.bool_))
@settings(max_examples=200, deadline=None)
def test_boolean_merge_is_bit_identical_to_the_sort_oracle(case):
    parts, semiring = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        folds, sorts = _spy_on_fold(monkeypatch, bound=30)
        assert_merge_is_the_oracle(parts, semiring)
    nonempty = [p for p in parts if p.nnz]
    assert folds == ([all(p.data.all() for p in nonempty)] if _is_dense(parts, 30) else [])
    assert sorts == []  # OR is order-free: no need to order the values


@given(partials(np.float64))
@settings(max_examples=100, deadline=None)
def test_float_merge_is_bit_identical_to_the_sort_oracle(case):
    parts, semiring = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        folds, sorts = _spy_on_fold(monkeypatch, bound=30)
        assert_merge_is_the_oracle(parts, semiring)
    assert folds == []  # a float sum is order-bound: never the dense fold
    size = parts[0].nrows * parts[0].ncols
    assert sorts == ([size] if _is_dense(parts, 30) else [])


def test_a_part_storing_one_position_twice_raises():
    """The sorted path would add both values; the counting sort has one
    slot per (part, position), so it must refuse rather than drop one."""
    good = CsrMatrix.from_dense(np.arange(1.0, 13.0).reshape(3, 4))
    twice = CsrMatrix(
        (3, 4), [0, 2, 2, 3], [1, 1, 0], np.array([5.0, 7.0, 1.0]), check=False
    )
    with pytest.raises(ValueError, match="one position twice"):
        merge_csrs([good, twice], PLUS_TIMES)


def test_dense_merge_at_the_real_scratch_bound(rng, monkeypatch):
    """The largest block that fits the accumulator's scratch folds densely
    when it is full enough; one column more, or too few entries, sorts."""
    from repro.sparse.build import SPA_MAX_SCRATCH_ELEMS

    side = 1 << 11
    assert side * side == SPA_MAX_SCRATCH_ELEMS
    folds, sorts = _spy_on_fold(monkeypatch)
    full = rng.random((side, side + 1)) < 1.2 / DENSE_MERGE_SLOTS_PER_ENTRY
    over = [CsrMatrix.from_dense(full), CsrMatrix.from_dense(full[::-1])]
    fits = [CsrMatrix.from_dense(full[:, :side]), CsrMatrix.from_dense(full[::-1, :side])]
    sparse = [random_csr(side, side, nnz_per_row=0.01, rng=rng, dtype=np.bool_) for _ in range(2)]

    assert_merge_is_the_oracle(fits, BOOL_AND_OR)
    assert folds == [True]  # all True: no value array
    fits[1].data[::3] = False
    assert_merge_is_the_oracle(fits, BOOL_AND_OR)
    assert folds == [True, False]
    assert_merge_is_the_oracle(over, BOOL_AND_OR)
    assert_merge_is_the_oracle(sparse, BOOL_AND_OR)
    assert sorts == []
    assert_merge_is_the_oracle([p.astype(np.float64) for p in fits], PLUS_TIMES)
    assert_merge_is_the_oracle([p.astype(np.float64) for p in fits], MIN_PLUS)
    assert_merge_is_the_oracle([p.astype(np.float64) for p in over], PLUS_TIMES)
    assert len(folds) == 2 and sorts == [SPA_MAX_SCRATCH_ELEMS] * 2
