"""The one-pass column split and the one-pass per-row-range ``nzc``.

``ColumnStrips`` and ``nonzero_columns_by_rows`` replaced loops of
``extract_col_range`` masks, ``flatnonzero`` selections and per-range
``np.unique`` calls; those loops are the references here, and the outputs
must equal them array for array — shape and dtype included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import Block1D
from repro.sparse import (
    ColumnStrips,
    CsrMatrix,
    INDEX_DTYPE,
    extract_col_range,
    extract_row_range,
    nonzero_columns_by_rows,
)
from repro.sparse.build import SPA_MAX_SCRATCH_ELEMS

from ..conftest import assert_same_arrays


@st.composite
def csr_blocks(draw, max_rows=9, max_cols=14):
    """Random CSR blocks: empty rows, empty matrices and zero-width or
    zero-height shapes included; rows sorted and duplicate-free (the CSR
    invariant); values distinct so a misplaced one is seen."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    mask = np.array(
        draw(st.lists(st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols)),
        dtype=bool,
    ).reshape(nrows, ncols)
    if draw(st.booleans()) and nrows:
        mask[draw(st.integers(0, nrows - 1))] = False  # a surely empty row
    rows, cols = np.nonzero(mask)
    dtype = draw(st.sampled_from([np.float64, np.bool_, np.int64]))
    data = np.arange(1, len(cols) + 1).astype(dtype)
    if dtype == np.bool_:
        data[::3] = False  # stored False must travel like any value
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return CsrMatrix((nrows, ncols), indptr, cols, data)


@st.composite
def partitions(draw, n):
    """Contiguous partitions of ``range(n)``: balanced (``p > n`` included,
    which leaves trailing empty blocks) or explicit unbalanced bounds with
    empty blocks anywhere."""
    p = draw(st.integers(1, n + 3))
    if draw(st.booleans()):
        return Block1D(n, p).ranges
    inner = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    return Block1D(n, p, bounds=(0, *inner, n)).ranges


@st.composite
def blocks_and_partitions(draw):
    mat = draw(csr_blocks())
    return mat, draw(partitions(mat.ncols))


class TestOnePassSplit:
    @given(blocks_and_partitions())
    @settings(max_examples=200, deadline=None)
    def test_strips_equal_masked_extraction(self, case):
        mat, ranges = case
        strips = ColumnStrips(mat, ranges)
        assert len(strips) == len(ranges)
        for j, (c0, c1) in enumerate(ranges):
            assert_same_arrays(strips[j], extract_col_range(mat, c0, c1, reindex=True))

    @given(blocks_and_partitions())
    @settings(max_examples=200, deadline=None)
    def test_selections_equal_masks(self, case):
        mat, ranges = case
        strips = ColumnStrips(mat, ranges)
        for j, (c0, c1) in enumerate(ranges):
            sel = strips.selections[j]
            np.testing.assert_array_equal(
                sel, np.flatnonzero((mat.indices >= c0) & (mat.indices < c1))
            )
            np.testing.assert_array_equal(strips[j].data, mat.data[sel])

    @given(blocks_and_partitions())
    @settings(max_examples=100, deadline=None)
    def test_refresh_values_is_a_gather(self, case):
        mat, ranges = case
        strips = ColumnStrips(mat, ranges)
        patterns = [(s.indptr, s.indices) for s in strips.strips]
        fresh = CsrMatrix(
            mat.shape, mat.indptr, mat.indices, (mat.data.astype(np.float64) + 1) * 7
        )
        strips.refresh_values(fresh)
        assert strips.source is fresh
        for j, (c0, c1) in enumerate(ranges):
            assert_same_arrays(strips[j], extract_col_range(fresh, c0, c1, reindex=True))
            # the pattern arrays are kept, not rebuilt
            assert strips[j].indptr is patterns[j][0]
            assert strips[j].indices is patterns[j][1]

    def test_column_on_a_shared_start_goes_to_the_non_empty_range(self):
        # Ranges 1 and 2 are empty and start where range 3 does: the owner
        # lookup must step over them (side="right"), not stop at the first.
        mat = CsrMatrix.from_dense(np.arange(1.0, 13.0).reshape(2, 6))
        ranges = [(0, 3), (3, 3), (3, 3), (3, 6), (6, 6)]
        strips = ColumnStrips(mat, ranges)
        assert [strip.nnz for strip in strips] == [6, 0, 0, 6, 0]
        np.testing.assert_array_equal(strips[3].to_dense(), mat.to_dense()[:, 3:])

    def test_entries_keep_storage_order_within_a_strip(self):
        # Columns 0 and 1 alternate owners row after row: only a stable
        # sort of the owner key leaves each strip's rows in order.
        n = 64
        mat = CsrMatrix.from_dense(np.arange(1.0, 2 * n + 1).reshape(n, 2))
        strips = ColumnStrips(mat, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(strips.selections[0], np.arange(0, 2 * n, 2))
        np.testing.assert_array_equal(strips.selections[1], np.arange(1, 2 * n, 2))

    def test_wide_world_uses_a_wider_owner_key(self):
        # p > 256 no longer fits the 8-bit key.
        n = 300
        mat = CsrMatrix.identity(n)
        strips = ColumnStrips(mat, Block1D(n, n).ranges)
        assert [strip.nnz for strip in strips] == [1] * n
        np.testing.assert_array_equal(np.concatenate(strips.selections), np.arange(n))


class TestSplitContracts:
    """What the one-pass owner lookup relies on is checked, not assumed."""

    MAT = CsrMatrix.from_dense(np.eye(4, 6))

    @pytest.mark.parametrize(
        "ranges",
        [
            [(0, 3), (4, 6)],  # gap
            [(0, 4), (3, 6)],  # overlap
            [(1, 3), (3, 6)],  # does not start at 0
            [(0, 3), (3, 5)],  # stops short of ncols
            [(0, 3), (3, 7)],  # runs past ncols
            [(0, 5), (5, 3), (3, 6)],  # a range running backwards
            [],  # nothing covers the six columns
        ],
    )
    def test_ranges_must_tile_the_columns(self, ranges):
        with pytest.raises(ValueError, match="contiguously"):
            ColumnStrips(self.MAT, ranges)

    def test_refresh_values_rejects_another_pattern(self):
        strips = ColumnStrips(self.MAT, [(0, 3), (3, 6)])
        with pytest.raises(ValueError, match="identical pattern"):
            strips.refresh_values(CsrMatrix.from_dense(np.eye(4, 6)[:3]))
        with pytest.raises(ValueError, match="identical pattern"):
            strips.refresh_values(CsrMatrix.from_dense(np.ones((4, 6))))


@st.composite
def blocks_and_row_bounds(draw):
    mat = draw(csr_blocks())
    k = draw(st.integers(0, 6))
    lo = draw(st.integers(0, mat.nrows))
    hi = draw(st.integers(lo, mat.nrows))
    inner = sorted(draw(st.lists(st.integers(lo, hi), min_size=k, max_size=k)))
    return mat, [lo, *inner, hi]


class TestNonzeroColumnsByRows:
    @given(blocks_and_row_bounds())
    @settings(max_examples=200, deadline=None)
    def test_equals_unique_per_row_range(self, case):
        mat, bounds = case
        got = nonzero_columns_by_rows(mat, bounds)
        assert len(got) == len(bounds) - 1
        for nzc, r0, r1 in zip(got, bounds[:-1], bounds[1:]):
            want = np.unique(extract_row_range(mat, r0, r1).indices)
            assert nzc.dtype == INDEX_DTYPE == want.dtype
            np.testing.assert_array_equal(nzc, want)

    @pytest.mark.parametrize(
        "mat",
        [
            CsrMatrix.empty((5, 4)),  # no entries
            CsrMatrix.empty((5, 0)),  # a rank owning no columns
            CsrMatrix.empty((0, 4)),
        ],
    )
    def test_empty_inputs_give_index_dtype_empties(self, mat):
        bounds = [0, mat.nrows // 2, mat.nrows // 2, mat.nrows]
        got = nonzero_columns_by_rows(mat, bounds)
        assert [(len(a), a.dtype) for a in got] == [(0, INDEX_DTYPE)] * 3

    def test_single_boundary_is_no_range(self):
        assert nonzero_columns_by_rows(CsrMatrix.identity(3), [1]) == []

    @pytest.mark.parametrize(
        "bounds", [[0, 3, 2, 4], [-1, 2], [0, 5], [2, 1], [], [[0, 1], [1, 2]]]
    )
    def test_bad_bounds_raise_index_error(self, bounds):
        with pytest.raises(IndexError):
            nonzero_columns_by_rows(CsrMatrix.identity(4), bounds)

    def test_scratch_is_bounded_by_batching_whole_ranges(self):
        # Two ranges of this width exhaust the scratch bound, so five
        # ranges take three batches; the lists must not show the seams.
        ncols = SPA_MAX_SCRATCH_ELEMS // 2
        cols = np.array([0, ncols - 1, 7, 7, ncols // 2, 3, ncols - 1])
        mat = CsrMatrix(
            (7, ncols), np.arange(8), cols, np.ones(7), check=False
        )
        got = nonzero_columns_by_rows(mat, [0, 2, 3, 3, 6, 7])
        want = [[0, ncols - 1], [7], [], [3, 7, ncols // 2], [ncols - 1]]
        assert [a.tolist() for a in got] == want
