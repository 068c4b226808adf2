"""Tests for structural/elementwise CSR operations."""

import numpy as np
import pytest

from repro.sparse import (
    BOOL_AND_OR,
    PLUS_TIMES,
    CsrMatrix,
    ewise_add,
    extract_col_range,
    extract_row_range,
    extract_rows,
    pattern_difference,
    row_topk,
    spmm_dense,
    transpose,
)
from ..conftest import assert_same_arrays, csr_from_dense, random_dense


class TestTranspose:
    def test_known(self):
        m = csr_from_dense([[1, 2, 0], [0, 0, 3]])
        t = transpose(m)
        np.testing.assert_allclose(t.to_dense(), [[1, 0], [2, 0], [0, 3]])

    def test_random_matches_numpy(self, rng):
        dense = random_dense(rng, 9, 6, 0.3)
        t = transpose(csr_from_dense(dense))
        np.testing.assert_allclose(t.to_dense(), dense.T)

    def test_involution(self, rng):
        dense = random_dense(rng, 5, 8, 0.4)
        m = csr_from_dense(dense)
        assert transpose(transpose(m)).equal(m)

    def test_empty(self):
        t = transpose(CsrMatrix.empty((3, 5)))
        assert t.shape == (5, 3) and t.nnz == 0

    def test_result_validates(self, rng):
        dense = random_dense(rng, 7, 7, 0.5)
        t = transpose(csr_from_dense(dense))
        # re-validate invariants explicitly
        CsrMatrix(t.shape, t.indptr, t.indices, t.data, check=True)


class TestExtractRows:
    def test_selection_and_order(self, rng):
        dense = random_dense(rng, 6, 5, 0.4)
        m = csr_from_dense(dense)
        sel = extract_rows(m, np.array([4, 0, 2]))
        np.testing.assert_allclose(sel.to_dense(), dense[[4, 0, 2]])

    def test_repeated_rows_allowed(self):
        m = csr_from_dense([[1, 0], [0, 2]])
        sel = extract_rows(m, np.array([1, 1]))
        np.testing.assert_allclose(sel.to_dense(), [[0, 2], [0, 2]])

    def test_empty_selection(self):
        m = csr_from_dense([[1, 0], [0, 2]])
        sel = extract_rows(m, np.array([], dtype=np.int64))
        assert sel.shape == (0, 2) and sel.nnz == 0

    def test_out_of_range(self):
        m = CsrMatrix.empty((2, 2))
        with pytest.raises(IndexError):
            extract_rows(m, np.array([2]))


class TestExtractRanges:
    def test_col_range_reindexed(self, rng):
        dense = random_dense(rng, 5, 10, 0.4)
        m = csr_from_dense(dense)
        sub = extract_col_range(m, 3, 7)
        assert sub.shape == (5, 4)
        np.testing.assert_allclose(sub.to_dense(), dense[:, 3:7])

    def test_col_range_keep_space(self, rng):
        dense = random_dense(rng, 4, 8, 0.5)
        m = csr_from_dense(dense)
        sub = extract_col_range(m, 2, 5, reindex=False)
        assert sub.shape == m.shape
        expected = np.zeros_like(dense)
        expected[:, 2:5] = dense[:, 2:5]
        np.testing.assert_allclose(sub.to_dense(), expected)

    def test_col_range_bounds(self):
        m = CsrMatrix.empty((2, 4))
        with pytest.raises(IndexError):
            extract_col_range(m, 2, 6)
        with pytest.raises(IndexError):
            extract_col_range(m, -1, 2)

    def test_empty_col_range(self, rng):
        m = csr_from_dense(random_dense(rng, 3, 6, 0.5))
        sub = extract_col_range(m, 4, 4)
        assert sub.shape == (3, 0) and sub.nnz == 0

    def test_row_range_views(self, rng):
        dense = random_dense(rng, 8, 5, 0.4)
        m = csr_from_dense(dense)
        sub = extract_row_range(m, 2, 6)
        np.testing.assert_allclose(sub.to_dense(), dense[2:6])
        # zero-copy: data shares memory with parent
        assert np.shares_memory(sub.data, m.data)

    def test_row_range_bounds(self):
        with pytest.raises(IndexError):
            extract_row_range(CsrMatrix.empty((3, 3)), 1, 5)


class TestPatternOps:
    def test_difference_removes_visited(self):
        n = csr_from_dense(np.array([[1, 1, 0], [0, 1, 1]], dtype=bool))
        s = csr_from_dense(np.array([[1, 0, 0], [0, 0, 1]], dtype=bool))
        f = pattern_difference(n, s)
        np.testing.assert_array_equal(
            f.to_dense(), [[False, True, False], [False, True, False]]
        )

    def test_difference_disjoint_keeps_all(self):
        a = csr_from_dense([[1, 0], [0, 2]])
        b = csr_from_dense([[0, 3], [4, 0]])
        assert pattern_difference(a, b).equal(a)

    def test_difference_identical_empties(self):
        a = csr_from_dense([[1, 2], [3, 0]])
        assert pattern_difference(a, a).nnz == 0

    def test_difference_shape_mismatch(self):
        with pytest.raises(ValueError):
            pattern_difference(CsrMatrix.empty((1, 2)), CsrMatrix.empty((2, 2)))

    def test_ewise_add_sums_overlap(self):
        a = csr_from_dense([[1, 0], [2, 0]])
        b = csr_from_dense([[3, 4], [0, 0]])
        c = ewise_add(a, b, PLUS_TIMES)
        np.testing.assert_allclose(c.to_dense(), [[4, 4], [2, 0]])

    def test_ewise_add_bool_union(self):
        a = csr_from_dense(np.array([[1, 0]], dtype=bool))
        b = csr_from_dense(np.array([[0, 1]], dtype=bool))
        c = ewise_add(a, b, BOOL_AND_OR)
        np.testing.assert_array_equal(c.to_dense(), [[True, True]])

    def test_ewise_add_empty_operand(self):
        a = csr_from_dense([[1.0, 2.0]])
        c = ewise_add(a, CsrMatrix.empty((1, 2)), PLUS_TIMES)
        assert c.equal(a)

    def test_ewise_add_empty_operand_coerces_dtype(self):
        """An empty operand must not skip the semiring's dtype coercion."""
        a = csr_from_dense(np.array([[True, False]], dtype=bool))
        c = ewise_add(a, CsrMatrix.empty((1, 2), dtype=np.bool_), PLUS_TIMES)
        assert c.dtype == PLUS_TIMES.dtype
        c2 = ewise_add(CsrMatrix.empty((1, 2), dtype=np.bool_), a, PLUS_TIMES)
        assert c2.dtype == PLUS_TIMES.dtype

    def test_ewise_add_matches_coo_rebuild(self, rng):
        """The merge path must be bit-identical to the historical
        coo_to_csr rebuild across semirings and overlap patterns."""
        from repro.sparse import MIN_PLUS
        from repro.sparse.build import coo_to_csr

        for semiring in (PLUS_TIMES, BOOL_AND_OR, MIN_PLUS):
            for trial in range(5):
                da = random_dense(rng, 13, 17, 0.3)
                db = random_dense(rng, 13, 17, 0.3)
                a, b = csr_from_dense(da), csr_from_dense(db)
                if semiring is BOOL_AND_OR:
                    a, b = a.astype(np.bool_), b.astype(np.bool_)
                got = ewise_add(a, b, semiring)
                want = coo_to_csr(
                    np.concatenate([a.row_ids(), b.row_ids()]),
                    np.concatenate([a.indices, b.indices]),
                    np.concatenate(
                        [semiring.coerce(a.data), semiring.coerce(b.data)]
                    ),
                    a.shape,
                    semiring,
                )
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.indptr, want.indptr)
                np.testing.assert_array_equal(got.indices, want.indices)
                np.testing.assert_array_equal(got.data, want.data)

    def test_pattern_ops_survive_32bit_key_overflow(self):
        """(row, col) keys must be computed in int64: with ncols large
        enough, ``row * ncols + col`` overflows 32-bit arithmetic for
        perfectly ordinary matrices."""
        ncols = 1 << 21  # 2 M columns
        nrows = 1 << 12  # rows up to 4095: keys up to ~2^33 > int32
        row_hi = nrows - 1
        key_hi = row_hi * ncols + 7
        assert key_hi > np.iinfo(np.int32).max  # the overflow premise

        def mat(entries):
            rows = np.array([r for r, _ in entries])
            cols = np.array([c for _, c in entries])
            counts = np.bincount(rows, minlength=nrows)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            return CsrMatrix(
                (nrows, ncols), indptr, cols, np.ones(len(entries)), check=False
            )

        a = mat([(0, 3), (5, ncols - 1), (row_hi, 7)])
        b = mat([(5, ncols - 1), (row_hi, 7), (row_hi, ncols - 1)])
        diff = pattern_difference(a, b)
        assert [(int(r), int(c)) for r, c in zip(diff.row_ids(), diff.indices)] == [
            (0, 3)
        ]
        union = ewise_add(a, b, PLUS_TIMES)
        got = {
            (int(r), int(c)): v
            for r, c, v in zip(union.row_ids(), union.indices, union.data)
        }
        assert got == {
            (0, 3): 1.0,
            (5, ncols - 1): 2.0,
            (row_hi, 7): 2.0,
            (row_hi, ncols - 1): 1.0,
        }


class TestRowTopk:
    def test_keeps_largest_magnitude(self):
        out, twin = row_topk(np.array([[5.0, -7, 1, 3]]), 2)
        np.testing.assert_array_equal(out.to_dense(), [[5, -7, 0, 0]])
        np.testing.assert_array_equal(twin, [[5, -7, 0, 0]])

    def test_rows_shorter_than_k_untouched(self):
        out, _ = row_topk(np.array([[1.0, 0, 0], [2, 3, 4]]), 2)
        # row 0 has 1 entry (< k) kept; row 1 keeps the two largest (3, 4)
        np.testing.assert_array_equal(out.to_dense(), [[1, 0, 0], [0, 3, 4]])

    def test_k_zero_empties(self):
        out, twin = row_topk(np.array([[1.0, 2]]), 0)
        assert out.nnz == 0 and not twin.any()

    def test_k_larger_keeps_every_nonzero(self):
        z = np.array([[1.0, 0, 2]])
        out, twin = row_topk(z, 5)
        assert_same_arrays(out, csr_from_dense(z))
        np.testing.assert_array_equal(twin, z)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            row_topk(np.zeros((1, 1)), -1)

    def test_column_order_preserved(self, rng):
        dense = random_dense(rng, 10, 12, 0.6)
        out, twin = row_topk(dense, 3)
        CsrMatrix(out.shape, out.indptr, out.indices, out.data, check=True)
        assert (out.row_nnz() <= 3).all()
        np.testing.assert_array_equal(twin, out.to_dense())

    def test_order_of_ties_nan_and_zeros(self):
        """Magnitude descending, ties by column, NaN after every number,
        and ±0.0 never kept even when the row has room."""
        z = np.array([[-2.0, 2, 3, -3], [np.nan, 1, np.inf, 0], [0, -0.0, 1, 0]])
        out, _ = row_topk(z, 2)
        assert out.indices.tolist() == [2, 3, 1, 2, 2]


class TestSpmmDense:
    def test_matches_numpy(self, rng):
        dense_a = random_dense(rng, 6, 8, 0.3)
        dense_b = rng.random((8, 4))
        out, flops = spmm_dense(csr_from_dense(dense_a), dense_b)
        np.testing.assert_allclose(out, dense_a @ dense_b)
        assert flops == (dense_a != 0).sum() * 4

    def test_shape_check(self):
        with pytest.raises(ValueError):
            spmm_dense(CsrMatrix.empty((2, 3)), np.zeros((4, 2)))
