"""Unit tests for the row pack/place helpers shared by the algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gather_rows import (
    checked_row_ids,
    pack_dense_rows,
    pack_nonempty_rows,
    pack_rows,
    place_dense_rows,
    place_row_union,
    place_rows,
)
from repro.sparse import CsrMatrix
from repro.sparse.ops import extract_row_range, extract_rows

from _oracles import two_pass_checked_row_ids
from ..conftest import csr_from_dense, random_dense


class TestSparsePackPlace:
    def test_roundtrip(self, rng):
        dense = random_dense(rng, 8, 5, 0.4)
        mat = csr_from_dense(dense)
        ids = np.array([1, 4, 6])
        payload = pack_rows(mat, ids)
        placed = place_rows(8, payload, 5, mat.dtype)
        expected = np.zeros_like(dense)
        expected[ids] = dense[ids]
        np.testing.assert_allclose(placed.to_dense(), expected)

    def test_empty_request_is_none(self, rng):
        mat = csr_from_dense(random_dense(rng, 4, 3, 0.5))
        assert pack_rows(mat, np.array([], dtype=np.int64)) is None

    def test_place_none_gives_empty(self):
        placed = place_rows(6, None, 4, np.float64)
        assert placed.nnz == 0 and placed.shape == (6, 4)

    def test_place_rejects_out_of_range(self, rng):
        mat = csr_from_dense(random_dense(rng, 4, 3, 0.8))
        payload = pack_rows(mat, np.array([0, 1]))
        ids, rows = payload
        with pytest.raises(ValueError, match="out of range"):
            place_rows(1, (ids + 5, rows), 3, mat.dtype)

    def test_place_rejects_count_mismatch(self, rng):
        mat = csr_from_dense(random_dense(rng, 4, 3, 0.8))
        _, rows = pack_rows(mat, np.array([0, 1]))
        with pytest.raises(ValueError, match="row count"):
            place_rows(4, (np.array([0]), rows), 3, mat.dtype)

    def test_placed_block_validates(self, rng):
        dense = random_dense(rng, 10, 6, 0.3)
        mat = csr_from_dense(dense)
        ids = np.array([0, 3, 9])
        placed = place_rows(10, pack_rows(mat, ids), 6, mat.dtype)
        CsrMatrix(placed.shape, placed.indptr, placed.indices, placed.data, check=True)

    def test_unsorted_ids_rejected(self, rng):
        """Regression: the docstring promised strictly increasing row ids
        but nothing checked — an unsorted payload silently built a CSR
        whose indptr disagreed with the indices/data order."""
        mat = csr_from_dense(random_dense(rng, 8, 5, 0.9))
        ids, rows = pack_rows(mat, np.array([1, 4, 6]))
        shuffled = np.array([4, 1, 6])
        with pytest.raises(ValueError, match="strictly increasing"):
            place_rows(8, (shuffled, rows), 5, mat.dtype)

    def test_duplicate_ids_rejected(self, rng):
        """Duplicates previously *silently dropped* one row's counts from
        the indptr scatter while keeping its entries — a corrupt block."""
        mat = csr_from_dense(random_dense(rng, 8, 5, 0.9))
        ids, rows = pack_rows(mat, np.array([2, 5]))
        with pytest.raises(ValueError, match="strictly increasing"):
            place_rows(8, (np.array([5, 5]), rows), 5, mat.dtype)

    def test_sorted_ids_still_fine(self, rng):
        mat = csr_from_dense(random_dense(rng, 8, 5, 0.9))
        placed = place_rows(8, pack_rows(mat, np.array([0, 2, 7])), 5, mat.dtype)
        CsrMatrix(placed.shape, placed.indptr, placed.indices, placed.data, check=True)


@st.composite
def blocks_with_empty_rows(draw):
    """A CSR block — float or boolean, sometimes a row-range view into a
    taller matrix — with leading, trailing and interior empty rows, or no
    stored entry at all."""
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = random_dense(rng, nrows, ncols, draw(st.sampled_from([0.0, 0.3, 0.9])))
    dense[rng.random(nrows) < 0.4] = 0
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    dense[:lead] = 0
    dense[nrows - trail :] = 0
    mat = csr_from_dense(dense)
    if draw(st.booleans()):
        mat = mat.astype(np.bool_)
    if draw(st.booleans()) and nrows > 2:  # a view: indices/data are slices
        mat = extract_row_range(mat, 1, nrows - 1)
    return mat


@given(blocks_with_empty_rows())
@settings(max_examples=200, deadline=None)
def test_pack_nonempty_rows_is_the_gather_it_replaces(mat):
    want_ids = np.flatnonzero(mat.row_nnz())
    want = extract_rows(mat, want_ids)
    ids, rows = pack_nonempty_rows(mat)
    assert ids.dtype == rows.indptr.dtype == rows.indices.dtype == np.int64
    np.testing.assert_array_equal(ids, want_ids)
    assert rows.shape == want.shape and rows.dtype == want.dtype
    np.testing.assert_array_equal(rows.indptr, want.indptr)
    np.testing.assert_array_equal(rows.indices, want.indices)
    np.testing.assert_array_equal(rows.data, want.data)
    assert rows.nbytes_estimate() == want.nbytes_estimate()  # wire bytes
    rows._validate()
    placed = place_rows(mat.nrows, (ids, rows), mat.ncols, mat.dtype)
    np.testing.assert_array_equal(placed.indptr, mat.indptr)


class TestDensePackPlace:
    def test_roundtrip(self, rng):
        dense = rng.random((7, 3))
        ids = np.array([2, 5])
        payload = pack_dense_rows(dense, ids)
        placed = place_dense_rows(7, payload, 3)
        expected = np.zeros_like(dense)
        expected[ids] = dense[ids]
        np.testing.assert_allclose(placed, expected)

    def test_empty_and_none(self, rng):
        dense = rng.random((4, 2))
        assert pack_dense_rows(dense, np.array([], dtype=np.int64)) is None
        np.testing.assert_allclose(place_dense_rows(4, None, 2), np.zeros((4, 2)))

    def test_out_of_range_rejected(self, rng):
        dense = rng.random((4, 2))
        payload = pack_dense_rows(dense, np.array([0]))
        ids, rows = payload
        with pytest.raises(ValueError):
            place_dense_rows(2, (ids + 3, rows), 2)

    @pytest.mark.parametrize("ids", [[2, 2], [3, 1], [-1, 2]])
    def test_unplaceable_ids_rejected(self, rng, ids):
        """A repeated id kept only its last row (part of a partial lost);
        ids must be in range and strictly increasing, as ``place_rows``
        requires."""
        rows = rng.random((2, 2))
        with pytest.raises(ValueError):
            place_dense_rows(4, (np.array(ids), rows), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_payload_dtype_preserved(self, rng, dtype):
        """Regression: the output block used to be hardcoded float64,
        silently up/down-casting shipped rows."""
        dense = (rng.random((6, 3)) * 10).astype(dtype)
        payload = pack_dense_rows(dense, np.array([1, 4]))
        placed = place_dense_rows(6, payload, 3)
        assert placed.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(placed[[1, 4]], dense[[1, 4]])

    def test_empty_payload_places_float64_zeros(self):
        placed = place_dense_rows(3, None, 2)
        assert placed.dtype == np.float64
        assert not placed.any()


@st.composite
def placed_row_ids(draw):
    """Row ids for a block ``[lo, hi)``: sorted, unsorted, repeated,
    negative and too large, alone or together."""
    lo = draw(st.integers(0, 5))
    hi = lo + draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(lo - 3, hi + 3), max_size=10))
    if draw(st.booleans()):
        ids = sorted(set(ids))  # the producers' shape, still possibly out of range
    return np.array(ids, dtype=np.int64), hi, lo


@given(placed_row_ids())
@settings(max_examples=400, deadline=None)
def test_one_comparison_check_refuses_what_the_two_pass_check_did(case):
    ids, hi, lo = case

    def outcome(check):
        try:
            return check(ids, hi, lo) is ids
        except ValueError as err:
            return str(err)

    assert outcome(checked_row_ids) == outcome(two_pass_checked_row_ids)


class TestPlaceRowUnion:
    def test_disjoint_payloads_are_placed_in_order(self, rng):
        mat = csr_from_dense(random_dense(rng, 12, 4, 0.5))
        parts = [pack_rows(mat, np.array(ids)) for ids in ([1, 3], [6], [8, 11])]
        placed = place_row_union(12, parts, 4)
        want = place_rows(12, pack_rows(mat, np.array([1, 3, 6, 8, 11])), 4, mat.dtype)
        np.testing.assert_array_equal(placed.to_dense(), want.to_dense())
        np.testing.assert_array_equal(placed.indptr, want.indptr)

    def test_a_shared_row_is_placed_once(self, rng):
        """Two row tiles that requested one B row each carry a copy."""
        mat = csr_from_dense(random_dense(rng, 10, 4, 0.6))
        parts = [pack_rows(mat, np.array(ids)) for ids in ([2, 5, 7], [0, 5, 9])]
        placed = place_row_union(10, parts, 4)
        want = place_rows(10, pack_rows(mat, np.array([0, 2, 5, 7, 9])), 4, mat.dtype)
        np.testing.assert_array_equal(placed.indptr, want.indptr)
        np.testing.assert_array_equal(placed.indices, want.indices)
        np.testing.assert_array_equal(placed.data, want.data)

    def test_one_payload_shares_its_arrays(self, rng):
        mat = csr_from_dense(random_dense(rng, 6, 3, 0.6))
        ids, rows = pack_rows(mat, np.array([1, 4]))
        placed = place_row_union(6, [(ids, rows)], 3)
        assert placed.indices is rows.indices and placed.data is rows.data

    def test_row_count_mismatch_rejected(self, rng):
        mat = csr_from_dense(random_dense(rng, 6, 3, 0.6))
        _, rows = pack_rows(mat, np.array([1, 4]))
        with pytest.raises(ValueError, match="row count"):
            place_row_union(6, [(np.array([0]), rows)], 3)
