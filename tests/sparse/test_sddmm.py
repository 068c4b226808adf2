"""Tests for the SDDMM kernel and the plan's compact pattern."""

import numpy as np
import pytest

from repro.sparse import CsrMatrix, sddmm
from repro.sparse.sddmm import compact_pattern
from ..conftest import csr_from_dense, random_dense


class TestSddmm:
    def test_matches_dense_reference(self, rng):
        pattern = csr_from_dense(random_dense(rng, 8, 6, 0.4))
        x = rng.random((8, 5))
        y = rng.random((6, 5))
        out = sddmm(pattern, x, y)
        full = x @ y.T
        mask = pattern.to_dense() != 0
        np.testing.assert_allclose(out.to_dense(), np.where(mask, full, 0.0))

    def test_preserves_structure(self, rng):
        pattern = csr_from_dense(random_dense(rng, 10, 10, 0.3))
        out = sddmm(pattern, rng.random((10, 4)), rng.random((10, 4)))
        np.testing.assert_array_equal(out.indptr, pattern.indptr)
        np.testing.assert_array_equal(out.indices, pattern.indices)

    def test_empty_pattern(self):
        out = sddmm(CsrMatrix.empty((3, 4)), np.zeros((3, 2)), np.zeros((4, 2)))
        assert out.nnz == 0

    def test_rectangular(self, rng):
        pattern = csr_from_dense(random_dense(rng, 4, 9, 0.4))
        out = sddmm(pattern, rng.random((4, 3)), rng.random((9, 3)))
        assert out.shape == (4, 9)

    def test_shape_validation(self, rng):
        pattern = csr_from_dense(random_dense(rng, 4, 4, 0.5))
        with pytest.raises(ValueError, match="x must be"):
            sddmm(pattern, np.zeros((5, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="y must be"):
            sddmm(pattern, np.zeros((4, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="inner dimension"):
            sddmm(pattern, np.zeros((4, 2)), np.zeros((4, 3)))


class TestCompactPattern:
    @pytest.mark.parametrize(
        "shape, density", [((9, 40), 0.2), ((5, 7), 0.0), ((6, 300), 0.02)]
    )
    def test_column_ids_are_positions_in_needed(self, rng, shape, density):
        """The slot-table gather gives what a search of ``needed`` gives,
        array for array, including on empty rows and an empty block, and
        the slot table maps each of ``needed`` to its position."""
        local = csr_from_dense(random_dense(rng, *shape, density))
        needed = local.nonzero_columns()
        got, slot = compact_pattern(local, needed)
        assert slot.shape == (shape[1],)
        np.testing.assert_array_equal(slot[needed], np.arange(len(needed)))
        assert got.shape == (shape[0], len(needed))
        assert got.indices.dtype == np.int64
        want = np.searchsorted(needed, local.indices)
        np.testing.assert_array_equal(got.indices, want)
        assert got.indptr is local.indptr and got.data is local.data
