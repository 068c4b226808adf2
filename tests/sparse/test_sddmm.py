"""Tests for the SDDMM and fused SDDMM→SpMM kernels."""

import numpy as np
import pytest

from repro.sparse import CsrMatrix, fused_sddmm_spmm, sddmm, spgemm
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

    def test_scale_by_values(self, rng):
        pattern = csr_from_dense(random_dense(rng, 6, 6, 0.5))
        x = rng.random((6, 3))
        y = rng.random((6, 3))
        scaled = sddmm(pattern, x, y, scale_by_values=True)
        plain = sddmm(pattern, x, y)
        np.testing.assert_allclose(scaled.data, plain.data * pattern.data)

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


class TestFused:
    def test_identity_map_matches_composition(self, rng):
        pattern = csr_from_dense(random_dense(rng, 8, 8, 0.3))
        x = rng.random((8, 4))
        y = rng.random((8, 4))
        z = csr_from_dense(random_dense(rng, 8, 5, 0.4))
        fused, _ = fused_sddmm_spmm(pattern, x, y, z, scale_by_values=False)
        coeffs = sddmm(pattern, x, y)
        expected, _ = spgemm(coeffs, z)
        assert fused.equal(expected)

    def test_elementwise_map_applied(self, rng):
        pattern = csr_from_dense(random_dense(rng, 6, 6, 0.4))
        x = rng.random((6, 3))
        y = rng.random((6, 3))
        z = csr_from_dense(random_dense(rng, 6, 4, 0.5))
        fused, _ = fused_sddmm_spmm(
            pattern, x, y, z, elementwise=np.tanh, scale_by_values=False
        )
        coeffs = sddmm(pattern, x, y)
        tanned = CsrMatrix(
            coeffs.shape, coeffs.indptr, coeffs.indices, np.tanh(coeffs.data)
        )
        expected, _ = spgemm(tanned, z)
        assert fused.equal(expected)

    def test_flops_include_both_stages(self, rng):
        pattern = csr_from_dense(random_dense(rng, 6, 6, 0.5))
        x = rng.random((6, 4))
        z = csr_from_dense(random_dense(rng, 6, 3, 0.5))
        _, flops = fused_sddmm_spmm(pattern, x, x, z)
        from repro.sparse import spgemm_flops

        assert flops == spgemm_flops(pattern, z) + pattern.nnz * 4

    def test_bad_elementwise_shape_rejected(self, rng):
        pattern = csr_from_dense(random_dense(rng, 4, 4, 0.8))
        x = rng.random((4, 2))
        z = csr_from_dense(random_dense(rng, 4, 2, 0.5))
        with pytest.raises(ValueError, match="preserve shape"):
            fused_sddmm_spmm(pattern, x, x, z, elementwise=lambda v: v[:1])


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
