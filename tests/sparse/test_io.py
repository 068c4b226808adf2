"""Tests for the MatrixMarket subset reader (files written by scipy's
independent writer, or by hand)."""

import numpy as np
import pytest
import scipy.io

from repro.sparse import CsrMatrix, read_matrix_market
from ..conftest import csr_from_dense, random_dense


class TestRoundtrip:
    def test_random_roundtrip(self, rng, tmp_path):
        mat = csr_from_dense(random_dense(rng, 9, 7, 0.3))
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(path, mat.to_scipy())
        back = read_matrix_market(path)
        assert back.equal(mat)

    def test_empty_matrix(self, tmp_path):
        mat = CsrMatrix.empty((4, 5))
        path = tmp_path / "e.mtx"
        scipy.io.mmwrite(path, mat.to_scipy())
        back = read_matrix_market(path)
        assert back.shape == (4, 5) and back.nnz == 0


class TestReader:
    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 1\n"
            "2 2\n"
        )
        m = read_matrix_market(path)
        np.testing.assert_allclose(m.to_dense(), np.eye(2))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 5.0\n"
            "3 3 7.0\n"
        )
        m = read_matrix_market(path)
        expected = np.zeros((3, 3))
        expected[1, 0] = expected[0, 1] = 5.0
        expected[2, 2] = 7.0
        np.testing.assert_allclose(m.to_dense(), expected)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "% another\n"
            "1 1 1\n"
            "1 1 2.5\n"
        )
        m = read_matrix_market(path)
        assert m.data[0] == 2.5

    def test_bad_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix\n1 1 0\n")
        with pytest.raises(ValueError, match="banner"):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "cx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "mm.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"
        )
        with pytest.raises(ValueError, match="expected 3"):
            read_matrix_market(path)
