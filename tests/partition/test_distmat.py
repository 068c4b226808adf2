"""Tests for distributed matrix handles, including the Ac column copy."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.partition import Block1D, DistSparseMatrix
from repro.partition.distmat import stack_blocks
from repro.sparse import CsrMatrix
from ..conftest import csr_from_dense, random_dense


def make_square(rng, n=12):
    return csr_from_dense(random_dense(rng, n, n, 0.3))


class TestScatterGather:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7])
    def test_roundtrip(self, rng, p):
        mat = make_square(rng)

        def program(comm, mat):
            return DistSparseMatrix.scatter_rows(comm, mat).local

        values = run_spmd(p, program, mat).values
        assert stack_blocks(values, mat.ncols).equal(mat)

    def test_local_blocks_match_partition(self, rng):
        mat = make_square(rng, n=10)

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            lo, hi = dist.local_range
            return (lo, hi, dist.local.nrows, dist.local.nnz)

        values = run_spmd(3, program, mat).values
        part = Block1D(10, 3)
        dense = mat.to_dense()
        for r, (lo, hi, nrows, nnz) in enumerate(values):
            assert (lo, hi) == part.range_of(r)
            assert nrows == hi - lo
            assert nnz == (dense[lo:hi] != 0).sum()

    def test_rectangular_matrix(self, rng):
        mat = csr_from_dense(random_dense(rng, 9, 4, 0.4))

        def program(comm, mat):
            return DistSparseMatrix.scatter_rows(comm, mat).local

        values = run_spmd(2, program, mat).values
        assert stack_blocks(values, mat.ncols).equal(mat)


class TestColumnCopy:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_col_copy_content(self, rng, p):
        mat = make_square(rng, n=11)
        dense = mat.to_dense()

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            dist.build_column_copy()
            return dist.col_copy

        values = run_spmd(p, program, mat).values
        part = Block1D(11, p)
        for r, ac in enumerate(values):
            lo, hi = part.range_of(r)
            assert ac.shape == (11, hi - lo)
            np.testing.assert_allclose(ac.to_dense(), dense[:, lo:hi])

    def test_col_copy_rows_of(self, rng):
        mat = make_square(rng, n=12)
        dense = mat.to_dense()

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            dist.build_column_copy()
            # rank r reads the tile A[rows_of(1), my_cols] locally
            return dist.col_copy_rows_of(1)

        values = run_spmd(3, program, mat).values
        part = Block1D(12, 3)
        r_lo, r_hi = part.range_of(1)
        for r, tile in enumerate(values):
            c_lo, c_hi = part.range_of(r)
            np.testing.assert_allclose(tile.to_dense(), dense[r_lo:r_hi, c_lo:c_hi])

    def test_col_copy_requires_square(self, rng):
        mat = csr_from_dense(random_dense(rng, 6, 4, 0.5))

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            dist.build_column_copy()

        from repro.mpi import RankError

        with pytest.raises(RankError):
            run_spmd(2, program, mat)

    def test_col_copy_charges_phase(self, rng):
        mat = make_square(rng)

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            dist.build_column_copy()

        report = run_spmd(4, program, mat).report
        assert report.phase_bytes().get("build-Ac", 0) > 0

    def test_rows_of_before_build_raises(self, rng):
        mat = make_square(rng)

        def program(comm, mat):
            dist = DistSparseMatrix.scatter_rows(comm, mat)
            dist.col_copy_rows_of(0)

        from repro.mpi import RankError

        with pytest.raises(RankError):
            run_spmd(2, program, mat)

