"""Tests for block partitioning helpers and column strips."""

import numpy as np
import pytest

from repro.sparse import ColumnStrips, block_owner, block_owners, block_ranges
from ..conftest import csr_from_dense, random_dense


class TestBlockRanges:
    def test_even_division(self):
        assert block_ranges(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_uneven_division_front_loaded(self):
        assert block_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_blocks_than_elements(self):
        ranges = block_ranges(2, 4)
        assert ranges == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_covers_exactly(self):
        for n, p in [(100, 7), (5, 5), (13, 3), (1, 1)]:
            ranges = block_ranges(n, p)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
                assert a1 == b0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            block_ranges(10, 0)

    def test_owner_consistent_with_ranges(self):
        for n, p in [(10, 4), (100, 7), (16, 16), (5, 8)]:
            ranges = block_ranges(n, p)
            for i in range(n):
                owner = block_owner(i, n, p)
                lo, hi = ranges[owner]
                assert lo <= i < hi

    def test_vectorized_owners_match_scalar(self):
        n, p = 37, 5
        idx = np.arange(n)
        vec = block_owners(idx, n, p)
        scalar = np.array([block_owner(int(i), n, p) for i in idx])
        np.testing.assert_array_equal(vec, scalar)


class TestColumnStrips:
    def test_strips_partition_matrix(self, rng):
        dense = random_dense(rng, 6, 12, 0.4)
        mat = csr_from_dense(dense)
        ranges = block_ranges(12, 3)
        strips = ColumnStrips(mat, ranges)
        assert len(strips) == 3
        for j, (c0, c1) in enumerate(ranges):
            np.testing.assert_allclose(strips[j].to_dense(), dense[:, c0:c1])

    def test_strip_nnz_sums_to_total(self, rng):
        mat = csr_from_dense(random_dense(rng, 8, 20, 0.3))
        strips = ColumnStrips(mat, block_ranges(20, 4))
        assert sum(strip.nnz for strip in strips) == mat.nnz

