"""Tests for the 1-D block partition map."""

import numpy as np
import pytest

from repro.partition import Block1D


class TestBlock1D:
    def test_ranges_cover(self):
        part = Block1D(10, 3)
        assert part.ranges == [(0, 4), (4, 7), (7, 10)]

    def test_ranges_are_computed_once_and_stay_out_of_equality(self):
        part = Block1D(10, 3)
        assert part.ranges is part.ranges  # range_of reads them per call
        assert part == Block1D(10, 3) and hash(part) == hash(Block1D(10, 3))
        explicit = Block1D(10, 3, bounds=(0, 2, 2, 10))
        assert explicit.ranges is explicit.ranges == [(0, 2), (2, 2), (2, 10)]

    def test_size_of(self):
        part = Block1D(10, 3)
        assert [part.size_of(r) for r in range(3)] == [4, 3, 3]

    def test_owner(self):
        part = Block1D(10, 3)
        assert [part.owner(i) for i in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_owner_bounds(self):
        part = Block1D(5, 2)
        with pytest.raises(IndexError):
            part.owner(5)
        with pytest.raises(IndexError):
            part.owner(-1)

    def test_owners_vectorized(self):
        part = Block1D(23, 5)
        idx = np.arange(23)
        np.testing.assert_array_equal(
            part.owners(idx), [part.owner(int(i)) for i in idx]
        )

    def test_to_local_offsets(self):
        part = Block1D(10, 3)
        g = np.array([4, 5, 6])
        loc = part.to_local(1, g)
        np.testing.assert_array_equal(loc, [0, 1, 2])

    def test_to_local_rejects_foreign(self):
        part = Block1D(10, 3)
        with pytest.raises(IndexError):
            part.to_local(1, np.array([0]))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Block1D(10, 0)
        with pytest.raises(ValueError):
            Block1D(-1, 2)

    def test_more_parts_than_elements(self):
        part = Block1D(2, 5)
        assert part.size_of(0) == 1 and part.size_of(4) == 0
