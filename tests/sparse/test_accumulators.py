"""Tests for the SPA and hash row accumulators of the seed's scalar
reference kernels (``benchmarks/_oracles.py``)."""

import numpy as np
import pytest
from _oracles import HashAccumulator, SpaAccumulator

from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES


@pytest.fixture(params=["spa", "hash"])
def make_acc(request):
    def factory(d, semiring):
        if request.param == "spa":
            return SpaAccumulator(d, semiring)
        return HashAccumulator(semiring)

    return factory


class TestAccumulators:
    def test_single_row_accumulation(self, make_acc):
        acc = make_acc(5, PLUS_TIMES)
        acc.reset()
        acc.accumulate(2.0, np.array([1, 3]), np.array([10.0, 20.0]))
        acc.accumulate(3.0, np.array([3, 4]), np.array([1.0, 2.0]))
        cols, vals = acc.extract()
        np.testing.assert_array_equal(cols, [1, 3, 4])
        np.testing.assert_allclose(vals, [20.0, 43.0, 6.0])

    def test_reset_clears_state(self, make_acc):
        acc = make_acc(4, PLUS_TIMES)
        acc.reset()
        acc.accumulate(1.0, np.array([0]), np.array([1.0]))
        acc.reset()
        cols, vals = acc.extract()
        assert len(cols) == 0 and len(vals) == 0

    def test_bool_semiring(self, make_acc):
        acc = make_acc(3, BOOL_AND_OR)
        acc.reset()
        acc.accumulate(True, np.array([0, 2]), np.array([True, False]))
        acc.accumulate(True, np.array([0]), np.array([False]))
        cols, vals = acc.extract()
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [True, False])

    def test_min_plus_semiring(self, make_acc):
        acc = make_acc(2, MIN_PLUS)
        acc.reset()
        acc.accumulate(1.0, np.array([0]), np.array([10.0]))  # 11
        acc.accumulate(2.0, np.array([0]), np.array([3.0]))  # 5 -> min
        cols, vals = acc.extract()
        np.testing.assert_allclose(vals, [5.0])

    def test_columns_sorted(self, make_acc):
        acc = make_acc(10, PLUS_TIMES)
        acc.reset()
        acc.accumulate(1.0, np.array([7, 9]), np.array([1.0, 1.0]))
        acc.accumulate(1.0, np.array([2]), np.array([1.0]))
        cols, _ = acc.extract()
        assert list(cols) == sorted(cols)

    def test_empty_extract(self, make_acc):
        acc = make_acc(3, PLUS_TIMES)
        acc.reset()
        cols, vals = acc.extract()
        assert len(cols) == 0 and len(vals) == 0


class TestSpaSpecifics:
    def test_generation_stamps_avoid_full_reset(self):
        acc = SpaAccumulator(1000, PLUS_TIMES)
        for gen in range(5):
            acc.reset()
            acc.accumulate(1.0, np.array([gen]), np.array([1.0]))
            cols, vals = acc.extract()
            np.testing.assert_array_equal(cols, [gen])
            np.testing.assert_allclose(vals, [1.0])

    def test_values_array_is_length_d(self):
        acc = SpaAccumulator(128, PLUS_TIMES)
        assert len(acc.values) == 128
