"""Tests for the semiring abstraction."""

import numpy as np
import pytest

from repro.sparse import (
    BOOL_AND_OR,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    SEL2ND_MIN,
    Semiring,
)


class TestStandardSemirings:
    def test_plus_times(self):
        sr = PLUS_TIMES
        np.testing.assert_allclose(
            sr.multiply(np.array([2.0, 3.0]), np.array([4.0, 5.0])), [8.0, 15.0]
        )
        assert sr.zero == 0.0

    def test_bool_and_or(self):
        sr = BOOL_AND_OR
        out = sr.multiply(np.array([True, True, False]), np.array([True, False, True]))
        np.testing.assert_array_equal(out, [True, False, False])
        assert sr.zero is False
        assert sr.dtype == np.bool_

    def test_sel2nd_min_multiply_selects_second(self):
        sr = SEL2ND_MIN
        out = sr.multiply(np.array([9.0, 9.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_min_plus(self):
        sr = MIN_PLUS
        out = sr.multiply(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        np.testing.assert_allclose(out, [11.0, 22.0])
        assert sr.zero == np.inf

    def test_max_times(self):
        sr = MAX_TIMES
        assert sr.zero == 0.0
        out = sr.reduce_segments(np.array([0.5, 0.9, 0.2]), np.array([0]))
        np.testing.assert_allclose(out, [0.9])


class TestReduceSegments:
    def test_sum_segments(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([0, 2, 3])
        np.testing.assert_allclose(
            PLUS_TIMES.reduce_segments(vals, starts), [3.0, 3.0, 9.0]
        )

    def test_or_segments(self):
        vals = np.array([True, False, False, False])
        starts = np.array([0, 2])
        np.testing.assert_array_equal(
            BOOL_AND_OR.reduce_segments(vals, starts), [True, False]
        )

    def test_min_segments(self):
        vals = np.array([3.0, 1.0, 7.0])
        np.testing.assert_allclose(
            SEL2ND_MIN.reduce_segments(vals, np.array([0])), [1.0]
        )

    def test_empty(self):
        out = PLUS_TIMES.reduce_segments(np.zeros(0), np.zeros(0, dtype=np.int64))
        assert len(out) == 0

    def test_singleton_segments(self):
        vals = np.array([1.0, 2.0, 3.0])
        starts = np.array([0, 1, 2])
        np.testing.assert_allclose(PLUS_TIMES.reduce_segments(vals, starts), vals)


class TestSemiringContract:
    def test_add_must_be_ufunc(self):
        with pytest.raises(TypeError, match="ufunc"):
            Semiring("bad", lambda a, b: a + b, np.multiply, 0.0, np.dtype(float))

    def test_scalar_add(self):
        assert PLUS_TIMES.scalar_add(2.0, 3.0) == 5.0
        assert BOOL_AND_OR.scalar_add(False, True) == True  # noqa: E712

    def test_coerce_casts_dtype(self):
        out = BOOL_AND_OR.coerce(np.array([0.0, 2.0]))
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, [False, True])

    def test_repr(self):
        assert "plus_times" in repr(PLUS_TIMES)
