"""Tests for the 1.5-D dense-shifting SpMM baseline."""

import numpy as np
import pytest

from repro.baselines import shift15d_spmm
from repro.core import ts_spgemm
from repro.data import erdos_renyi
from repro.mpi import SCALED_PERLMUTTER
from ..conftest import csr_from_dense, random_dense


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_numpy(self, rng, p):
        dense_a = random_dense(rng, 24, 24, 0.2)
        b = rng.random((24, 6))
        result = shift15d_spmm(csr_from_dense(dense_a), b, p)
        np.testing.assert_allclose(result.C, dense_a @ b, atol=1e-10)

    def test_rectangular_a_rejected(self, rng):
        a = csr_from_dense(random_dense(rng, 4, 5, 0.5))
        with pytest.raises(ValueError):
            shift15d_spmm(a, np.zeros((4, 2)), 2)

    def test_uneven_partition(self, rng):
        dense_a = random_dense(rng, 13, 13, 0.3)
        b = rng.random((13, 3))
        result = shift15d_spmm(csr_from_dense(dense_a), b, 4)
        np.testing.assert_allclose(result.C, dense_a @ b, atol=1e-10)

    def test_ring_traffic_recorded(self, rng):
        dense_a = random_dense(rng, 16, 16, 0.4)
        b = rng.random((16, 4))
        result = shift15d_spmm(csr_from_dense(dense_a), b, 4)
        assert result.report.phase_bytes().get("shift-B", 0) > 0


class TestPaperClaim:
    def test_fetch_spmm_comparable_or_better(self):
        """§V-C: 'our SpMM performs comparably or better than the 1.5D
        dense shifting algorithm' — on sparse A the fetch-based variant
        must move no more data (shifting is nnz-oblivious)."""
        n, d, p = 1024, 32, 8
        A = erdos_renyi(n, 8, seed=1)
        rng = np.random.default_rng(2)
        B = rng.random((n, d))
        fetch = ts_spgemm(A, B, p, machine=SCALED_PERLMUTTER)
        shift = shift15d_spmm(A, B, p, machine=SCALED_PERLMUTTER)
        np.testing.assert_allclose(fetch.C, shift.C, atol=1e-9)
        assert fetch.comm_bytes() <= shift.comm_bytes()
        assert fetch.multiply_time <= shift.runtime * 1.1
