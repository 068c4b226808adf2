"""Fig 7's claims (§V-C: TS-SpGEMM against "an SpMM with a dense B using
the same communication patterns as TS-SpGEMM"), at the size of
``benchmarks/_configs.FIG07``, which ``bench_fig07_spgemm_vs_spmm.py``
runs and prints.

Every claim is on modelled seconds or communicated bytes, so the tests
are deterministic.
"""

import numpy as np
import pytest

from _configs import FIG07
from repro.baselines import shift15d_spmm
from repro.core import ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER


@pytest.fixture(scope="module")
def fig07():
    p, d = FIG07["p"], FIG07["d"]
    A = load(FIG07["dataset"], scale=FIG07["scale"], seed=0)
    dense_b = np.random.default_rng(1).random((A.nrows, d)) + 0.05
    return {
        "A": A,
        "dense_b": dense_b,
        "spmm": ts_spgemm(A, dense_b, p, machine=SCALED_PERLMUTTER),
        "spgemm": {
            s: ts_spgemm(A, tall_skinny(A.nrows, d, s, seed=2), p, machine=SCALED_PERLMUTTER)
            for s in FIG07["sparsities"]
        },
    }


def test_runtime_crossover_is_at_least_a_quarter_sparse(fig07):
    """§V-C: TS-SpGEMM overtakes SpMM only once B is sparse enough — the
    paper recommends it "when B is at least 50 % sparse"; here the
    runtime crossover must exist and lie at ≥ 25 % sparsity."""
    spmm_time = fig07["spmm"].multiply_time
    faster = [s for s, r in fig07["spgemm"].items() if r.multiply_time < spmm_time]
    assert faster and min(faster) >= 0.25


def test_sparse_b_moves_fewer_bytes_than_dense_b(fig07):
    """§V-C: SpGEMM's communicated volume falls with B's sparsity — it
    ships only the nonzero entries."""
    spgemm = fig07["spgemm"]
    assert spgemm[0.95].comm_bytes() < spgemm[0.0].comm_bytes()


def test_dense_sparse_b_moves_more_than_spmm(fig07):
    """§V-C: SpGEMM "requires communication of both indices and values,
    whereas SpMM only communicates values" — at full density the sparse
    payloads are the larger."""
    assert fig07["spgemm"][0.0].comm_bytes() > fig07["spmm"].comm_bytes()


def test_spmm_moves_no_more_than_shift_15d(fig07):
    """§V-C footnote: "our SpMM performs comparably or better than the
    1.5D dense shifting algorithm" — on the same product."""
    shift = shift15d_spmm(
        fig07["A"], fig07["dense_b"], FIG07["p"], machine=SCALED_PERLMUTTER
    )
    np.testing.assert_allclose(np.asarray(fig07["spmm"].C), shift.C, atol=1e-9)
    assert fig07["spmm"].comm_bytes() <= shift.comm_bytes()
