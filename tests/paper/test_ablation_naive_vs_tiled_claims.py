"""The naive-vs-tiled ablation's claims (what Alg 2's ``Ac`` column copy
and tiling buy over Alg 1, §III), at the size of
``benchmarks/_configs.NAIVE_VS_TILED``, which
``bench_ablation_naive_vs_tiled.py`` runs and prints.

Alg 1 runs as the ``PETSc-1D`` baseline; every claim is on products and
communicated bytes, so the tests are deterministic.
"""

import pytest

from _configs import NAIVE_VS_TILED
from repro.baselines import petsc1d
from repro.core import ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER


CASES = NAIVE_VS_TILED["cases"]
CASE_IDS = [f"d{d}-sparsity{sparsity:g}" for d, sparsity in CASES]


@pytest.fixture(scope="module")
def runs():
    p, config = NAIVE_VS_TILED["p"], NAIVE_VS_TILED["config"]
    A = load(NAIVE_VS_TILED["dataset"], scale=NAIVE_VS_TILED["scale"], seed=0)
    out = {}
    for d, sparsity in CASES:
        B = tall_skinny(A.nrows, d, sparsity, seed=1)
        out[d, sparsity] = (
            petsc1d(A, B, p, machine=SCALED_PERLMUTTER),
            ts_spgemm(A, B, p, config=config, machine=SCALED_PERLMUTTER),
        )
    return out


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_both_algorithms_compute_the_same_product(runs, case):
    """Both algorithms compute ``C = A · B``: the products are equal."""
    naive, tiled = runs[case]
    assert naive.C.equal(tiled.C)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_only_alg1_pays_the_request_round(runs, case):
    """The request round: "Alg 1 spends an extra all-to-all shipping column
    indices that the Ac copy eliminates entirely"."""
    naive, tiled = runs[case]
    assert naive.report.phase_bytes().get("request-indices", 0) > 0
    assert tiled.report.phase_bytes().get("request-indices", 0) == 0


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_tiling_bounds_received_b_below_alg1(runs, case):
    """The memory bound: "Alg 1 must hold every fetched B row at once,
    while tiling caps the resident footprint per round" — Alg 2's peak
    received B per round is below Alg 1's largest per-rank receive."""
    naive, tiled = runs[case]
    assert tiled.diagnostics["peak_recv_b_bytes"] < naive.report.max_rank_bytes_recv()
