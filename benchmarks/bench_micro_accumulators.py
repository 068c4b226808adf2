"""Micro-benchmark: SPA vs hash vs ESC local SpGEMM kernels (§III-C).

The paper adaptively uses a dense SPA while the accumulator fits cache and
switches to hashing for d > 1024.  This bench measures the *wall-clock*
cost of our reference kernels (pytest-benchmark) and prints the *modelled*
SPA/hash crossover the cost model encodes.
"""

import numpy as np
import pytest

from repro.analysis import fmt_seconds, print_table
from repro.mpi import PERLMUTTER
from repro.sparse import CsrMatrix, random_csr, spgemm

RNG = np.random.default_rng(0)
A = random_csr(400, 400, nnz_per_row=8, rng=RNG)
B_SMALL = random_csr(400, 64, nnz_per_row=12, rng=RNG)


def _check_agreement():
    reference, _ = spgemm(A, B_SMALL, method="esc-vectorized")
    for method in ("spa", "scipy"):
        got, _ = spgemm(A, B_SMALL, method=method)
        assert got.equal(reference)


@pytest.mark.parametrize("method", ["esc-vectorized", "spa", "scipy"])
def bench_micro_kernel(benchmark, method):
    _check_agreement()
    benchmark(lambda: spgemm(A, B_SMALL, method=method))


def bench_micro_modelled_crossover(benchmark, sink):
    flops = 1_000_000
    rows = []
    crossover = None
    for d in (64, 256, 1024, 2048, 4096, 16384):
        spa = PERLMUTTER.spgemm_time(flops, d=d, accumulator="spa")
        hsh = PERLMUTTER.spgemm_time(flops, d=d, accumulator="hash")
        winner = "SPA" if spa <= hsh else "hash"
        if winner == "hash" and crossover is None:
            crossover = d
        rows.append([d, fmt_seconds(spa), fmt_seconds(hsh), winner])
    print_table(
        "§III-C: modelled SPA vs hash accumulator cost (1M flops)",
        ["d", "SPA", "hash", "faster"],
        rows,
        file=sink,
    )
    assert crossover == 2048  # hash wins strictly beyond d=1024
    benchmark(lambda: PERLMUTTER.spgemm_time(flops, d=128, accumulator="spa"))
