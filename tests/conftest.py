"""Shared fixtures and helpers for the test suite."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mpi import FaultPlan, FaultSpec
from repro.sparse import CsrMatrix, coo_to_csr, kernels

#: The kernel registry as the package builds it, taken before any test
#: runs: the spine's traced run registers ``bench-traced`` for the rest of
#: the process, so a test of the registry's contents restores this first.
KERNELS_AT_IMPORT = dict(kernels._REGISTRY)

# The reference implementations live in one module both the benches and the
# tests import: ``from _oracles import ...`` (benchmarks/_oracles.py).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dense(rng, nrows, ncols, density=0.3, dtype=np.float64):
    """Random dense matrix with ~density fraction of nonzeros."""
    mask = rng.random((nrows, ncols)) < density
    if dtype == np.bool_:
        return mask
    vals = rng.integers(1, 10, size=(nrows, ncols)).astype(dtype)
    return np.where(mask, vals, 0)


def csr_from_dense(dense) -> CsrMatrix:
    return CsrMatrix.from_dense(np.asarray(dense))


def assert_same_arrays(got: CsrMatrix, want: CsrMatrix) -> None:
    """Array for array: shape, and dtype and contents of all three arrays."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)


def fault_env_seeds(default=(0,)):
    """Seeds of the CI fault sweep: ``REPRO_FAULTS`` as comma-split ints."""
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return tuple(default)
    return tuple(int(part) for part in raw.split(",") if part.strip())


def seeded_fault_plan(
    seed, size, *, kinds=("transient", "crash"), n=1, max_task=6, max_seq=4
) -> FaultPlan:
    """A deterministic random plan: ``n`` single-rank faults drawn from
    ``kinds`` at uniform (rank, task, seq) points.  A drawn point the
    program never reaches simply does not fire — a clean run is a legal
    member of the sweep."""
    rng = np.random.default_rng(seed)
    return FaultPlan(tuple(
        FaultSpec(
            kind=str(rng.choice(list(kinds))),
            rank=int(rng.integers(size)),
            task=int(rng.integers(max_task)),
            seq=int(rng.integers(max_seq)),
        )
        for _ in range(n)
    ))
