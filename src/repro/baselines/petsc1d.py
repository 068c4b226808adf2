"""PETSc-style 1-D distributed Gustavson SpGEMM [17].

"Variants of this algorithm are implemented in popular libraries such as
PETSc and Trilinos" (§III-A): 1-D row partitions, an index-request
all-to-all, a B-row fetch all-to-all, then one local SpGEMM — i.e. exactly
Algorithm 1.  This wrapper runs :func:`repro.core.naive.naive_multiply` as
a standalone baseline with its own driver — the one entry point to Alg 1,
registry name ``PETSc-1D`` — so benchmarks can compare "PETSc (1-D)"
against TS-SpGEMM the way Figs 8-10 do.
"""

from __future__ import annotations

from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import MultiplyResult
from ..core.naive import naive_multiply
from ..mpi.comm import SimComm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.executor import run_spmd
from ..partition.distmat import DistSparseMatrix, stack_blocks
from ..sparse.csr import CsrMatrix
from ..sparse.semiring import PLUS_TIMES, Semiring


def petsc1d_rank(
    comm: SimComm,
    A: CsrMatrix,
    B: CsrMatrix,
    semiring: Semiring,
    config: TsConfig,
):
    """One rank of the PETSc-style 1-D algorithm."""
    dist_a = DistSparseMatrix.scatter_rows(comm, A)
    dist_b = DistSparseMatrix.scatter_rows(comm, B)
    dist_c, diag = naive_multiply(dist_a, dist_b, semiring, config)
    return dist_c.local, diag


def petsc1d(
    A: CsrMatrix,
    B: CsrMatrix,
    p: int,
    *,
    semiring: Semiring = PLUS_TIMES,
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
) -> MultiplyResult:
    """Run the PETSc-style 1-D SpGEMM on ``p`` ranks."""
    if A.ncols != B.nrows or A.nrows != A.ncols:
        raise ValueError(f"need square A and matching B: {A.shape} x {B.shape}")
    result = run_spmd(
        p, petsc1d_rank, A, B, semiring, config,
        machine=machine, sanitize=config.sanitize or None,
    )
    blocks = [v[0] for v in result.values]
    fetched = sum(v[1]["fetched_b_nnz"] for v in result.values)
    return MultiplyResult(
        C=stack_blocks(blocks, B.ncols),
        report=result.report,
        diagnostics={"fetched_b_nnz": fetched},
    )
