"""1.5-D dense-shifting SpMM — the comparator of §V-C's footnote.

The paper validates its fetch-based SpMM against "the 1.5D dense shifting
algorithm [51, 52]" (Selvitopi et al. ICS'21; Two-Face ASPLOS'24).  In the
``c = 1`` (pure shifting) configuration reproduced here, ``A`` and the
dense ``B`` are 1-D row partitioned and the ``B`` blocks *rotate around a
ring*: at step ``s`` every rank multiplies the ``A`` column strip matching
the currently resident ``B`` block against it, accumulates into its local
``C``, then passes the block to its neighbour.

Structural contrast with the fetch-based SpMM of :mod:`repro.core.spmm`:
shifting moves **every** ``B`` block through **every** rank —
``nnz-oblivious`` traffic of ``n·d`` values per rank — while fetching
moves only the rows a rank's nonzero columns touch.  On sparse ``A`` the
fetch wins, which is exactly the paper's "comparable or better" check.
"""

from __future__ import annotations

import numpy as np

from ..core.driver import MultiplyResult
from ..mpi.comm import SimComm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.executor import run_spmd
from ..partition.block1d import Block1D
from ..sparse.csr import CsrMatrix
from ..sparse.ops import extract_col_range, extract_row_range, spmm_dense


def shift15d_rank(comm: SimComm, A: CsrMatrix, B: np.ndarray) -> np.ndarray:
    """One rank of the c=1 dense-shifting SpMM; returns its C block."""
    p = comm.size
    rows = Block1D(A.nrows, p)
    lo, hi = rows.range_of(comm.rank)
    d = B.shape[1]
    c_local = np.zeros((hi - lo, d))

    # Column strips of my A block, aligned with the ring's B blocks.
    a_local = extract_row_range(A, lo, hi)
    strips = [
        extract_col_range(a_local, c0, c1, reindex=True) for c0, c1 in rows.ranges
    ]

    # Start with my own B block; after step s I hold block (rank + s) % p.
    block = B[lo:hi].copy()
    right = (comm.rank + 1) % p
    left = (comm.rank - 1) % p
    for s in range(p):
        owner = (comm.rank + s) % p
        strip = strips[owner]
        with comm.phase("local-compute"):
            if strip.nnz and block.size:
                partial, flops = spmm_dense(strip, block)
                comm.charge_spmm(flops)
                c_local += partial
        if s + 1 < p:
            with comm.phase("shift-B"):
                # ring rotation: pass my block left, receive from the right
                block = comm.sendrecv(block, dest=left, source=right, tag=s)
    return c_local


def shift15d_spmm(
    A: CsrMatrix,
    B: np.ndarray,
    p: int,
    *,
    machine: MachineProfile = PERLMUTTER,
) -> MultiplyResult:
    """Run the 1.5-D (c=1) shifting SpMM; returns the dense product."""
    B = np.asarray(B)
    if A.ncols != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    result = run_spmd(p, shift15d_rank, A, B, machine=machine)
    return MultiplyResult(C=np.vstack(result.values), report=result.report)
