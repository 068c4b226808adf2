"""2-D Sparse SUMMA — the CombBLAS baseline [14, 34].

Operands live as rectangular blocks on a ``pr × pc`` process grid.  The
multiply runs ``pc`` stages over the inner dimension: at stage ``k`` the
owners broadcast ``A``'s block column ``k`` along grid rows and ``B``'s
row chunk ``k`` along grid columns, and every process accumulates
``C[i,j] ⊕= A[i,k] ⊗ B[k,j]``.

The structural weakness for tall-and-skinny ``B`` is visible directly in
the cost accounting: *both* operands are broadcast, and ``A`` (the big
square matrix) dominates the traffic even though each process only needs
a sliver of ``B`` — exactly the observation that motivates TS-SpGEMM
("these algorithms involve communication for both A and B", §V-D).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.driver import MultiplyResult
from ..mpi.cartesian import make_grid2d, square_grid_dims
from ..mpi.comm import SimComm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.executor import ResidentSession, run_spmd
from ..partition.grid_dist import grid_block, inner_chunk_owner_row, summa_b_chunks
from ..sparse.csr import CsrMatrix
from ..sparse.merge import merge_bytes, merge_csrs
from ..sparse.kernels import dispatch_spgemm, resolve_spgemm
from ..sparse.semiring import PLUS_TIMES, Semiring
from ..sparse.tile import block_ranges
from .result import assemble_2d_blocks


def summa2d_rank(
    comm: SimComm,
    A: Optional[CsrMatrix],
    B: CsrMatrix,
    semiring: Semiring,
    kernel: str = "auto",
    a_block: Optional[CsrMatrix] = None,
    a_nrows: Optional[int] = None,
) -> Tuple[Tuple[int, int], CsrMatrix]:
    """One rank of 2-D sparse SUMMA; returns ``((i, j), C block)``.

    ``a_block`` / ``a_nrows`` let a resident :class:`Summa2dSession` hand
    in the rank's already-extracted ``A[i, j]`` block instead of the
    global ``A`` (the block is the only B-independent per-rank state).
    """
    grid = make_grid2d(comm)
    pr, pc = grid.pr, grid.pc
    i, j = grid.row, grid.col
    d = B.ncols

    if a_block is None:
        a_block = grid_block(A, pr, pc, i, j)  # A[i, j] in local coords
        a_nrows = A.nrows
    b_chunks_held = summa_b_chunks(B, pr, pc, i, j)  # {k: B[k, j]}
    kname = resolve_spgemm(kernel, semiring, a_block, d=d).name

    partials: List[CsrMatrix] = []
    c_rows = block_ranges(a_nrows, pr)[i]
    c_cols = block_ranges(B.ncols, pc)[j]
    c_shape = (c_rows[1] - c_rows[0], c_cols[1] - c_cols[0])

    for k in range(pc):
        # Broadcast A[:, k] along grid rows from the column-k owner.
        with comm.phase("bcast-A"):
            a_ik = grid.row_comm.bcast(a_block if j == k else None, root=k)
        # Broadcast B[k, :] along grid columns from its round-robin row.
        owner_row = inner_chunk_owner_row(k, pr)
        with comm.phase("bcast-B"):
            b_kj = grid.col_comm.bcast(
                b_chunks_held.get(k) if i == owner_row else None, root=owner_row
            )
        with comm.phase("local-compute"):
            if a_ik.nnz and b_kj.nnz:
                c_part, flops = dispatch_spgemm(a_ik, b_kj, semiring, kname, ordered=False)
                comm.charge_spgemm(flops, d=d, kernel=kname)
                if c_part.nnz:
                    partials.append(c_part)

    with comm.phase("merge"):
        if partials:
            comm.charge_touch(merge_bytes(partials))
            c_block = merge_csrs(partials, semiring)
        else:
            c_block = CsrMatrix.empty(c_shape, dtype=semiring.dtype)
    return (i, j), c_block


def summa2d(
    A: CsrMatrix,
    B: CsrMatrix,
    p: int,
    *,
    semiring: Semiring = PLUS_TIMES,
    machine: MachineProfile = PERLMUTTER,
    kernel: str = "auto",
) -> MultiplyResult:
    """Run 2-D sparse SUMMA on ``p`` ranks; returns the assembled product."""
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    result = run_spmd(p, summa2d_rank, A, B, semiring, kernel, machine=machine)
    pr, pc = square_grid_dims(p)
    C = assemble_2d_blocks(result.values, A.nrows, B.ncols, pr, pc, semiring)
    return MultiplyResult(C=C, report=result.report)


class Summa2dSession(ResidentSession):
    """Resident 2-D SUMMA: grid distribution of ``A`` paid once.

    The per-call :func:`summa2d` re-extracts every rank's ``A[i, j]``
    block (and respawns ``p`` rank threads) on every multiply — per BFS
    level when driving Fig 12(d)'s comparison loop.  The session extracts
    the blocks once on a resident :class:`~repro.mpi.executor.SpmdSession`
    and each :meth:`multiply` only distributes ``B`` and runs the stage
    loop, so the baseline amortizes its setup exactly like the TS-SpGEMM
    sessions it is compared against (like-for-like, Fig 12d).  The
    per-stage ``A`` broadcasts remain per multiply — they are the
    algorithm's multiply-time traffic, not setup.
    """

    def __init__(
        self,
        A: CsrMatrix,
        p: int,
        *,
        semiring: Semiring = PLUS_TIMES,
        machine: MachineProfile = PERLMUTTER,
        kernel: str = "auto",
        timeout: Optional[float] = None,
    ):
        if A.nrows != A.ncols:
            raise ValueError(f"need a square A, got {A.shape}")
        super().__init__(p, machine, timeout=timeout)
        self.semiring = semiring
        self.kernel = kernel
        self.nrows = A.nrows
        self.ncols = A.ncols
        self.pr, self.pc = square_grid_dims(p)

        def setup(comm):
            grid = make_grid2d(comm)
            return grid_block(A, grid.pr, grid.pc, grid.row, grid.col)

        self._a_blocks = self._run_setup(setup)

    def multiply(self, B: CsrMatrix) -> MultiplyResult:
        if B.nrows != self.ncols:
            raise ValueError(
                f"B must have {self.ncols} rows to match A, got {B.shape}"
            )

        def program(comm):
            return summa2d_rank(
                comm,
                None,
                B,
                self.semiring,
                self.kernel,
                a_block=self._a_blocks[comm.rank],
                a_nrows=self.nrows,
            )

        result = self._exec.run(program)
        C = assemble_2d_blocks(
            result.values, self.nrows, B.ncols, self.pr, self.pc, self.semiring
        )
        return MultiplyResult(C=C, report=result.report)
