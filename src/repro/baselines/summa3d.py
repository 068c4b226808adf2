"""3-D (2.5-D) Sparse SUMMA — the communication-avoiding baseline [15, 50].

The inner dimension is split across ``l`` layers; each layer runs an
independent 2-D SUMMA over its slice ``A[:, slice_λ] · B[slice_λ, :]`` on
its own ``pr × pc`` face, and the per-layer partial ``C`` blocks are then
reduced across layers (fiber reduction).  Replicating work across layers
shrinks each face's broadcasts by ``l`` at the price of the final
reduction and extra memory — "better scalability at larger node counts,
where the multiplied instances become more likely to be latency-bound"
(§II-B), which is exactly the regime where Fig 11 shows SUMMA3D's
communication winning.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.driver import MultiplyResult
from ..mpi.cartesian import layered_grid_dims, make_grid3d
from ..mpi.comm import SimComm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.executor import ResidentSession, run_spmd
from ..partition.grid_dist import (
    grid_block,
    inner_chunk_owner_row,
    layer_slices,
    summa_b_chunks,
)
from ..sparse.csr import CsrMatrix
from ..sparse.merge import merge_bytes, merge_csrs
from ..sparse.ops import extract_col_range, extract_row_range
from ..sparse.kernels import dispatch_spgemm, resolve_spgemm
from ..sparse.semiring import PLUS_TIMES, Semiring
from ..sparse.tile import block_ranges
from .result import assemble_2d_blocks


def summa3d_rank(
    comm: SimComm,
    A: Optional[CsrMatrix],
    B: CsrMatrix,
    semiring: Semiring,
    layers: int,
    kernel: str = "auto",
    a_block: Optional[CsrMatrix] = None,
    a_nrows: Optional[int] = None,
    a_ncols: Optional[int] = None,
) -> Optional[Tuple[Tuple[int, int], CsrMatrix]]:
    """One rank of 3-D sparse SUMMA; layer-0 ranks return their C block.

    ``a_block`` (with ``a_nrows``/``a_ncols``) lets a resident
    :class:`Summa3dSession` supply the rank's already layer-sliced,
    grid-blocked share of ``A`` — the B-independent per-rank state.
    """
    grid = make_grid3d(comm, layers)
    pr, pc, l = grid.pr, grid.pc, grid.layers
    i, j, lam = grid.row, grid.col, grid.layer
    d = B.ncols

    # This layer's slice of the inner dimension.
    if a_block is None:
        a_nrows, a_ncols = A.nrows, A.ncols
    k0, k1 = layer_slices(a_ncols, l)[lam]
    if a_block is None:
        a_layer = extract_col_range(A, k0, k1, reindex=True)
        a_block = grid_block(a_layer, pr, pc, i, j)
    b_layer = extract_row_range(B, k0, k1)

    # 2-D SUMMA on the layer face.
    b_chunks = summa_b_chunks(b_layer, pr, pc, i, j)
    kname = resolve_spgemm(kernel, semiring, a_block, d=d).name
    partials: List[CsrMatrix] = []
    c_rows = block_ranges(a_nrows, pr)[i]
    c_cols = block_ranges(B.ncols, pc)[j]
    c_shape = (c_rows[1] - c_rows[0], c_cols[1] - c_cols[0])

    for k in range(pc):
        with comm.phase("bcast-A"):
            a_ik = grid.row_comm.bcast(a_block if j == k else None, root=k)
        owner_row = inner_chunk_owner_row(k, pr)
        with comm.phase("bcast-B"):
            b_kj = grid.col_comm.bcast(
                b_chunks.get(k) if i == owner_row else None, root=owner_row
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
            c_face = merge_csrs(partials, semiring)
        else:
            c_face = CsrMatrix.empty(c_shape, dtype=semiring.dtype)

    # Fiber reduction: combine the l layers' partials for this (i, j).
    with comm.phase("fiber-reduce"):
        def _merge(x: CsrMatrix, y: CsrMatrix) -> CsrMatrix:
            return merge_csrs([x, y], semiring)

        c_final = grid.fiber_comm.reduce(c_face, op=_merge, root=0)
        if c_final is not None:
            comm.charge_touch(c_final.nbytes_estimate())

    if lam == 0:
        return (i, j), c_final
    return None


def summa3d(
    A: CsrMatrix,
    B: CsrMatrix,
    p: int,
    *,
    layers: int = 4,
    semiring: Semiring = PLUS_TIMES,
    machine: MachineProfile = PERLMUTTER,
    kernel: str = "auto",
) -> MultiplyResult:
    """Run 3-D sparse SUMMA on ``p`` ranks with (up to) ``layers`` layers."""
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    result = run_spmd(
        p, summa3d_rank, A, B, semiring, layers, kernel, machine=machine
    )
    pr, pc, l = layered_grid_dims(p, layers)
    blocks = [v for v in result.values if v is not None]
    C = assemble_2d_blocks(blocks, A.nrows, B.ncols, pr, pc, semiring)
    return MultiplyResult(C=C, report=result.report, diagnostics={"layers": l})


class Summa3dSession(ResidentSession):
    """Resident 3-D SUMMA: layer slicing + grid distribution paid once.

    Counterpart of :class:`~repro.baselines.summa2d.Summa2dSession` for
    the communication-avoiding baseline: each rank's layer-sliced
    ``A`` block is extracted once on a resident executor and every
    :meth:`multiply` only distributes ``B`` and runs the face/fiber loop.
    """

    def __init__(
        self,
        A: CsrMatrix,
        p: int,
        *,
        layers: int = 4,
        semiring: Semiring = PLUS_TIMES,
        machine: MachineProfile = PERLMUTTER,
        kernel: str = "auto",
        timeout: Optional[float] = None,
    ):
        if A.nrows != A.ncols:
            raise ValueError(f"need a square A, got {A.shape}")
        super().__init__(p, machine, timeout=timeout)
        self.layers = layers
        self.semiring = semiring
        self.kernel = kernel
        self.nrows = A.nrows
        self.ncols = A.ncols
        self.pr, self.pc, self.l = layered_grid_dims(p, layers)

        def setup(comm):
            grid = make_grid3d(comm, layers)
            k0, k1 = layer_slices(A.ncols, grid.layers)[grid.layer]
            a_layer = extract_col_range(A, k0, k1, reindex=True)
            return grid_block(a_layer, grid.pr, grid.pc, grid.row, grid.col)

        self._a_blocks = self._run_setup(setup)

    def multiply(self, B: CsrMatrix) -> MultiplyResult:
        if B.nrows != self.ncols:
            raise ValueError(
                f"B must have {self.ncols} rows to match A, got {B.shape}"
            )

        def program(comm):
            return summa3d_rank(
                comm,
                None,
                B,
                self.semiring,
                self.layers,
                self.kernel,
                a_block=self._a_blocks[comm.rank],
                a_nrows=self.nrows,
                a_ncols=self.ncols,
            )

        result = self._exec.run(program)
        blocks = [v for v in result.values if v is not None]
        C = assemble_2d_blocks(
            blocks, self.nrows, B.ncols, self.pr, self.pc, self.semiring
        )
        return MultiplyResult(
            C=C, report=result.report, diagnostics={"layers": self.l}
        )
