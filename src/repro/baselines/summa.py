"""Sparse SUMMA — the 2-D [14, 34] and 3-D (2.5-D) [15, 50] baselines.

Operands live as rectangular blocks on an ``l``-layer grid of
``pr × pc`` faces.  The inner dimension is split across the layers; each
layer runs 2-D SUMMA over its slice ``A[:, slice_λ] · B[slice_λ, :]`` on
its own face — ``pc`` stages, at stage ``k`` the owners broadcast ``A``'s
block column ``k`` along grid rows and ``B``'s row chunk ``k`` along grid
columns, and every process accumulates ``C[i,j] ⊕= A[i,k] ⊗ B[k,j]`` —
and the per-layer partial ``C`` blocks are then reduced across layers
(fiber reduction).  **2-D SUMMA is the one-layer case**: one slice, no
fiber, no reduction.

The structural weakness for tall-and-skinny ``B`` is visible directly in
the cost accounting: *both* operands are broadcast, and ``A`` (the big
square matrix) dominates the traffic even though each process only needs
a sliver of ``B`` — exactly the observation that motivates TS-SpGEMM
("these algorithms involve communication for both A and B", §V-D).
Replicating work across layers shrinks each face's broadcasts by ``l`` at
the price of the final reduction and extra memory — "better scalability
at larger node counts, where the multiplied instances become more likely
to be latency-bound" (§II-B), which is exactly the regime where Fig 11
shows SUMMA3D's communication winning.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.driver import MultiplyResult
from ..mpi.cartesian import layered_grid_dims, make_grid3d
from ..mpi.comm import SimComm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.executor import ResidentSession
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


def summa_rank(
    comm: SimComm,
    a_block: CsrMatrix,
    a_shape: Tuple[int, int],
    B: CsrMatrix,
    semiring: Semiring,
    layers: int,
    kernel: str = "auto",
) -> Optional[Tuple[Tuple[int, int], CsrMatrix]]:
    """One rank of sparse SUMMA; layer-0 ranks return ``((i, j), C block)``.

    ``a_block`` is this rank's layer-sliced, grid-blocked share of the
    ``a_shape`` matrix ``A`` (:class:`SummaSession` extracts it once).
    """
    grid = make_grid3d(comm, layers)
    pr, pc, l = grid.pr, grid.pc, grid.layers
    i, j, lam = grid.row, grid.col, grid.layer
    d = B.ncols

    # This layer's slice of the inner dimension.
    k0, k1 = layer_slices(a_shape[1], l)[lam]
    b_chunks = summa_b_chunks(extract_row_range(B, k0, k1), pr, pc, i, j)
    kname = resolve_spgemm(kernel, semiring, a_block, d=d).name
    partials: List[CsrMatrix] = []
    c_rows = block_ranges(a_shape[0], pr)[i]
    c_cols = block_ranges(d, pc)[j]
    c_shape = (c_rows[1] - c_rows[0], c_cols[1] - c_cols[0])

    # 2-D SUMMA on the layer face.
    for k in range(pc):
        # Broadcast A[:, k] along grid rows from the column-k owner.
        with comm.phase("bcast-A"):
            a_ik = grid.row_comm.bcast(a_block if j == k else None, root=k)
        # Broadcast B[k, :] along grid columns from its round-robin row.
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
    if l == 1:
        return (i, j), c_face

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


class SummaSession(ResidentSession):
    """Resident SUMMA on (up to) ``layers`` layers: the layer slicing and
    grid distribution of ``A`` are paid once.

    Each rank's ``A`` block is extracted once on a resident
    :class:`~repro.mpi.executor.SpmdSession`, and every :meth:`multiply`
    only distributes ``B`` and runs the face/fiber loop, so the baseline
    amortizes its setup exactly like the TS-SpGEMM sessions it is
    compared against (like-for-like, Fig 12d).  The per-stage ``A``
    broadcasts remain per multiply — they are the algorithm's
    multiply-time traffic, not setup.  ``layers=1`` is 2-D SUMMA.
    """

    def __init__(
        self,
        A: CsrMatrix,
        p: int,
        *,
        layers: int,
        semiring: Semiring = PLUS_TIMES,
        machine: MachineProfile = PERLMUTTER,
        kernel: str = "auto",
    ):
        self.pr, self.pc, self.l = layered_grid_dims(p, layers)
        super().__init__(p, machine)
        self.layers = layers
        self.semiring = semiring
        self.kernel = kernel
        self.shape = A.shape

        def setup(comm):
            grid = make_grid3d(comm, layers)
            k0, k1 = layer_slices(A.ncols, grid.layers)[grid.layer]
            a_layer = extract_col_range(A, k0, k1, reindex=True)
            return grid_block(a_layer, grid.pr, grid.pc, grid.row, grid.col)

        self._a_blocks = self._run_setup(setup)

    def multiply(self, B: CsrMatrix) -> MultiplyResult:
        if B.nrows != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} x {B.shape}")

        def program(comm):
            return summa_rank(
                comm,
                self._a_blocks[comm.rank],
                self.shape,
                B,
                self.semiring,
                self.layers,
                self.kernel,
            )

        result = self._exec.run(program)
        blocks = [v for v in result.values if v is not None]
        C = assemble_2d_blocks(
            blocks, self.shape[0], B.ncols, self.pr, self.pc, self.semiring
        )
        return MultiplyResult(C=C, report=result.report, diagnostics={"layers": self.l})


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
    """Run sparse SUMMA on ``p`` ranks with (up to) ``layers`` layers:
    one multiply on a :class:`SummaSession`."""
    if A.ncols != B.nrows:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    with SummaSession(
        A, p, layers=layers, semiring=semiring, machine=machine, kernel=kernel
    ) as session:
        return session.multiply(B)


def summa2d(
    A: CsrMatrix,
    B: CsrMatrix,
    p: int,
    *,
    machine: MachineProfile = PERLMUTTER,
) -> MultiplyResult:
    """Run 2-D sparse SUMMA on ``p`` ranks: :func:`summa3d` on one layer."""
    return summa3d(A, B, p, layers=1, machine=machine)
