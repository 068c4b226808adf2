"""Distributed matrix handles (per-rank views of 1-D partitioned matrices).

A :class:`DistSparseMatrix` is what one rank holds of a row-partitioned
sparse matrix: its local CSR block (local rows × *global* columns) plus the
partition map.  The optional column-partitioned copy ``Ac`` (the paper's
key data-structure trick, §III-A: it lets every process determine which of
its ``B`` rows others need *without communicating requests*) is built
through a genuine all-to-all of column strips so its cost shows up on the
virtual clocks as a setup phase.

Initial distribution (``scatter_rows``) follows the common practice — also
the paper's — of not timing data loading: each rank simply slices the
shared input, modelling a matrix already resident across the machine
(e.g. read from a parallel FS).  A driver-side :class:`DistHandle` holds
the per-rank row blocks of one matrix, sparse or dense alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..mpi.comm import SimComm
from ..mpi.errors import DeadSessionError
from ..sparse.csr import CsrMatrix
from ..sparse.ops import extract_row_range
from ..sparse.tile import ColumnStrips
from .block1d import Block1D

#: One rank's row block of a 1-D partitioned matrix: CSR or dense.
RowBlock = Union[CsrMatrix, np.ndarray]


@dataclass
class DistSparseMatrix:
    """One rank's share of a 1-D row-partitioned sparse matrix.

    Attributes
    ----------
    comm:
        The communicator the matrix lives on.
    rows:
        Row partition map (``Block1D`` over the global row dimension).
    local:
        This rank's block: ``rows.size_of(rank) × ncols`` CSR with global
        column ids.
    col_copy:
        When present, this rank's block of the column-partitioned copy
        ``Ac``: ``rows.n × rows.size_of(rank)`` CSR with *global row*
        ids and local column ids (the column partition reuses the same
        ``Block1D``; it only makes sense for square matrices).
    strips:
        ``local`` split by the column partition, once it has been cut
        (:meth:`column_strips`): what ``build_column_copy`` ships and the
        tiled multiply consumes.
    """

    comm: SimComm
    rows: Block1D
    local: CsrMatrix
    ncols: int
    col_copy: Optional[CsrMatrix] = None
    strips: Optional[ColumnStrips] = None

    # ------------------------------------------------------------------
    @classmethod
    def scatter_rows(
        cls,
        comm: SimComm,
        global_mat: CsrMatrix,
        *,
        rows: Optional[Block1D] = None,
    ) -> "DistSparseMatrix":
        """Distribute ``global_mat`` row-block-wise onto ``comm``, free on
        the clocks (pre-distributed input, the paper's timing scope).

        ``rows`` overrides the balanced default partition — operands must
        follow the session's row map after an elastic shrink left it
        unbalanced.
        """
        if rows is None:
            rows = Block1D(global_mat.nrows, comm.size)
        elif rows.n != global_mat.nrows or rows.p != comm.size:
            raise ValueError(
                f"partition is {rows.n} rows over {rows.p} ranks; matrix "
                f"has {global_mat.nrows} rows on {comm.size} ranks"
            )
        lo, hi = rows.range_of(comm.rank)
        block = extract_row_range(global_mat, lo, hi)
        return cls(comm, rows, block, global_mat.ncols)

    # ------------------------------------------------------------------
    @property
    def local_range(self):
        return self.rows.range_of(self.comm.rank)

    # ------------------------------------------------------------------
    def column_strips(self) -> ColumnStrips:
        """My row block split by the column partition, cut at most once.

        The split this matrix already holds serves again when it was cut
        from the very block ``local`` is now (identity, not equality: a
        same-pattern refresh moves both together); any other block is
        split afresh.  Uncharged — callers charge their own phase.
        """
        if self.strips is None or self.strips.source is not self.local:
            self.strips = ColumnStrips(self.local, self.rows.ranges)
        return self.strips

    def build_column_copy(self) -> None:
        """Materialize ``Ac`` — the column-partitioned second copy of A.

        Every rank cuts its row block into per-owner column strips
        (:meth:`column_strips` — the split the multiply's consumer side
        then reuses) and exchanges them in one all-to-all; rank ``j``
        then stacks the strips it received into ``Ac_j ∈ R^{n × n_j}``
        (global rows, local columns).  The traffic is charged under
        ``build-Ac`` so benchmarks can separate this one-time setup from
        multiply time.  Requires a square matrix (row and column
        partitions coincide).
        """
        if self.ncols != self.rows.n:
            raise ValueError(
                "column copy requires a square matrix "
                f"(got {self.rows.n} x {self.ncols})"
            )
        comm = self.comm
        my_lo, my_hi = self.local_range
        with comm.phase("build-Ac"):
            # Strip k of my block, with LOCAL column ids and tagged with my
            # global row offset so the receiver can place the rows.
            send = [(my_lo, strip) for strip in self.column_strips().strips]
            received = comm.alltoall(send)
            comm.charge_touch(sum(s.nbytes_estimate() for _, s in send))
            width = my_hi - my_lo
            self.col_copy = _vstack_tagged(received, self.rows.n, width)

    def col_copy_rows_of(self, rank: int) -> CsrMatrix:
        """Rows of ``Ac`` belonging to ``rank``'s row block (a view).

        This is the tile-of-``A`` slice ``A[rows_rank, my_cols]`` that this
        process can read *locally* thanks to the column copy — the basis of
        both the symbolic mode-selection step and remote-tile computation.
        """
        if self.col_copy is None:
            raise RuntimeError("build_column_copy() has not been called")
        lo, hi = self.rows.range_of(rank)
        return extract_row_range(self.col_copy, lo, hi)


@dataclass(eq=False)  # identity semantics: hashable, weakly trackable
class DistHandle:
    """A driver-side *handle* to a rank-resident row-partitioned matrix.

    Produced and consumed by resident sessions
    (:class:`repro.core.driver.TsSession`): ``blocks[i]`` is the row block
    resident on rank ``i`` — a CSR block (local rows × global columns,
    like :attr:`DistSparseMatrix.local`) or, for SpMM operands and dense
    iterative state (the embedding's ``Z`` twin), an ndarray; one handle
    holds one kind (:attr:`dense`).  The driver holds only this handle —
    the matrix is never materialized globally, so chaining one multiply's
    output into the next multiply's operand moves **zero bytes** through
    the driver (no per-level B scatter, no C gather, no global vstack).

    ``owner`` is the session whose row partition the blocks follow; a
    session refuses handles minted by a different session, since the
    partitions need not line up.  Call :meth:`gather` to materialize the
    global matrix — the one explicit exit point of the handle lifecycle
    (scatter-once → resident chain → ``gather()``).
    """

    owner: object
    rows: Block1D
    ncols: int
    blocks: List[RowBlock]

    @property
    def nrows(self) -> int:
        return self.rows.n

    @property
    def shape(self):
        return (self.rows.n, self.ncols)

    @property
    def dense(self) -> bool:
        """Whether the blocks are ndarrays (else CSR)."""
        return isinstance(self.blocks[0], np.ndarray)

    @property
    def nnz(self) -> int:
        """Global nonzero count of a sparse handle (sum of the resident
        blocks' nnz).

        Driver-visible without a gather: on the real system this is the
        allreduce every iterative driver already performs for its
        termination test.
        """
        return sum(b.nnz for b in self.blocks)

    def gather(self) -> RowBlock:
        """Materialize the global matrix on the driver (ends the chain).

        A handle's blocks are rank-resident state: once the owning
        session died (``MPI_Abort`` semantics — watchdog, unrecovered
        fault, rank error) they are in an unknown state on the real
        machine, so this raises :class:`~repro.mpi.errors.DeadSessionError`
        carrying the original kill reason instead of handing the driver
        stale data.  A cleanly closed session keeps its handles readable
        — iterative drivers gather before closing.
        """
        reason = getattr(getattr(self.owner, "_exec", None), "dead_reason", None)
        if reason:
            raise DeadSessionError(
                "cannot gather from a handle whose owning session died "
                f"(aborted: {reason}); re-create the session and recompute",
                reason=reason,
            )
        return stack_blocks(self.blocks, self.ncols)


@dataclass
class DistDenseMatrix:
    """One rank's share of a 1-D row-partitioned dense matrix (SpMM B)."""

    comm: SimComm
    rows: Block1D
    local: np.ndarray
    ncols: int


# ----------------------------------------------------------------------
def row_block(mat: RowBlock, lo: int, hi: int) -> RowBlock:
    """Rows ``[lo, hi)`` of a CSR or dense matrix, as a view."""
    if isinstance(mat, np.ndarray):
        return mat[lo:hi]
    return extract_row_range(mat, lo, hi)


def stack_blocks(blocks: List[RowBlock], ncols: int) -> RowBlock:
    """Stack row blocks (in rank order) into one matrix of their kind."""
    if blocks and isinstance(blocks[0], np.ndarray):
        return np.vstack(blocks)
    indptr = [np.zeros(1, dtype=np.int64)]
    indices = []
    data = []
    offset = 0
    for b in blocks:
        indptr.append(b.indptr[1:] + offset)
        indices.append(b.indices)
        data.append(b.data)
        offset += b.nnz
    total_rows = sum(b.nrows for b in blocks)
    return CsrMatrix(
        (total_rows, ncols),
        np.concatenate(indptr),
        np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64),
        np.concatenate(data) if data else np.zeros(0),
        check=False,
    )


def _hstack_blocks(left: CsrMatrix, right: CsrMatrix) -> CsrMatrix:
    """Concatenate two same-height CSR blocks column-wise.

    ``right``'s column ids are shifted past ``left``'s width and each
    row's entries are the row-wise concatenation ``left-then-right`` — so
    when both inputs keep sorted column ids per row (as every extracted
    column strip does), the result does too.  This is how elastic shrink
    merges a dead rank's ``Ac`` column strip into its adopter's: the two
    strips cover adjacent column ranges, and the merged strip is
    byte-identical to what ``build_column_copy`` would produce for the
    merged range.
    """
    if left.nrows != right.nrows:
        raise ValueError(
            f"hstack needs equal heights, got {left.nrows} and {right.nrows}"
        )
    import numpy as _np

    n = left.nrows
    l_counts = left.row_nnz()
    r_counts = right.row_nnz()
    indptr = _np.zeros(n + 1, dtype=np.int64)
    _np.cumsum(l_counts + r_counts, out=indptr[1:])
    nnz = left.nnz + right.nnz
    indices = _np.empty(nnz, dtype=np.int64)
    data = _np.empty(nnz, dtype=_np.result_type(left.data, right.data))
    # Destination offsets of each row's left-part and right-part.
    l_dst = indptr[:-1]
    r_dst = indptr[:-1] + l_counts
    l_take = _np.repeat(l_dst - left.indptr[:-1], l_counts)
    r_take = _np.repeat(r_dst - right.indptr[:-1], r_counts)
    l_pos = _np.arange(left.nnz, dtype=np.int64) + l_take
    r_pos = _np.arange(right.nnz, dtype=np.int64) + r_take
    indices[l_pos] = left.indices
    indices[r_pos] = right.indices + left.ncols
    data[l_pos] = left.data
    data[r_pos] = right.data
    return CsrMatrix(
        (n, left.ncols + right.ncols), indptr, indices, data, check=False
    )


def _vstack_tagged(tagged: List, nrows: int, ncols: int) -> CsrMatrix:
    """Assemble (row_offset, strip) pairs into an ``nrows × ncols`` CSR.

    Strips arrive in rank order with contiguous, non-overlapping row
    ranges starting at each tag, so a plain ordered stack suffices.
    """
    import numpy as _np

    parts = sorted(tagged, key=lambda t: t[0])
    indptr = _np.zeros(nrows + 1, dtype=np.int64)
    indices = []
    data = []
    nnz_running = 0
    for row_offset, strip in parts:
        counts = strip.row_nnz()
        indptr[row_offset + 1 : row_offset + 1 + strip.nrows] = (
            nnz_running + _np.cumsum(counts)
        )
        nnz_running += strip.nnz
        indices.append(strip.indices)
        data.append(strip.data)
    # forward-fill empty gaps (ranks owning zero rows)
    _np.maximum.accumulate(indptr, out=indptr)
    return CsrMatrix(
        (nrows, ncols),
        indptr,
        _np.concatenate(indices) if indices else _np.zeros(0, dtype=np.int64),
        _np.concatenate(data) if data else _np.zeros(0),
        check=False,
    )
