"""Persistent multiply plans: amortize symbolic + tiling work over iterations.

The paper's headline applications are *iterative* — MS-BFS runs one
TS-SpGEMM per level, the embedding loop one per epoch — and its argument
for the ``Ac`` column copy is precisely that a one-time cost is amortized
over many multiplies.  This module extends that amortization from the data
structure to the *plan*: everything the symbolic step (§III-D) and the
consumer-side tiling derive from ``A`` alone is computed once, in
:func:`prepare_multiply`, and every subsequent multiply against a new
``B`` only runs the genuinely B-dependent part in :func:`replan`.

B-independent, owned by :class:`PreparedA` — all of it determined by
``A``'s *pattern*; a subtile's entries are rows ``[g0, g1)`` of
``A.col_copy`` and are read there, as a view, where they are used:

* per (peer, row-tile) subtile of ``Ac``: its row range, whether it stores
  anything, and its ``nzc`` — the local ``B`` rows it would need
  (``needed_b_rows``),
* row-tile ranges and the consumer-side :class:`ColumnStrips`,
* for *forced* mode policies (``local``/``remote``): the complete mode
  table, including the one binary-valued all-to-all that shares it.

B-dependent, re-run per multiply by :func:`replan` (hybrid policy only):

* the exact symbolic output size per subtile — sized without multiplying
  (:func:`~repro.sparse.kernels.symbolic_size`), except on boolean
  operands, where the rank multiplies its whole column block once
  (``Ac_j ⊗ B_j``: every subtile is a row range of ``A.col_copy``)
  and each subtile reads its size off that product — whose rows are also
  the partial a REMOTE subtile ships and the DIAGONAL tile merges, so
  those slices are kept,
* the local-vs-remote wire-byte comparison,
* the mode lists, which the multiply then ships (one all-to-all, or a
  section of its fused exchange).

Cost-model charging rules (see docs/planning.md): prepared state is
charged **once**, under the ``prepare``/``tiling`` setup phases, when it
is built; each :func:`replan` charges one pattern product per subtile it
sizes — however it got the size — and zero for forced policies.  A
one-shot multiply is one multiply on a fresh session, whose setup task
pays the prepare; an elastic shrink re-prepares every survivor the same
way.  A multiply runs under its plan's ``config``: nothing else carries
Alg 2's settings into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..partition.block1d import Block1D
from ..partition.distmat import DistSparseMatrix
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.kernels import (
    dispatch_spgemm,
    resolve_spgemm,
    row_flops_before,
    symbolic_size,
)
from ..sparse.ops import extract_row_range, nonzero_columns_by_rows
from ..sparse.semiring import BOOL_AND_OR
from ..sparse.tile import ColumnStrips, strips_build_bytes
from .config import TsConfig
from .symbolic import (
    DIAGONAL,
    EMPTY,
    LOCAL,
    REMOTE,
    SubtileInfo,
    SymbolicPlan,
    row_tile_ranges,
)


@dataclass
class PreparedSubtile:
    """What ``A``'s pattern determines of one (peer, row-tile) subtile of
    ``Ac_j``.  Its entries are not held: they are rows ``row_range`` of
    the peer's block of ``A.col_copy``, read there at use."""

    peer: int
    row_tile: int
    row_range: Tuple[int, int]
    stored: bool  # whether the row range holds any entry
    needed_b_rows: Optional[np.ndarray]  # local B rows; off-diagonal only


@dataclass
class PreparedA:
    """All B-independent multiply state of one rank's share of ``A``.

    Built collectively by :func:`prepare_multiply`; pure data afterwards
    (no communicator reference), so a resident session can re-bind it to
    a fresh :class:`~repro.mpi.comm.SimComm` on every multiply.  Except
    for ``strips`` it holds no values of ``A``: a same-pattern value
    update replaces ``A.col_copy`` and every subtile is read off the new
    one.
    """

    config: TsConfig
    rank: int
    size: int
    subtiles: Dict[int, List[PreparedSubtile]] = field(default_factory=dict)
    row_tile_ranges: List[Tuple[int, int]] = field(default_factory=list)
    strips: Optional[ColumnStrips] = None
    #: Lazy SpMM mode table (:func:`repro.core.spmm.spmm_multiply`).
    spmm_cache: Optional[SymbolicPlan] = None
    slots: Optional["StoredSlots"] = field(default=None, compare=False, repr=False)

    # ------------------------------------------------------------------
    def check_compatible(self, A: DistSparseMatrix) -> None:
        if A.comm.rank != self.rank or A.comm.size != self.size:
            raise ValueError(
                f"prepared plan belongs to rank {self.rank}/{self.size}, "
                f"not {A.comm.rank}/{A.comm.size}"
            )

    def ensure_strips(self, A: DistSparseMatrix) -> ColumnStrips:
        """Consumer-side strips of my row block, taken (and charged) once:
        the split ``A`` already holds of this block — ``build_column_copy``
        cut it — or a fresh one (:meth:`DistSparseMatrix.column_strips`)."""
        if self.strips is None:
            comm = A.comm
            with comm.phase("tiling"):
                self.strips = A.column_strips()
                comm.charge_touch(strips_build_bytes(A.local, comm.size))
        return self.strips

    def refresh_values(self, A: DistSparseMatrix) -> None:
        """Charge a same-pattern value update of ``A`` and reload the strips.

        For operands whose values change while the pattern stays fixed
        (the embedding's coefficient matrix between negative re-samples)
        everything held here but the strip values stays valid; the
        ``prepare`` charge is the modelled machine's re-read of every
        stored subtile (twice off the diagonal: the pattern read).
        Requires the caller to have rebuilt ``A.col_copy`` first.
        """
        comm = A.comm
        with comm.phase("prepare"):
            touched = 0
            for _, slots in stored_slots(self, A.rows).by_peer:
                for ps, g0, g1 in slots:
                    nbytes = extract_row_range(A.col_copy, g0, g1).nbytes_estimate()
                    touched += nbytes if ps.needed_b_rows is None else 2 * nbytes
            self.strips.refresh_values(A.local)
            touched += A.local.nbytes_estimate()
            comm.charge_touch(touched)


class StoredSlots(NamedTuple):
    """What :func:`replan` reads of one ``subtiles`` table: the stored
    (peer, row-tile) slots, and everything about the others."""

    source: Dict[int, List[PreparedSubtile]]  # the table this was read from
    #: ``(peer, [(subtile, g0, g1), ...])``, rows ``[g0, g1)`` of ``A.col_copy``;
    #: peers and row tiles ascending: charges add in float on the virtual clock.
    by_peer: List[Tuple[int, List[Tuple[PreparedSubtile, int, int]]]]
    skeleton: Dict[int, List[SubtileInfo]]  # ``plan.produced``, every slot EMPTY
    empty_modes: List[List[str]]  # the mode lists of ``skeleton``
    n_empty: int
    span: Tuple[int, int]  # ``[first g0, last g1)``: no entry lies outside


def stored_slots(prepared: PreparedA, rows: Block1D) -> StoredSlots:
    """The index of ``prepared.subtiles``, built once per table: kept while
    ``subtiles`` is the very dict it was read from (identity — whoever changes
    the pattern assigns a new one).  Its EMPTY infos and mode lists are shared
    by every plan made from it, never written: a plan replaces the slots it fills."""
    subtiles = prepared.subtiles
    if prepared.slots is not None and prepared.slots.source is subtiles:
        return prepared.slots
    by_peer, skeleton, empty_modes = [], {}, []
    for peer, (lo, _) in enumerate(rows.ranges):
        subs = subtiles[peer]
        skeleton[peer] = [
            SubtileInfo(peer, s.row_tile, s.row_range, EMPTY, None, 0, 0) for s in subs
        ]
        empty_modes.append([EMPTY] * len(subs))
        slots = [
            (s, lo + s.row_range[0], lo + s.row_range[1]) for s in subs if s.stored
        ]
        if slots:
            by_peer.append((peer, slots))
    empty = sum(map(len, empty_modes)) - sum(len(slots) for _, slots in by_peer)
    span = (by_peer[0][1][0][1], by_peer[-1][1][-1][2]) if by_peer else (0, 0)
    prepared.slots = StoredSlots(subtiles, by_peer, skeleton, empty_modes, empty, span)
    return prepared.slots


# ----------------------------------------------------------------------
def subtile_needed_rows(
    col_copy: CsrMatrix, rows: Block1D, tile_ranges: Dict[int, List[Tuple[int, int]]]
) -> Dict[int, List[np.ndarray]]:
    """``nzc`` of every (peer, row tile) subtile of ``col_copy`` — the
    local ``B`` rows it needs — in one pass over the block
    (:func:`~repro.sparse.ops.nonzero_columns_by_rows`).

    ``tile_ranges`` maps every peer, ascending, to its row-tile ranges
    (:func:`peer_tile_ranges`): the subtiles are then consecutive row
    ranges of ``col_copy``.
    """
    bounds = [0]
    for peer, ranges in tile_ranges.items():
        lo, _ = rows.range_of(peer)
        bounds.extend(lo + r1 for _, r1 in ranges)
    nzcs = iter(nonzero_columns_by_rows(col_copy, bounds))
    return {peer: [next(nzcs) for _ in ranges] for peer, ranges in tile_ranges.items()}


def peer_tile_ranges(rows: Block1D, config: TsConfig) -> Dict[int, List[Tuple[int, int]]]:
    """Row-tile ranges (peer-local rows) of every peer's row block."""
    tile_ranges = {}
    for peer in range(rows.p):
        nrows = rows.size_of(peer)
        tile_ranges[peer] = row_tile_ranges(nrows, config.effective_tile_height(nrows))
    return tile_ranges


def prepare_multiply(A: DistSparseMatrix, config: TsConfig) -> PreparedA:
    """Build the B-independent half of the symbolic plan (collective).

    Requires ``A.build_column_copy()``.  Extraction, pattern reads and
    nonzero-column scans are charged to the ``prepare`` setup phase; for
    forced mode policies the static mode table is exchanged here as well,
    so their multiplies have no mode lists to ship.
    """
    comm = A.comm
    if A.col_copy is None:
        raise RuntimeError("prepare_multiply requires A.build_column_copy() first")
    prepared = PreparedA(config=config, rank=comm.rank, size=comm.size)

    with comm.phase("prepare"):
        touched = 0
        tile_ranges = peer_tile_ranges(A.rows, config)
        nzcs = subtile_needed_rows(A.col_copy, A.rows, tile_ranges)
        for peer, ranges in tile_ranges.items():
            tile_block = A.col_copy_rows_of(peer)
            subs = prepared.subtiles[peer] = []
            for rt, ((r0, r1), nzc) in enumerate(zip(ranges, nzcs[peer])):
                sub = extract_row_range(tile_block, r0, r1)
                touched += sub.nbytes_estimate()
                if sub.nnz and peer != comm.rank:
                    touched += 2 * sub.nbytes_estimate()  # the nzc scan + the pattern read
                else:
                    nzc = None  # my local B rows the tile needs: off-diagonal only
                subs.append(PreparedSubtile(peer, rt, (r0, r1), bool(sub.nnz), nzc))
        prepared.row_tile_ranges = tile_ranges[comm.rank]
        comm.charge_touch(touched)
        _share_static_modes(comm, prepared)
    return prepared


def _share_static_modes(comm, prepared: PreparedA) -> None:
    """Ship a forced mode policy's static mode table (collective; nothing
    under ``hybrid``, whose :func:`replan` ships the modes per multiply).

    Labelled "symbolic" (nested phases record under the inner name): this
    is the same binary-value exchange the hybrid replan pays per multiply,
    so fresh-plan byte accounting stays policy-comparable (the Fig 6
    invariant).  The guard is rank-invariant: ``mode_policy`` is
    config-wide.
    """
    policy = prepared.config.mode_policy
    if policy == "hybrid":
        return
    forced = LOCAL if policy == "local" else REMOTE
    outgoing = [
        [_static_mode(ps, comm.rank, forced) for ps in prepared.subtiles[peer]]
        for peer in range(comm.size)
    ]
    with comm.phase("symbolic"):
        comm.alltoall(outgoing)


def _static_mode(ps: PreparedSubtile, rank: int, forced: str) -> str:
    if not ps.stored:
        return EMPTY
    if ps.peer == rank:
        return DIAGONAL
    return forced


# ----------------------------------------------------------------------
class _ColumnBlockProduct:
    """``Ac_j ⊗ B_j`` under ``bool_and_or`` — the producer's symbolic
    products (§III-D, Alg 2 lines 11-22) as the one Gustavson product they
    are — with two prefix arrays over its rows, so that every subtile of
    the column block reads its output size, non-empty rows and flop count
    as differences at its global row range ``[g0, g1)`` and takes its
    partial as a row slice (a view).

    A subtile *is* rows ``[g0, g1)`` of ``col_copy`` (docs/planning.md),
    so those are its rows of the product too.  Only rows ``span`` are
    multiplied — no subtile outside it is stored, so every other row is empty —
    and a product without a multiplication has its all-zero ``indptr`` for both.
    """

    def __init__(
        self, col_copy: CsrMatrix, b_local: CsrMatrix, kernel: str, span: Tuple[int, int]
    ):
        self._lo = span[0]
        rows = extract_row_range(col_copy, *span)
        # Non-strict dispatch: a forced plus_times-only kernel (e.g.
        # --kernel scipy) degrades to the auto choice for this boolean
        # product instead of erroring.  This is the only lenient call site;
        # numeric paths raise.
        self._product, flops = dispatch_spgemm(
            rows, b_local, BOOL_AND_OR, kernel, strict=False, ordered=False
        )
        self._flops_before = self._rows_before = self._product.indptr
        if flops:
            self._flops_before = row_flops_before(rows, b_local)
            self._rows_before = np.zeros(rows.nrows + 1, dtype=INDEX_DTYPE)
            np.cumsum(self._product.row_nnz() != 0, out=self._rows_before[1:])

    def size(self, g0: int, g1: int) -> Tuple[int, int, int]:
        """``(nnz, non-empty rows, flops)`` of rows ``[g0, g1)``: what
        :func:`~repro.sparse.kernels.symbolic_size` returns for them."""
        g0, g1 = g0 - self._lo, g1 - self._lo
        indptr = self._product.indptr
        return (
            int(indptr[g1] - indptr[g0]),
            int(self._rows_before[g1] - self._rows_before[g0]),
            int(self._flops_before[g1] - self._flops_before[g0]),
        )

    def kept(self, g0: int, g1: int) -> Tuple[CsrMatrix, int]:
        """``(rows [g0, g1) of the product — a view —, their flops)``: the
        rows a kernel call on that row range of ``Ac_j`` returns, each in
        this product's order (unsorted on the compiled route)."""
        g0, g1 = g0 - self._lo, g1 - self._lo
        flops = int(self._flops_before[g1] - self._flops_before[g0])
        return extract_row_range(self._product, g0, g1), flops


def replan(
    prepared: PreparedA, A: DistSparseMatrix, B: DistSparseMatrix
) -> SymbolicPlan:
    """The B-dependent half of the symbolic step (collective).

    Produces the :class:`SymbolicPlan` a fresh ``prepare_multiply`` would
    lead to for the same operands — the equivalence the cached-plan test
    suite asserts — while touching only what actually depends on ``B``:
    under the ``hybrid`` policy one exact output size and byte comparison
    per non-empty off-diagonal subtile — on boolean operands all read off one product
    of the rank's column block, whose REMOTE and DIAGONAL row slices are
    kept on the infos (docs/planning.md) — and under a forced policy,
    nothing at all.

    The hybrid mode lists are left on ``plan.outgoing_modes`` for the
    multiply to ship — as the paper's own binary-value all-to-all, or as
    a section of its fused exchange (same payloads, same ``symbolic``
    byte accounting, one round fewer).  Forced policies shared theirs at
    prepare time and leave ``None``.
    """
    comm = A.comm
    config = prepared.config
    index = stored_slots(prepared, A.rows)
    plan = SymbolicPlan(dict(index.skeleton), prepared.row_tile_ranges)
    plan.empty_tiles = index.n_empty
    hybrid = config.mode_policy == "hybrid"
    forced = LOCAL if config.mode_policy == "local" else REMOTE

    with comm.phase("symbolic"):
        product = None
        if hybrid:
            b_row_nnz = B.local.row_nnz()
            # The symbolic step is charged as a pattern product on a real
            # registry kernel, at that kernel's calibrated constant
            # (non-strict: mirrors the dispatch in _ColumnBlockProduct).
            sym_kernel = resolve_spgemm(
                config.kernel, BOOL_AND_OR, d=B.ncols, strict=False
            ).name
            if B.local.dtype == np.bool_ and A.col_copy.dtype == np.bool_:
                product = _ColumnBlockProduct(
                    A.col_copy, B.local, config.kernel, index.span
                )
            # For the tile owners: consumer i learns, for each producer
            # j, the mode of every one of its row tiles.
            plan.outgoing_modes = list(index.empty_modes)
        # Every slot not stored stays the index's shared EMPTY info.
        for peer, slots in index.by_peer:
            infos = plan.produced[peer] = list(index.skeleton[peer])
            for ps, g0, g1 in slots:
                # The subtile is rows [g0, g1) of Ac_j, and so of the
                # column-block product too.
                nzc = ps.needed_b_rows  # None on the diagonal
                needed_nnz = out_nnz = 0
                if peer == comm.rank:
                    mode = DIAGONAL
                elif not hybrid:
                    mode = forced
                else:
                    needed_nnz = int(b_row_nnz[nzc].sum())
                    # The exact symbolic output size: read off the column-block
                    # product on boolean operands; any other pair could not use
                    # a product, so it is sized without multiplying.  The charge
                    # is one pattern product per subtile either way.
                    if product is None:
                        out_nnz, out_rows, sym_flops = symbolic_size(
                            extract_row_range(A.col_copy, g0, g1), B.local
                        )
                    else:
                        out_nnz, out_rows, sym_flops = product.size(g0, g1)
                    comm.charge_symbolic(sym_flops, kernel=sym_kernel)
                    plan.pattern_products += 1
                    # Compare exact wire bytes of the two options: both
                    # payloads are (row ids, packed rows), i.e. 16 B per
                    # nonzero plus 16 B per shipped row (id + row pointer).
                    local_bytes = 16 * needed_nnz + 16 * len(nzc)
                    remote_bytes = 16 * out_nnz + 16 * out_rows
                    mode = REMOTE if remote_bytes < local_bytes else LOCAL
                keep = product is not None and mode != LOCAL
                info = infos[ps.row_tile] = SubtileInfo(
                    peer, ps.row_tile, ps.row_range, mode, nzc, needed_nnz, out_nnz,
                    product.kept(g0, g1) if keep else None,
                )
                plan.by_mode[mode].setdefault(peer, []).append(info)
            if hybrid:
                plan.outgoing_modes[peer] = [s.mode for s in infos]
    return plan
