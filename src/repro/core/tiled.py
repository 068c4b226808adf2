"""Algorithm 2: the tiled distributed TS-SpGEMM (the paper's contribution).

Every rank plays two roles simultaneously:

* **producer** for its own column block ``j = rank``: using ``Ac_j`` and
  its ``B_j``, it ships — per the symbolic plan — either the ``B`` rows a
  peer's *local* subtile needs (Alg 2 line 27) or the computed partial
  ``C`` of a peer's *remote* subtile (lines 14-17);
* **consumer** for its own row block: it multiplies its local-mode strips
  against received ``B`` rows (line 28) and merges received remote
  partials (line 18), plus the communication-free diagonal tile
  (lines 20-22).

Communication is consolidated: column blocks are processed in *rounds* of
``tile_width_factor`` blocks (a tile of width ``w = 16·n/p`` spans 16
column blocks, Table IV).  In Alg 2 as printed each round ships B rows
("fetch-B") and partial C ("send-C") in one all-to-all each; by default
the rounds share one exchange (below).  Fewer, wider rounds reduce latency
but grow the peak footprint of received ``B`` rows — the Fig 5 trade-off,
tracked in the diagnostics as ``peak_recv_b_bytes``.

Round schedule: consumers visit their width-``w`` tiles in a *rotated*
order (consumer ``i`` processes block group ``(i + k) mod R`` in round
``k``) rather than all sweeping left-to-right.  The tiles and their
per-tile communication are identical; the rotation — the same trick that
distinguishes Cannon's algorithm from naive stage order — keeps every
rank's injection bandwidth busy in every round instead of leaving all but
``w/(n/p)`` producers idle.

**Steps group rounds** (``TsConfig.fuse_comm``, default on): every
(producer, consumer) pair meets in exactly one round of the rotated
schedule (:func:`tile_rounds`), so a round's per-peer messages do not
depend on which other rounds share its exchange.  A multiply is therefore
one loop over *steps* — build for the step's consumers, one exchange
(:func:`exchange_sections`), consume the step's rounds in order — and
``fuse_comm`` only chooses the grouping: unfused, a step is one round and
its ``fetch-B`` / ``send-C`` sections are one all-to-all each (Alg 2 as
printed); fused, the single step holds every round and the mode lists,
all ``fetch-B`` payloads and (when no value-refresh prologue intervenes)
all ``send-C`` partials ride **one** multi-section all-to-all
(:meth:`repro.mpi.comm.SimComm.alltoall_fused`).  Output is
bit-identical, per-phase bytes are conserved, and only the α·rounds
latency term drops.  The price is the Fig 5 trade-off taken to its end
point: all received ``B`` rows are resident at once
(``peak_recv_b_bytes`` reports that footprint honestly), which is why
``--fuse-comm off`` remains the configuration for per-round memory
studies.

**One step loop, two payload kinds.** :func:`run_tile_steps` owns the
schedule, the exchange and the consumer; a :class:`TileCodec` decides
only what travels and how it is multiplied and accumulated.
:func:`tiled_multiply` passes CSR rows whose partials merge per round,
:func:`repro.core.spmm.spmm_multiply` (§V-C's SpMM) dense rows added
into one dense block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..mpi.marker import rank_program
from ..mpi.payload import payload_nbytes
from ..partition.distmat import DistSparseMatrix
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.kernels import dispatch_spgemm, resolve_spgemm, row_flops_before
from ..sparse.merge import merge_bytes, merge_csrs
from ..sparse.ops import extract_row_range, extract_rows
from ..sparse.semiring import BOOL_AND_OR, PLUS_TIMES, Semiring
from ..sparse.tile import ColumnStrips
from .gather_rows import checked_row_ids, pack_nonempty_rows, place_row_union, place_rows
from .plan import PreparedA, replan
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
class TileDiagnostics:
    """Per-rank counters surfaced to benchmarks and EXPERIMENTS.md."""

    local_tiles: int = 0
    remote_tiles: int = 0
    diagonal_tiles: int = 0
    empty_tiles: int = 0
    rounds: int = 0
    flops: int = 0
    peak_recv_b_bytes: int = 0
    sent_b_nnz: int = 0
    sent_c_nnz: int = 0
    symbolic_products: int = 0  # subtiles sized against B this call
    plan_reused: int = 0  # 1: a PreparedA serves every multiply

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def tile_rounds(rank: int, p: int, width: int) -> List[Tuple[List[int], range]]:
    """The rotated round schedule as ``rank`` sees it.

    Entry ``k`` is round ``k``'s ``(consumers, producers)``: the peers
    whose sweep reaches my column-block group this round — I build their
    payloads — and the block group I consume (consumer ``i`` visits group
    ``(i + k) mod R``; the range holds ``rank`` itself on its diagonal
    round).  Over the ``R = ceil(p / width)`` rounds the producer ranges
    partition ``range(p)`` and every (producer, consumer) pair meets in
    exactly one round, the same one on both sides: per-round all-to-alls
    match, and rounds can share an exchange without changing a payload.
    """
    n_rounds = -(-p // width)
    rounds = []
    for rnd in range(n_rounds):
        group = (rank + rnd) % n_rounds
        consumers = [
            i for i in range(p) if (rank // width - i) % n_rounds == rnd and i != rank
        ]
        rounds.append((consumers, range(group * width, min((group + 1) * width, p))))
    return rounds


def tile_steps(
    rank: int, p: int, width: int, fuse: bool
) -> List[Tuple[List[int], List[range]]]:
    """Group :func:`tile_rounds` into exchange *steps*.

    A step is ``(consumers, producer ranges)``: build for the consumers —
    in ascending rank order, since charges add in float on the virtual
    clock — exchange once, then consume the ranges round by round.
    ``fuse`` makes all rounds one step; otherwise every round is a step.
    """
    return [(list(cons), list(prods)) for cons, prods in _tile_steps(rank, p, width, fuse)]


@lru_cache(maxsize=1024)
def _tile_steps(rank: int, p: int, width: int, fuse: bool) -> tuple:
    """The schedule behind :func:`tile_steps`: pure in its arguments, so
    built once per (rank, world, width, grouping) — as tuples, which no
    caller can alter."""
    rounds = tile_rounds(rank, p, width)
    groups = [rounds] if fuse else [[r] for r in rounds]
    return tuple(
        (tuple(sorted(i for cons, _ in g for i in cons)), tuple(prods for _, prods in g))
        for g in groups
    )


def exchange_sections(comm, sections, fuse: bool, meta=None):
    """Ship tagged ``(phase name, sendlist)`` sections to every peer.

    Fused, they travel as one ``alltoall_fused`` under ``fused-round``
    and ``meta`` rides its uncharged header; unfused, each is one
    all-to-all under the section's own phase.  Either way a section's
    bytes are booked under its name.  Returns ``(received, metas)``:
    ``received[name][src]`` is the payload rank ``src`` addressed here,
    ``metas`` every rank's ``meta`` (``None`` unfused).
    """
    if fuse:
        with comm.phase("fused-round"):
            return comm.alltoall_fused(sections, meta=meta)
    received = {}
    for name, sendlist in sections:
        with comm.phase(name):
            received[name] = comm.alltoall(sendlist)
    return received, None


@dataclass
class TileCodec:
    """What one payload kind decides on :func:`run_tile_steps`' schedule.

    Every hook is a closure of the rank program (or ``comm``-first), so
    spmdlint sees each charge inside the ``comm.phase`` that books it.
    """

    #: Run the diagonal before the first exchange rather than after it.
    #: Pinned per kind: the order of charges on the virtual clock is part
    #: of every golden digest.
    diagonal_first: bool
    pack: Callable  # a step's LOCAL tiles' B row id lists -> ``(ids, rows)`` or ``None`` each
    remote: Callable  # (consumer, its REMOTE infos) -> ``send-C`` payload or ``None``
    diagonal: Callable  # my DIAGONAL infos -> None
    consume: Callable  # (strips, a round's :func:`round_tiles`) -> each tile's part, charged
    accumulate: Callable  # ``[(first row, part)]`` of my row block -> None
    add_rows: Callable  # a received ``send-C`` payload -> None
    end_round: Callable  # () -> None, after each round's producers


def run_tile_steps(
    comm, A, plan, prepared, codec: TileCodec, diag, head=(), prologue=None
) -> int:
    """Alg 2's tile rounds (lines 11-29) for one multiply; returns the
    peak received-B bytes (Fig 5's memory axis).

    ``plan`` says what this rank produces (``by_mode``); ``head`` are
    sections that ride the first exchange (the symbolic mode lists),
    shipped on their own before anything else when unfused.  A
    ``prologue`` (see :func:`tiled_multiply`) rides the fused exchange.
    """
    config = prepared.config
    fuse = config.fuse_comm
    p = comm.size
    if not fuse:
        exchange_sections(comm, head, fuse=False)
        head = ()
    strips = prepared.ensure_strips(A)
    diagonal = plan.by_mode[DIAGONAL].get(comm.rank, ())
    diag.diagonal_tiles = len(diagonal)
    late_diagonal = not codec.diagonal_first
    if codec.diagonal_first:
        codec.diagonal(diagonal)
    steps = tile_steps(comm.rank, p, config.tile_width_factor, fuse)
    diag.rounds = sum(len(rounds) for _, rounds in steps)
    my_lo, _ = A.rows.range_of(comm.rank)
    my_nrows = A.local.nrows
    ranges = row_tile_ranges(my_nrows, config.effective_tile_height(my_nrows))
    local, remote = plan.by_mode[LOCAL], plan.by_mode[REMOTE]

    def send_c(consumers):
        sendlist: List[Optional[tuple]] = [None] * p
        for peer in consumers:
            if peer in remote:
                sendlist[peer] = codec.remote(peer, remote[peer])
        return sendlist

    peak = 0
    for consumers, producer_rounds in steps:
        # B rows are packed per local-mode row tile — a row needed by two
        # tiles is shipped twice, exactly as in the paper's per-tile
        # all-to-alls.  Avoiding that duplication is precisely what the
        # remote mode is for (Fig 4c), so "optimizing" it away here would
        # erase the hybrid mode's benefit (Fig 6).
        wanted = [(peer, info) for peer in consumers for info in local.get(peer, ())]
        send_b: List[Optional[list]] = [None] * p
        packed = codec.pack([info.needed_b_rows for _, info in wanted]) if wanted else []
        for (peer, info), tile in zip(wanted, packed):
            if tile is not None:
                send_b[peer] = send_b[peer] or []
                send_b[peer].append((info.row_tile, my_lo + tile[0], tile[1]))
        sections = [*head, ("fetch-B", send_b)]
        if prologue is None:
            received, _ = exchange_sections(
                comm, [*sections, ("send-C", send_c(consumers))], fuse
            )
        else:
            # Partials must wait for the prologue's refreshed values; the
            # header flag tells every rank whether any rank will have one.
            received, any_remote = exchange_sections(
                comm, [*prologue.sections(comm), *sections], fuse,
                meta=plan.count(REMOTE) > 0,
            )
            _finish_prologue(comm, prologue, received, plan, prepared, A)
        if late_diagonal:
            # Behind the exchange, so a prologue's refresh reaches it.
            codec.diagonal(diagonal)
            late_diagonal = False
        if prologue is not None:
            received["send-C"] = [None] * p
            if any(any_remote):
                sendlist = send_c(consumers)
                with comm.phase("send-C"):
                    received["send-C"] = comm.alltoall(sendlist)

        # ---- consumer side --------------------------------------------
        recv_b, recv_c = received["fetch-B"], received["send-C"]
        peak = max(peak, sum(
            payload_nbytes(rows)
            for payload in recv_b if payload is not None
            for (_, _, rows) in payload
        ))
        # Rounds are replayed in schedule order whichever exchange
        # delivered them: identical accumulation order, bit-identical C.
        for active in producer_rounds:
            with comm.phase("local-compute"):
                tiles = round_tiles(strips, recv_b, active, ranges, A.rows)
                parts = {}
                for (j, r0, *_), part in zip(tiles, codec.consume(strips, tiles) if tiles else ()):
                    parts.setdefault(j, []).append((r0, part))
                for j in active:
                    if j in parts:
                        codec.accumulate(parts[j])
                    if recv_c[j] is not None:
                        codec.add_rows(recv_c[j])
            codec.end_round()

    diag.local_tiles = plan.count(LOCAL)
    diag.remote_tiles = plan.count(REMOTE)
    diag.empty_tiles = plan.count(EMPTY)
    return peak


@rank_program
def tiled_multiply(
    A: DistSparseMatrix,
    B: DistSparseMatrix,
    semiring: Semiring = PLUS_TIMES,
    *,
    prepared: PreparedA,
    fused_prologue=None,
) -> Tuple[DistSparseMatrix, TileDiagnostics]:
    """One DIST-TS-SPGEMM multiply; returns ``(C, diagnostics)``.

    Requires ``A.build_column_copy()`` to have been called.  ``prepared``
    is the :class:`~repro.core.plan.PreparedA` built once for this ``A``
    (see :func:`~repro.core.plan.prepare_multiply`) — a session's
    resident plan, or one a rank program prepared itself: the
    B-independent symbolic state and the consumer-side strips are reused,
    and only the incremental ``replan`` against ``B`` runs here.  Alg 2's
    settings — tile width and height, mode policy, kernel, ``fuse_comm``
    — are the ones ``prepared`` was built with (``prepared.config``).

    With ``fuse_comm`` the multiply issues one fused multi-section
    all-to-all instead of the symbolic + per-round exchanges (see the
    module docstring).  ``fused_prologue`` — only meaningful when fused —
    is an object with ``sections(comm)`` and ``finish(comm, received)``
    methods: its fetch sections ride the combined exchange and ``finish``
    runs before any value-dependent compute, so a prologue that refreshes
    the resident operand's values (the distributed SDDMM) fuses into the
    same round trip.  The remote partials depend on the refreshed values,
    so they then follow in a ``send-C`` round of their own — skipped on
    every rank when no rank has one (an uncharged header flag on the
    fused exchange keeps the skip collectively consistent).
    """
    comm = A.comm
    if B.comm is not comm:
        raise ValueError("A and B must live on the same communicator")
    if A.col_copy is None:
        raise RuntimeError("tiled_multiply requires A.build_column_copy() first")
    prepared.check_compatible(A)
    config = prepared.config
    fuse = config.fuse_comm
    if fused_prologue is not None and not fuse:
        raise ValueError("fused_prologue requires config.fuse_comm")
    d = B.ncols
    # Resolve the kernel once per multiply: every tile product sees the
    # same (A dtype, semiring, d), so the resolution — and therefore the
    # calibrated compute constant charged per flop — is uniform.
    kname = resolve_spgemm(config.kernel, semiring, A.local, d=d).name
    diag = TileDiagnostics()
    diag.plan_reused = 1
    plan = replan(prepared, A, B)
    diag.symbolic_products = plan.pattern_products

    # The mode lists ``replan`` left to ship: the paper's binary-value
    # all-to-all, or a tagged section of the fused exchange.
    head = [] if plan.outgoing_modes is None else [("symbolic", plan.outgoing_modes)]
    plan.outgoing_modes = None
    my_nrows = A.local.nrows
    partials: List[CsrMatrix] = []

    def diagonal(infos):
        """The communication-free diagonal tile (Alg 2 lines 20-22)."""
        with comm.phase("diagonal"):
            for info in infos:
                c_part, flops = _subtile_product(info, A, B.local, semiring, kname)
                comm.charge_spgemm(flops, d=d, kernel=kname)
                diag.flops += flops
                partials.append(
                    _stack_row_tiles([(info.row_range[0], c_part)], my_nrows, d, semiring)
                )

    def pack(id_lists):
        """One gather for a step's tiles; each ships (and is charged as)
        its row-range view of it."""
        gathered = extract_rows(B.local, np.concatenate(id_lists))
        payloads, stop = [], 0
        for row_ids in id_lists:
            start, stop = stop, stop + len(row_ids)
            rows = extract_row_range(gathered, start, stop)
            if start < stop:
                diag.sent_b_nnz += rows.nnz
                with comm.phase("fetch-B"):
                    comm.charge_touch(rows.nbytes_estimate())
            payloads.append((row_ids, rows) if start < stop else None)
        return payloads

    def remote(peer, infos):
        """Multiply one consumer's remote-mode subtiles here.  Only the
        affected rows travel, as B rows do, so the wire cost matches what
        the mode decision compared; row ids are the consumer's local ones."""
        tiles = []
        for info in infos:
            c_part, flops = _subtile_product(info, A, B.local, semiring, kname)
            with comm.phase("send-C"):
                comm.charge_spgemm(flops, d=d, kernel=kname)
            diag.flops += flops
            if c_part.nnz:
                tiles.append((info.row_range[0], c_part))
        if not tiles:
            return None
        part = pack_nonempty_rows(_stack_row_tiles(tiles, A.rows.size_of(peer), d, semiring))
        diag.sent_c_nnz += part[1].nnz
        return part

    def accumulate(tiles):
        tiles = [(r0, tile) for r0, tile in tiles if tile.nnz]
        if tiles:
            partials.append(_stack_row_tiles(tiles, my_nrows, d, semiring))

    def end_round():
        """Alg 2's per-tile MERGE, batched per round."""
        if len(partials) > 1:
            with comm.phase("merge"):
                comm.charge_touch(merge_bytes(partials))
                partials[:] = [merge_csrs(partials, semiring)]

    codec = TileCodec(
        # Unfused, Alg 2 order; fused, behind the exchange so that a
        # prologue's refresh reaches the diagonal.
        diagonal_first=not fuse,
        pack=pack,
        remote=remote,
        diagonal=diagonal,
        consume=lambda strips, tiles: multiply_round(
            comm, strips, tiles, A.rows.n, semiring, kname, diag
        ),
        accumulate=accumulate,
        add_rows=lambda payload: partials.append(
            place_rows(my_nrows, payload, d, semiring.dtype)
        ),
        end_round=end_round,
    )
    diag.peak_recv_b_bytes = run_tile_steps(
        comm, A, plan, prepared, codec, diag, head, fused_prologue
    )
    with comm.phase("merge"):
        if partials:
            comm.charge_touch(merge_bytes(partials))
            c_local = merge_csrs(partials, semiring)
        else:
            c_local = CsrMatrix.empty((my_nrows, d), dtype=semiring.dtype)
    return DistSparseMatrix(comm, A.rows, c_local, d), diag


def _drop_kept_slices(plan: SymbolicPlan) -> None:
    """Forget the rows of the symbolic product ``replan`` kept (REMOTE and
    DIAGONAL infos): they were computed from values that are no longer, or
    not known to be, the operands'.  Nothing else in a plan holds values —
    a subtile is read off ``A.col_copy`` when it is multiplied."""
    for mode in (REMOTE, DIAGONAL):
        for infos in plan.by_mode[mode].values():
            for info in infos:
                info.symbolic = None


def _finish_prologue(comm, prologue, received, plan, prepared, A) -> None:
    """Complete a fused prologue; if it refreshed the operand's values,
    reload the plan's strips (unless the prologue did) and forget the
    products ``replan`` kept, so every value-dependent product (diagonal,
    remote partials, strip consumption) sees the refreshed operand — what
    keeps the fused order bit-identical to prologue first, then multiply.

    A refresh is seen, not reported: every value refresh replaces
    ``A.col_copy`` (``refresh_values`` and ``build_column_copy`` alike).
    The subtiles need nothing: they are read off the new copy.
    """
    col_copy = A.col_copy
    prologue.finish(comm, received)
    if A.col_copy is not col_copy:
        if prepared.strips.source is not A.local:  # strips not reloaded
            prepared.refresh_values(A)
        _drop_kept_slices(plan)


# ----------------------------------------------------------------------
# producer helpers
# ----------------------------------------------------------------------
def _subtile_product(
    info: SubtileInfo,
    A: DistSparseMatrix,
    b_local: CsrMatrix,
    semiring: Semiring,
    kernel: str,
) -> Tuple[CsrMatrix, int]:
    """``(subtile ⊗ b_local, flops)`` for a DIAGONAL or REMOTE subtile — its
    rows of ``A.col_copy``, read here (a view).

    On boolean operands ``replan`` already ran this very product — as the
    subtile's rows of its one column-block product, same operands, same
    kernel — and under ``bool_and_or`` those rows are the numeric partial:
    they are taken, not multiplied again.  The caller's charge is the same.
    """
    if info.symbolic is not None and semiring == BOOL_AND_OR:
        return info.symbolic
    block = ac_subtile(A, info.peer, info.row_range)
    return dispatch_spgemm(block, b_local, semiring, kernel, ordered=False)


def ac_subtile(A: DistSparseMatrix, peer: int, row_range) -> CsrMatrix:
    """Rows ``row_range`` of ``peer``'s block of ``A.col_copy`` (a view)."""
    lo, _ = A.rows.range_of(peer)
    return extract_row_range(A.col_copy, lo + row_range[0], lo + row_range[1])


# ----------------------------------------------------------------------
# consumer helpers
# ----------------------------------------------------------------------
def round_tiles(strips: ColumnStrips, recv_b, active, ranges, rows) -> list:
    """A round's ``fetch-B`` entries whose strip rows hold entries, as
    ``(producer, first row, end row, global B row ids, B rows)``.  Output
    is placed by row range and stacked in payload order, so a row tile id
    out of the producer's (ascending) order raises, as does a B row id
    outside its producer's block, out of order or repeated."""
    tiles = []
    for j in active:
        last_rt, (j_lo, j_hi), indptr = -1, rows.range_of(j), strips[j].indptr
        for rt, global_ids, b_rows in recv_b[j] or ():
            if not last_rt < rt < len(ranges):
                raise ValueError(
                    f"fetch-B payload row tile {rt} after {last_rt}: ids must be "
                    f"strictly increasing and below {len(ranges)}"
                )
            last_rt, (r0, r1) = rt, ranges[rt]
            if indptr[r1] > indptr[r0]:
                tiles.append((j, r0, r1, checked_row_ids(global_ids, j_hi, j_lo), b_rows))
    return tiles


def multiply_round(comm, strips: ColumnStrips, tiles, n: int, semiring, kernel, diag) -> list:
    """Alg 2 line 28 for one round, in one kernel call: the round's B rows,
    placed once at global height ``n``, times the tiles' rows of
    :attr:`ColumnStrips.tall`.  A kernel computes a row from its entries
    alone, and a tile's entries select only rows it requested, so each
    part is array for array the tile's own product; each tile is charged
    the flops ``row_flops_before`` reads at its bounds, in tile order."""
    a, starts = _tall_rows(strips, tiles)
    d = tiles[0][4].ncols
    b = place_row_union(n, [(ids, rows) for *_, ids, rows in tiles], d)
    product, _ = dispatch_spgemm(a, b, semiring, kernel, ordered=False)
    before = row_flops_before(a, b)
    parts = []
    with comm.phase("local-compute"):
        for (_, r0, r1, _, _), start in zip(tiles, starts):
            flops = int(before[start + r1 - r0] - before[start])
            comm.charge_seconds(comm.machine.spgemm_time(flops, d=d, kernel=kernel))
            diag.flops += flops
            parts.append(extract_row_range(product, start, start + r1 - r0))
    return parts


def _tall_rows(strips: ColumnStrips, tiles) -> Tuple[CsrMatrix, List[int]]:
    """The tall-view rows of ``tiles`` and each tile's first row in them:
    one view when no row in between can multiply (only gaps inside
    sending strips meet placed B rows), else a gather of the tiles' rows."""
    m = strips[0].nrows
    spans = [(j, j * m + r0, j * m + r1) for j, r0, r1, _, _ in tiles]
    ptr = strips.tall.indptr
    first = spans[0][1]
    if all(
        ptr[min(nxt, (j + 1) * m)] == ptr[end] and ptr[nxt] == ptr[max(end, k * m)]
        for (j, _, end), (k, nxt, _) in zip(spans, spans[1:])
    ):
        return extract_row_range(strips.tall, first, spans[-1][2]), [s - first for _, s, _ in spans]
    ids = np.concatenate([np.arange(start, end) for _, start, end in spans])
    return extract_rows(strips.tall, ids), np.searchsorted(ids, [s for _, s, _ in spans])


def _stack_row_tiles(
    tiles: List[Tuple[int, CsrMatrix]], nrows: int, ncols: int, semiring: Semiring
) -> CsrMatrix:
    """Stack disjoint row tiles ``(first row, tile)``, given in increasing
    row order, into one ``nrows × ncols`` block — no sort, no compress.
    A single tile that already spans the block is returned as it is."""
    if len(tiles) == 1 and tiles[0][1].shape == (nrows, ncols):
        tile = tiles[0][1]
        return CsrMatrix(
            tile.shape, tile.indptr, tile.indices, semiring.coerce(tile.data), check=False
        )
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    for r0, tile in tiles:
        indptr[r0 + 1 : r0 + 1 + tile.nrows] = tile.row_nnz()
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(
        (nrows, ncols),
        indptr,
        np.concatenate([tile.indices for _, tile in tiles]),
        semiring.coerce(np.concatenate([tile.data for _, tile in tiles])),
        check=False,
    )
