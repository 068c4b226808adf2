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
column blocks, Table IV), and each round performs exactly one all-to-all
for B rows ("fetch-B") and one for partial C ("send-C") across all ranks.
Fewer, wider rounds reduce latency but grow the peak footprint of received
``B`` rows — the Fig 5 trade-off, tracked in the diagnostics as
``peak_recv_b_bytes``.

Round schedule: consumers visit their width-``w`` tiles in a *rotated*
order (consumer ``i`` processes block group ``(i + k) mod R`` in round
``k``) rather than all sweeping left-to-right.  The tiles and their
per-tile communication are identical; the rotation — the same trick that
distinguishes Cannon's algorithm from naive stage order — keeps every
rank's injection bandwidth busy in every round instead of leaving all but
``w/(n/p)`` producers idle.

**Fused communication** (``TsConfig.fuse_comm``, default on): every
(producer, consumer) pair meets in exactly one tile round of the rotated
schedule, so coalescing the rounds merges *rounds*, not payloads — the
per-peer messages are identical to the unfused schedule's.  The fused
path therefore packs the symbolic mode lists, every round's ``fetch-B``
payloads and (when no value-refresh prologue intervenes) every round's
``send-C`` partials into **one** multi-section all-to-all
(:meth:`repro.mpi.comm.SimComm.alltoall_fused`), then replays the
consumer-side rounds from the coalesced buffers in the original order —
output is bit-identical, per-phase bytes are conserved, and only the
α·rounds latency term drops.  The price is the Fig 5 trade-off taken to
its end point: all received ``B`` rows are resident at once
(``peak_recv_b_bytes`` reports the fused footprint honestly), which is
why ``--fuse-comm off`` remains the configuration for per-round memory
studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..partition.distmat import DistSparseMatrix
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.kernels import dispatch_spgemm, resolve_spgemm
from ..sparse.merge import merge_bytes, merge_csrs
from ..sparse.ops import extract_row_range, extract_rows
from ..sparse.semiring import BOOL_AND_OR, PLUS_TIMES, Semiring
from ..sparse.tile import ColumnStrips, strips_build_bytes
from .config import DEFAULT_CONFIG, TsConfig
from .gather_rows import pack_rows, place_rows
from .plan import PreparedA, prepare_multiply, replan
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
    symbolic_products: int = 0  # B-dependent pattern multiplies this call
    plan_reused: int = 0  # 1 when a PreparedA served this multiply

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def tiled_multiply(
    A: DistSparseMatrix,
    B: DistSparseMatrix,
    semiring: Semiring = PLUS_TIMES,
    config: TsConfig = DEFAULT_CONFIG,
    plan: Optional[SymbolicPlan] = None,
    prepared: Optional[PreparedA] = None,
    fused_prologue=None,
) -> Tuple[DistSparseMatrix, TileDiagnostics]:
    """One DIST-TS-SPGEMM multiply; returns ``(C, diagnostics)``.

    Requires ``A.build_column_copy()`` to have been called.  ``prepared``
    is a :class:`~repro.core.plan.PreparedA` built once for this ``A``
    (see :func:`~repro.core.plan.prepare_multiply`): the B-independent
    symbolic state and the consumer-side strips are reused, and only the
    incremental ``replan`` runs here.  ``plan`` may alternatively supply
    a complete symbolic plan to reuse verbatim (same ``A`` *and* ``B``
    pattern).  Without either, a fresh plan is built from scratch.

    With ``config.fuse_comm`` the multiply issues one fused multi-section
    all-to-all instead of the symbolic + per-round exchanges (see the
    module docstring).  ``fused_prologue`` — only meaningful on the fused
    path — is an object with ``sections(comm)`` and ``finish(comm,
    received)`` methods: its fetch sections ride the combined round and
    ``finish`` runs before any value-dependent compute, so a prologue
    that refreshes the resident operand's values (the distributed SDDMM)
    fuses into the same round trip.
    """
    comm = A.comm
    if B.comm is not comm:
        raise ValueError("A and B must live on the same communicator")
    if A.col_copy is None:
        raise RuntimeError("tiled_multiply requires A.build_column_copy() first")
    fuse = config.fuse_comm
    if fused_prologue is not None and not fuse:
        raise ValueError("fused_prologue requires config.fuse_comm")
    p = comm.size
    d = B.ncols
    acc = config.accumulator_for(d)
    # Resolve the kernel once per multiply: every tile product sees the
    # same (A dtype, semiring, d), so the resolution — and therefore the
    # calibrated compute constant charged per flop — is uniform.
    kname = resolve_spgemm(config.kernel, semiring, A.local, d=d).name
    diag = TileDiagnostics()

    if prepared is not None:
        prepared.check_compatible(A, config)
        diag.plan_reused = 1
    # ``sync_prepared`` owns the plan's numeric subtile blocks — the
    # caller's resident PreparedA, or the fresh path's throwaway (built
    # here instead of inside build_symbolic_plan so a fused prologue's
    # value refresh has a handle to re-read the blocks through).
    sync_prepared = prepared
    if plan is None:
        if prepared is None:
            sync_prepared = prepare_multiply(A, config)
        plan = replan(sync_prepared, A, B, exchange_modes=not fuse)
    else:
        # A caller's plan promises the same *patterns*, not the values the
        # kept symbolic products were computed from.
        for infos in plan.produced.values():
            for info in infos:
                info.symbolic = None
    diag.symbolic_products = plan.pattern_products

    # Consumer-side strips of my local A block, one per producer column
    # block, with column ids local to that block.  A prepared plan owns
    # them (built and charged once; the fresh path's throwaway rebuilds
    # per call, same "tiling" charge as ever).
    if sync_prepared is not None:
        strips = sync_prepared.ensure_strips(A)
    else:
        with comm.phase("tiling"):
            strips = ColumnStrips(A.local, A.rows.ranges)
            comm.charge_touch(strips_build_bytes(A.local, p))

    if fuse:
        return _fused_multiply(
            comm, A, B, semiring, config, plan, strips, diag, d, acc, kname,
            fused_prologue, sync_prepared,
        )

    my_nrows = A.local.nrows
    my_lo, _ = A.rows.range_of(comm.rank)

    partials = _diagonal_partials(
        comm, plan, B.local, semiring, d, acc, kname, diag, my_nrows
    )

    # ------------------------------------------------------------------
    # Tile rounds (Alg 2 lines 11-18 and 24-29, consolidated all-to-alls).
    # ------------------------------------------------------------------
    width = config.tile_width_factor
    n_rounds = -(-p // width)
    diag.rounds = n_rounds
    my_group = comm.rank // width  # block group my column block belongs to
    for rnd in range(n_rounds):
        # Rotated schedule: this round I consume block group
        # (rank + rnd) mod R, and as a producer I serve the consumers
        # whose sweep reaches my group this round.
        cons_group = (comm.rank + rnd) % n_rounds
        active = range(cons_group * width, min((cons_group + 1) * width, p))
        my_consumers = [
            i for i in range(p) if (my_group - i) % n_rounds == rnd and i != comm.rank
        ]

        send_b = _build_send_b(comm, plan, B.local, my_lo, p, diag, my_consumers)
        send_c = _build_send_c(
            comm, plan, B.local, semiring, d, acc, kname, p, diag, my_consumers
        )

        with comm.phase("fetch-B"):
            recv_b = comm.alltoall(send_b)
        with comm.phase("send-C"):
            recv_c = comm.alltoall(send_c)

        # ---- consumer side --------------------------------------------
        diag.peak_recv_b_bytes = max(
            diag.peak_recv_b_bytes, _recv_b_bytes(comm, recv_b)
        )
        with comm.phase("local-compute"):
            _consume_round(
                comm, active, recv_b, recv_c, strips, A, config, semiring,
                d, acc, kname, diag, my_nrows, partials,
            )
        partials = _merge_round(comm, partials, semiring)

    with comm.phase("merge"):
        if partials:
            comm.charge_touch(merge_bytes(partials))
            c_local = merge_csrs(partials, semiring)
        else:
            c_local = CsrMatrix.empty((my_nrows, d), dtype=semiring.dtype)

    _count_modes(plan, diag)
    return DistSparseMatrix(comm, A.rows, c_local, d), diag


# ----------------------------------------------------------------------
# producer/consumer round bodies, shared by the fused and unfused paths
# (the fused path coalesces *rounds*, never payloads, so both schedules
# must build and consume byte-identical per-peer messages — keep every
# change to these helpers path-agnostic)
# ----------------------------------------------------------------------
def _diagonal_partials(
    comm, plan, b_local, semiring, d, acc, kname, diag, my_nrows
) -> List[CsrMatrix]:
    """The communication-free diagonal tile (Alg 2 lines 20-22)."""
    partials: List[CsrMatrix] = []
    with comm.phase("diagonal"):
        for info in plan.produced.get(comm.rank, []):
            if info.mode != DIAGONAL:
                continue
            c_part, flops = dispatch_spgemm(info.block, b_local, semiring, kname)
            comm.charge_spgemm(flops, d=d, accumulator=acc, kernel=kname)
            diag.flops += flops
            diag.diagonal_tiles += 1
            partials.append(
                _stack_row_tiles([(info.row_range[0], c_part)], my_nrows, d, semiring)
            )
    return partials


def _build_send_b(
    comm, plan, b_local, my_lo, p, diag, peers
) -> List[Optional[list]]:
    """``fetch-B`` payloads for the given consumer ``peers``.

    B rows are packed per local-mode row tile — a row needed by two
    tiles is shipped twice, exactly as in the paper's per-tile
    all-to-alls.  Avoiding that duplication is precisely what the
    remote mode is for (Fig 4c), so "optimizing" it away here would
    erase the hybrid mode's benefit (Fig 6).  The unfused schedule
    passes one round's consumers; the fused schedule passes every peer
    at once — each (producer, consumer) pair meets in exactly one round,
    so the per-peer payload is identical either way.
    """
    send_b: List[Optional[list]] = [None] * p
    for peer in peers:
        if peer == comm.rank:
            continue
        tile_payloads = []
        for info in plan.produced[peer]:
            if info.mode != LOCAL or info.needed_b_rows is None:
                continue
            packed = pack_rows(b_local, info.needed_b_rows)
            if packed is None:
                continue
            local_ids, rows = packed
            tile_payloads.append((info.row_tile, my_lo + local_ids, rows))
            diag.sent_b_nnz += rows.nnz
            with comm.phase("fetch-B"):
                comm.charge_touch(rows.nbytes_estimate())
        if tile_payloads:
            send_b[peer] = tile_payloads
    return send_b


def _build_send_c(
    comm, plan, b_local, semiring, d, acc, kname, p, diag, peers
) -> List[Optional[tuple]]:
    """Remote-mode partial payloads for the given consumer ``peers``."""
    send_c: List[Optional[tuple]] = [None] * p
    for peer in peers:
        if peer == comm.rank:
            continue
        remote_part = _compute_remote_partial(
            comm, plan.produced[peer], b_local, semiring, d, acc, kname, diag
        )
        if remote_part is not None:
            send_c[peer] = remote_part
            diag.sent_c_nnz += remote_part[1].nnz
    return send_c


def _recv_b_bytes(comm, recv_b) -> int:
    """Resident footprint of received B rows (Fig 5's memory axis)."""
    return sum(
        rows.nbytes_estimate()
        for j, payload in enumerate(recv_b)
        if payload is not None and j != comm.rank
        for (_, _, rows) in payload
    )


def _consume_round(
    comm, active, recv_b, recv_c, strips, A, config, semiring, d, acc,
    kname, diag, my_nrows, partials,
) -> None:
    """Consume one rotated round's producers, appending to ``partials``."""
    for j in active:
        if j == comm.rank:
            continue
        payload = recv_b[j]
        if payload is not None:
            c_part = _consume_local(
                comm,
                strips[j],
                payload,
                A.rows.range_of(j),
                config,
                semiring,
                d,
                acc,
                kname,
                diag,
            )
            if c_part is not None:
                partials.append(c_part)
        remote = recv_c[j]
        if remote is not None:
            partials.append(place_rows(my_nrows, remote, d, semiring.dtype))


def _merge_round(comm, partials, semiring) -> List[CsrMatrix]:
    """Merge one round's partials into the running output (Alg 2's
    per-tile MERGE, batched per round)."""
    if len(partials) > 1:
        with comm.phase("merge"):
            comm.charge_touch(merge_bytes(partials))
            partials = [merge_csrs(partials, semiring)]
    return partials


# ----------------------------------------------------------------------
# fused communication path
# ----------------------------------------------------------------------


def _sync_plan_values(plan: SymbolicPlan, prepared: PreparedA) -> None:
    """Point the plan's subtile infos at ``prepared``'s current blocks.

    ``replan`` captures block references before a fused prologue's value
    refresh replaces them (:meth:`PreparedA.refresh_values` re-extracts);
    the pattern-derived fields (modes, ``needed_b_rows``, ranges) are
    refresh-invariant, so re-pointing the numeric blocks is all that is
    needed to make the plan read refreshed values.  A kept symbolic
    product was computed from the old values and is dropped.
    """
    for peer, infos in plan.produced.items():
        for info, ps in zip(infos, prepared.subtiles[peer]):
            info.block = ps.block
            info.symbolic = None


def _fused_multiply(
    comm, A, B, semiring, config, plan, strips, diag, d, acc, kname,
    fused_prologue, sync_prepared,
) -> Tuple[DistSparseMatrix, TileDiagnostics]:
    """The fused-round schedule: one combined all-to-all per multiply.

    Without a prologue, a multiply step is exactly **one** exchange: the
    deferred symbolic modes, every round's ``fetch-B`` payloads and every
    round's ``send-C`` partials travel as tagged sections of a single
    fused all-to-all (values are resident, so the remote partials are
    computable up front).  With a value-refreshing ``fused_prologue``
    (the distributed SDDMM), the partials depend on the refreshed values,
    so the step becomes: fused fetch round (prologue sections + modes +
    ``fetch-B``) → prologue ``finish`` (refresh, one values-only round) →
    ``send-C`` round, the last skipped everywhere when no rank has remote
    partials (decided via the fused round's uncharged header flag, so the
    skip is collectively consistent).

    Consumer-side processing then replays the rotated tile rounds from
    the coalesced buffers in the unfused order — same partial list, same
    per-round merge cadence — which is what makes the output
    bit-identical to ``fuse_comm=False``.
    """
    p = comm.size
    my_nrows = A.local.nrows
    my_lo, _ = A.rows.range_of(comm.rank)
    width = config.tile_width_factor
    n_rounds = -(-p // width)
    diag.rounds = n_rounds
    # Every (producer, consumer) pair meets in exactly one round of the
    # rotated schedule, so building payloads for all peers at once
    # coalesces *rounds*, never payloads.
    all_peers = [i for i in range(p) if i != comm.rank]

    # ---- producer side: everything computable before the exchange -----
    send_b = _build_send_b(comm, plan, B.local, my_lo, p, diag, all_peers)
    sections: List[Tuple[str, list]] = []
    if fused_prologue is not None:
        sections.extend(fused_prologue.sections(comm))
    if plan.outgoing_modes is not None:
        sections.append(("symbolic", plan.outgoing_modes))
    sections.append(("fetch-B", send_b))
    meta = None
    if fused_prologue is None:
        # Values are resident and final: remote partials can be computed
        # now and ride the same exchange — FusedMM proper, one round.
        send_c = _build_send_c(
            comm, plan, B.local, semiring, d, acc, kname, p, diag, all_peers
        )
        sections.append(("send-C", send_c))
    else:
        # The prologue will refresh values; partials must wait.  Ship an
        # uncharged header flag so every rank learns whether *any* rank
        # will have remote partials — the follow-up send-C round is then
        # skipped everywhere or run everywhere (collectively consistent).
        meta = any(
            s.mode == REMOTE for infos in plan.produced.values() for s in infos
        )

    with comm.phase("fused-round"):
        received, metas = comm.alltoall_fused(sections, meta=meta)

    if plan.outgoing_modes is not None:
        plan.consumed_modes = dict(enumerate(received["symbolic"]))
        plan.outgoing_modes = None
    recv_b = received["fetch-B"]

    if fused_prologue is not None:
        fused_prologue.finish(comm, received)
        if getattr(fused_prologue, "values_refreshed", False):
            # The prologue changed the operand's values after replan
            # captured its block references.  Re-read them so every
            # value-dependent product (diagonal, remote partials, strip
            # consumption) sees the refreshed operand — this is what
            # keeps the fused path bit-identical to the unfused order
            # (prologue first, then plan + multiply).
            if sync_prepared is None:
                raise RuntimeError(
                    "a value-refreshing fused prologue needs a prepared "
                    "plan to re-sync numeric state through"
                )
            if sync_prepared is not getattr(
                fused_prologue, "refreshed_prepared", None
            ):
                # Fresh-plan path: the throwaway's blocks/strips were
                # extracted before the refreshed values existed.
                sync_prepared.refresh_values(A)
            _sync_plan_values(plan, sync_prepared)

    # Diagonal tile after any value refresh, like the unfused order
    # (there the prologue runs entirely before the multiply).
    partials = _diagonal_partials(
        comm, plan, B.local, semiring, d, acc, kname, diag, my_nrows
    )

    # ---- remote partials + the follow-up round (prologue case only) ---
    if fused_prologue is None:
        recv_c = received["send-C"]
    elif any(metas):
        send_c = _build_send_c(
            comm, plan, B.local, semiring, d, acc, kname, p, diag, all_peers
        )
        with comm.phase("send-C"):
            recv_c = comm.alltoall(send_c)
    else:
        recv_c = [None] * p

    # ---- consumer side: replay the rotated rounds from the coalesced
    # buffers (identical partial order and merge cadence → identical C) -
    # Fused arrival: every round's B rows are resident at once — the
    # honest footprint of trading rounds for latency (Fig 5 end point).
    diag.peak_recv_b_bytes = max(
        diag.peak_recv_b_bytes, _recv_b_bytes(comm, recv_b)
    )

    for rnd in range(n_rounds):
        cons_group = (comm.rank + rnd) % n_rounds
        active = range(cons_group * width, min((cons_group + 1) * width, p))
        with comm.phase("local-compute"):
            _consume_round(
                comm, active, recv_b, recv_c, strips, A, config, semiring,
                d, acc, kname, diag, my_nrows, partials,
            )
        partials = _merge_round(comm, partials, semiring)

    with comm.phase("merge"):
        if partials:
            comm.charge_touch(merge_bytes(partials))
            c_local = merge_csrs(partials, semiring)
        else:
            c_local = CsrMatrix.empty((my_nrows, d), dtype=semiring.dtype)

    _count_modes(plan, diag)
    return DistSparseMatrix(comm, A.rows, c_local, d), diag


# ----------------------------------------------------------------------
# producer helpers
# ----------------------------------------------------------------------
def _compute_remote_partial(
    comm,
    infos: List[SubtileInfo],
    b_local: CsrMatrix,
    semiring: Semiring,
    d: int,
    acc: str,
    kernel: str,
    diag: TileDiagnostics,
) -> Optional[Tuple[np.ndarray, CsrMatrix]]:
    """Multiply the peer's remote-mode subtiles here.

    Returns a compact ``(row ids, packed rows)`` payload — only the
    affected rows travel, mirroring how B rows are shipped, so the wire
    cost matches what the symbolic mode decision compared.  Row ids are in
    the *peer's local* row space.
    """
    remote_infos = [s for s in infos if s.mode == REMOTE]
    if not remote_infos:
        return None
    peer_rows = max(s.row_range[1] for s in infos)
    tiles = []
    for info in remote_infos:
        if info.symbolic is not None and semiring == BOOL_AND_OR:
            # replan already ran this very product (same boolean operands,
            # same kernel) to size the tile; the charge is the same too.
            c_part, flops = info.symbolic
        else:
            c_part, flops = dispatch_spgemm(info.block, b_local, semiring, kernel)
        with comm.phase("send-C"):
            comm.charge_spgemm(flops, d=d, accumulator=acc, kernel=kernel)
        diag.flops += flops
        if c_part.nnz:
            tiles.append((info.row_range[0], c_part))
    if not tiles:
        return None
    stacked = _stack_row_tiles(tiles, peer_rows, d, semiring)
    affected = np.flatnonzero(stacked.row_nnz()).astype(INDEX_DTYPE)
    return affected, extract_rows(stacked, affected)


# ----------------------------------------------------------------------
# consumer helpers
# ----------------------------------------------------------------------
def _consume_local(
    comm,
    strip: CsrMatrix,
    payload: list,
    producer_range: Tuple[int, int],
    config: TsConfig,
    semiring: Semiring,
    d: int,
    acc: str,
    kernel: str,
    diag: TileDiagnostics,
) -> Optional[CsrMatrix]:
    """Multiply my local-mode row tiles of ``strip`` with received B rows.

    ``payload`` holds one ``(row tile id, global B row ids, rows)`` entry
    per local-mode tile; each tile multiplies against its own copy of the
    rows it requested.
    """
    j_lo, j_hi = producer_range
    ranges = row_tile_ranges(strip.nrows, config.effective_tile_height(strip.nrows))
    tiles = []
    last_rt = -1
    for rt, global_ids, rows in payload:
        # Stacking below relies on the producer's order (plan row tiles,
        # ascending); anything else would misplace or drop output rows.
        if not last_rt < rt < len(ranges):
            raise ValueError(
                f"fetch-B payload row tile {rt} after {last_rt}: ids must be "
                f"strictly increasing and below {len(ranges)}"
            )
        last_rt = rt
        r0, r1 = ranges[rt]
        sub = extract_row_range(strip, r0, r1)
        if sub.nnz == 0:
            continue
        block_b = place_rows(
            j_hi - j_lo, (global_ids - j_lo, rows), d, semiring.dtype
        )
        c_part, flops = dispatch_spgemm(sub, block_b, semiring, kernel)
        comm.charge_spgemm(flops, d=d, accumulator=acc, kernel=kernel)
        diag.flops += flops
        if c_part.nnz:
            tiles.append((r0, c_part))
    if not tiles:
        return None
    return _stack_row_tiles(tiles, strip.nrows, d, semiring)


def _stack_row_tiles(
    tiles: List[Tuple[int, CsrMatrix]], nrows: int, ncols: int, semiring: Semiring
) -> CsrMatrix:
    """Stack disjoint row tiles ``(first row, tile)``, given in increasing
    row order, into one ``nrows × ncols`` block — no sort, no compress."""
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


def _count_modes(plan: SymbolicPlan, diag: TileDiagnostics) -> None:
    diag.local_tiles = plan.count(LOCAL)
    diag.remote_tiles = plan.count(REMOTE)
    diag.empty_tiles = plan.count(EMPTY)
