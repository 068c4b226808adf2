"""Sparse force-directed graph embedding (sparse Force2Vec, §IV-B).

Vertices are embedded in ``R^d`` with attractive forces along edges and
repulsive forces toward negative-sampled non-neighbours (Fig 4).  The
gradient of vertex ``u`` is

    ∇f(u) = Σ_{v ∈ N(u)} (σ(z_u·z_v) − 1) · z_v   (attractive)
          + Σ_{v ∈ neg(u)} σ(z_u·z_v) · z_v        (repulsive)

which is exactly a TS-SpGEMM: a coefficient matrix ``W`` with the pattern
of ``A`` (+ negative samples) times the *sparse* embedding matrix ``Z``.
After each synchronous-SGD step the embedding is re-sparsified by keeping
the highest-magnitude entries per row (§IV-B), and the tile height is set
to the mini-batch size so each row tile is one mini-batch (Fig 4c) — the
regime where remote tiles pay off (Fig 13d).

The epoch loop is **SPMD-resident** by default: one resident
:class:`~repro.core.driver.TsSession` holds the coefficient pattern, the
embedding lives on the ranks as a sparse
:class:`~repro.partition.distmat.DistHandle` plus its dense
:class:`~repro.partition.distmat.DistDenseHandle` twin, and each epoch is
one rank program — a *distributed SDDMM* (each rank fetches exactly the
``Z`` rows its pattern columns reference, charged; the σ coefficients are
computed on the row owners and flow into the resident operand through a
values-only ``Ac`` strip exchange), the TS-SpGEMM, and the fused
rank-local SGD + top-k re-sparsification epilogue.  Per-epoch driver
traffic is exactly **zero**; the embedding is gathered once after the
last epoch.  ``driver_gather=True`` is the ablation: the historical loop
that round-trips ``Z`` and the gradient through the driver every epoch
(now honestly charged as a root scatter + gather) and computes the SDDMM
driver-side.

With ``TsConfig.fuse_comm`` (default) the epoch's exchanges are **fused
FusedMM-style**: the SDDMM ``Z``-row fetch, the symbolic mode lists and
the multiply's coalesced ``fetch-B`` payloads travel as tagged sections
of one combined all-to-all, the σ coefficients then refresh the resident
operand in a values-only round, and the ``send-C`` partial exchange runs
(or is skipped collectively when no tile is remote) — 2-3 all-to-alls
per epoch instead of ``3 + 2·ceil(p/w)``, bit-identical ``Z``, per-phase
bytes conserved.  ``--fuse-comm off`` restores the separate rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import FusedPrologue, TsSession
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..sparse.build import coo_to_csr
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.ops import (
    extract_row_range, extract_rows, nonzero_columns_by_rows, row_topk,
)
from ..sparse.sddmm import compact_pattern, force2vec_coefficients
from ..sparse.semiring import PLUS_TIMES, Semiring

#: Collapses duplicate (u, v) pairs in the force pattern by summing their
#: ±1 labels: an edge that is also drawn as a negative sample nets out.
_LABEL_SEMIRING = Semiring(
    "label_sum", np.add, np.multiply, 0.0, np.dtype(np.float64)
)


@dataclass
class EmbeddingEpoch:
    """Per-epoch measurements (the series of Fig 13 b-d)."""

    epoch: int
    runtime: float
    comm_bytes: int
    remote_tiles: int
    local_tiles: int
    z_nnz: int
    #: Driver-side traffic of this epoch (Z scatter / gradient gather);
    #: zero on the resident path — the quantity the distributed SDDMM
    #: eliminates, nonzero only under the ``driver_gather=True`` ablation.
    driver_scatter_bytes: int = 0
    driver_gather_bytes: int = 0
    #: All-to-all exchanges this epoch performed — the α·rounds term
    #: ``fuse_comm`` collapses (2-3 fused vs ``3 + 2·ceil(p/w)`` unfused).
    rounds: int = 0
    #: Resilience trace (recoverable sessions only, docs/resilience.md):
    #: multiply retries after injected faults, rank recoveries those
    #: retries performed, and elastic shrinks (permanent rank losses
    #: survived at p-1).
    retries: int = 0
    recoveries: int = 0
    shrinks: int = 0

    @property
    def remote_fraction(self) -> float:
        total = self.remote_tiles + self.local_tiles
        return self.remote_tiles / total if total else 0.0


@dataclass
class EmbeddingResult:
    """Outcome of sparse-embedding training."""

    Z: CsrMatrix
    epochs: List[EmbeddingEpoch] = field(default_factory=list)
    accuracy: float = 0.0

    @property
    def total_runtime(self) -> float:
        return sum(e.runtime for e in self.epochs)

    @property
    def total_comm_bytes(self) -> int:
        return sum(e.comm_bytes for e in self.epochs)


class _SddmmPrologue(FusedPrologue):
    """Rank-local epoch prologue: the distributed SDDMM (Fig 4b, fused).

    Fetches the ``Z`` rows this rank's coefficient pattern references —
    the sender reads what to ship off its ``Ac`` column copy (§III-A), no
    request round, and ships them *sparse* so the traffic falls with the
    embedding sparsity — then computes the σ force coefficients for the
    local pattern block and pushes them into the resident operand
    (values-only ``Ac`` strip refresh).  All of it is charged: the fetch
    as wire traffic under ``sddmm-fetch``, the dot products via
    ``charge_sddmm``.

    :meth:`sections` packs every peer's rows with one gather
    (:func:`_sddmm_send`) and rides the multiply's fused all-to-all
    under ``fuse_comm`` (its own exchange otherwise); :meth:`finish`
    places them with one scatter (:func:`_sddmm_rows`), then refreshes
    the coefficients.  Stateless: the pattern-derived plan lives in
    ``operand.aux``, so one instance serves every rank.
    """

    PHASE = "sddmm-fetch"

    def _plan(self, comm, operand):
        """B-independent plan: which of my Z rows each peer's pattern
        block references (read straight off my Ac block — no request
        round), and my own pattern re-indexed into the compact space of
        the columns it actually references, so the receive buffer is
        O(referenced rows · d), not O(n · d).  The slot table that
        re-indexing maps through also places the fetched rows."""
        cached = operand.aux.get("sddmm_plan")
        if cached is not None:
            return cached
        dist = operand.dist
        if dist.col_copy is None:
            raise RuntimeError(
                "the distributed SDDMM needs the tiled algorithm's Ac column copy"
            )
        local = operand.local
        p = comm.size
        with comm.phase("prepare"):
            # One pass each: peer i's rows of my Ac block, then my own block.
            send_rows = nonzero_columns_by_rows(
                dist.col_copy, [0, *(hi for _, hi in dist.rows.ranges)]
            )
            (needed,) = nonzero_columns_by_rows(local, (0, local.nrows))
            compact, slot = compact_pattern(local, needed)
            comm.charge_touch(
                p * dist.col_copy.indices.nbytes + 2 * local.indices.nbytes
            )
        # Registered via cache() so the checkpoint layer snapshots the
        # plan with the rank's blocks (spmdlint rule S7).
        return operand.cache("sddmm_plan", (send_rows, needed, slot, compact))

    def sections(self, comm, operand, z_sp_local, z_dn_local, labels_local):
        send_rows, _, _, _ = self._plan(comm, operand)
        my_lo, _ = operand.dist.local_range
        with comm.phase(self.PHASE):
            send, packed = _sddmm_send(z_sp_local, send_rows, comm.rank, my_lo)
            comm.charge_touch(packed)
        return [(self.PHASE, send)]

    def finish(self, comm, operand, received, z_sp_local, z_dn_local, labels_local):
        _, needed, slot, compact = operand.aux["sddmm_plan"]
        my_range = operand.dist.local_range
        d = z_dn_local.shape[1]
        with comm.phase(self.PHASE):
            y, packed = _sddmm_rows(
                needed, slot, received[self.PHASE], z_dn_local, my_range
            )
            comm.charge_touch(packed)
        coeffs = force2vec_coefficients(compact, z_dn_local, y, labels_local.data)
        comm.charge_sddmm(operand.local.nnz * d)
        operand.refresh_values(coeffs)


def _sddmm_send(z_sp_local, send_rows, rank, my_lo):
    """The SDDMM fetch's send list, ``(global row ids, rows)`` for each
    peer that references a row of ``z_sp_local``: one ``extract_rows``
    cut into row-range views, each equal, array for array, to the peer's
    own extraction.  Returns ``(send list, bytes packed)``."""
    lists = [rows[:0] if i == rank else rows for i, rows in enumerate(send_rows)]
    cuts = np.cumsum([0] + [len(rows) for rows in lists])
    rows = np.concatenate(lists)
    block = extract_rows(z_sp_local, rows)
    gids = my_lo + rows
    send = [
        (gids[r0:r1], extract_row_range(block, r0, r1)) if r1 > r0 else None
        for r0, r1 in zip(cuts[:-1], cuts[1:])
    ]
    return send, sum(x[1].nbytes_estimate() for x in send if x is not None)


def _sddmm_rows(needed, slot, received, z_dn_local, local_range):
    """The SDDMM's compact ``Z`` operand (row ``s`` is global row
    ``needed[s]``, and ``slot[needed[s]] == s``): this rank's rows from
    its dense block, every received entry written by one scatter.
    Returns ``(y, bytes received)``.  A received row id that ``needed``
    lacks raises ``ValueError`` naming its sender rather than overwrite
    whatever row its slot holds."""
    my_lo, my_hi = local_range
    y = np.zeros((len(needed), z_dn_local.shape[1]))
    mine = (needed >= my_lo) & (needed < my_hi)
    y[mine] = z_dn_local[needed[mine] - my_lo]
    got = [(i, *x) for i, x in enumerate(received) if x is not None]
    if not got:
        return y, 0
    senders, gid_lists, blocks = zip(*got)
    gids = np.concatenate(gid_lists)
    slots = slot[gids]
    stray = np.flatnonzero(needed[slots] != gids)
    if len(stray):
        sender = np.repeat(senders, [len(g) for g in gid_lists])[stray[0]]
        raise ValueError(f"rank {sender} sent unreferenced Z row {gids[stray[0]]}")
    rows = np.repeat(slots, np.concatenate([b.row_nnz() for b in blocks]))
    cols = np.concatenate([b.indices for b in blocks])
    y[rows, cols] = np.concatenate([b.data for b in blocks])
    return y, sum(b.nbytes_estimate() for b in blocks)


#: Shared stateless instance (per-rank state lives in ``operand.aux``).
_sddmm_prologue = _SddmmPrologue()


def _make_sgd_epilogue(lr: float, keep_per_row: int):
    """Rank-local epoch epilogue: synchronous SGD step + re-sparsification.

    Row-partitioned, so it needs zero communication; returns the new
    sparse ``Z`` block and its dense twin (= ``Z.to_dense()``, the SDDMM
    operand of the next epoch), which come back as session handles.
    """

    def epilogue(comm, c_local, z_dn_local):
        with comm.phase("sgd-update"):
            grad = c_local.to_dense()
            z_sp_new, z_dn_new = row_topk(z_dn_local - lr * grad, keep_per_row)
            comm.charge_touch(
                c_local.nbytes_estimate() + 2 * z_dn_new.nbytes
            )
        return z_sp_new, z_dn_new

    return epilogue


def train_sparse_embedding(
    adj: CsrMatrix,
    p: int,
    *,
    d: int = 16,
    sparsity: float = 0.8,
    epochs: int = 10,
    n_negative: int = 3,
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
    seed: int = 0,
    holdout_fraction: float = 0.1,
    learning_rate: Optional[float] = None,
    negative_refresh: int = 1,
    driver_gather: bool = False,
    row_bounds: Optional[Tuple[int, ...]] = None,
) -> EmbeddingResult:
    """Train a sparse Force2Vec embedding of the graph ``adj``.

    ``sparsity`` is the target fraction of zero entries per embedding row
    (Fig 13 sweeps it); ``d`` the embedding dimension.  Link-prediction
    accuracy is evaluated on held-out edges vs. random non-edges.

    ``negative_refresh`` controls how many epochs each negative-sample
    draw is kept for (default 1 = redraw every epoch, the historical
    behaviour).  With a value > 1 the coefficient matrix keeps a *fixed
    pattern* between redraws, so the resident session's prepared plan
    (:class:`~repro.core.plan.PreparedA`) survives those epochs and only
    the numeric state moves — the per-epoch SDDMM refreshes values in
    place, and each multiply replans only against the re-sparsified
    ``Z``.  A redraw changes the pattern and triggers a full re-setup,
    equivalent to a fresh session.

    By default the whole loop is SPMD-resident — ``Z`` is scattered once,
    every epoch runs as one rank program (distributed SDDMM → TS-SpGEMM →
    fused SGD/top-k epilogue) chaining rank-resident handles, and the
    final embedding is gathered once: per-epoch ``driver_*_bytes`` are
    exactly zero.  ``driver_gather=True`` ablates this: every epoch
    scatters ``Z`` and gathers the gradient through the driver (charged
    by ``TsSession.multiply(charge_driver=True)``) and computes the SDDMM
    driver-side.  Both paths produce bit-identical embeddings.

    ``row_bounds`` pins the session's row partition to explicit block
    boundaries (forwarded to :class:`~repro.core.driver.TsSession`).
    Its purpose is elastic-degraded-mode verification: float
    accumulation order follows the partition, so the reference for a
    run that shrank to p-1 mid-training is a fresh p-1 run at the
    *merged* layout the shrink produced (docs/resilience.md).
    """
    if adj.nrows != adj.ncols:
        raise ValueError("adjacency matrix must be square")
    if not (0.0 <= sparsity < 1.0):
        raise ValueError("sparsity must be in [0, 1)")
    if negative_refresh < 1:
        raise ValueError("negative_refresh must be >= 1")
    n = adj.nrows
    rng = np.random.default_rng(seed)
    keep_per_row = max(int(round(d * (1.0 - sparsity))), 1)

    # --- train / test edge split -------------------------------------
    edge_rows = adj.row_ids()
    edge_cols = adj.indices
    upper = edge_rows < edge_cols  # undirected: one direction is enough
    pos_u, pos_v = edge_rows[upper], edge_cols[upper]
    n_test = max(int(len(pos_u) * holdout_fraction), 1)
    test_idx = rng.choice(len(pos_u), size=min(n_test, len(pos_u)), replace=False)
    test_mask = np.zeros(len(pos_u), dtype=bool)
    test_mask[test_idx] = True
    train_u = np.concatenate([pos_u[~test_mask], pos_v[~test_mask]])
    train_v = np.concatenate([pos_v[~test_mask], pos_u[~test_mask]])

    # --- initialization ------------------------------------------------
    z_init = (rng.random((n, d)) - 0.5) / np.sqrt(d)
    z_sparse, z_dense = row_topk(z_init, keep_per_row)
    lr = config.learning_rate if learning_rate is None else learning_rate
    batch = min(config.batch_size, max(n // max(p, 1), 1))
    # Tile height = mini-batch size (§IV-B); everything else — kernel,
    # mode policy, plan reuse — is inherited from the caller's config.
    train_config = replace(config, tile_height=batch)
    session: Optional[TsSession] = None

    def draw_pattern() -> CsrMatrix:
        """One negative-sample draw: the ±1-labelled force pattern."""
        neg_u = np.repeat(np.arange(n, dtype=INDEX_DTYPE), n_negative)
        neg_v = rng.integers(0, n, n * n_negative, dtype=INDEX_DTYPE)
        keep = neg_u != neg_v
        neg_u, neg_v = neg_u[keep], neg_v[keep]
        # +1 on attractive edges, -1 on repulsive samples (Fig 4b).  The
        # pattern is fixed until the next refresh; only values move.
        labels = np.concatenate([np.ones(len(train_u)), -np.ones(len(neg_u))])
        return coo_to_csr(
            np.concatenate([train_u, neg_u]),
            np.concatenate([train_v, neg_v]),
            labels,
            (n, n),
            _LABEL_SEMIRING,
        )

    result = EmbeddingResult(Z=z_sparse)
    pattern = None
    z_sp_h = z_dn_h = labels_h = None
    sgd_epilogue = _make_sgd_epilogue(lr, keep_per_row)
    try:
        for epoch in range(epochs):
            redraw = pattern is None or epoch % negative_refresh == 0
            if redraw:
                pattern = draw_pattern()
            if driver_gather:
                # Ablation: the historical driver round-trip loop.  The
                # SDDMM runs driver-side over the global dense Z, the
                # refreshed coefficient matrix re-enters the session from
                # the driver, and every epoch pays a charged Z scatter
                # (scatter-B) and gradient gather (gather-C).
                coeff_vals = force2vec_coefficients(
                    pattern, z_dense, z_dense, pattern.data
                )
                W = CsrMatrix(
                    pattern.shape, pattern.indptr, pattern.indices,
                    coeff_vals, check=False,
                )
                if session is None:
                    session = TsSession(
                        W, p, semiring=PLUS_TIMES, config=train_config,
                        machine=machine, row_bounds=row_bounds,
                    )
                else:
                    # values-only refresh between redraws; a redrawn
                    # pattern is detected inside and triggers a full
                    # re-setup
                    session.update_operand(W)
                mult = session.multiply(z_sparse, charge_driver=True)
                grad = mult.C.to_dense()
                # synchronous SGD step + re-sparsification (top-k per row)
                z_sparse, z_dense = row_topk(z_dense - lr * grad, keep_per_row)
                z_nnz = z_sparse.nnz
            else:
                # Resident path: one rank program per epoch, zero driver
                # traffic.  The labels handle carries the ±1 pattern
                # values the per-epoch coefficient map needs.
                if session is None:
                    session = TsSession(
                        pattern, p, semiring=PLUS_TIMES, config=train_config,
                        machine=machine, row_bounds=row_bounds,
                    )
                    z_sp_h = session.scatter(z_sparse)
                    z_dn_h = session.scatter_dense(z_dense)
                    labels_h = session.scatter(pattern)
                elif redraw:
                    session.update_operand(pattern)
                    labels_h = session.scatter(pattern)
                mult = session.multiply(
                    z_sp_h,
                    gather=False,
                    prologue=_sddmm_prologue,
                    prologue_operands=(z_sp_h, z_dn_h, labels_h),
                    epilogue=sgd_epilogue,
                    epilogue_operands=(z_dn_h,),
                )
                z_sp_h, z_dn_h = mult.extra
                z_nnz = z_sp_h.nnz

            diag = mult.diagnostics
            result.epochs.append(
                EmbeddingEpoch(
                    epoch=epoch,
                    runtime=mult.multiply_time,
                    comm_bytes=mult.comm_bytes(),
                    remote_tiles=int(diag.get("remote_tiles", 0)),
                    local_tiles=int(diag.get("local_tiles", 0)),
                    z_nnz=z_nnz,
                    driver_scatter_bytes=int(
                        diag.get("driver_scatter_bytes", 0)
                    ),
                    driver_gather_bytes=int(diag.get("driver_gather_bytes", 0)),
                    rounds=mult.rounds,
                    retries=int(diag.get("retries", 0)),
                    recoveries=int(diag.get("recoveries", 0)),
                    shrinks=int(diag.get("shrinks", 0)),
                )
            )
        if z_sp_h is not None:
            z_sparse = z_sp_h.gather()  # the one gather that ends the chain
    finally:
        if session is not None:
            session.close()

    result.Z = z_sparse
    result.accuracy = link_prediction_accuracy(
        z_sparse, pos_u[test_mask], pos_v[test_mask], rng=rng
    )
    return result


def embedding_rows(Z, vertices: np.ndarray) -> np.ndarray:
    """Dense embedding vectors for a batch of ``vertices``.

    The serving tier's embedding-lookup primitive: the service holds a
    trained (gathered) embedding — sparse :class:`CsrMatrix` or dense
    array — and a lookup query is a pure row extraction, so any grouping
    of lookups returns bit-identical per-vertex rows.  Out-of-range
    vertex ids raise rather than wrap.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    n = Z.nrows if isinstance(Z, CsrMatrix) else np.asarray(Z).shape[0]
    if vertices.size and (vertices.min() < 0 or vertices.max() >= n):
        raise ValueError(
            f"vertex ids must be in [0, {n}), got range "
            f"[{vertices.min()}, {vertices.max()}]"
        )
    if isinstance(Z, CsrMatrix):
        return extract_rows(Z, vertices).to_dense()
    return np.asarray(Z)[vertices].copy()


def link_prediction_accuracy(
    Z: CsrMatrix,
    test_u: np.ndarray,
    test_v: np.ndarray,
    *,
    rng: Optional[np.random.Generator] = None,
    n_negative: Optional[int] = None,
) -> float:
    """AUC-style link-prediction accuracy of an embedding.

    Scores pairs by ``σ(z_u·z_v)`` and reports the probability that a
    held-out edge outranks a random non-edge (the ranking accuracy
    Force2Vec's evaluation uses).  Returns 0.5 for an uninformative
    embedding.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if len(test_u) == 0:
        return 0.5
    z = Z.to_dense()
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    z = z / norms
    n = Z.nrows
    k = n_negative if n_negative is not None else len(test_u)
    neg_u = rng.integers(0, n, k)
    neg_v = rng.integers(0, n, k)
    pos_scores = np.einsum("ij,ij->i", z[test_u], z[test_v])
    neg_scores = np.einsum("ij,ij->i", z[neg_u], z[neg_v])
    # probability a positive outranks a negative (sampled pairing)
    wins = (pos_scores[:, None] > neg_scores[None, :]).mean()
    ties = (pos_scores[:, None] == neg_scores[None, :]).mean()
    return float(wins + 0.5 * ties)
