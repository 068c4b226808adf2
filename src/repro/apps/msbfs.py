"""Algorithm 3: distributed multi-source BFS on the (∧, ∨) semiring.

``d`` concurrent BFS traversals are carried as a tall-and-skinny boolean
frontier matrix ``F ∈ B^{n×d}`` (column ``j`` = frontier of source ``j``);
each level is one TS-SpGEMM ``N = A ⊗ F``, after which already-visited
vertices are removed (``F ← N \\ S``) and the visited set updated
(``S ← S ∨ N``).  For scale-free graphs the frontier density spikes for a
few levels and then thins out (Fig 12a) — which is why this application is
"an excellent testing ground" for TS-SpGEMM: the same loop can be driven
by any registered multiply (Fig 12d compares against 2-D SUMMA).

With a handle-capable resident session (the TS algorithms, default) the
whole traversal stays **on-rank end-to-end**: the initial frontier is
scattered once, every level chains the multiply's
:class:`~repro.partition.distmat.DistHandle` output into the next level's
operand, and the frontier update runs inside the rank program as local
pattern ops (it is row-partitioned — zero communication), exactly like
the paper's Alg 3.  The visited set is gathered once, after the loop.
``driver_gather=True`` forces the historical driver round-trip per level
(B scatter + C gather, now honestly charged) for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..baselines.registry import get_algorithm, make_session
from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import TsSession
from ..data.generators import bfs_frontier
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..sparse.csr import CsrMatrix
from ..sparse.ops import difference_and_union
from ..sparse.semiring import BOOL_AND_OR


@dataclass
class BfsIteration:
    """Measurements for one BFS level (the series of Fig 12)."""

    iteration: int
    frontier_nnz: int  # nnz(F) entering this level
    discovered_nnz: int  # nnz of newly visited vertices
    comm_bytes: int
    comm_nnz: int  # communicated nonzeros (B rows + C partials)
    runtime: float  # modelled seconds of this level's multiply
    comm_time: float
    #: Driver-side traffic of this level (B scatter / C gather); zero on
    #: the resident-handle path — the quantity Fig 12's loop never pays.
    driver_scatter_bytes: int = 0
    driver_gather_bytes: int = 0
    #: All-to-all exchanges this level performed — the α·rounds term
    #: ``fuse_comm`` collapses to one fused exchange per multiply.
    rounds: int = 0
    #: Resilience trace (recoverable sessions only, docs/resilience.md):
    #: how many times this level's multiply was retried after an injected
    #: fault, how many rank recoveries those retries performed, and how
    #: many elastic shrinks (permanent rank losses survived at p-1).
    retries: int = 0
    recoveries: int = 0
    shrinks: int = 0


@dataclass
class BfsResult:
    """Outcome of a multi-source BFS run."""

    visited: CsrMatrix  # S: column j = vertices reachable from source j
    iterations: List[BfsIteration] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(it.runtime for it in self.iterations)

    @property
    def levels(self) -> int:
        return len(self.iterations)

    def reachable_counts(self) -> np.ndarray:
        """Vertices reached per source (column nnz of the visited set)."""
        return np.bincount(self.visited.indices, minlength=self.visited.ncols)


def _frontier_update(comm, reached: CsrMatrix, visited: CsrMatrix):
    """Rank-local Alg 3 frontier update: ``F ← N \\ S``, ``S ← S ∨ N``.

    Row-partitioned, so it needs zero communication; the streaming cost
    of touching the newly reached block is charged, matching
    :func:`msbfs_spmd`'s accounting.
    """
    with comm.phase("frontier-update"):
        frontier, new_visited = difference_and_union(reached, visited, BOOL_AND_OR)
        comm.charge_touch(reached.nbytes_estimate())
    return frontier, new_visited


def msbfs(
    A: CsrMatrix,
    sources: np.ndarray,
    p: int,
    *,
    algorithm: str = "TS-SpGEMM",
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
    max_levels: Optional[int] = None,
    driver_gather: bool = False,
    session=None,
) -> BfsResult:
    """Run multi-source BFS from ``sources`` on ``p`` simulated ranks.

    ``A`` must contain an entry ``(v, u)`` for every traversable edge
    ``u → v`` (for the symmetric graphs of the evaluation this is just the
    adjacency matrix).  ``algorithm`` is any registry name — the paper's
    Fig 12(d) runs the same loop over 2-D SUMMA for comparison.

    With ``config.reuse_plan`` (the default) and an algorithm that offers
    a resident session, ``A`` is distributed and plan-prepared **once**.
    Handle-capable sessions (the TS algorithms) additionally keep the
    whole iteration on-rank: the frontier is scattered once, every level
    chains the multiply's :class:`~repro.partition.distmat.DistHandle`
    into the next level's operand, the frontier update runs rank-locally,
    and the visited set is gathered once at the end — zero per-level
    driver traffic.  ``driver_gather=True`` forces the historical
    round-trip loop (per-level B scatter / C gather, charged) for
    ablation.  Baselines without a session — and ``--reuse-plan off``
    runs — launch one full simulated job per level, as before.

    ``session`` injects a pre-built resident session for ``A`` (used by
    influence maximization's derived per-sample sessions); the caller
    keeps ownership, otherwise the session created here is closed before
    returning.
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    sources = np.asarray(sources, dtype=np.int64)
    multiply = get_algorithm(algorithm)
    owns_session = False
    if session is None and config.reuse_plan:
        a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
        session = make_session(
            algorithm, a_bool, p, semiring=BOOL_AND_OR, machine=machine, config=config
        )
        owns_session = session is not None
    try:
        # Dispatch on the registry session contract's capability flag,
        # not the concrete class, so third-party handle-capable sessions
        # ride the resident path too.
        handle_capable = bool(getattr(session, "supports_handles", False))
        if driver_gather and not handle_capable:
            raise ValueError(
                "driver_gather=True ablates a handle-capable resident "
                "session (the TS algorithms with reuse_plan on); the "
                "per-call and baseline paths already round-trip through "
                "the driver, so the ablation would be a silent no-op"
            )
        if handle_capable and not driver_gather:
            return _msbfs_handles(sources, session, max_levels)
        # The per-call fallback is the only path that multiplies against
        # A directly; sessions already hold their own boolean operand.
        a_bool = None
        if session is None:
            a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
        return _msbfs_driver_loop(
            A.nrows, a_bool, sources, p, multiply, session, config, machine,
            max_levels, charge_driver=handle_capable,
        )
    finally:
        if owns_session:
            session.close()


def _msbfs_driver_loop(
    n, a_bool, sources, p, multiply, session, config, machine, max_levels,
    charge_driver=False,
) -> BfsResult:
    """The historical loop: every level's ``B`` and ``C`` round-trip
    through the driver, which also performs the frontier update.

    ``charge_driver`` (the TS sessions' ``driver_gather=True`` ablation)
    puts that round-trip on the virtual clocks so the handle path's
    saving is measurable; baselines and the per-call fallback keep the
    free pre-distributed accounting.
    """
    frontier = bfs_frontier(n, sources)
    visited = frontier
    result = BfsResult(visited=visited)
    level = 0
    while frontier.nnz > 0:
        if max_levels is not None and level >= max_levels:
            break
        entering_nnz = frontier.nnz
        if charge_driver:
            # handle-capable session ablated with driver_gather=True:
            # price the per-level round-trip it would otherwise avoid
            mult = session.multiply(frontier, charge_driver=True)
        elif session is not None:
            mult = session.multiply(frontier)
        else:
            mult = multiply(
                a_bool, frontier, p, semiring=BOOL_AND_OR, machine=machine,
                config=config,
            )
        reached = mult.C
        # F <- N \ S, S <- S v N
        frontier, visited = difference_and_union(reached, visited, BOOL_AND_OR)
        diagnostics = getattr(mult, "diagnostics", {}) or {}
        comm_nnz = int(
            diagnostics.get("sent_b_nnz", 0) + diagnostics.get("sent_c_nnz", 0)
        )
        result.iterations.append(
            BfsIteration(
                iteration=level,
                frontier_nnz=entering_nnz,
                discovered_nnz=frontier.nnz,
                comm_bytes=mult.comm_bytes(),
                comm_nnz=comm_nnz,
                runtime=mult.multiply_time,
                comm_time=mult.comm_time,
                driver_scatter_bytes=int(
                    diagnostics.get("driver_scatter_bytes", 0)
                ),
                driver_gather_bytes=int(
                    diagnostics.get("driver_gather_bytes", 0)
                ),
                rounds=mult.report.alltoall_rounds(),
                retries=int(diagnostics.get("retries", 0)),
                recoveries=int(diagnostics.get("recoveries", 0)),
                shrinks=int(diagnostics.get("shrinks", 0)),
            )
        )
        level += 1
    result.visited = visited
    return result


def msbfs_on_session(
    session: TsSession,
    sources: np.ndarray,
    *,
    max_levels: Optional[int] = None,
    reports: Optional[list] = None,
) -> BfsResult:
    """Multi-source BFS directly on a prepared resident session.

    The serving tier's entry point (:mod:`repro.serve`): a
    :class:`~repro.core.driver.TsSession` already holds the distributed
    boolean graph and its multiply plan, so a traversal needs only the
    source batch — many users' independent BFS queries concatenate into
    one ``sources`` array and come back as independent columns of the
    visited matrix (the (∧,∨) semiring never mixes columns, so each
    query's answer is bit-identical however the batcher groups them).
    ``reports`` (optional list) receives each level's
    :class:`~repro.mpi.stats.SpmdReport` for the caller to fold with
    :func:`~repro.mpi.stats.merge_reports`.
    """
    if not getattr(session, "supports_handles", False):
        raise ValueError(
            "msbfs_on_session needs a handle-capable resident session"
        )
    sources = np.asarray(sources, dtype=np.int64)
    return _msbfs_handles(sources, session, max_levels, reports=reports)


def _msbfs_handles(
    sources: np.ndarray, session: TsSession,
    max_levels: Optional[int], reports: Optional[list] = None,
) -> BfsResult:
    """The resident-handle loop: scatter once, chain on-rank, gather once.

    Every level's multiply consumes and produces rank-resident
    :class:`~repro.partition.distmat.DistHandle`\\ s and the frontier
    update runs inside the rank program — per-level driver traffic is
    exactly zero, matching the real system's Alg 3 (and
    :func:`msbfs_spmd`'s per-level trace byte-for-byte).
    """
    frontier = session.scatter(bfs_frontier(session.ncols, sources))
    visited = frontier
    result = BfsResult(visited=None)
    level = 0
    while frontier.nnz > 0:
        if max_levels is not None and level >= max_levels:
            break
        entering_nnz = frontier.nnz
        # One rank program per level: multiply + fused frontier update,
        # exactly the loop body of msbfs_spmd (and the paper's Alg 3).
        mult = session.multiply(
            frontier,
            gather=False,
            epilogue=_frontier_update,
            epilogue_operands=(visited,),
        )
        frontier, visited = mult.extra
        if reports is not None:
            reports.append(mult.report)
        diagnostics = mult.diagnostics
        comm_nnz = int(
            diagnostics.get("sent_b_nnz", 0) + diagnostics.get("sent_c_nnz", 0)
        )
        result.iterations.append(
            BfsIteration(
                iteration=level,
                frontier_nnz=entering_nnz,
                discovered_nnz=frontier.nnz,
                comm_bytes=mult.comm_bytes(),
                comm_nnz=comm_nnz,
                # multiply_time includes the fused rank-local frontier
                # update, as in msbfs_spmd's per-level windows.
                runtime=mult.multiply_time,
                comm_time=mult.comm_time,
                rounds=mult.rounds,
                retries=int(diagnostics.get("retries", 0)),
                recoveries=int(diagnostics.get("recoveries", 0)),
                shrinks=int(diagnostics.get("shrinks", 0)),
            )
        )
        level += 1
    result.visited = visited.gather()
    return result


def msbfs_spmd(
    A: CsrMatrix,
    sources: np.ndarray,
    p: int,
    *,
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
    max_levels: Optional[int] = None,
) -> BfsResult:
    """Multi-source BFS as a *single resident SPMD program*.

    Unlike :func:`msbfs` (which launches one simulated job per level so it
    can swap in baseline multiplies), this variant keeps everything
    distributed for the whole traversal: the ``Ac`` column copy *and* the
    B-independent multiply plan (:class:`~repro.core.plan.PreparedA`) are
    built **once** and amortized over every level — the reason the
    paper's data structure pays off in iterative applications — and the
    frontier update ``F ← N \\ S``, visited update and the global
    termination test (an allreduce of ``nnz(F)``) all run rank-locally
    between multiplies.  ``config.reuse_plan=False`` keeps ``Ac``
    resident but re-plans every level (the ``--reuse-plan off``
    ablation).

    Per-level ``comm_bytes``/``comm_time`` are measured as deltas of each
    rank's communication counters around the level's multiply, so the
    :class:`BfsIteration` trace decomposes the same way as the
    registry-path trace (bytes summed over ranks, times max over ranks).
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    sources = np.asarray(sources, dtype=np.int64)
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    f_global = bfs_frontier(A.nrows, sources)

    from ..core.plan import prepare_multiply
    from ..core.tiled import tiled_multiply
    from ..mpi.executor import run_spmd
    from ..partition.distmat import DistSparseMatrix

    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a_bool)
        dist_a.build_column_copy()
        prepared = prepare_multiply(dist_a, config) if config.reuse_plan else None
        dist_f = DistSparseMatrix.scatter_rows(comm, f_global)
        visited = dist_f.local
        frontier = dist_f.local
        trace = []
        level = 0
        while True:
            with comm.phase("frontier-sync"):
                frontier_nnz = comm.allreduce(frontier.nnz)
            if frontier_nnz == 0:
                break
            if max_levels is not None and level >= max_levels:
                break
            t0 = comm.time
            totals0 = comm.stats.totals()
            bytes0, comm_t0 = totals0.bytes_sent, totals0.comm_time
            dist_f = DistSparseMatrix(comm, dist_a.rows, frontier, f_global.ncols)
            dist_n, diag = tiled_multiply(
                dist_a, dist_f, BOOL_AND_OR, config, prepared=prepared
            )
            frontier, visited = _frontier_update(comm, dist_n.local, visited)
            totals1 = comm.stats.totals()
            trace.append(
                (
                    level,
                    frontier_nnz,
                    frontier.nnz,
                    diag.sent_b_nnz + diag.sent_c_nnz,
                    comm.time - t0,
                    totals1.bytes_sent - bytes0,
                    totals1.comm_time - comm_t0,
                    totals1.alltoall_rounds - totals0.alltoall_rounds,
                )
            )
            level += 1
        return visited, trace

    result = run_spmd(
        p, program, machine=machine, sanitize=config.sanitize or None
    )
    from ..partition.distmat import _vstack_blocks

    visited = _vstack_blocks([v[0] for v in result.values], f_global.ncols)
    out = BfsResult(visited=visited)
    # Aggregate per-level traces across ranks (sum counters, max times).
    n_levels = max(len(v[1]) for v in result.values)
    for lvl in range(n_levels):
        entries = [v[1][lvl] for v in result.values if lvl < len(v[1])]
        out.iterations.append(
            BfsIteration(
                iteration=lvl,
                frontier_nnz=entries[0][1],
                discovered_nnz=sum(e[2] for e in entries),
                comm_bytes=sum(e[5] for e in entries),
                comm_nnz=sum(e[3] for e in entries),
                runtime=max(e[4] for e in entries),
                comm_time=max(e[6] for e in entries),
                rounds=max(e[7] for e in entries),
            )
        )
    return out


def reference_reachability(A: CsrMatrix, sources: np.ndarray) -> CsrMatrix:
    """Serial reachability reference (BFS per source over the CSR graph).

    Used by tests to validate the distributed loop; O(d · (n + m)).
    """
    n = A.nrows
    sources = np.asarray(sources, dtype=np.int64)
    rows_out, cols_out = [], []
    indptr, indices = A.indptr, A.indices
    for j, s in enumerate(sources):
        seen = np.zeros(n, dtype=bool)
        seen[s] = True
        stack = [int(s)]
        while stack:
            u = stack.pop()
            # follow entries (v <- u): for symmetric A the row works; in
            # general A[v, u] != 0 means edge u -> v, so we traverse rows
            # of A^T — callers pass symmetric graphs in the tests.
            neighbors = indices[indptr[u] : indptr[u + 1]]
            for v in neighbors:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        reach = np.flatnonzero(seen)
        rows_out.append(reach)
        cols_out.append(np.full(len(reach), j, dtype=np.int64))
    from ..sparse.build import coo_to_csr
    from ..sparse.semiring import Semiring

    sr = Semiring("dedup_or", np.logical_or, np.logical_and, False, np.dtype(np.bool_))
    return coo_to_csr(
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.ones(sum(len(r) for r in rows_out), dtype=np.bool_),
        (n, len(sources)),
        sr,
    )
