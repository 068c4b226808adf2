"""Algorithm 3: distributed multi-source BFS on the (∧, ∨) semiring.

``d`` concurrent BFS traversals are carried as a tall-and-skinny boolean
frontier matrix ``F ∈ B^{n×d}`` (column ``j`` = frontier of source ``j``);
each level is one TS-SpGEMM ``N = A ⊗ F``, after which already-visited
vertices are removed (``F ← N \\ S``) and the visited set updated
(``S ← S ∨ N``).  For scale-free graphs the frontier density spikes for a
few levels and then thins out (Fig 12a) — which is why this application is
"an excellent testing ground" for TS-SpGEMM: the same loop can be driven
by any registered multiply (Fig 12d compares against 2-D SUMMA).

With a handle-capable resident session (``TS-SpGEMM``, the default) the
whole traversal stays **on-rank end-to-end**: the initial frontier is
scattered once, every level chains the multiply's
:class:`~repro.partition.distmat.DistHandle` output into the next level's
operand, and the frontier update runs inside the rank program as local
pattern ops (it is row-partitioned — zero communication), exactly like
the paper's Alg 3.  The visited set is gathered once, after the loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

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
    of touching the newly reached block is charged.
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
) -> BfsResult:
    """Run multi-source BFS from ``sources`` on ``p`` simulated ranks.

    ``A`` must contain an entry ``(v, u)`` for every traversable edge
    ``u → v`` (for the symmetric graphs of the evaluation this is just the
    adjacency matrix).  ``algorithm`` is any registry name — the paper's
    Fig 12(d) runs the same loop over 2-D SUMMA for comparison.

    ``A`` is distributed and plan-prepared **once**, in the algorithm's
    resident session.  A handle-capable session (``TS-SpGEMM``'s) keeps
    the whole iteration on-rank: the frontier is scattered once, every
    level chains the multiply's
    :class:`~repro.partition.distmat.DistHandle` into the next level's
    operand, the frontier update runs rank-locally, and the visited set
    is gathered once at the end — zero per-level driver traffic.  The
    SUMMA sessions multiply a driver-held frontier per level; PETSc-1D,
    which has no session, launches one full simulated job per level.
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    sources = np.asarray(sources, dtype=np.int64)
    multiply = get_algorithm(algorithm)
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    session = make_session(
        algorithm, a_bool, p, semiring=BOOL_AND_OR, machine=machine, config=config
    )
    if session is None:
        return _msbfs_driver_loop(
            A.nrows, sources, max_levels,
            lambda frontier: multiply(
                a_bool, frontier, p, semiring=BOOL_AND_OR, machine=machine,
                config=config,
            ),
        )
    with session:
        # Dispatch on the registry session contract's capability flag,
        # not the concrete class, so third-party handle-capable sessions
        # ride the resident path too.
        if getattr(session, "supports_handles", False):
            return _msbfs_handles(sources, session, max_levels)
        return _msbfs_driver_loop(A.nrows, sources, max_levels, session.multiply)


def _level(level: int, entering_nnz: int, discovered_nnz: int, mult) -> BfsIteration:
    """One level's :class:`BfsIteration`, read off its multiply's result."""
    diagnostics = getattr(mult, "diagnostics", {}) or {}
    return BfsIteration(
        iteration=level,
        frontier_nnz=entering_nnz,
        discovered_nnz=discovered_nnz,
        comm_bytes=mult.comm_bytes(),
        comm_nnz=int(
            diagnostics.get("sent_b_nnz", 0) + diagnostics.get("sent_c_nnz", 0)
        ),
        runtime=mult.multiply_time,
        comm_time=mult.comm_time,
        driver_scatter_bytes=int(diagnostics.get("driver_scatter_bytes", 0)),
        driver_gather_bytes=int(diagnostics.get("driver_gather_bytes", 0)),
        rounds=mult.report.alltoall_rounds(),
        retries=int(diagnostics.get("retries", 0)),
        recoveries=int(diagnostics.get("recoveries", 0)),
        shrinks=int(diagnostics.get("shrinks", 0)),
    )


def _msbfs_driver_loop(
    n: int, sources: np.ndarray, max_levels: Optional[int], multiply: Callable
) -> BfsResult:
    """The driver loop: ``multiply(frontier)`` returns each level's
    product on the driver, which performs the frontier update."""
    frontier = bfs_frontier(n, sources)
    visited = frontier
    result = BfsResult(visited=visited)
    level = 0
    while frontier.nnz > 0:
        if max_levels is not None and level >= max_levels:
            break
        entering_nnz = frontier.nnz
        mult = multiply(frontier)
        # F <- N \ S, S <- S v N
        frontier, visited = difference_and_union(mult.C, visited, BOOL_AND_OR)
        result.iterations.append(_level(level, entering_nnz, frontier.nnz, mult))
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

    The entry point for callers that own a session — the serving tier
    (:mod:`repro.serve`) and influence maximization's derived per-sample
    sessions: a :class:`~repro.core.driver.TsSession` already holds the
    distributed boolean graph and its multiply plan, so a traversal needs
    only the source batch — many users' independent BFS queries
    concatenate into one ``sources`` array and come back as independent
    columns of the visited matrix (the (∧,∨) semiring never mixes
    columns, so each query's answer is bit-identical however the batcher
    groups them).  ``reports`` (optional list) receives each level's
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
    exactly zero, matching the real system's Alg 3 (and, byte for byte,
    the single-program reference ``single_program_msbfs`` in
    ``benchmarks/_oracles.py``).
    """
    frontier = session.scatter(bfs_frontier(session.ncols, sources))
    visited = frontier
    result = BfsResult(visited=None)
    level = 0
    while frontier.nnz > 0:
        if max_levels is not None and level >= max_levels:
            break
        entering_nnz = frontier.nnz
        # One rank program per level: multiply + fused frontier update
        # (the paper's Alg 3 loop body); multiply_time includes the update.
        mult = session.multiply(
            frontier,
            gather=False,
            epilogue=_frontier_update,
            epilogue_operands=(visited,),
        )
        frontier, visited = mult.extra
        if reports is not None:
            reports.append(mult.report)
        result.iterations.append(_level(level, entering_nnz, frontier.nnz, mult))
        level += 1
    result.visited = visited.gather()
    return result

