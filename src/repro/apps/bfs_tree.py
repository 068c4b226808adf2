"""Multi-source BFS with parent-tree reconstruction ((sel2nd, min)).

§IV-A: single- and multi-source BFS run on the ``(∧, ∨)`` semiring, "or a
(sel2nd, min) semiring when the reconstruction of the BFS tree is
desired".  This module implements that variant: the frontier matrix
carries *parent vertex ids* (1-based, so the semiring zero ``+inf`` never
collides), the multiply ``A ⊗ F`` over ``(sel2nd, min)`` hands every newly
reached vertex the id of one frontier parent (ties resolved by ``min``,
making the result deterministic), and the per-column union of levels
yields a BFS forest.

``sel2nd(a, b)`` selects the B-side operand, so the adjacency values are
irrelevant — only its pattern steers which frontier parent ids reach
which vertices, and ``min`` picks the smallest candidate parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.driver import ts_spgemm
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..sparse.build import coo_to_csr
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.ops import ewise_add, pattern_difference
from ..sparse.semiring import SEL2ND_MIN


@dataclass
class BfsTreeResult:
    """BFS forest for ``d`` sources.

    ``parents`` is an ``n×d`` CSR whose entry ``(v, j)`` is the 1-based id
    of ``v``'s parent in the BFS tree rooted at source ``j`` (the source
    itself stores its own id).  ``levels[v, j]`` (dense, −1 = unreached)
    is the BFS depth.
    """

    parents: CsrMatrix
    levels: np.ndarray
    iterations: int = 0

    def parent_of(self, vertex: int, source_index: int) -> Optional[int]:
        """0-based parent of ``vertex`` in tree ``source_index`` (None if
        unreached)."""
        cols, vals = self.parents.row(vertex)
        hit = np.flatnonzero(cols == source_index)
        if len(hit) == 0:
            return None
        return int(vals[hit[0]]) - 1


def msbfs_tree(
    A: CsrMatrix,
    sources: np.ndarray,
    p: int,
    *,
    machine: MachineProfile = PERLMUTTER,
) -> BfsTreeResult:
    """Multi-source BFS building parent trees via ``(sel2nd, min)``.

    ``A`` must contain an entry ``(v, u)`` for every traversable edge
    ``u → v`` (symmetric adjacency for undirected graphs).  Each level is
    one TS-SpGEMM over :data:`~repro.sparse.semiring.SEL2ND_MIN`: the
    product entry ``(v, j)`` is ``min over frontier parents u`` of the
    value ``F(u, j)`` — i.e. the smallest 1-based *parent id* among ``v``'s
    frontier in-neighbours, because the frontier stores ``u+1`` at
    ``(u, j)``.
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    n = A.nrows
    sources = np.asarray(sources, dtype=INDEX_DTYPE)
    d = len(sources)
    a_ones = A if A.dtype == np.float64 else A.astype(np.float64)

    # Frontier: F(u, j) = u + 1 for the current frontier of source j.
    order = np.argsort(sources, kind="stable")
    frontier = coo_to_csr(
        sources[order],
        np.arange(d, dtype=INDEX_DTYPE)[order],
        (sources[order] + 1).astype(np.float64),
        (n, d),
        SEL2ND_MIN,
    )
    parents = frontier  # sources are their own parents
    levels = np.full((n, d), -1, dtype=np.int64)
    levels[sources, np.arange(d)] = 0

    level = 0
    while frontier.nnz > 0:
        product = ts_spgemm(
            a_ones, frontier, p, semiring=SEL2ND_MIN, machine=machine
        ).C
        fresh = pattern_difference(product, parents)
        if fresh.nnz:
            levels[fresh.row_ids(), fresh.indices] = level + 1
        parents = ewise_add(parents, fresh, SEL2ND_MIN)
        # Next frontier advertises the newly reached vertices' own ids.
        counts = fresh.row_nnz()
        frontier = CsrMatrix(
            fresh.shape,
            fresh.indptr,
            fresh.indices,
            (np.repeat(np.arange(n, dtype=np.float64), counts) + 1.0),
            check=False,
        )
        level += 1

    return BfsTreeResult(parents=parents, levels=levels, iterations=level)


def validate_forest(A: CsrMatrix, sources: np.ndarray, result: BfsTreeResult) -> bool:
    """Check the BFS-forest invariants (used by tests and examples).

    For every reached (vertex, tree): the parent is reached in the same
    tree, sits exactly one level above, and the edge parent→vertex exists;
    sources are their own parents at level 0.
    """
    sources = np.asarray(sources, dtype=INDEX_DTYPE)
    adj = A.to_scipy().tocsr()
    for j, s in enumerate(sources):
        if result.levels[s, j] != 0:
            return False
        if result.parent_of(int(s), j) != int(s):
            return False
    rows = result.parents.row_ids()
    for v, j, val in zip(rows, result.parents.indices, result.parents.data):
        parent = int(val) - 1
        lv = result.levels[v, j]
        if v == sources[j]:
            continue
        if result.levels[parent, j] != lv - 1:
            return False
        # edge parent -> v must exist: A(v, parent) != 0
        row_cols = adj.indices[adj.indptr[v] : adj.indptr[v + 1]]
        if parent not in row_cols:
            return False
    return True
