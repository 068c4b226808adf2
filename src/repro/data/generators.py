"""Synthetic workload generators.

The paper evaluates on SNAP/SuiteSparse web crawls (Table V) plus an
Erdős–Rényi matrix and uniformly random tall-and-skinny ``B`` matrices.
The crawls are multi-hundred-GB downloads unavailable offline, so the
dataset registry (:mod:`repro.data.datasets`) maps each one to a generator
here with matched *degree statistics*: Erdős–Rényi for the ER row of
Table V and RMAT (Graph500-style recursive) for the scale-free crawls —
degree skew is what drives the algorithmic behaviour the paper studies
(dense rows → remote tiles, 1-D load imbalance).

All generators are deterministic given a seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..sparse.build import coo_to_csr, random_csr
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.semiring import Semiring


#: Collapses a generator's duplicate edges to one unit entry.
_DEDUP = Semiring("dedup_max", np.maximum, np.multiply, 0.0, np.dtype(np.float64))

#: Graph500's RMAT quadrant probabilities (the fourth is ``1 - a - b - c``).
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19


def erdos_renyi(
    n: int,
    avg_degree: float,
    *,
    seed: int = 0,
) -> CsrMatrix:
    """Symmetric Erdős–Rényi adjacency matrix with ``avg_degree`` nonzeros
    per row.

    The paper's ER dataset is n=40M, k=8; scale ``n`` down and keep ``k``.
    """
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    src = rng.integers(0, n, m, dtype=INDEX_DTYPE)
    dst = rng.integers(0, n, m, dtype=INDEX_DTYPE)
    keep = src != dst  # no self-loops
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return coo_to_csr(src, dst, np.ones(len(src)), (n, n), _DEDUP)


def rmat(
    n: int,
    avg_degree: float,
    *,
    seed: int = 0,
) -> CsrMatrix:
    """Symmetric RMAT (recursive-matrix) scale-free graph, Graph500
    parameters.

    Produces the heavy-tailed degree distribution of web crawls: a few
    near-dense rows (hubs) and many sparse ones — the regime where the
    paper's remote tiles and 1-D load imbalance matter.  ``n`` is rounded
    up to a power of two internally and truncated back.
    """
    rng = np.random.default_rng(seed)
    levels = max(int(np.ceil(np.log2(max(n, 2)))), 1)
    size = 1 << levels
    m = int(n * avg_degree / 2)
    src = np.zeros(m, dtype=INDEX_DTYPE)
    dst = np.zeros(m, dtype=INDEX_DTYPE)
    # Vectorized recursive descent: one quadrant draw per level for all
    # edges at once.
    probs = np.array([RMAT_A, RMAT_B, RMAT_C, 1.0 - RMAT_A - RMAT_B - RMAT_C])
    cum = np.cumsum(probs)
    for level in range(levels):
        bit = 1 << (levels - 1 - level)
        draw = rng.random(m)
        quadrant = np.searchsorted(cum, draw)
        src += bit * (quadrant >= 2)
        dst += bit * ((quadrant == 1) | (quadrant == 3))
    # Map down into [0, n) and drop self-loops.
    src %= n
    dst %= n
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return coo_to_csr(src, dst, np.ones(len(src)), (n, n), _DEDUP)


def planted_partition(
    n: int,
    n_communities: int,
    *,
    p_in: float = 0.15,
    p_out: float = 0.005,
    seed: int = 0,
) -> Tuple[CsrMatrix, np.ndarray]:
    """Planted-partition graph for the embedding study.

    Returns ``(adjacency, community labels)``.  Community structure makes
    link prediction learnable, standing in for cora/citeseer/pubmed
    (DESIGN.md §2); edges are denser within communities (``p_in``) than
    across (``p_out``).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_communities, n)
    # Expected edges: sample Bernoulli per pair via sparse trick — draw
    # candidate pairs proportional to the two densities.
    m_in = int(p_in * n * n / n_communities / 2)
    m_out = int(p_out * n * n * (1 - 1 / n_communities) / 2)
    src_parts, dst_parts = [], []
    # intra-community edges: pick a community, two members
    if m_in > 0:
        comm_of = [np.flatnonzero(labels == c) for c in range(n_communities)]
        sizes = np.array([len(c) for c in comm_of])
        valid = sizes >= 2
        if valid.any():
            comm_draw = rng.choice(
                np.flatnonzero(valid), size=m_in, p=sizes[valid] / sizes[valid].sum()
            )
            for c in np.unique(comm_draw):
                members = comm_of[c]
                count = int((comm_draw == c).sum())
                src_parts.append(rng.choice(members, count))
                dst_parts.append(rng.choice(members, count))
    if m_out > 0:
        src_parts.append(rng.integers(0, n, m_out))
        dst_parts.append(rng.integers(0, n, m_out))
    src = np.concatenate(src_parts) if src_parts else np.zeros(0, dtype=INDEX_DTYPE)
    dst = np.concatenate(dst_parts) if dst_parts else np.zeros(0, dtype=INDEX_DTYPE)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    adj = coo_to_csr(src, dst, np.ones(len(src)), (n, n), _DEDUP)
    return adj, labels


def tall_skinny(
    n: int,
    d: int,
    sparsity: float,
    *,
    seed: int = 0,
) -> CsrMatrix:
    """Uniformly random tall-and-skinny ``B`` with ``sparsity`` fraction zero.

    Matches the paper's convention: "B with s% sparsity means s% entries
    in each row of B are zero" (§V-A).
    """
    if not (0.0 <= sparsity <= 1.0):
        raise ValueError("sparsity must be in [0, 1]")
    rng = np.random.default_rng(seed)
    nnz_per_row = d * (1.0 - sparsity)
    return random_csr(n, d, nnz_per_row=nnz_per_row, rng=rng)


def bfs_frontier(
    n: int,
    sources: np.ndarray,
) -> CsrMatrix:
    """Initial multi-source BFS frontier: column ``j`` holds source ``j``.

    ``F ∈ B^{n×d}`` with exactly one nonzero per column (Alg 3 line 2).
    """
    sources = np.asarray(sources, dtype=INDEX_DTYPE)
    d = len(sources)
    if d and (sources.min() < 0 or sources.max() >= n):
        raise ValueError("source vertex out of range")
    cols = np.arange(d, dtype=INDEX_DTYPE)
    order = np.argsort(sources, kind="stable")
    sr = Semiring("dedup_or", np.logical_or, np.logical_and, False, np.dtype(np.bool_))
    return coo_to_csr(
        sources[order], cols[order], np.ones(d, dtype=np.bool_), (n, d), sr,
        assume_sorted=False,
    )


def random_sources(n: int, d: int, *, seed: int = 0) -> np.ndarray:
    """``d`` distinct random BFS source vertices."""
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=min(d, n), replace=False).astype(INDEX_DTYPE)
