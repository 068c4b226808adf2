"""Influence maximization via Monte-Carlo multi-source BFS (§I, [12]).

The paper motivates TS-SpGEMM with influence-maximization calculations
"central to" multi-source BFS.  This module implements the classic greedy
algorithm for the Independent Cascade (IC) model with Monte-Carlo spread
estimation, where the expensive primitive is exactly a batch of
reachability computations:

1. sample ``R`` *live-edge* graphs (every edge kept independently with the
   propagation probability);
2. for each sample, one **multi-source BFS** computes the reachable set of
   every candidate seed — a boolean TS-SpGEMM sequence with d = number of
   candidates;
3. greedy selection then maximizes the estimated marginal spread
   ``E[|union of reached sets|]`` using only the precomputed reachability
   columns (1963 Kempe-Kleinberg-Tardos greedy gives the usual (1−1/e)
   guarantee in expectation).

Candidates default to the highest-degree vertices — the standard pruning
for scale-free graphs, where hubs dominate influence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import TsSession
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.semiring import BOOL_AND_OR
from .msbfs import msbfs_on_session


@dataclass
class InfluenceResult:
    """Greedy seed set and its estimated spread."""

    seeds: List[int]
    spread_estimates: List[float]  # cumulative E[spread] after each seed
    candidates: np.ndarray
    samples: int
    total_runtime: float

    @property
    def spread(self) -> float:
        return self.spread_estimates[-1] if self.spread_estimates else 0.0


def sample_keep_mask(
    A: CsrMatrix, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one IC live-edge mask: keep each edge w.p. ``probability``."""
    if not (0.0 <= probability <= 1.0):
        raise ValueError("probability must be in [0, 1]")
    return rng.random(A.nnz) < probability


def sample_rng(seed: int, sample: int) -> np.random.Generator:
    """Independent generator for Monte-Carlo ``sample`` of base ``seed``.

    Derived through :class:`numpy.random.SeedSequence` spawn keys, so the
    stream for sample ``r`` depends only on ``(seed, r)`` — never on how
    many samples were drawn before it or in what order.  This is what
    makes live-edge masks **bit-identical no matter how a serving batcher
    groups influence queries**: sample 3 computed alone, first, or last
    in a batch draws the same edges as sample 3 inside a sequential
    :func:`influence_maximization` run with the same base seed.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(sample,))
    )


def influence_maximization(
    A: CsrMatrix,
    k: int,
    p: int,
    *,
    probability: float = 0.1,
    samples: int = 8,
    seed: int = 0,
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
) -> InfluenceResult:
    """Greedy IC influence maximization with MSBFS spread estimation.

    Parameters
    ----------
    A:
        Adjacency matrix; an entry ``(v, u)`` means influence can travel
        ``u → v`` (symmetric for undirected graphs).
    k:
        Number of seeds to select.
    p:
        Simulated ranks for the distributed reachability computations.
    probability / samples:
        IC edge probability and Monte-Carlo sample count.

    The seed candidates are the ``max(4k, 16)`` highest-degree vertices
    (all of them when n is smaller).

    Every live-edge sample is an *edge subset* of the same graph, so one
    resident :class:`~repro.core.driver.TsSession` is prepared for the
    **full** graph and each sample's session is *derived* from it
    (:meth:`~repro.core.driver.TsSession.derive_edge_subset`): every rank
    masks its cached blocks and prepared subtiles down to the sample's
    kept edges — one streaming pass instead of a full
    re-scatter/column-copy/re-prepare per sample — and the sample's
    MS-BFS runs on-rank end-to-end via distributed handles.  The derived
    state is bit-identical to a fresh prepare on the sampled matrix.
    """
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    n = A.nrows
    if k < 1:
        raise ValueError("k must be >= 1")
    m = min(max(4 * k, 16), n)
    degrees = A.row_nnz()
    candidates = np.argsort(-degrees, kind="stable")[:m].astype(INDEX_DTYPE)

    # Reachability of every candidate in every live-edge sample: columns
    # of boolean masks, n bits per (candidate, sample).
    reach = np.zeros((samples, m, n), dtype=bool)
    total_runtime = 0.0
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    with TsSession(
        a_bool, p, semiring=BOOL_AND_OR, config=config, machine=machine
    ) as base_session:
        for r in range(samples):
            # Per-sample generator (not one shared stream): sample r's
            # mask is a pure function of (seed, r), so a serving tier can
            # recompute any single sample — batched or alone — and land
            # on exactly this mask.
            keep = sample_keep_mask(A, probability, sample_rng(seed, r))
            # The sampled matrix is never materialized driver-side: the
            # derived session holds the masked state rank-side, and
            # closing it releases the sample's replicas at once.
            with base_session.derive_edge_subset(keep) as sample_session:
                bfs = msbfs_on_session(sample_session, candidates)
            total_runtime += bfs.total_runtime
            rows = bfs.visited.row_ids()
            reach[r, bfs.visited.indices, rows] = True

    # Greedy: maximize the union of reached sets, averaged over samples.
    covered = np.zeros((samples, n), dtype=bool)
    chosen: List[int] = []
    chosen_idx: List[int] = []
    spread_curve: List[float] = []
    for _ in range(k):
        best_gain, best_j = -1.0, -1
        base = covered.sum(axis=1).astype(np.float64)
        for j in range(m):
            if j in chosen_idx:
                continue
            gain = float(
                ((reach[:, j] | covered).sum(axis=1) - base).mean()
            )
            if gain > best_gain:
                best_gain, best_j = gain, j
        if best_j < 0:
            break
        chosen_idx.append(best_j)
        chosen.append(int(candidates[best_j]))
        covered |= reach[:, best_j]
        spread_curve.append(float(covered.sum(axis=1).mean()))

    return InfluenceResult(
        seeds=chosen,
        spread_estimates=spread_curve,
        candidates=candidates,
        samples=samples,
        total_runtime=total_runtime,
    )
