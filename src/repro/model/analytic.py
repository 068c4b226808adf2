"""Closed-form cost models (§III-E) and large-``p`` extrapolation.

The thread-based simulator executes faithfully up to a few hundred ranks;
the paper's strong-scaling figures reach ``p = 4096`` (512 nodes).  These
functions evaluate the α–β expressions the paper derives — per-rank
communication and compute for each algorithm as a function of the workload
statistics — so benchmarks can extend their measured curves with modelled
points and tests can cross-check the simulator against the formulas.

Workload statistics follow the paper's notation: ``n`` (matrix dimension),
``kA`` (average nonzeros per row of A), ``kB`` (average nonzeros per row
of B, i.e. ``d·(1−sparsity)``), ``kC`` (average nonzeros per row of C,
bounded by ``d``), ``d`` (columns of B), ``p`` (ranks).

Modelled effects, and where each figure's shape comes from:

* **volume** — a rank of a 1-D algorithm fetches the B rows for
  ``min(n·kA/p, n)`` distinct columns, ``kB`` nonzeros each; mode
  selection bounds per-tile payloads by ``min(B-rows, C-partials)``
  (§III-E).  SUMMA broadcasts *both* operands: ``√p`` stages of
  ``nnz(A)/p``-sized A blocks dominate for tall-skinny B (Figs 8-11).
* **latency** — TS-SpGEMM pays ``⌈p/16⌉`` all-to-all rounds, so latency
  grows ~linearly with ``p`` and eventually dominates (the paper:
  "past 1024 ranks, latency begins to dominate", Fig 11); SUMMA pays
  ``√p·log p`` broadcast steps; SUMMA3D divides them by the layer count
  at the price of a fiber reduction over C partials.
* **working set** — the untiled 1-D fetch (PETSc) streams its whole
  received-B subset per multiply; once that exceeds ``cache_bytes`` its
  flops pay the spill penalty, while tiling keeps per-round footprints
  ``1/rounds`` as large.  This is the mechanism behind PETSc's collapse
  at ``d ≥ 64`` in Fig 8.

Byte counts assume the CSR wire format (8-byte value + 8-byte column
index per nonzero) and 8 bytes per dense entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Tuple

from ..mpi.cartesian import layered_grid_dims
from ..mpi.costmodel import PERLMUTTER, MachineProfile

BYTES_PER_NNZ = 16  # value + column index
BYTES_PER_DENSE = 8
#: Alg 2's tile width in column blocks (``TsConfig``'s default, §III-B).
TILE_WIDTH_FACTOR = 16


@dataclass(frozen=True)
class Workload:
    """Statistics describing one TS-SpGEMM instance."""

    n: int
    kA: float
    d: int
    b_sparsity: float

    @property
    def kB(self) -> float:
        """Average nonzeros per row of B."""
        return self.d * (1.0 - self.b_sparsity)

    @property
    def kC(self) -> float:
        """Expected nonzeros per row of C.

        Each output row is the union of ``kA`` random B-rows' patterns
        within ``d`` columns: ``d·(1 − (1 − kB/d)^kA)``.
        """
        if self.d == 0:
            return 0.0
        fill = 1.0 - (1.0 - min(self.kB / self.d, 1.0)) ** max(self.kA, 0.0)
        return self.d * fill

    @property
    def flops(self) -> float:
        """Total semiring multiplications: nnz(A) · kB."""
        return self.n * self.kA * self.kB

    def fetched_rows(self, p: int) -> float:
        """Distinct B rows one rank of a 1-D algorithm needs (§III-A).

        A rank's block holds ``n·kA/p`` nonzeros whose columns are ~uniform
        over ``n``; the expected number of *distinct* columns is
        ``n·(1 − e^(−kA/p))`` — linear in ``1/p`` once ``p ≫ kA`` and
        saturating toward ``n`` for small ``p`` (Fig 1's observation that
        one process may need nearly all of B).
        """
        return self.n * (1.0 - math.exp(-self.kA / p))


def _log2ceil(q: float) -> float:
    return math.ceil(math.log2(q)) if q > 1 else 0.0


@dataclass
class CostBreakdown:
    """Modelled per-multiply times (seconds) for one algorithm at one p."""

    comm_time: float
    compute_time: float

    @property
    def runtime(self) -> float:
        return self.comm_time + self.compute_time


def _spgemm_compute(
    machine: MachineProfile, flops: float, d: int, working_set_bytes: float
) -> float:
    """Local Gustavson time with §III-C's accumulator
    (:func:`~repro.mpi.costmodel.accumulator_for`) + cache-spill effect."""
    base = machine.spgemm_time(int(flops), d=d)
    if working_set_bytes > machine.cache_bytes:
        base *= machine.spa_spill_penalty
    return base


def _tiled_exchange(
    p: int, volume: float, machine: MachineProfile
) -> Tuple[int, float]:
    """``(rounds, comm seconds)`` of Alg 2's tiled exchange of ``volume``
    bytes per rank, at tile width ``min(TILE_WIDTH_FACTOR, p)``.

    Injection overhead: over the whole multiply a rank exchanges once
    with every peer in each direction (2·(p−1)·γ); each of the two
    all-to-alls per round additionally pays one wire latency plus the
    ~width active partners of that round.
    """
    if p == 1:
        return 1, 0.0
    width = min(TILE_WIDTH_FACTOR, p)
    rounds = math.ceil(p / width)
    latency = 2 * (p - 1) * machine.gamma
    latency += 2 * rounds * (machine.alpha + width * machine.gamma)
    return rounds, latency + machine.beta * volume


def ts_spgemm_cost(
    w: Workload,
    p: int,
    *,
    machine: MachineProfile = PERLMUTTER,
) -> CostBreakdown:
    """§III-E: per-tile ``O(αp + β·(p−1)/p·n·min(kB, kC))``, tiled rounds.

    Latency: one full pairwise exchange when this rank's column block is
    active (``(p−1)α``) plus, per round, receives from the ≤16 active
    producers and the synchronization depth.  Volume: the fetched B rows
    (or the cheaper C partials, per mode selection), 16 bytes/nonzero.
    Tiling bounds the per-round working set to ``1/rounds`` of the fetch.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rows = w.fetched_rows(p)
    volume = BYTES_PER_NNZ * min(w.kB, w.kC) * rows * (p - 1) / p
    rounds, comm = _tiled_exchange(p, volume, machine)
    working_set = volume / rounds
    compute = _spgemm_compute(machine, w.flops / p, w.d, working_set)
    return CostBreakdown(comm, compute)


def petsc1d_cost(w: Workload, p: int) -> CostBreakdown:
    """Alg 1: index-request all-to-all plus an unbounded B fetch.

    No tiling: the request round costs extra latency+bytes, the fetched
    subset is resident all at once (memory pressure, Fig 8's collapse at
    moderate ``d``), and there is no remote-compute mode to cap payloads.
    """
    machine = PERLMUTTER
    rows = w.fetched_rows(p)
    fetch_bytes = BYTES_PER_NNZ * w.kB * rows * (p - 1) / p
    if p == 1:
        comm = 0.0
    else:
        request_bytes = 8 * rows * (p - 1) / p
        comm = 2 * (machine.alpha + (p - 1) * machine.gamma) + machine.beta * (
            request_bytes + fetch_bytes
        )
    compute = _spgemm_compute(machine, w.flops / p, w.d, fetch_bytes)
    return CostBreakdown(comm, compute)


def summa3d_cost(
    w: Workload,
    p: int,
    *,
    layers: int = 4,
) -> CostBreakdown:
    """3-D SUMMA: 2-D SUMMA on a p/l face over 1/l of the inner dimension,
    plus a fiber reduction of the partial C blocks across layers.

    The grid and stages are the simulated ones
    (:func:`~repro.mpi.cartesian.layered_grid_dims`): ``pc`` stages on a
    ``pr × pc`` face, each broadcasting an A block over ``pc`` ranks and
    a B chunk (``1/pc`` of the slice's rows by ``1/pc`` of its columns)
    over ``pr``.  At ``l = 1`` this is 2-D SUMMA."""
    machine = PERLMUTTER
    pr, pc, l = layered_grid_dims(p, layers)
    face = p // l
    # One layer's operands: A[:, slice] with nnz(A)/l, B[slice, :] with
    # nnz(B)/l, 2-D SUMMA'd on the face grid.
    a_block_bytes = w.n * w.kA / l / face * BYTES_PER_NNZ
    b_chunk_bytes = w.n * w.kB / l / (pc * pc) * BYTES_PER_NNZ
    face_comm = pc * (
        machine.bcast(pc, int(a_block_bytes)) + machine.bcast(pr, int(b_chunk_bytes))
    )
    if l > 1:
        # Reduce-scatter across the fiber (CombBLAS splits C across
        # layers): volume (l−1)/l of the block, log l latency depth.
        c_block_bytes = w.n * w.kC / face * BYTES_PER_NNZ
        reduce_time = (
            _log2ceil(l) * machine.alpha
            + machine.beta * c_block_bytes * (l - 1) / l
        )
    else:
        reduce_time = 0.0
    ws = (w.n * (w.kA + w.kB) / l / face) * BYTES_PER_NNZ
    compute = _spgemm_compute(machine, w.flops / p, w.d, ws)
    return CostBreakdown(face_comm + reduce_time, compute)


def spmm_cost(w: Workload, p: int) -> CostBreakdown:
    """Dense-B SpMM with TS-SpGEMM's pattern: values-only payloads.

    Every needed B row costs ``d`` dense values regardless of sparsity —
    cheaper than sparse payloads only while B is dense enough (§V-C).
    """
    rows = w.fetched_rows(p)
    volume = BYTES_PER_DENSE * w.d * rows * (p - 1) / p
    _, comm = _tiled_exchange(p, volume, PERLMUTTER)
    compute = PERLMUTTER.spmm_time(int(w.n * w.kA * w.d / p))
    return CostBreakdown(comm, compute)


#: name → cost function, aligned with the algorithm registry.
COST_MODELS = {
    "TS-SpGEMM": ts_spgemm_cost,
    "PETSc-1D": petsc1d_cost,
    "SUMMA-2D": partial(summa3d_cost, layers=1),
    "SUMMA-3D": summa3d_cost,
    "SpMM": spmm_cost,
}


def predict(
    algorithm: str,
    w: Workload,
    p: int,
) -> CostBreakdown:
    """Evaluate the closed-form model for one algorithm at one scale on
    Perlmutter."""
    try:
        fn = COST_MODELS[algorithm]
    except KeyError:
        raise KeyError(
            f"no cost model for {algorithm!r}; available: {sorted(COST_MODELS)}"
        ) from None
    return fn(w, p)
