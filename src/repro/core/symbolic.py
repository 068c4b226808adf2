"""Symbolic tile-mode selection (§III-D, Fig 3).

Thanks to the column-partitioned copy ``Ac``, process ``Pj`` holds —
without any communication — the slice ``A[rows_i, cols_j]`` of every peer
``Pi``'s tile that intersects its column block.  For each such subtile it
compares the two ways the corresponding output could be produced:

* **local** mode ships the ``B_j`` rows the subtile needs to ``Pi``
  (cost ∝ nnz of those rows);
* **remote** mode multiplies at ``Pj`` and ships the partial ``C`` back
  (cost ∝ nnz of the partial output).

The cheaper side wins (`hybrid` policy); `local` / `remote` policies force
one mode for ablation (Fig 6).  Tiles on the diagonal (``i == j``) need no
communication at all.  Modes are finally shared with the tile owners in
one tiny all-to-all ("the cost of this communication is not significant
since it only communicates a binary value for each tile").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..partition.distmat import DistSparseMatrix
from ..sparse.csr import CsrMatrix
from ..sparse.semiring import Semiring
from .config import TsConfig

#: Subtile modes.  EMPTY subtiles (no stored entries) are skipped outright.
LOCAL, REMOTE, DIAGONAL, EMPTY = "local", "remote", "diagonal", "empty"


@dataclass
class SubtileInfo:
    """Producer-side record for one (peer, row-tile) subtile of ``Ac_j``
    — rows ``row_range`` of the peer's block of ``A.col_copy``, read there
    by whoever multiplies it."""

    peer: int
    row_tile: int
    row_range: Tuple[int, int]  # within the peer's local rows
    mode: str
    needed_b_rows: Optional[np.ndarray]  # my local B row ids the subtile touches
    needed_b_nnz: int
    output_nnz: int
    #: ``(subtile ⊗ B under bool_and_or, flops)`` on REMOTE and DIAGONAL
    #: subtiles when ``A`` and ``B`` are both boolean: this subtile's
    #: rows of the one column-block product ``replan`` sized it from (a
    #: view), which *are* the numeric partial of a ``bool_and_or`` multiply.
    #: Valid only against the ``B`` and column-copy values ``replan`` saw
    #: (docs/planning.md).
    symbolic: Optional[Tuple[CsrMatrix, int]] = None


@dataclass
class SymbolicPlan:
    """Everything each rank knows after the symbolic step.

    ``produced``: subtiles of *my* column block, keyed by consumer rank —
    what I must ship (B rows or partial C) each round.
    ``pattern_products``: subtiles this plan sized against ``B``, each
    charged as one boolean pattern product whether its size was read off
    the column-block product (boolean operands) or computed alone — the
    B-dependent symbolic work a prepared plan cannot skip (zero under
    forced mode policies).  Not a count of kernel calls.
    ``outgoing_modes``: the per-peer mode lists of a hybrid plan, still
    to be shared with the tile owners — the multiply ships them (one
    all-to-all, or a tagged section of its fused exchange) and clears the
    field.  Nothing stores what arrives: consumers act on the payloads
    they receive.
    """

    produced: Dict[int, List[SubtileInfo]] = field(default_factory=dict)
    row_tile_ranges: List[Tuple[int, int]] = field(default_factory=list)
    pattern_products: int = 0
    outgoing_modes: Optional[List[List[str]]] = None

    def count(self, mode: str) -> int:
        return sum(
            1 for infos in self.produced.values() for s in infos if s.mode == mode
        )


def row_tile_ranges(nrows: int, h: int) -> List[Tuple[int, int]]:
    """Split ``nrows`` local rows into tiles of height ``h``."""
    if nrows <= 0:
        return []
    return [(r0, min(r0 + h, nrows)) for r0 in range(0, nrows, h)]


def build_symbolic_plan(
    A: DistSparseMatrix,
    B: DistSparseMatrix,
    semiring: Semiring,
    config: TsConfig,
) -> SymbolicPlan:
    """Run the communication-free mode selection.

    Must be called collectively; requires ``A.col_copy``.  The symbolic
    multiplications are charged to the virtual compute clock (the real
    implementation pays them too).  Sharing the modes — one all-to-all
    of a few bytes per tile — is left to the multiply, which finds the
    lists on ``plan.outgoing_modes``.

    This is the fresh-plan path: it builds a throwaway
    :class:`~repro.core.plan.PreparedA` and immediately runs the
    B-dependent :func:`~repro.core.plan.replan` on it.  Iterative callers
    keep the prepared object instead (``tiled_multiply(...,
    prepared=...)``) and pay the prepare half only once.
    """
    if A.col_copy is None:
        raise RuntimeError("symbolic step requires A.build_column_copy() first")
    from .plan import prepare_multiply, replan

    return replan(prepare_multiply(A, config), A, B)
