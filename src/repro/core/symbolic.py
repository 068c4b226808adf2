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

from ..sparse.csr import CsrMatrix

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
    ``by_mode[mode][consumer]``: the stored (non-EMPTY) infos of
    ``produced``, row tiles ascending — what the multiply walks; the EMPTY
    ones, shared between plans and never written, are only counted.
    """

    produced: Dict[int, List[SubtileInfo]] = field(default_factory=dict)
    row_tile_ranges: List[Tuple[int, int]] = field(default_factory=list)
    pattern_products: int = 0
    outgoing_modes: Optional[List[List[str]]] = None
    by_mode: Dict[str, Dict[int, List[SubtileInfo]]] = field(
        default_factory=lambda: {LOCAL: {}, REMOTE: {}, DIAGONAL: {}}
    )
    empty_tiles: int = 0

    def count(self, mode: str) -> int:
        if mode == EMPTY:
            return self.empty_tiles
        return sum(map(len, self.by_mode[mode].values()))


def row_tile_ranges(nrows: int, h: int) -> List[Tuple[int, int]]:
    """Split ``nrows`` local rows into tiles of height ``h``."""
    if nrows <= 0:
        return []
    return [(r0, min(r0 + h, nrows)) for r0 in range(0, nrows, h)]
