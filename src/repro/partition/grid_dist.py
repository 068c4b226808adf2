"""2-D and 3-D (layered) block distributions for the SUMMA baselines.

CombBLAS distributes operands as ``pr × pc`` rectangular blocks on a
process grid (§II-B); the 3-D variant additionally splits the inner
dimension across layers.  These helpers cut the global matrix into the
block a given grid position owns.  As with 1-D distribution, the initial
placement is not charged to the clocks (pre-distributed input); only the
multiply-time broadcasts and reductions are.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sparse.csr import CsrMatrix
from ..sparse.ops import extract_col_range, extract_row_range
from ..sparse.tile import block_ranges


def grid_block(
    mat: CsrMatrix, pr: int, pc: int, i: int, j: int
) -> CsrMatrix:
    """Block ``(i, j)`` of the ``pr × pc`` 2-D distribution of ``mat``.

    Rows are split into ``pr`` balanced blocks, columns into ``pc``;
    the result is reindexed to local coordinates.
    """
    r0, r1 = block_ranges(mat.nrows, pr)[i]
    c0, c1 = block_ranges(mat.ncols, pc)[j]
    return extract_col_range(extract_row_range(mat, r0, r1), c0, c1, reindex=True)


def inner_chunk_owner_row(k: int, pr: int) -> int:
    """Grid row storing inner-dimension chunk ``k`` of the B operand.

    SUMMA stages iterate over ``pc`` inner chunks; with a non-square grid
    chunk ``k`` is assigned to grid row ``k % pr`` (round-robin), which
    reduces to the classic square-grid layout when ``pr == pc``.
    """
    return k % pr


def summa_b_chunks(
    mat: CsrMatrix, pr: int, pc: int, grid_row: int, grid_col: int
) -> dict:
    """The B-operand chunks stored at grid position ``(grid_row, grid_col)``.

    B's rows are split into ``pc`` chunks (aligned with A's column blocks);
    chunk ``k`` lives on grid row ``k % pr``.  B's columns are split into
    ``pc`` blocks.  Returns ``{k: CsrMatrix}`` for the chunks this position
    owns.
    """
    row_chunks = block_ranges(mat.nrows, pc)
    c0, c1 = block_ranges(mat.ncols, pc)[grid_col]
    owned = {}
    for k, (r0, r1) in enumerate(row_chunks):
        if inner_chunk_owner_row(k, pr) == grid_row:
            owned[k] = extract_col_range(
                extract_row_range(mat, r0, r1), c0, c1, reindex=True
            )
    return owned


def layer_slices(n: int, layers: int) -> List[Tuple[int, int]]:
    """Inner-dimension split across the layers of a 3-D grid."""
    return block_ranges(n, layers)
