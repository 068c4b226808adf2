"""Block assembly for the 2-D / 3-D baselines' per-rank results."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..sparse.build import coo_to_csr
from ..sparse.csr import CsrMatrix
from ..sparse.semiring import PLUS_TIMES, Semiring
from ..sparse.tile import block_ranges


def assemble_2d_blocks(
    values: Sequence[Tuple[Tuple[int, int], CsrMatrix]],
    nrows: int,
    ncols: int,
    pr: int,
    pc: int,
    semiring: Semiring = PLUS_TIMES,
) -> CsrMatrix:
    """Assemble per-rank ``((i, j), block)`` results into the global matrix."""
    row_ranges = block_ranges(nrows, pr)
    col_ranges = block_ranges(ncols, pc)
    rows, cols, vals = [], [], []
    for (i, j), block in values:
        if block.nnz == 0:
            continue
        r0 = row_ranges[i][0]
        c0 = col_ranges[j][0]
        rows.append(block.row_ids() + r0)
        cols.append(block.indices + c0)
        vals.append(block.data)
    if not rows:
        return CsrMatrix.empty((nrows, ncols), dtype=semiring.dtype)
    return coo_to_csr(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        (nrows, ncols),
        semiring,
    )
