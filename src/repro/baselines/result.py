"""Shared result container and block-assembly helpers for baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from ..mpi.stats import SpmdReport
from ..sparse.build import coo_to_csr
from ..sparse.csr import CsrMatrix
from ..sparse.semiring import PLUS_TIMES, Semiring
from ..sparse.tile import block_ranges


@dataclass
class BaselineResult:
    """Outcome of one baseline multiply — API-compatible with
    :class:`repro.core.driver.MultiplyResult` where benchmarks need it."""

    C: CsrMatrix
    report: SpmdReport
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    @property
    def runtime(self) -> float:
        return self.report.runtime

    @property
    def multiply_time(self) -> float:
        # Baselines have no setup phases charged; everything is multiply.
        return self.report.runtime

    @property
    def comm_time(self) -> float:
        return self.report.comm_time

    def comm_bytes(self) -> int:
        return self.report.total_bytes()


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
