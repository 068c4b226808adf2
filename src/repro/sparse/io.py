"""Minimal MatrixMarket coordinate input for small external graphs.

Reads the ``%%MatrixMarket matrix coordinate (real|integer|pattern)
(general|symmetric)`` subset — what the CLI's ``--dataset <path>`` accepts.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import Union

import numpy as np

from .build import coo_to_csr
from .csr import CsrMatrix
from .semiring import PLUS_TIMES


def read_matrix_market(path: Union[str, Path]) -> CsrMatrix:
    """Read a MatrixMarket coordinate file into a :class:`CsrMatrix`.

    ``pattern`` entries become 1.0; ``symmetric`` storage is expanded to
    both triangles.  Duplicates are summed.
    """
    path = Path(path)
    with path.open("r") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing MatrixMarket banner")
        tokens = header.strip().lower().split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise ValueError(f"{path}: only coordinate matrices are supported")
        field, symmetry = tokens[3], tokens[4]
        if field not in ("real", "integer", "pattern"):
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        nrows, ncols, nnz = (int(x) for x in line.split())
        body = fh.read()

    if nnz == 0:
        return CsrMatrix.empty((nrows, ncols))
    table = np.loadtxt(_io.StringIO(body), ndmin=2)
    if table.shape[0] != nnz:
        raise ValueError(f"{path}: expected {nnz} entries, found {table.shape[0]}")
    rows = table[:, 0].astype(np.int64) - 1
    cols = table[:, 1].astype(np.int64) - 1
    if field == "pattern":
        vals = np.ones(nnz)
    else:
        vals = table[:, 2]
    if symmetry == "symmetric":
        off_diag = rows != cols
        rows = np.concatenate([rows, cols[off_diag]])
        cols = np.concatenate([cols, table[:, 0].astype(np.int64)[off_diag] - 1])
        vals = np.concatenate([vals, vals[off_diag]])
    return coo_to_csr(rows, cols, vals, (nrows, ncols), PLUS_TIMES)
