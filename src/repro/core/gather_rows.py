"""Helpers for shipping and re-assembling sparse row subsets.

Both TS-SpGEMM variants move *selected rows* of ``B`` between processes:
the producer packs ``(row ids, extracted rows)`` and the consumer places
them back into a block of the right height so the local multiply can index
it by column id.  These two halves live here so the naive algorithm, the
tiled algorithm and the SpMM variant all share them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..partition.distmat import stack_blocks
from ..sparse.csr import INDEX_DTYPE, CsrMatrix
from ..sparse.ops import extract_rows


def pack_rows(mat: CsrMatrix, row_ids: np.ndarray) -> Optional[Tuple[np.ndarray, CsrMatrix]]:
    """Extract ``row_ids`` of ``mat`` for shipping; ``None`` when empty.

    Returning ``None`` for an empty request keeps zero bytes on the wire
    (the α cost of the all-to-all slot is still paid, as in real MPI).
    """
    row_ids = np.asarray(row_ids, dtype=INDEX_DTYPE)
    if len(row_ids) == 0:
        return None
    return row_ids, extract_rows(mat, row_ids)


def pack_nonempty_rows(mat: CsrMatrix) -> Tuple[np.ndarray, CsrMatrix]:
    """Every non-empty row of ``mat`` as a ``(row ids, rows)`` payload.

    Equal to ``pack_rows(mat, np.flatnonzero(mat.row_nnz()))`` array for
    array, without its gather: dropping empty rows moves no entry, so
    ``indices`` / ``data`` already are the payload's (shared, not copied)
    and only the row pointer is compressed.
    """
    row_ids = np.flatnonzero(mat.row_nnz()).astype(INDEX_DTYPE, copy=False)
    indptr = np.append(mat.indptr[row_ids], mat.indptr[-1])
    rows = CsrMatrix((len(row_ids), mat.ncols), indptr, mat.indices, mat.data, check=False)
    return row_ids, rows


def checked_row_ids(row_ids: np.ndarray, hi: int, lo: int = 0) -> np.ndarray:
    """``row_ids``, once known to place rows into rows ``[lo, hi)``: in
    range and strictly increasing (one comparison, then the end ids; a
    refusal rescans, so a range fault is named first).  A repeated or
    unsorted id would build a CSR whose indptr disagrees with the order
    of indices/data, or lose or double part of a dense partial."""
    if len(row_ids) == 0 or (
        lo <= row_ids[0] and row_ids[-1] < hi and (row_ids[1:] > row_ids[:-1]).all()
    ):
        return row_ids
    if row_ids.min() < lo or row_ids.max() >= hi:
        raise ValueError("placed row id out of range")
    raise ValueError("placed row ids must be strictly increasing")


def place_rows(
    nrows: int, payload: Optional[Tuple[np.ndarray, CsrMatrix]], ncols: int, dtype
) -> CsrMatrix:
    """Re-assemble shipped rows into an ``nrows × ncols`` block.

    Rows not present in the payload are empty.  ``payload=None`` yields an
    all-empty block.  Row ids must be strictly increasing (producers build
    them from sorted nonzero-column lists).
    """
    if payload is None:
        return CsrMatrix.empty((nrows, ncols), dtype=dtype)
    row_ids, rows = payload
    return place_row_union(nrows, [(checked_row_ids(row_ids, nrows), rows)], ncols)


def place_row_union(
    nrows: int, payloads: List[Tuple[np.ndarray, CsrMatrix]], ncols: int
) -> CsrMatrix:
    """Place checked (:func:`checked_row_ids`) ``(row ids, rows)``
    payloads into one ``nrows × ncols`` block.  An id in two payloads (two
    row tiles that requested one ``B`` row) carries one row: its first copy
    is placed.  A single payload's arrays are shared, not copied."""
    row_ids, rows = payloads[0]
    if len(payloads) > 1:
        row_ids = np.concatenate([ids for ids, _ in payloads])
        rows = stack_blocks([rows for _, rows in payloads], ncols)
        if not (row_ids[1:] > row_ids[:-1]).all():
            row_ids, first = np.unique(row_ids, return_index=True)
            rows = extract_rows(rows, first)
    if rows.nrows != len(row_ids):
        raise ValueError("payload row count does not match id count")
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    indptr[row_ids + 1] = rows.row_nnz()
    np.cumsum(indptr, out=indptr)
    return CsrMatrix((nrows, ncols), indptr, rows.indices, rows.data, check=False)


def pack_dense_rows(
    dense: np.ndarray, row_ids: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Dense analogue of :func:`pack_rows` (SpMM ships only values)."""
    row_ids = np.asarray(row_ids, dtype=INDEX_DTYPE)
    if len(row_ids) == 0:
        return None
    return row_ids, dense[row_ids]


def place_dense_rows(
    nrows: int,
    payload: Optional[Tuple[np.ndarray, np.ndarray]],
    ncols: int,
) -> np.ndarray:
    """Scatter shipped dense rows into a zero block of height ``nrows``.

    The block keeps the payload's dtype (a float32 ``B`` must not be
    silently upcast on placement, nor an integer one truncated); an empty
    payload gives a float64 block.
    """
    if payload is None:
        return np.zeros((nrows, ncols))
    row_ids, rows = payload
    rows = np.asarray(rows)
    out = np.zeros((nrows, ncols), dtype=rows.dtype)
    out[checked_row_ids(row_ids, nrows)] = rows
    return out
