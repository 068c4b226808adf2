"""Structural and elementwise operations on :class:`CsrMatrix`.

These are the building blocks the distributed algorithms lean on:

* column-range extraction — cutting a tile out of a local block (§III-B);
* row extraction — packing the ``B`` rows requested by a remote tile;
* transpose — building the column-partitioned copy ``Ac``;
* pattern difference / union — the BFS frontier update ``F ← N \\ S`` and
  visited update ``S ← S ∨ N`` (Alg 3);
* per-row top-k — the embedding sparsification step (§IV-B);
* CSR × dense SpMM — the dense-B comparator of §V-C.

Everything is vectorized; no per-nonzero Python loops.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .build import SPA_MAX_SCRATCH_ELEMS
from .csr import INDEX_DTYPE, CsrMatrix
from .merge import merge_csrs
from .semiring import PLUS_TIMES, Semiring


def transpose(mat: CsrMatrix) -> CsrMatrix:
    """Transpose a CSR matrix (result is CSR again, rows sorted)."""
    nrows, ncols = mat.shape
    if mat.nnz == 0:
        return CsrMatrix.empty((ncols, nrows), dtype=mat.dtype)
    # Entries are stored row-major, so a stable sort on the column id
    # alone leaves each column's entries in increasing row order.
    order = np.argsort(mat.indices, kind="stable")
    new_rows = mat.indices[order]
    new_cols = mat.row_ids()[order]
    new_vals = mat.data[order]
    counts = np.bincount(new_rows, minlength=ncols)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
    return CsrMatrix((ncols, nrows), indptr, new_cols, new_vals, check=False)


def extract_rows(mat: CsrMatrix, row_ids: np.ndarray) -> CsrMatrix:
    """Select rows ``row_ids`` (in the given order) into a new CSR.

    The result has ``len(row_ids)`` rows and the original column space —
    exactly what gets packed onto the wire when a process ships the ``B``
    rows another process requested.
    """
    row_ids = np.asarray(row_ids, dtype=INDEX_DTYPE)
    if len(row_ids) and (row_ids.min() < 0 or row_ids.max() >= mat.nrows):
        raise IndexError("row id out of range")
    counts = mat.row_nnz()[row_ids]
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
    total = int(indptr[-1])
    if total == 0:
        return CsrMatrix(
            (len(row_ids), mat.ncols),
            indptr,
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=mat.dtype),
            check=False,
        )
    # Gather segment [indptr[r], indptr[r+1]) for each requested row.
    starts = mat.indptr[row_ids]
    offsets = np.arange(total) - np.repeat(indptr[:-1], counts)
    src = np.repeat(starts, counts) + offsets
    return CsrMatrix(
        (len(row_ids), mat.ncols), indptr, mat.indices[src], mat.data[src], check=False
    )


def extract_col_range(
    mat: CsrMatrix, c0: int, c1: int, *, reindex: bool = True
) -> CsrMatrix:
    """Columns ``[c0, c1)`` of ``mat`` as a new CSR.

    With ``reindex=True`` column ids shift to the local ``[0, c1-c0)``
    space (tile extraction); otherwise the original column space is kept
    (useful for masking).
    """
    if not (0 <= c0 <= c1 <= mat.ncols):
        raise IndexError(f"column range [{c0}, {c1}) out of bounds for {mat.ncols}")
    mask = (mat.indices >= c0) & (mat.indices < c1)
    csum = np.concatenate([[0], np.cumsum(mask)])
    indptr = csum[mat.indptr].astype(INDEX_DTYPE)
    indices = mat.indices[mask]
    if reindex:
        indices = indices - c0
        shape = (mat.nrows, c1 - c0)
    else:
        shape = mat.shape
    return CsrMatrix(shape, indptr, indices, mat.data[mask], check=False)


def extract_row_range(mat: CsrMatrix, r0: int, r1: int) -> CsrMatrix:
    """Rows ``[r0, r1)`` as a zero-copy CSR view (indices/data are views)."""
    if not (0 <= r0 <= r1 <= mat.nrows):
        raise IndexError(f"row range [{r0}, {r1}) out of bounds for {mat.nrows}")
    lo, hi = mat.indptr[r0], mat.indptr[r1]
    indptr = mat.indptr[r0 : r1 + 1] - mat.indptr[r0]
    return CsrMatrix(
        (r1 - r0, mat.ncols),
        indptr,
        mat.indices[lo:hi],
        mat.data[lo:hi],
        check=False,
    )


def nonzero_columns_by_rows(mat: CsrMatrix, bounds: Sequence[int]) -> List[np.ndarray]:
    """``nonzero_columns()`` of every row range ``[bounds[k], bounds[k+1])``.

    The ``nzc`` vectors (Fig 1) of consecutive row tiles, in one pass: a
    range's entries are contiguous in storage, so they are marked in one
    boolean scratch over ``(range, column)`` — at most
    :data:`~repro.sparse.build.SPA_MAX_SCRATCH_ELEMS` slots at a time,
    whole ranges per batch — read back with one ``flatnonzero`` and cut
    per range with one ``searchsorted``.  Each list is what ``np.unique``
    returns for the range's column ids; empty ranges give empty lists.
    """
    bounds = np.asarray(bounds, dtype=INDEX_DTYPE)
    if bounds.ndim != 1 or len(bounds) == 0:
        raise IndexError("bounds must be a non-empty 1-D sequence of row boundaries")
    if bounds[0] < 0 or bounds[-1] > mat.nrows or np.any(bounds[1:] < bounds[:-1]):
        raise IndexError(
            f"row boundaries must be non-decreasing within [0, {mat.nrows}]"
        )
    n_ranges, ncols = len(bounds) - 1, mat.ncols
    if mat.indptr[bounds[-1]] == mat.indptr[bounds[0]]:  # includes ncols == 0
        return [np.zeros(0, dtype=INDEX_DTYPE) for _ in range(n_ranges)]
    out: List[np.ndarray] = []
    step = max(SPA_MAX_SCRATCH_ELEMS // ncols, 1)
    for k0 in range(0, n_ranges, step):
        k1 = min(k0 + step, n_ranges)
        cuts = mat.indptr[bounds[k0 : k1 + 1]]
        slot_base = np.arange(0, (k1 - k0 + 1) * ncols, ncols, dtype=INDEX_DTYPE)
        flat = np.repeat(slot_base[:-1], np.diff(cuts))
        flat += mat.indices[cuts[0] : cuts[-1]]
        seen = np.zeros((k1 - k0) * ncols, dtype=bool)
        seen[flat] = True
        hits = np.flatnonzero(seen)
        ends = np.searchsorted(hits, slot_base)
        hits -= np.repeat(slot_base[:-1], np.diff(ends))
        out.extend(hits[a:b] for a, b in zip(ends[:-1], ends[1:]))
    return out


def _entry_keys(mat: CsrMatrix) -> np.ndarray:
    """Stored entries as scalar ``row * ncols + col`` keys, in int64.

    The promotion must happen *before* the multiply: with 32-bit index
    inputs the product would wrap for any matrix whose ``nrows * ncols``
    exceeds 2^31.  The CSR invariant (rows in order, columns strictly
    increasing per row) makes the returned keys strictly increasing.
    """
    return (
        mat.row_ids().astype(np.int64, copy=False) * np.int64(mat.ncols)
        + mat.indices.astype(np.int64, copy=False)
    )


def _find_entries(a: CsrMatrix, b: CsrMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Per stored entry of ``a``: where its key sorts into non-empty ``b``'s,
    and whether it is there.  Both key arrays are sorted (CSR invariant): one
    binary search per entry — not np.isin, whose internal sort was a hot spot."""
    a_keys, b_keys = _entry_keys(a), _entry_keys(b)
    pos = np.searchsorted(b_keys, a_keys)
    return pos, b_keys[np.minimum(pos, b.nnz - 1)] == a_keys


def _pattern_member(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Boolean per stored entry of ``a``: is its (row, col) also in ``b``?"""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return np.zeros(a.nnz, dtype=bool)
    return _find_entries(a, b)[1]


def pattern_difference(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Entries of ``a`` whose position is *not* stored in ``b``.

    Implements the frontier update ``F ← N \\ S`` of Alg 3.
    """
    return mask_entries(a, ~_pattern_member(a, b))


def mask_pattern(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply an entry mask to a bare CSR pattern; ``(indptr, indices)``."""
    csum = np.concatenate([[0], np.cumsum(keep)])
    return csum[indptr].astype(INDEX_DTYPE), indices[keep]


def mask_entries(mat: CsrMatrix, keep: np.ndarray) -> CsrMatrix:
    """The entries of ``mat`` flagged by the boolean ``keep`` (nnz-long).

    Drops the others while preserving per-row sorted order — the edge
    subsetting primitive behind live-edge sampling (influence
    maximization) and the derived per-sample sessions that mask a full
    graph's prepared state down to one sample's.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (mat.nnz,):
        raise ValueError(
            f"keep must flag all {mat.nnz} stored entries, got shape {keep.shape}"
        )
    indptr, indices = mask_pattern(mat.indptr, mat.indices, keep)
    return CsrMatrix(mat.shape, indptr, indices, mat.data[keep], check=False)


def ewise_add(a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES) -> CsrMatrix:
    """Elementwise union combining overlaps with the semiring add.

    ``S ← S ∨ N`` in Alg 3 is ``ewise_add(S, N, BOOL_AND_OR)``.

    The two-operand case of :func:`~repro.sparse.merge.merge_csrs`:
    overlaps combine as ``add(a, b)``.
    """
    return merge_csrs((a, b), semiring)


def difference_and_union(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring
) -> Tuple[CsrMatrix, CsrMatrix]:
    """``(pattern_difference(a, b), ewise_add(b, a, semiring))`` — Alg 3's
    ``F ← N \\ S`` and ``S ← S ∨ N`` with ``a = N``, ``b = S``.

    Boolean operands under a ``logical_or`` add take both from one binary
    search of ``a``'s entry keys in ``b``'s: the entries not found are the
    difference and, spliced into ``b`` where the search placed them, the
    union; the ones found OR their value into ``b``'s, a stored ``False``
    staying stored as in :func:`~repro.sparse.merge.merge_csrs`.  Any other
    dtype or add, an empty operand and a shape mismatch (which raises) go
    through the two operations.
    """
    if not (
        a.dtype == b.dtype == semiring.dtype == np.bool_
        and semiring.add is np.logical_or
        and a.shape == b.shape and a.nnz and b.nnz
    ):
        return pattern_difference(a, b), ewise_add(b, a, semiring)
    pos, found = _find_entries(a, b)
    new = ~found
    difference = mask_entries(a, new)
    at = pos[new] + np.arange(difference.nnz)  # where the union takes them
    is_old = np.ones(b.nnz + len(at), dtype=bool)
    is_old[at] = False
    indices = np.empty(len(is_old), dtype=INDEX_DTYPE)
    indices[at], indices[is_old] = difference.indices, b.indices
    old = b.data.copy()
    old[pos[found]] |= a.data[found]
    data = np.empty(len(is_old), dtype=bool)
    data[at], data[is_old] = difference.data, old
    indptr = b.indptr + difference.indptr
    return difference, CsrMatrix(a.shape, indptr, indices, data, check=False)


def row_topk(z: np.ndarray, k: int) -> Tuple[CsrMatrix, np.ndarray]:
    """Keep the ``k`` largest-magnitude nonzeros of every row of ``z``.

    This is the paper's embedding sparsification: "the updated embedding
    matrix is sparsified by selecting the required number of nonzero
    entries to achieve the target sparsity by keeping the highest valued
    entries" (§IV-B).  It runs on the dense block the SGD step produced
    and returns the kept entries as a CSR together with its dense twin
    (``== csr.to_dense()``, the next epoch's SDDMM operand).

    Each row is ranked by one stable ``lexsort``: nonzeros first, then
    magnitude descending (NaN after every number), ties by column.
    ``±0.0`` is never kept, so a row keeps ``min(k, its nonzeros)``.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    z = np.asarray(z)
    nrows, ncols = z.shape
    keep = z != 0
    if k < ncols:
        mag = np.abs(z.astype(np.float64, copy=False))
        order = np.lexsort((-mag, ~keep), axis=-1)
        top = np.zeros(z.shape, dtype=bool)
        top[np.arange(nrows)[:, None], order[:, :k]] = True
        keep &= top
    flat = np.flatnonzero(keep)
    indptr = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    kept = CsrMatrix(z.shape, indptr, flat % ncols, z.ravel()[flat], check=False)
    return kept, np.where(keep, z, z.dtype.type(0))


def spmm_dense(mat: CsrMatrix, dense: np.ndarray) -> Tuple[np.ndarray, int]:
    """CSR × dense multiply; returns ``(product, flops)``.

    ``flops`` counts one multiply-add per (A-nonzero × dense column),
    matching how the cost model charges SpMM (§V-C).
    """
    dense = np.asarray(dense)
    if dense.ndim != 2 or dense.shape[0] != mat.ncols:
        raise ValueError(
            f"dense operand must be ({mat.ncols}, d), got {dense.shape}"
        )
    product = mat.to_scipy() @ dense
    flops = mat.nnz * dense.shape[1]
    return np.asarray(product), flops


def nnz_of_rows(mat: CsrMatrix, row_ids: np.ndarray) -> int:
    """Total stored entries in the selected rows (no materialization)."""
    row_ids = np.asarray(row_ids, dtype=INDEX_DTYPE)
    return int(mat.row_nnz()[row_ids].sum())
