"""Builders converting coordinate data into validated :class:`CsrMatrix`.

Duplicate coordinates are collapsed with a semiring add, so these builders
are also the backbone of the SpGEMM kernels and of partial-result merging:
``reduceat`` over row-major-sorted triples (:func:`csr_from_triples`; every
(row, col) ordering in the package goes through :func:`row_major_order`, or
:func:`order_rows` on a CSR's rows), or a scatter into a dense scratch
(:func:`csr_from_flat_keys`, the SPA).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse._sparsetools import csr_has_sorted_indices, csr_sort_indices

from .csr import INDEX_DTYPE, CsrMatrix
from .semiring import PLUS_TIMES, Semiring


def order_rows(mat: CsrMatrix, *, copy: bool) -> CsrMatrix:
    """``mat`` with each row's columns increasing: ``mat`` itself if they
    are, else sorted with its values by scipy's ``csr_sort_indices`` — in
    place, or on a copy of ``indices`` / ``data``."""
    if csr_has_sorted_indices(mat.nrows, mat.indptr, mat.indices):
        return mat
    if copy:
        mat = CsrMatrix(mat.shape, mat.indptr, mat.indices.copy(), mat.data.copy(), check=False)
    csr_sort_indices(mat.nrows, mat.indptr, mat.indices, mat.data)
    return mat


def row_major_order(
    rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
) -> np.ndarray:
    """The stable permutation that puts ``(rows, cols)`` in row-major order.

    One stable ``argsort`` of the fused ``row * ncols + col`` key: the same
    permutation as ``np.lexsort((cols, rows))`` (equal keys are equal
    pairs, and both sorts keep them in input order), but one key pass
    instead of two — and numpy's stable integer sort is run-adaptive, so
    input that is already sorted, or a few sorted runs concatenated (the
    shape of every merge), costs little more than a scan.  ``lexsort`` is
    kept only for shapes whose fused key would overflow int64.
    """
    nrows, ncols = int(shape[0]), int(shape[1])
    if nrows * ncols > np.iinfo(INDEX_DTYPE).max:
        return np.lexsort((cols, rows))
    key = np.multiply(rows, ncols, dtype=INDEX_DTYPE)  # the only temporary
    key += cols
    return np.argsort(key, kind="stable")


def csr_from_triples(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: Tuple[int, int],
    semiring: Semiring,
    *,
    assume_sorted: bool = False,
) -> CsrMatrix:
    """Sort (unless ``assume_sorted``) and compress non-empty triples.

    The unvalidated core of :func:`coo_to_csr`, shared with the merge and
    the expand-sort-compress kernels, whose triples are in bounds by
    construction.  Runs of equal ``(row, col)`` collapse with the semiring
    add, in input order.
    """
    if not assume_sorted:
        order = row_major_order(rows, cols, shape)
        rows, cols, vals = rows[order], cols[order], vals[order]
    key_change = np.empty(len(rows), dtype=bool)
    key_change[0] = True
    np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=key_change[1:])
    starts = np.flatnonzero(key_change)
    counts = np.bincount(rows[starts], minlength=shape[0])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
    return CsrMatrix(
        shape, indptr, cols[starts], semiring.reduce_segments(vals, starts), check=False
    )


#: Largest dense scratch (in elements) one sparse accumulator may use —
#: the vectorized analogue of "the SPA must fit in cache" (§III-C).
SPA_MAX_SCRATCH_ELEMS = 1 << 22


def spa_fold(
    flat: np.ndarray, vals: Optional[np.ndarray], size: int, semiring: Semiring
) -> Tuple[np.ndarray, np.ndarray]:
    """The dense sparse accumulator (§III-C's SPA): fold ``vals`` at fused
    keys ``flat`` into ``size`` scratch slots; return the distinct keys in
    increasing (= row-major) order and their folded values.

    A mask records the pattern, so entries folding to the semiring zero
    stay stored.  ``vals=None`` says every value is ``True``, so every
    output is: no value work.  ``logical_or`` folds by scatter; any other
    add by ``add.at`` into an identity-filled scratch, in input order —
    the caller vouches that ``semiring.zero`` is an identity on its values.
    """
    mask = np.zeros(size, dtype=bool)
    mask[flat] = True
    keys = np.flatnonzero(mask)
    if vals is None:
        return keys, np.ones(len(keys), dtype=bool)
    if semiring.add is np.logical_or:
        scratch = np.zeros(size, dtype=bool)
        scratch[flat[vals]] = True
    else:
        scratch = np.full(size, semiring.zero, dtype=semiring.dtype)
        semiring.add.at(scratch, flat, vals)
    return keys, scratch[keys]


def csr_from_flat_keys(
    keys: np.ndarray, data: np.ndarray, shape: Tuple[int, int]
) -> CsrMatrix:
    """CSR from distinct, increasing fused ``row * ncols + col`` keys."""
    row_base = np.arange(0, (shape[0] + 1) * shape[1], shape[1], dtype=INDEX_DTYPE)
    indptr = np.searchsorted(keys, row_base)  # no per-key division
    cols = keys - np.repeat(row_base[:-1], indptr[1:] - indptr[:-1])
    return CsrMatrix(shape, indptr, cols, data, check=False)


def coo_to_csr(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: Tuple[int, int],
    semiring: Semiring = PLUS_TIMES,
    *,
    assume_sorted: bool = False,
) -> CsrMatrix:
    """Build a CSR matrix from COO triples, combining duplicates.

    Parameters
    ----------
    rows, cols, vals:
        Equal-length coordinate arrays.  Out-of-range coordinates raise.
    shape:
        Output shape ``(nrows, ncols)``.
    semiring:
        Its ``add`` collapses duplicate ``(row, col)`` entries — e.g.
        ``np.add`` sums them, ``np.logical_or`` unions boolean patterns.
    assume_sorted:
        Skip the sort when the caller guarantees triples are already in
        row-major (row, col) order (duplicates still allowed).
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    cols = np.asarray(cols, dtype=INDEX_DTYPE)
    vals = semiring.coerce(np.asarray(vals))
    if not (len(rows) == len(cols) == len(vals)):
        raise ValueError("rows, cols, vals must have equal length")
    nrows, ncols = shape
    if len(rows):
        if rows.min() < 0 or rows.max() >= nrows:
            raise ValueError("row index out of bounds")
        if cols.min() < 0 or cols.max() >= ncols:
            raise ValueError("column index out of bounds")

    if len(rows) == 0:
        return CsrMatrix.empty(shape, dtype=vals.dtype)

    return csr_from_triples(
        rows, cols, vals, shape, semiring, assume_sorted=assume_sorted
    )


def from_edges(
    src: Sequence[int],
    dst: Sequence[int],
    n: int,
    *,
    symmetric: bool = False,
) -> CsrMatrix:
    """Unit-weight adjacency matrix from an edge list (graph convenience
    builder).

    ``symmetric=True`` mirrors every edge; duplicates collapse via
    arithmetic max so repeated edges keep weight 1.
    """
    src = np.asarray(src, dtype=INDEX_DTYPE)
    dst = np.asarray(dst, dtype=INDEX_DTYPE)
    vals = np.ones(len(src))
    if symmetric:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        vals = np.concatenate([vals, vals])
    # max collapses duplicate/mirrored edges to a single stored entry
    sr = Semiring("dedup_max", np.maximum, np.multiply, 0.0, np.dtype(np.float64))
    return coo_to_csr(src, dst, vals, (n, n), sr)


def random_csr(
    nrows: int,
    ncols: int,
    *,
    nnz_per_row: float,
    rng: np.random.Generator,
    dtype=np.float64,
) -> CsrMatrix:
    """Uniform random CSR with ~``nnz_per_row`` entries per row.

    Each row draws ``Binomial(ncols, nnz_per_row/ncols)``-distributed
    column subsets; values are U(0, 1).  Used by tests and the tall-skinny
    ``B`` generator.
    """
    density = min(max(nnz_per_row / max(ncols, 1), 0.0), 1.0)
    counts = rng.binomial(ncols, density, size=nrows)
    rows = np.repeat(np.arange(nrows, dtype=INDEX_DTYPE), counts)
    cols = np.concatenate(
        [rng.choice(ncols, size=c, replace=False) for c in counts]
    ) if counts.sum() else np.zeros(0, dtype=INDEX_DTYPE)
    if dtype == np.bool_:
        vals = np.ones(len(rows), dtype=np.bool_)
        sr = Semiring("dedup_or", np.logical_or, np.logical_and, False, np.dtype(np.bool_))
    else:
        vals = rng.random(len(rows)).astype(dtype) + 0.1
        sr = Semiring("dedup_add", np.add, np.multiply, 0.0, np.dtype(dtype))
    return coo_to_csr(rows, cols, vals, (nrows, ncols), sr)
