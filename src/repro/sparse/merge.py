"""Merging partial CSR results with a semiring add.

Algorithm 2 merges, into each process's output block ``Ci``, the partial
results of every tile round (``Ci = MERGE(Ci, C_partial)``, lines 18/22/29)
— partials from remote computations, diagonal tiles and local tiles can
all target the same output positions.  The paper uses SPA- or hash-based
merging (§III-C, citing [42]), and so does this module, choosing by what
it can observe.  A block that fits the SPA scratch and would fill a fair
share of it merges over the dense key space, one way per kind of add.  A
``logical_or`` add folds through :func:`~repro.sparse.build.spa_fold`, the
accumulator the ``spa`` kernel uses: OR is order-free, so nothing needs
ordering.  Every other add is order-bound — a float sum is only
reproducible if entries of one position are combined in the order their
partials were given, through the same ``reduceat`` — so its values are
counting-sorted into exactly the order a stable sort of the fused key
would give (:func:`_counting_sort_fold`) and folded by that ``reduceat``;
a dense ``add.at`` fold would associate the sum differently.  Blocks
outside the bound sort (concatenate →
:func:`~repro.sparse.build.row_major_order` → reduceat).  No branch reads
the column order inside a part (it stores each position once), so tile
products reach it unsorted; the one-part branch, which returns its part,
sorts those rows itself.  The SPA/hash distinction of the *cost model*
stays with the caller.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .build import SPA_MAX_SCRATCH_ELEMS, csr_from_flat_keys, csr_from_triples, order_rows, spa_fold
from .csr import INDEX_DTYPE, CsrMatrix
from .semiring import PLUS_TIMES, Semiring


#: A dense merge pays per scratch slot, the sort per entry: a block emptier
#: than one entry per this many slots sorts (docs/kernels.md, "The accumulator").
DENSE_MERGE_SLOTS_PER_ENTRY = 8


def merge_csrs(
    parts: Sequence[CsrMatrix],
    semiring: Semiring = PLUS_TIMES,
) -> CsrMatrix:
    """k-way merge of equal-shape partial results.

    Duplicate positions combine with the semiring add.  Returns an empty
    matrix only if ``parts`` is empty or all parts are empty; all parts
    must share one shape.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        raise ValueError("merge_csrs needs at least one partial result")
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise ValueError(f"shape mismatch in merge: {p.shape} vs {shape}")
    nonempty = [p for p in parts if p.nnz > 0]
    if not nonempty:
        return CsrMatrix.empty(shape, dtype=semiring.dtype)
    if len(nonempty) == 1:
        only = order_rows(nonempty[0], copy=True)
        return CsrMatrix(
            shape, only.indptr, only.indices, semiring.coerce(only.data), check=False
        )
    size = shape[0] * shape[1]
    entries = sum(p.nnz for p in nonempty)
    if size > min(SPA_MAX_SCRATCH_ELEMS, DENSE_MERGE_SLOTS_PER_ENTRY * entries):
        rows = np.concatenate([p.row_ids() for p in nonempty])
        cols = np.concatenate([p.indices for p in nonempty])
        vals = np.concatenate([semiring.coerce(p.data) for p in nonempty])
        return csr_from_triples(rows, cols, vals, shape, semiring)
    # Dense key space: every part's fused ``row * ncols + col`` keys, back
    # to back — the parts share one shape, so one ``repeat`` builds them all.
    row_base = np.arange(0, size, shape[1], dtype=INDEX_DTYPE)
    flat = np.repeat(
        np.tile(row_base, len(nonempty)),
        np.concatenate([p.row_nnz() for p in nonempty]),
    )
    flat += np.concatenate([p.indices for p in nonempty])
    part_vals = [semiring.coerce(p.data) for p in nonempty]
    if semiring.add is np.logical_or and semiring.dtype == np.bool_:  # order-free
        vals = np.concatenate(part_vals)
        keys, data = spa_fold(flat, None if vals.all() else vals, size, semiring)
    else:
        keys, data = _counting_sort_fold(flat, part_vals, size, semiring)
    return csr_from_flat_keys(keys, data, shape)


def _counting_sort_fold(
    flat: np.ndarray, part_vals: Sequence[np.ndarray], size: int, semiring: Semiring
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold back-to-back parts in part order, without a comparison sort.

    ``flat`` holds the fused keys of every part, part after part, and
    ``part_vals`` each part's values; a part stores no key twice.  A
    counting sort over the ``size`` dense keys gathers every key's values
    into one segment, in part order — element for element the array a
    stable sort of ``flat`` would produce — and the same ``reduceat``
    folds it, so a float sum associates exactly as on the sorted path.
    Returns the distinct keys, increasing, and their folded values.
    """
    counts = np.bincount(flat, minlength=size)
    keys = np.flatnonzero(counts != 0)  # a boolean scan: several times faster
    key_counts = counts[keys]
    ends = np.cumsum(key_counts)
    starts = ends - key_counts
    cursor = counts  # reused: slot ``k`` holds where key ``k``'s next value goes
    cursor[keys] = starts
    ordered = np.empty(len(flat), dtype=semiring.dtype)
    lo = 0
    for vals in part_vals:
        part = flat[lo : lo + len(vals)]
        pos = cursor[part]
        ordered[pos] = vals
        pos += 1
        cursor[part] = pos
        lo += len(vals)
    # A part that stored one position twice advanced its cursor once for two
    # values: one was overwritten.  Raise rather than drop it silently.
    if not np.array_equal(cursor[keys], ends):
        raise ValueError("merge_csrs: a partial result stores one position twice")
    return keys, semiring.reduce_segments(ordered, starts)


def merge_bytes(parts: Sequence[CsrMatrix]) -> int:
    """Bytes streamed by a merge — charged to the virtual compute clock."""
    return sum(p.nbytes_estimate() for p in parts if p is not None)
