"""Merging partial CSR results with a semiring add.

Algorithm 2 merges, into each process's output block ``Ci``, the partial
results of every tile round (``Ci = MERGE(Ci, C_partial)``, lines 18/22/29)
— partials from remote computations, diagonal tiles and local tiles can
all target the same output positions.  The paper uses SPA- or hash-based
merging (§III-C, citing [42]), and so does this module, choosing by what
it can observe.  A ``logical_or`` add on a block that fits the SPA scratch
and would fill a fair share of it folds through
:func:`~repro.sparse.build.spa_fold`, the accumulator the ``spa`` kernel
uses: OR is order-free, so no sort is needed to pin the result.  Every
other add sorts (concatenate → :func:`~repro.sparse.build.row_major_order`
→ reduceat), because a float sum is only reproducible if entries of one
position are combined in the order their partials were given — each
partial is a sorted run of the fused key, so that stable sort degenerates
to a k-way run merge.  The SPA/hash distinction of the *cost model* stays
with the caller.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .build import SPA_MAX_SCRATCH_ELEMS, csr_from_flat_keys, csr_from_triples, spa_fold
from .csr import CsrMatrix
from .semiring import PLUS_TIMES, Semiring


#: The dense fold pays per scratch slot, the sort per entry: a block emptier
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
        only = nonempty[0]
        return CsrMatrix(
            shape, only.indptr, only.indices, semiring.coerce(only.data), check=False
        )
    rows = np.concatenate([p.row_ids() for p in nonempty])
    cols = np.concatenate([p.indices for p in nonempty])
    vals = np.concatenate([semiring.coerce(p.data) for p in nonempty])
    size = shape[0] * shape[1]
    order_free = semiring.add is np.logical_or and vals.dtype == np.bool_
    if order_free and size <= min(
        SPA_MAX_SCRATCH_ELEMS, DENSE_MERGE_SLOTS_PER_ENTRY * len(rows)
    ):
        rows *= shape[1]
        rows += cols  # the fused key, in place
        keys, data = spa_fold(rows, None if vals.all() else vals, size, semiring)
        return csr_from_flat_keys(keys, data, shape)
    return csr_from_triples(rows, cols, vals, shape, semiring)


def merge_bytes(parts: Sequence[CsrMatrix]) -> int:
    """Bytes streamed by a merge — charged to the virtual compute clock."""
    return sum(p.nbytes_estimate() for p in parts if p is not None)
