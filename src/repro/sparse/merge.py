"""Merging partial CSR results with a semiring add.

Algorithm 2 merges, into each process's output block ``Ci``, the partial
results of every tile round (``Ci = MERGE(Ci, C_partial)``, lines 18/22/29)
— partials from remote computations, diagonal tiles and local tiles can
all target the same output positions.  The paper uses SPA- or hash-based
merging (§III-C, citing [42]); here a single vectorized k-way merge
(concatenate → :func:`~repro.sparse.build.row_major_order` → reduceat)
plays both roles, with the SPA/hash distinction preserved in the *cost
model* by the caller.  Each partial is a sorted run of the fused key, so
the stable sort degenerates to a k-way run merge, and entries of one
position are combined in the order their partials were given.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from .build import csr_from_triples
from .csr import CsrMatrix
from .semiring import PLUS_TIMES, Semiring


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
    return csr_from_triples(rows, cols, vals, shape, semiring)


def merge_bytes(parts: Sequence[CsrMatrix]) -> int:
    """Bytes streamed by a merge — charged to the virtual compute clock."""
    return sum(p.nbytes_estimate() for p in parts if p is not None)
