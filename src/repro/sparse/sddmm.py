"""SDDMM and the fused SDDMM→SpMM kernel (§VI future work).

The paper's conclusion points at adapting TS-SpGEMM's optimizations to
"fused matrix multiplication [53]" — FusedMM, the unified SDDMM+SpMM
kernel behind Force2Vec and GNN layers.  This module provides the local
kernels:

* :func:`sddmm` — sampled dense-dense matrix multiplication: for every
  *stored* position ``(i, j)`` of a sparse pattern, compute
  ``⟨X_i, Y_j⟩`` (optionally scaled by the stored value).  Fully
  vectorized via gathers + an einsum row-dot.
* :func:`fused_sddmm_spmm` — FusedMM's shape: ``(g(SDDMM(P, X, Y)) ⊙ P)
  · Z`` in one pass, with ``g`` an arbitrary elementwise map (e.g. the
  sigmoid force functions of Force2Vec).  The intermediate coefficient
  matrix reuses the pattern's structure and never materializes a second
  index set.

The sparse-embedding application builds its force coefficients with these
kernels; the distributed multiply on top remains TS-SpGEMM.  In the
distributed setting each rank runs them *locally* over its row block of
the coefficient pattern: ``x`` is the rank's own dense ``Z`` rows and
``y`` a buffer holding the (fetched) ``Z`` rows its pattern columns
reference — the rank-resident embedding epoch executes exactly this via
:meth:`repro.core.driver.TsSession.multiply`'s prologue hook.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .csr import INDEX_DTYPE, CsrMatrix
from .semiring import PLUS_TIMES, Semiring
from .spgemm import spgemm


def sddmm(
    pattern: CsrMatrix,
    x: np.ndarray,
    y: np.ndarray,
    *,
    scale_by_values: bool = False,
) -> CsrMatrix:
    """Sampled dense-dense multiply over ``pattern``'s stored positions.

    Returns a CSR with ``pattern``'s structure whose value at ``(i, j)``
    is ``⟨x_i, y_j⟩`` — times the original stored value when
    ``scale_by_values`` (the GraphBLAS ``A ⊙ (X·Yᵀ)`` form).

    ``x`` is ``nrows × d``; ``y`` is ``ncols × d``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != pattern.nrows:
        raise ValueError(f"x must be ({pattern.nrows}, d), got {x.shape}")
    if y.ndim != 2 or y.shape[0] != pattern.ncols:
        raise ValueError(f"y must be ({pattern.ncols}, d), got {y.shape}")
    if x.shape[1] != y.shape[1]:
        raise ValueError("x and y must share the inner dimension")
    if pattern.nnz == 0:
        return CsrMatrix.empty(pattern.shape, dtype=np.float64)
    rows = pattern.row_ids()
    dots = np.einsum("ij,ij->i", x[rows], y[pattern.indices])
    if scale_by_values:
        dots = dots * pattern.data.astype(np.float64)
    return CsrMatrix(
        pattern.shape, pattern.indptr, pattern.indices, dots, check=False
    )


def compact_pattern(
    local: CsrMatrix, needed: np.ndarray
) -> Tuple[CsrMatrix, np.ndarray]:
    """Re-index ``local``'s columns into the compact space of ``needed``.

    ``needed`` is the sorted array of global column ids ``local`` actually
    references (``local.nonzero_columns()``); the result shares
    ``local``'s row structure and data but its column ids index into
    ``needed``.  This is the distributed SDDMM's receive-side trick: the
    dense ``Y`` buffer an SDDMM multiplies against only needs one row per
    *referenced* column — O(referenced rows · d) instead of O(n · d).
    Returns the re-indexed block with the ``ncols``-long slot table it
    mapped through (``slot[needed[s]] == s``), which also tells where a
    fetched row lands in ``Y``: one gather, ~10x faster than searching
    ``needed`` for column ids that restart every row.
    """
    slot = np.zeros(local.ncols, dtype=INDEX_DTYPE)
    slot[needed] = np.arange(len(needed))
    compact = CsrMatrix(
        (local.nrows, len(needed)),
        local.indptr,
        slot[local.indices],
        local.data,
        check=False,
    )
    return compact, slot


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (Force2Vec's force map)."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def force2vec_coefficients(
    pattern: CsrMatrix,
    x: np.ndarray,
    y: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Force2Vec gradient coefficients over ``pattern``'s stored entries.

    For entry ``(i, j)`` with score ``s = ⟨x_i, y_j⟩``: attractive edges
    (``label > 0``) contribute ``σ(s) − 1``, repulsive negative samples
    ``σ(s)`` (Fig 4b).  ``labels`` is the per-entry ±1 label array aligned
    with ``pattern``'s data order.  Returns the value array only — the
    caller owns where those values land (a driver-global coefficient
    matrix, or one rank's resident row block in the distributed SDDMM).
    """
    scores = sddmm(pattern, x, y)
    return sigmoid(scores.data) - (np.asarray(labels) > 0).astype(np.float64)


def fused_sddmm_spmm(
    pattern: CsrMatrix,
    x: np.ndarray,
    y: np.ndarray,
    z: CsrMatrix,
    *,
    elementwise: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    scale_by_values: bool = True,
    semiring: Semiring = PLUS_TIMES,
) -> Tuple[CsrMatrix, int]:
    """FusedMM: ``C = (g(SDDMM(P, X, Y)) ⊙ P) · Z``; returns ``(C, flops)``.

    ``elementwise`` is FusedMM's per-edge map ``g`` (identity when None);
    ``flops`` counts the SpGEMM multiplications plus one multiply-add per
    pattern nonzero for the SDDMM, so callers can charge the fused kernel
    to the virtual clock the same way the paper's cost accounting would.
    """
    coeffs = sddmm(pattern, x, y, scale_by_values=scale_by_values)
    values = coeffs.data
    if elementwise is not None:
        values = np.asarray(elementwise(values), dtype=np.float64)
        if values.shape != coeffs.data.shape:
            raise ValueError("elementwise map must preserve shape")
        coeffs = CsrMatrix(
            coeffs.shape, coeffs.indptr, coeffs.indices, values, check=False
        )
    product, spgemm_flops = spgemm(coeffs, z, semiring)
    sddmm_flops = pattern.nnz * x.shape[1]
    return product, spgemm_flops + sddmm_flops
