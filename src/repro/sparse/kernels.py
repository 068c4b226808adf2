"""Kernel dispatch registry for the local multiply hot path.

Every local product in the repo — the diagonal/local/remote tile
multiplies of Algorithm 2, the naive baseline's one big local SpGEMM, the
symbolic pattern products, and the SUMMA baselines' per-stage block
products — funnels through one of a small set of named kernels registered
here.  Callers select a kernel by name (``TsConfig.kernel``, the CLI's
``--kernel`` flag, or ``spgemm(..., method=...)``) and the registry
resolves it, enforcing per-kernel semiring support.

Registered SpGEMM kernels:

``esc-vectorized`` (default)
    Batched expand-sort-compress: expand every ``A`` nonzero into its
    scaled ``B`` row with pure numpy gathers, order the products by
    (row, col) with :func:`repro.sparse.build.row_major_order` — one
    stable sort of the fused ``row·ncols + col`` key — and compress
    duplicates with a semiring ``reduceat``.  Works for any registered
    semiring.  It stands in for the paper's hash accumulator (d > 1024):
    memory is proportional to the expanded products, never to ``d``.
``spa``
    Batched dense sparse-accumulator (§III-C's SPA, vectorized): every
    product is expanded once, straight to its fused ``row·d + col`` key,
    and folded into a dense ``rows × d`` scratch by
    :func:`repro.sparse.build.spa_fold` — the accumulator the boolean
    merge shares — with a boolean mask tracking the output pattern (so
    explicit zeros survive, as in every other kernel).  Scratch is
    bounded by ``SPA_MAX_SCRATCH_ELEMS`` — the vectorized analogue of "SPA
    must fit in cache" — and row-blocked past it.  Restricted to
    semirings whose zero is a total additive identity (the scratch is
    identity-initialized); see ``_IDENTITY_SAFE_SEMIRINGS``.  ``bool``
    operands that store no ``False`` fold nothing under ``bool_and_or``:
    their product is scipy's compiled ``csr_matmat`` on the ``bool`` arrays
    ((∨, ∧) for (+, ×)), the fold's output bit for bit without a scratch.
    A stored ``False`` keeps the fold: the compiled routine drops entries
    that fold to ``False``, this registry stores them.
``scipy``
    scipy's compiled Gustavson product, called on the raw CSR arrays: the
    ``scipy.sparse._sparsetools`` routines ``csr_matrix @ csr_matrix``
    itself runs — ``csr_matmat_maxnnz`` (size the output) and
    ``csr_matmat`` (row-by-row SPA product) — with no ``scipy.sparse``
    object built around any operand, so nothing is validated, copied or
    index-down-cast per call.  ``csr_matmat`` drops sums that cancel to
    exactly zero, hence the trim to ``indptr[-1]``, and leaves each row in
    accumulator-list order: scipy's third routine, ``csr_sort_indices``,
    runs in :func:`dispatch_spgemm`, for every caller but a merge's.
    Valid only for the arithmetic ``plus_times`` semiring.
    The routines are private to scipy:
    ``tests/sparse/test_sparsetools_contract.py`` pins what is relied on
    (for ``bool`` data too, which ``spa`` passes), and they are imported
    at module top so a scipy without them fails at import.
The SpMM variant's dense-B product is not a registry entry: it has one
implementation, :func:`repro.sparse.ops.spmm_dense`, which its callers
call directly.

Every kernel returns ``(C, flops)`` where ``flops`` counts semiring
multiplications — the paper's *flops* measure, which drives the virtual
compute clock.  All numpy-backed SpGEMM kernels agree exactly on output
``(indptr, indices, data)`` for the semirings they support, including
explicit zeros produced by cancellation; ``scipy`` is the one exception —
its product drops cancelled entries, so it may store fewer nonzeros
(compare through ``prune_zeros()`` when mixing it with the others).
``tests/sparse/test_kernels.py`` enforces the equivalence.

:func:`symbolic_size` is the symbolic step's counterpart (§III-D): the
exact output size of a product — stored entries, non-empty rows, flops —
without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz

from .build import SPA_MAX_SCRATCH_ELEMS, csr_from_flat_keys, csr_from_triples, order_rows, spa_fold
from .csr import INDEX_DTYPE, CsrMatrix
from .semiring import BOOL_AND_OR, PLUS_TIMES, Semiring

#: The production default: vectorized for every semiring.
DEFAULT_KERNEL = "esc-vectorized"


@dataclass(frozen=True)
class KernelSpec:
    """A named local-multiply kernel and its capabilities.

    ``semirings`` is ``None`` when the kernel handles any registered
    semiring, else a frozenset of supported semiring names.
    """

    name: str
    fn: Callable
    vectorized: bool
    semirings: Optional[frozenset]
    description: str

    def supports(self, semiring: Semiring) -> bool:
        return self.semirings is None or semiring.name in self.semirings


_REGISTRY: Dict[str, KernelSpec] = {}


def register_kernel(
    name: str,
    *,
    vectorized: bool,
    semirings: Optional[frozenset] = None,
    description: str = "",
):
    """Decorator: register ``fn`` as the kernel named ``name``."""

    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"kernel {name!r} already registered")
        _REGISTRY[name] = KernelSpec(
            name=name,
            fn=fn,
            vectorized=vectorized,
            semirings=semirings,
            description=description,
        )
        return fn

    return deco


def get_kernel(name: str) -> KernelSpec:
    """Look up a registered kernel by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}")
    return spec


def available_kernels() -> Tuple[str, ...]:
    """Names of the registered SpGEMM kernels."""
    return tuple(_REGISTRY)


#: Largest output width ``d`` for which ``auto`` prefers the batched SPA
#: kernel on non-arithmetic (identity-safe) semirings.  Mirrors the
#: paper's d=1024 SPA/hash crossover (§III-C): up to here the dense
#: ``rows × d`` scratch is cache-resident and the SPA wins the microbench
#: decisively (~83× vs ~19× for ESC over the seed path, docs/kernels.md).
SPA_AUTO_MAX_D = 1024


def _auto_spec(semiring: Semiring, a: Optional[CsrMatrix], d: Optional[int]) -> KernelSpec:
    """The ``auto`` policy: scipy for arithmetic float data, batched SPA
    for small-``d`` identity-safe semirings, vectorized ESC otherwise."""
    if semiring.name == "plus_times" and (a is None or a.dtype != np.bool_):
        return _REGISTRY["scipy"]
    if (
        d is not None
        and d <= SPA_AUTO_MAX_D
        and semiring.name in _IDENTITY_SAFE_SEMIRINGS
    ):
        return _REGISTRY["spa"]
    return _REGISTRY[DEFAULT_KERNEL]


def resolve_spgemm(
    kernel: str,
    semiring: Semiring,
    a: Optional[CsrMatrix] = None,
    *,
    d: Optional[int] = None,
    strict: bool = True,
) -> KernelSpec:
    """Resolve a kernel name (or ``"auto"``) to a runnable SpGEMM spec.

    ``"auto"`` picks the scipy fast path for arithmetic float data;
    otherwise, when the output width ``d`` is known, small-``d``
    identity-safe semirings (boolean BFS frontiers, min-plus paths) get
    the batched SPA — the microbench winner in that regime — and
    everything else the vectorized ESC kernel.  A named kernel that does
    not support ``semiring`` raises by default; ``strict=False`` silently
    degrades to the auto choice instead.  Only the symbolic planner uses
    the lenient mode — its boolean pattern products are an internal
    detail the user's kernel choice was never about, so a forced
    ``--kernel scipy`` run can still plan the tiled algorithm.  Numeric
    paths stay strict so a forced kernel is never silently substituted.
    """
    if kernel == "auto":
        return _auto_spec(semiring, a, d)
    spec = get_kernel(kernel)
    if not spec.supports(semiring):
        if strict:
            raise ValueError(
                f"kernel {kernel!r} supports only "
                f"{sorted(spec.semirings)} semirings, not {semiring.name!r}"
            )
        return _auto_spec(semiring, a, d)
    return spec


def dispatch_spgemm(
    a: CsrMatrix,
    b: CsrMatrix,
    semiring: Semiring = PLUS_TIMES,
    kernel: str = "auto",
    *,
    strict: bool = True,
    ordered: bool = True,
) -> Tuple[CsrMatrix, int]:
    """Multiply two CSR matrices with the named kernel; ``(C, flops)``,
    each row's columns increasing — unless ``ordered`` is false, for a
    product only ``merge_csrs`` reads: the compiled routes then leave them
    in accumulator order."""
    spec = resolve_spgemm(kernel, semiring, a, d=b.ncols, strict=strict)
    c, flops = spec.fn(a, b, semiring)
    return (order_rows(c, copy=False) if ordered else c), flops


# ----------------------------------------------------------------------
# shared batched machinery
# ----------------------------------------------------------------------
def spgemm_flops(a: CsrMatrix, b: CsrMatrix) -> int:
    """Number of semiring multiplications in ``a @ b`` (no compute)."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.nnz == 0:
        return 0
    return int(b.row_nnz()[a.indices].sum())


def row_flops_before(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Multiplications of ``a @ b`` in the rows before each row — length
    ``a.nrows + 1``, so the last entry is the flop count and a row receives
    a product iff its two entries differ.  One ``b.row_nnz()`` gather at
    ``a.indices``, prefix-summed and read at ``a.indptr``; the dimensions
    are the caller's to check."""
    products = np.zeros(a.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(b.row_nnz()[a.indices], out=products[1:])
    return products[a.indptr]


def symbolic_size(a: CsrMatrix, b: CsrMatrix) -> Tuple[int, int, int]:
    """Exact size of ``a @ b`` without forming it: ``(nnz, rows, flops)``.

    What the symbolic step (§III-D) compares: the distinct output
    positions, the output rows holding any, and the multiplications.  Only
    patterns are read, so a stored ``0.0`` / ``False`` counts like any
    other entry — the sizes are those of every numpy-backed kernel's
    product, under any semiring.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return 0, 0, 0
    before = row_flops_before(a, b)
    rows = int(np.count_nonzero(before[1:] != before[:-1]))
    nnz = csr_matmat_maxnnz(a.nrows, b.ncols, a.indptr, a.indices, b.indptr, b.indices)
    return int(nnz), rows, int(before[-1])


def _expand(a: CsrMatrix, b: CsrMatrix):
    """Expand step shared by the batched kernels.

    One product per (``A`` nonzero, entry of the ``B`` row it selects), in
    ``A``'s storage order — so output rows are non-decreasing.  Returns
    ``(counts, offsets, src)``: products per ``A`` nonzero, their prefix
    sums (length ``nnz + 1``, so ``offsets[-1]`` is the flop count and
    ``offsets[a.indptr]`` delimits the products of each output row), and
    the ``B`` entry every product reads.  ``None`` when no products exist
    (the caller emits an empty result); raises on dimension mismatch.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return None
    starts = b.indptr[a.indices]
    counts = b.indptr[1:][a.indices] - starts
    offsets = np.zeros(a.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return None
    # Position inside its B-row segment = product index - segment start:
    starts -= offsets[:-1]
    src = np.repeat(starts, counts)
    src += np.arange(total, dtype=INDEX_DTYPE)
    return counts, offsets, src


def _empty_result(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring
) -> Tuple[CsrMatrix, int]:
    return CsrMatrix.empty((a.nrows, b.ncols), dtype=semiring.dtype), 0


def _compiled_product(
    a: CsrMatrix, b: CsrMatrix, a_data: np.ndarray, b_data: np.ndarray
) -> CsrMatrix:
    """scipy's compiled Gustavson product on the raw CSR arrays, with
    ``a_data`` / ``b_data`` as the operands' values: ``+`` and ``×`` are
    those of the data dtype — arithmetic on numbers, (∨, ∧) on ``bool``.
    The routines check no bounds: the caller has compared the dimensions.
    """
    nrows, ncols = a.nrows, b.ncols
    maxnnz = csr_matmat_maxnnz(nrows, ncols, a.indptr, a.indices, b.indptr, b.indices)
    indptr = np.empty(nrows + 1, dtype=INDEX_DTYPE)
    indices = np.empty(maxnnz, dtype=INDEX_DTYPE)
    data = np.empty(maxnnz, dtype=np.result_type(a_data.dtype, b_data.dtype))
    csr_matmat(
        nrows, ncols, a.indptr, a.indices, a_data, b.indptr, b.indices, b_data,
        indptr, indices, data,
    )
    # Entries that folded to exactly zero were dropped: trim to what was
    # stored.  Each row stays in accumulator-list order (dispatch_spgemm).
    nnz = indptr[-1]
    return CsrMatrix((nrows, ncols), indptr, indices[:nnz], data[:nnz], check=False)


# ----------------------------------------------------------------------
# vectorized kernels
# ----------------------------------------------------------------------
@register_kernel(
    "esc-vectorized",
    vectorized=True,
    description="batched expand-sort-compress; any semiring (default)",
)
def spgemm_esc_vectorized(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Expand-sort-compress SpGEMM (vectorized, any semiring)."""
    expansion = _expand(a, b)
    if expansion is None:
        return _empty_result(a, b, semiring)
    counts, _, src = expansion
    rows, cols = np.repeat(a.row_ids(), counts), b.indices[src]
    vals = semiring.multiply(np.repeat(a.data, counts), b.data[src])
    return csr_from_triples(rows, cols, vals, (a.nrows, b.ncols), semiring), len(src)


#: Semirings whose ``zero`` is an additive identity on the *whole* value
#: domain, so folding products into an identity-filled scratch is exact.
#: ``max_times`` is excluded: its zero (0.0) is only an identity on the
#: non-negative values its docstring scopes it to, and a negative product
#: would silently lose to the scratch's 0.0 — the other kernels never
#: touch the identity, so the cross-kernel equivalence guarantee would
#: break exactly there.
_IDENTITY_SAFE_SEMIRINGS = frozenset(
    {"plus_times", "bool_and_or", "min_plus", "sel2nd_min"}
)


@register_kernel(
    "spa",
    vectorized=True,
    semirings=_IDENTITY_SAFE_SEMIRINGS,
    description="batched dense sparse-accumulator over bounded row blocks; "
    "semirings with a total additive identity",
)
def spgemm_spa_vectorized(
    a: CsrMatrix,
    b: CsrMatrix,
    semiring: Semiring = PLUS_TIMES,
) -> Tuple[CsrMatrix, int]:
    """Dense-SPA SpGEMM: one expand to fused ``row * d + col`` keys, one
    fold by :func:`repro.sparse.build.spa_fold`, whose row-major read-back
    is the (row, col)-sorted output.  Row blocks appear only when
    ``nrows * d`` exceeds ``SPA_MAX_SCRATCH_ELEMS``.  ``bool`` operands that
    store no ``False`` under ``bool_and_or`` skip all of it — every output
    entry is ``True``, so the product is :func:`_compiled_product`'s
    unsorted pattern — and the scratch bound does not apply to them.

    Only valid for identity-safe semirings: the fold computes
    ``add(zero, ...)``, which must equal a plain first write.  Guarded
    here as well as at dispatch so direct calls cannot silently get a
    wrong answer (e.g. a negative ``max_times`` product losing to the
    0.0-initialized scratch).
    """
    if semiring.name not in _IDENTITY_SAFE_SEMIRINGS:
        raise ValueError(
            f"spa kernel supports only {sorted(_IDENTITY_SAFE_SEMIRINGS)} "
            f"semirings, not {semiring.name!r}: its scratch is initialized "
            "to the additive identity, which must be an identity on the "
            "whole value domain"
        )
    if (
        semiring is BOOL_AND_OR
        and a.dtype == np.bool_
        and b.dtype == np.bool_
        and a.data.all()
        and b.data.all()
    ):
        # True ∧ True, OR-folded: no entry folds to False, so the compiled
        # product drops none and is the fold's output bit for bit.
        flops = spgemm_flops(a, b)  # raises on a mismatch, before C reads an array
        if flops == 0:
            return _empty_result(a, b, semiring)
        return _compiled_product(a, b, a.data, b.data), flops
    expansion = _expand(a, b)
    if expansion is None:
        return _empty_result(a, b, semiring)
    counts, offsets, src = expansion
    d = b.ncols
    row_offsets = offsets[a.indptr]
    flat = np.repeat(
        np.arange(0, a.nrows * d, d, dtype=INDEX_DTYPE),
        row_offsets[1:] - row_offsets[:-1],
    )
    flat += b.indices[src]
    vals = semiring.multiply(np.repeat(a.data, counts), b.data[src])
    if a.nrows * d <= SPA_MAX_SCRATCH_ELEMS:
        keys, data = spa_fold(flat, vals, a.nrows * d, semiring)
    else:  # the same fold per row block, cut at the rows' product ranges
        step = max(1, SPA_MAX_SCRATCH_ELEMS // d)
        blocks = []
        for r0 in range(0, a.nrows, step):
            r1 = min(r0 + step, a.nrows)
            lo, hi = row_offsets[r0], row_offsets[r1]
            if lo < hi:
                keys, data = spa_fold(
                    flat[lo:hi] - r0 * d, vals[lo:hi], (r1 - r0) * d, semiring
                )
                blocks.append((keys + r0 * d, data))
        keys, data = (np.concatenate(column) for column in zip(*blocks))
    return csr_from_flat_keys(keys, data, (a.nrows, d)), len(src)


@register_kernel(
    "scipy",
    vectorized=True,
    semirings=frozenset({"plus_times"}),
    description="scipy.sparse matmul fast path; plus_times only",
)
def spgemm_scipy_kernel(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """scipy's Gustavson product on the raw arrays — the routines, in the
    order, ``csr_matrix @ csr_matrix`` runs them, bar the sort, so values
    are its values bit for bit.  Valid only for the arithmetic semiring."""
    if semiring.name != "plus_times":
        raise ValueError("scipy method supports only the plus_times semiring")
    flops = spgemm_flops(a, b)
    # this kernel counts: stored True / False multiply as 1.0 / 0.0
    a_data, b_data = (
        x.astype(np.float64) if x.dtype == np.bool_ else x for x in (a.data, b.data)
    )
    return _compiled_product(a, b, a_data, b_data), flops
