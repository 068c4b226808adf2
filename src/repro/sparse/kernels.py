"""Kernel dispatch registry for the local multiply hot path.

Every local product in the repo — the diagonal/local/remote tile
multiplies of Algorithm 2, the naive baseline's one big local SpGEMM, the
symbolic pattern products, and the SUMMA baselines' per-stage block
products — funnels through one of a small set of named kernels registered
here.  Callers select a kernel by name (``TsConfig.kernel``, the CLI's
``--kernel`` flag, or ``spgemm(..., method=...)``) and the registry
resolves it, enforcing per-kernel semiring support.

Registered SpGEMM kernels (``b_format="csr"``):

``esc-vectorized`` (default)
    Batched expand-sort-compress: expand every ``A`` nonzero into its
    scaled ``B`` row with pure numpy gathers, order the products by
    (row, col) with :func:`repro.sparse.build.row_major_order` — one
    stable sort of the fused ``row·ncols + col`` key — and compress
    duplicates with a semiring ``reduceat``.  Works for any registered
    semiring.
``spa``
    Batched dense sparse-accumulator (§III-C's SPA, vectorized): products
    are scattered into a dense ``rows × d`` scratch block with the
    semiring's ``ufunc.at``, whole row blocks at a time, with a parallel
    boolean mask tracking the output pattern (so explicit zeros survive,
    as in every other kernel).  Scratch is bounded: blocks are sized so
    the dense scratch never exceeds ``max_scratch_elems`` entries — the
    vectorized analogue of "SPA must fit in cache".  Restricted to
    semirings whose zero is a total additive identity (the scratch is
    identity-initialized); see ``_IDENTITY_SAFE_SEMIRINGS``.
``hash``
    The same function under the paper's other accumulator name: grouping
    products by one flat fused-key sort stands in for per-row hash
    probing.  Memory is proportional to the expanded products, never to
    ``d``, matching why the paper hashes for ``d > 1024``; the cost model
    still charges the two names their own calibrated constants.
``scipy``
    ``scipy.sparse`` matrix multiplication; valid only for the arithmetic
    ``plus_times`` semiring.
``spa-rowwise`` / ``hash-rowwise``
    The seed's scalar row-by-row reference kernels built on
    :mod:`repro.sparse.accumulators`.  Exact but loop-based; kept for
    differential testing and as the baseline the perf-regression smoke
    test measures the vectorized kernels against.

One dense-B kernel (``b_format="dense"``) backs the SpMM variant:

``dense``
    CSR × dense row-block product (:func:`repro.sparse.ops.spmm_dense`).

Every kernel returns ``(C, flops)`` where ``flops`` counts semiring
multiplications — the paper's *flops* measure, which drives the virtual
compute clock.  All numpy-backed SpGEMM kernels agree exactly on output
``(indptr, indices, data)`` for the semirings they support, including
explicit zeros produced by cancellation; ``scipy`` is the one exception —
its matmul canonicalizes cancelled entries away, so it may store fewer
nonzeros (compare through ``prune_zeros()`` when mixing it with the
others).  ``tests/sparse/test_kernels.py`` enforces the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .accumulators import HashAccumulator, SpaAccumulator
from .build import csr_from_triples
from .csr import INDEX_DTYPE, CsrMatrix
from .ops import spmm_dense
from .semiring import PLUS_TIMES, Semiring

#: The production default: vectorized for every semiring.
DEFAULT_KERNEL = "esc-vectorized"

#: Largest dense scratch (in elements) one SPA row block may use.
SPA_MAX_SCRATCH_ELEMS = 1 << 22


@dataclass(frozen=True)
class KernelSpec:
    """A named local-multiply kernel and its capabilities.

    ``semirings`` is ``None`` when the kernel handles any registered
    semiring, else a frozenset of supported semiring names.
    """

    name: str
    fn: Callable
    b_format: str  # "csr" (SpGEMM) or "dense" (SpMM)
    vectorized: bool
    semirings: Optional[frozenset]
    description: str

    def supports(self, semiring: Semiring) -> bool:
        return self.semirings is None or semiring.name in self.semirings


_REGISTRY: Dict[str, KernelSpec] = {}


def register_kernel(
    name: str,
    *,
    b_format: str = "csr",
    vectorized: bool,
    semirings: Optional[frozenset] = None,
    description: str = "",
):
    """Decorator: register ``fn`` as the kernel named ``name``."""
    if b_format not in ("csr", "dense"):
        raise ValueError(f"b_format must be 'csr' or 'dense', got {b_format!r}")

    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"kernel {name!r} already registered")
        _REGISTRY[name] = KernelSpec(
            name=name,
            fn=fn,
            b_format=b_format,
            vectorized=vectorized,
            semirings=semirings,
            description=description,
        )
        return fn

    return deco


def get_kernel(name: str, b_format: Optional[str] = None) -> KernelSpec:
    """Look up a registered kernel by name.

    ``b_format`` only scopes the *error message* to the kernels valid in
    the caller's context (e.g. ``dispatch_spmm`` lists dense-B kernels);
    a found kernel of the wrong format is returned for the caller's own
    format check to reject with a precise message.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        names = sorted(available_kernels(b_format) if b_format else _REGISTRY)
        raise ValueError(f"unknown kernel {name!r}; available: {names}")
    return spec


def available_kernels(b_format: str = "csr") -> Tuple[str, ...]:
    """Names of registered kernels for one operand format."""
    return tuple(n for n, s in _REGISTRY.items() if s.b_format == b_format)


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
    if spec.b_format != "csr":
        raise ValueError(f"kernel {kernel!r} is not an SpGEMM kernel")
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
) -> Tuple[CsrMatrix, int]:
    """Multiply two CSR matrices with the named kernel; ``(C, flops)``."""
    spec = resolve_spgemm(kernel, semiring, a, d=b.ncols, strict=strict)
    return spec.fn(a, b, semiring)


def dispatch_spmm(
    a: CsrMatrix, b_dense: np.ndarray, kernel: str = "dense"
) -> Tuple[np.ndarray, int]:
    """CSR × dense multiply via a registered dense-B kernel."""
    spec = get_kernel(kernel, b_format="dense")
    if spec.b_format != "dense":
        raise ValueError(f"kernel {kernel!r} is not a dense-B kernel")
    return spec.fn(a, b_dense)


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


def _expand(a: CsrMatrix, b: CsrMatrix, semiring: Semiring):
    """Expand step shared by the batched kernels.

    Generates one ``(row, col, value)`` triple per semiring multiplication
    — ``value = A(r,c) ⊗ B(c,j)`` — with rows in non-decreasing order.
    Returns ``None`` when no products exist (the caller emits an empty
    result); raises on dimension mismatch.
    """
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    if a.nnz == 0 or b.nnz == 0:
        return None
    counts = b.row_nnz()[a.indices]  # products generated per A nonzero
    total = int(counts.sum())
    if total == 0:
        return None
    out_rows = np.repeat(a.row_ids(), counts)
    # Position of each product inside its B-row segment:
    seg_offsets = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
        np.concatenate([[0], np.cumsum(counts[:-1])]).astype(INDEX_DTYPE), counts
    )
    src = np.repeat(b.indptr[a.indices], counts) + seg_offsets
    out_cols = b.indices[src]
    out_vals = semiring.multiply(np.repeat(a.data, counts), b.data[src])
    return out_rows, out_cols, out_vals, total


def _empty_result(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring
) -> Tuple[CsrMatrix, int]:
    return CsrMatrix.empty((a.nrows, b.ncols), dtype=semiring.dtype), 0


# ----------------------------------------------------------------------
# vectorized kernels
# ----------------------------------------------------------------------
@register_kernel(
    "hash",
    vectorized=True,
    description="batched fused-key grouping (single stable sort); any semiring",
)
@register_kernel(
    "esc-vectorized",
    vectorized=True,
    description="batched expand-sort-compress; any semiring (default)",
)
def spgemm_esc_vectorized(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Expand-sort-compress SpGEMM (vectorized, any semiring)."""
    expansion = _expand(a, b, semiring)
    if expansion is None:
        return _empty_result(a, b, semiring)
    out_rows, out_cols, out_vals, total = expansion
    shape = (a.nrows, b.ncols)
    return csr_from_triples(out_rows, out_cols, out_vals, shape, semiring), total


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
    *,
    max_scratch_elems: int = SPA_MAX_SCRATCH_ELEMS,
) -> Tuple[CsrMatrix, int]:
    """Blocked dense-SPA SpGEMM: scatter-accumulate into a bounded scratch.

    Products of a block of output rows are folded into a dense
    ``block_rows × d`` scratch (initialized to the semiring's additive
    identity) with ``semiring.add.at``; a parallel boolean mask records
    the output pattern so explicit zeros are kept.  Reading the scratch
    back in flat row-major order yields (row, col)-sorted output for free.
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
    expansion = _expand(a, b, semiring)
    if expansion is None:
        return _empty_result(a, b, semiring)
    out_rows, out_cols, out_vals, total = expansion
    d = b.ncols
    rows_per_block = max(1, max_scratch_elems // max(d, 1))

    parts_keys, parts_vals = [], []
    for r0 in range(0, a.nrows, rows_per_block):
        r1 = min(r0 + rows_per_block, a.nrows)
        lo = np.searchsorted(out_rows, r0, side="left")
        hi = np.searchsorted(out_rows, r1, side="left")
        if lo == hi:
            continue
        flat = (out_rows[lo:hi] - r0) * d + out_cols[lo:hi]
        scratch = np.full((r1 - r0) * d, semiring.zero, dtype=semiring.dtype)
        semiring.add.at(scratch, flat, out_vals[lo:hi])
        mask = np.zeros((r1 - r0) * d, dtype=bool)
        mask[flat] = True
        keys = np.flatnonzero(mask)
        parts_keys.append(keys + r0 * d)
        parts_vals.append(scratch[keys])

    keys = np.concatenate(parts_keys)
    final_vals = np.concatenate(parts_vals)
    final_rows = keys // d
    final_cols = keys % d
    row_counts = np.bincount(final_rows, minlength=a.nrows)
    indptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(INDEX_DTYPE)
    return (
        CsrMatrix((a.nrows, d), indptr, final_cols, final_vals, check=False),
        total,
    )


@register_kernel(
    "scipy",
    vectorized=True,
    semirings=frozenset({"plus_times"}),
    description="scipy.sparse matmul fast path; plus_times only",
)
def spgemm_scipy_kernel(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """scipy fast path — valid only for the arithmetic semiring."""
    if semiring.name != "plus_times":
        raise ValueError("scipy method supports only the plus_times semiring")
    flops = spgemm_flops(a, b)
    product = a.to_scipy() @ b.to_scipy()
    product.sum_duplicates()
    product.sort_indices()
    return CsrMatrix.from_scipy(product), flops


# ----------------------------------------------------------------------
# scalar reference kernels (the seed's per-row path)
# ----------------------------------------------------------------------
def _spgemm_rowwise(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring, accumulator
) -> Tuple[CsrMatrix, int]:
    """Shared row-loop driver for the SPA / hash reference kernels."""
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    indptr = np.zeros(a.nrows + 1, dtype=INDEX_DTYPE)
    all_cols, all_vals = [], []
    flops = 0
    for r in range(a.nrows):
        accumulator.reset()
        cols_r, vals_r = a.row(r)
        for c, v in zip(cols_r, vals_r):
            b_cols, b_vals = b.row(int(c))
            flops += len(b_cols)
            if len(b_cols):
                accumulator.accumulate(v, b_cols, b_vals)
        out_cols, out_vals = accumulator.extract()
        indptr[r + 1] = indptr[r] + len(out_cols)
        all_cols.append(out_cols)
        all_vals.append(out_vals)
    indices = np.concatenate(all_cols) if all_cols else np.zeros(0, dtype=INDEX_DTYPE)
    data = (
        np.concatenate(all_vals) if all_vals else np.zeros(0, dtype=semiring.dtype)
    )
    return (
        CsrMatrix((a.nrows, b.ncols), indptr, indices, data, check=False),
        flops,
    )


@register_kernel(
    "spa-rowwise",
    vectorized=False,
    description="scalar row-by-row dense SPA (reference; differential testing)",
)
def spgemm_spa_rowwise(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Row-by-row SpGEMM with a dense SPA of length ``d = b.ncols``."""
    return _spgemm_rowwise(a, b, semiring, SpaAccumulator(b.ncols, semiring))


@register_kernel(
    "hash-rowwise",
    vectorized=False,
    description="scalar row-by-row hash accumulation (reference; differential testing)",
)
def spgemm_hash_rowwise(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Row-by-row SpGEMM with a hash-table accumulator."""
    return _spgemm_rowwise(a, b, semiring, HashAccumulator(semiring))


# ----------------------------------------------------------------------
# dense-B kernel (SpMM variant)
# ----------------------------------------------------------------------
@register_kernel(
    "dense",
    b_format="dense",
    vectorized=True,
    description="CSR x dense row-block product (SpMM local multiply)",
)
def spmm_dense_kernel(a: CsrMatrix, b_dense: np.ndarray) -> Tuple[np.ndarray, int]:
    return spmm_dense(a, b_dense)
