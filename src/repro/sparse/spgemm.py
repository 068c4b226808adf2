"""Local (single-process) SpGEMM over arbitrary semirings (facade).

Gustavson's row algorithm [18] computes ``C(r,:) = ⊕_{c: A(r,c)≠0}
A(r,c) ⊗ B(c,:)``.  The kernels themselves live in the dispatch registry
of :mod:`repro.sparse.kernels`; this module keeps the historical
call-level API — ``spgemm(a, b, semiring, method=...)`` and the named
``spgemm_*`` helpers — and maps the short method names onto registry
kernels:

==========  ====================  =========================================
method      registry kernel       notes
==========  ====================  =========================================
``esc``     ``esc-vectorized``    batched expand-sort-compress (default)
``spa``     ``spa``               batched blocked dense sparse-accumulator
``hash``    ``hash``              batched fused-key grouping
``scipy``   ``scipy``             ``(+,×)`` fast path only
``auto``    —                     scipy for arithmetic float data, else ESC
==========  ====================  =========================================

Full registry names (including the scalar ``spa-rowwise`` /
``hash-rowwise`` reference kernels the seed shipped as its production
path) are accepted too.  Every kernel returns ``(C, flops)`` where
``flops`` is the number of semiring multiplications — the paper's *flops*
measure, which also drives the virtual compute clock.

The kernel/accumulator *cost policy* (SPA below d ≤ 1024, hash above,
§III-C) lives with the caller in :mod:`repro.core.config`; this module
only executes.
"""

from __future__ import annotations

from typing import Tuple

from .csr import CsrMatrix
from .kernels import (
    available_kernels,
    dispatch_spgemm,
    get_kernel,
    spgemm_flops,
)
from .semiring import PLUS_TIMES, Semiring

__all__ = [
    "spgemm",
    "spgemm_esc",
    "spgemm_flops",
    "spgemm_hash",
    "spgemm_scipy",
    "spgemm_spa",
]

#: Historical short names → registry kernel names.
METHOD_ALIASES = {
    "esc": "esc-vectorized",
    "spa": "spa",
    "hash": "hash",
    "scipy": "scipy",
}


def spgemm_esc(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Expand-sort-compress SpGEMM (vectorized, any semiring)."""
    return dispatch_spgemm(a, b, semiring, "esc-vectorized", strict=True)


def spgemm_spa(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """SPA SpGEMM: batched for identity-safe semirings, scalar otherwise.

    Matches the seed's behavior on every semiring: where the batched
    kernel's identity-initialized scratch would be wrong (``max_times``
    with negative products), the exact scalar rowwise kernel runs instead.
    """
    return spgemm(a, b, semiring, method="spa")


def spgemm_hash(
    a: CsrMatrix, b: CsrMatrix, semiring: Semiring = PLUS_TIMES
) -> Tuple[CsrMatrix, int]:
    """Hash SpGEMM (vectorized fused-key; rowwise fallback like ``spa``)."""
    return spgemm(a, b, semiring, method="hash")


def spgemm_scipy(a: CsrMatrix, b: CsrMatrix) -> Tuple[CsrMatrix, int]:
    """scipy fast path — valid only for the arithmetic semiring."""
    return dispatch_spgemm(a, b, PLUS_TIMES, "scipy")


def spgemm(
    a: CsrMatrix,
    b: CsrMatrix,
    semiring: Semiring = PLUS_TIMES,
    *,
    method: str = "auto",
) -> Tuple[CsrMatrix, int]:
    """Multiply two CSR matrices over ``semiring``; returns ``(C, flops)``.

    ``method='auto'`` picks the scipy fast path for the arithmetic
    semiring and the vectorized ESC kernel otherwise; explicit names force
    a specific registry kernel (tests use this for differential checking)
    and raise if the kernel cannot handle ``semiring``.
    """
    if method != "auto":
        kernel = METHOD_ALIASES.get(method, method)
        try:
            spec = get_kernel(kernel)
        except ValueError:
            raise ValueError(
                f"unknown spgemm method {method!r}; choose from "
                f"{sorted(set(METHOD_ALIASES) | set(available_kernels())) + ['auto']}"
            ) from None
        # Seed compatibility: the short names predate the batched kernels'
        # semiring restrictions, so method='spa'/'hash' must keep working
        # on every semiring — fall back to the exact scalar rowwise
        # namesake where the batched kernel refuses (e.g. spa + max_times).
        # Full registry names stay strict.
        if method in ("spa", "hash") and not spec.supports(semiring):
            kernel = f"{method}-rowwise"
    else:
        kernel = "auto"
    return dispatch_spgemm(a, b, semiring, kernel, strict=True)
