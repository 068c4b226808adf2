"""Local (single-process) SpGEMM over arbitrary semirings.

Gustavson's row algorithm [18] computes ``C(r,:) = ⊕_{c: A(r,c)≠0}
A(r,c) ⊗ B(c,:)``.  The kernels live in the dispatch registry of
:mod:`repro.sparse.kernels`; :func:`spgemm` is the call-level API for one
local product, with ``method`` a registry kernel name or ``"auto"``.
Every kernel returns ``(C, flops)`` where ``flops`` is the number of
semiring multiplications — the paper's *flops* measure, which also drives
the virtual compute clock.

The accumulator *cost policy* (SPA below d ≤ 1024, hash above, §III-C)
lives in :func:`repro.mpi.costmodel.accumulator_for`; this module only
executes.
"""

from __future__ import annotations

from typing import Tuple

from .csr import CsrMatrix
from .kernels import dispatch_spgemm
from .semiring import PLUS_TIMES, Semiring

__all__ = ["spgemm"]


def spgemm(
    a: CsrMatrix,
    b: CsrMatrix,
    semiring: Semiring = PLUS_TIMES,
    *,
    method: str = "auto",
) -> Tuple[CsrMatrix, int]:
    """Multiply two CSR matrices over ``semiring``; returns ``(C, flops)``.

    ``method='auto'`` picks the scipy fast path for arithmetic float data
    and a vectorized kernel otherwise; a registry kernel name forces that
    kernel (tests use this for differential checking) and raises if the
    kernel cannot handle ``semiring``.
    """
    return dispatch_spgemm(a, b, semiring, method)
