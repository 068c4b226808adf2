"""Semiring abstraction for generalized sparse matrix multiplication.

The paper performs TS-SpGEMM "on an arbitrary semiring S instead of the
usual (×,+) semiring" (§II-A) — multi-source BFS uses ``(∧,∨)`` and BFS
tree construction uses ``(sel2nd, min)``.  A :class:`Semiring` bundles the
multiply and add operators with the additive identity; the kernels in
:mod:`repro.sparse.spgemm` and :mod:`repro.sparse.merge` stay fully
vectorized by requiring the *add* to be a numpy ufunc (so duplicate
compression can use ``ufunc.reduceat``) while the multiply may be any
vectorized callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring ``(add, mul, zero)`` over a numpy dtype.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"plus_times"``.
    add:
        A binary numpy ufunc used to combine duplicate output entries
        (must support ``reduceat``), e.g. ``np.add`` or ``np.logical_or``.
    mul:
        Vectorized binary callable combining an ``A`` value with a ``B``
        value, e.g. ``np.multiply`` or "select second operand".
    zero:
        The additive identity.  Entries equal to ``zero`` produced by a
        multiplication are still stored (standard SpGEMM semantics: we do
        not prune explicit zeros unless asked).
    dtype:
        The value dtype results are computed in.
    """

    name: str
    add: np.ufunc
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray]
    zero: Any
    dtype: np.dtype

    def __post_init__(self) -> None:
        if not isinstance(self.add, np.ufunc):
            raise TypeError(
                f"semiring add must be a numpy ufunc (got {type(self.add).__name__}); "
                "reduceat-based duplicate compression requires it"
            )

    # ------------------------------------------------------------------
    def coerce(self, values: np.ndarray) -> np.ndarray:
        """Cast ``values`` to this semiring's dtype (no copy if possible)."""
        return np.asarray(values, dtype=self.dtype)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring multiply, result in ``self.dtype``."""
        return self.coerce(self.mul(self.coerce(a), self.coerce(b)))

    def reduce_segments(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segmented semiring-add: reduce ``values`` over segments.

        ``starts`` are segment start offsets (ascending, first must be 0);
        empty input returns an empty array.  This is the compress step of
        expand-sort-compress and of partial-result merging.
        """
        if len(values) == 0:
            return values
        out = self.add.reduceat(values, starts)
        return self.coerce(out)

    def scalar_add(self, a: Any, b: Any) -> Any:
        """Semiring add of two scalars (used by scalar accumulators)."""
        return self.dtype.type(self.add(a, b))

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


def _sel2nd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The GraphBLAS ``SECOND`` operator: ignore ``a``, return ``b``."""
    return np.broadcast_arrays(a, b)[1].copy()


#: The usual arithmetic (×, +) semiring over float64.
PLUS_TIMES = Semiring(
    name="plus_times",
    add=np.add,
    mul=np.multiply,
    zero=0.0,
    dtype=np.dtype(np.float64),
)

#: Boolean (∧, ∨): used by the paper's multi-source BFS (Alg 3).
BOOL_AND_OR = Semiring(
    name="bool_and_or",
    add=np.logical_or,
    mul=np.logical_and,
    zero=False,
    dtype=np.dtype(np.bool_),
)

#: (sel2nd, min): used when reconstructing BFS parent trees (§IV-A).
SEL2ND_MIN = Semiring(
    name="sel2nd_min",
    add=np.minimum,
    mul=_sel2nd,
    zero=np.inf,
    dtype=np.dtype(np.float64),
)

#: Tropical (min, +): shortest-path relaxations.
MIN_PLUS = Semiring(
    name="min_plus",
    add=np.minimum,
    mul=np.add,
    zero=np.inf,
    dtype=np.dtype(np.float64),
)

#: (max, ×) over non-negative values: widest-path / reliability products.
MAX_TIMES = Semiring(
    name="max_times",
    add=np.maximum,
    mul=np.multiply,
    zero=0.0,
    dtype=np.dtype(np.float64),
)
