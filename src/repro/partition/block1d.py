"""1-D block partition maps.

The paper's data distribution (Table III): ``A``, ``B`` and ``C`` are
row-partitioned into ``p`` contiguous blocks (``Ai ∈ R^{n/p × n}`` etc.),
and the second copy ``Ac`` is column-partitioned the same way.  A
:class:`Block1D` captures that map: block boundaries, ownership lookups and
global↔local index translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ..sparse.tile import block_owner, block_owners, block_ranges


@dataclass(frozen=True)
class Block1D:
    """Contiguous block partition of ``n`` indices over ``p`` parts.

    By default the blocks are the balanced contiguous split of
    :func:`~repro.sparse.tile.block_ranges`.  ``bounds`` — ``p + 1``
    monotone boundaries starting at 0 and ending at ``n`` — selects an
    explicit (possibly unbalanced) contiguous partition instead: the
    shape elastic shrink produces when a surviving rank adopts its dead
    neighbor's row block (:func:`shrunk_partition`).
    """

    n: int
    p: int
    bounds: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ValueError("p must be positive")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.bounds is not None:
            bounds = tuple(int(b) for b in self.bounds)
            object.__setattr__(self, "bounds", bounds)
            if len(bounds) != self.p + 1:
                raise ValueError(
                    f"bounds needs p+1={self.p + 1} entries, got {len(bounds)}"
                )
            if bounds[0] != 0 or bounds[-1] != self.n:
                raise ValueError(
                    f"bounds must span [0, {self.n}], got "
                    f"[{bounds[0]}, {bounds[-1]}]"
                )
            if any(a > b for a, b in zip(bounds, bounds[1:])):
                raise ValueError("bounds must be non-decreasing")

    @cached_property
    def ranges(self) -> List[Tuple[int, int]]:
        """Every rank's global ``[lo, hi)``, computed once (read-only)."""
        if self.bounds is not None:
            return [
                (self.bounds[i], self.bounds[i + 1]) for i in range(self.p)
            ]
        return block_ranges(self.n, self.p)

    def range_of(self, rank: int) -> Tuple[int, int]:
        """Global ``[lo, hi)`` owned by ``rank``."""
        if not (0 <= rank < self.p):
            raise IndexError(f"rank {rank} out of range for p={self.p}")
        return self.ranges[rank]

    def size_of(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def owner(self, index: int) -> int:
        """Rank owning global ``index``."""
        if not (0 <= index < self.n):
            raise IndexError(f"index {index} out of range for n={self.n}")
        if self.bounds is not None:
            return int(
                np.searchsorted(
                    np.asarray(self.bounds[1:]), index, side="right"
                )
            )
        return block_owner(index, self.n, self.p)

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        if self.bounds is not None:
            return np.searchsorted(
                np.asarray(self.bounds[1:]),
                np.asarray(indices, dtype=np.int64),
                side="right",
            ).astype(np.int64)
        return block_owners(indices, self.n, self.p)

    def to_local(self, rank: int, global_ids: np.ndarray) -> np.ndarray:
        """Translate global indices (owned by ``rank``) to local offsets."""
        lo, hi = self.range_of(rank)
        global_ids = np.asarray(global_ids, dtype=np.int64)
        if len(global_ids) and (
            global_ids.min() < lo or global_ids.max() >= hi
        ):
            raise IndexError(f"index not owned by rank {rank}")
        return global_ids - lo


def shrunk_partition(rows: Block1D, dead_rank: int) -> Tuple[Block1D, int]:
    """The ``p-1`` partition after ``dead_rank``'s block is adopted.

    The adopter is the dead rank's higher neighbor (``dead_rank + 1``), or
    the lower one when the last rank died — either way the merged block
    stays contiguous, so the result is an explicit-``bounds``
    :class:`Block1D`.  Returns ``(new_partition, adopter_new_rank)`` where
    ``adopter_new_rank`` is the adopter's id in the *new* numbering
    (old rank ``r`` maps to ``r - 1`` for every ``r > dead_rank``).
    """
    if rows.p < 2:
        raise ValueError("cannot shrink a 1-part partition")
    if not (0 <= dead_rank < rows.p):
        raise IndexError(f"rank {dead_rank} out of range for p={rows.p}")
    adopter_old = dead_rank + 1 if dead_rank < rows.p - 1 else dead_rank - 1
    old_ranges = rows.ranges
    bounds = [0]
    for r in range(rows.p):
        if r == dead_rank:
            continue
        lo, hi = old_ranges[r]
        if r == adopter_old:
            dlo, dhi = old_ranges[dead_rank]
            lo, hi = min(lo, dlo), max(hi, dhi)
        bounds.append(hi)
    new_rows = Block1D(rows.n, rows.p - 1, bounds=tuple(bounds))
    return new_rows, adopter_old - (1 if adopter_old > dead_rank else 0)
