"""Tiling of local matrix blocks (the paper's "virtual 2-D layout").

A process's row block ``Ai ∈ R^{n/p × n}`` is divided into ``w × h`` tiles
(§III-B): ``h`` rows of ``Ai`` by ``w`` global columns.  Computation then
proceeds tile by tile so that only the ``B`` rows needed by the current
tile are resident, bounding the memory footprint (Fig 5a) at the price of
more communication rounds (Fig 5b).

Two helpers matter for the distributed algorithm:

* :func:`block_ranges` — the contiguous 1-D block partition boundaries
  shared by rows of ``A``/``B``/``C`` and columns of ``Ac``;
* :class:`ColumnStrips` — a one-pass split of a local block into
  per-column-block strips with *local* column ids, the unit from which
  tiles of any width are assembled (a width-``w`` tile is ``w / (n/p)``
  consecutive strips, Table IV's default being 16 strips).  The same
  split is what ``build_column_copy`` ships to build ``Ac`` (§III-A) and
  its per-strip ``selections`` are what a values-only refresh gathers
  through, so one object per operand pattern serves all three.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .csr import INDEX_DTYPE, CsrMatrix


def block_ranges(n: int, p: int) -> List[Tuple[int, int]]:
    """Contiguous balanced 1-D block boundaries: ``p`` blocks covering ``n``.

    The first ``n % p`` blocks get one extra element, matching the usual
    block distribution; every index belongs to exactly one block.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    base, extra = divmod(n, p)
    ranges = []
    start = 0
    for i in range(p):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def block_owner(index: int, n: int, p: int) -> int:
    """Owner block of a global index under :func:`block_ranges`."""
    base, extra = divmod(n, p)
    boundary = extra * (base + 1)
    if index < boundary:
        return index // (base + 1)
    if base == 0:
        raise IndexError(f"index {index} beyond distributed range")
    return extra + (index - boundary) // base


def block_owners(indices: np.ndarray, n: int, p: int) -> np.ndarray:
    """Vectorized :func:`block_owner` for an index array."""
    indices = np.asarray(indices, dtype=INDEX_DTYPE)
    base, extra = divmod(n, p)
    boundary = extra * (base + 1)
    out = np.empty(len(indices), dtype=INDEX_DTYPE)
    low = indices < boundary
    out[low] = indices[low] // (base + 1)
    if base > 0:
        out[~low] = extra + (indices[~low] - boundary) // base
    elif np.any(~low):
        raise IndexError("index beyond distributed range")
    return out


def strips_build_bytes(mat: CsrMatrix, n_strips: int) -> int:
    """Bytes the *modelled* machine streams when splitting ``mat`` into strips.

    The modelled split extracts each strip with its own scan of the full
    column-index array, then gathers its indices+values: ``n_strips``
    index scans plus one copy of the block.  This is what the cost model
    charges for the "tiling" phase — and what a prepared plan amortizes.
    The simulation's :class:`ColumnStrips` splits in one pass; the charge
    prices the machine, not the simulation, and is deliberately unchanged
    (docs/planning.md).
    """
    return int(n_strips * mat.indices.nbytes + mat.nbytes_estimate())


class ColumnStrips:
    """A local block split by the global column partition, in one pass.

    ``strips[j]`` holds the columns owned by block ``j`` with column ids
    rebased to that block's local space — array for array what
    ``extract_col_range(mat, c0, c1, reindex=True)`` returns.  Assembling
    a tile of width ``w = k · n/p`` means taking ``k`` consecutive strips,
    so mode decisions and per-round communication are naturally per strip.

    ``selections[j]`` are the positions of strip ``j``'s entries in
    ``mat``'s storage order, ascending: ``strips[j].data`` is
    ``mat.data[selections[j]]``, which is all a values-only refresh needs
    (:meth:`refresh_values`, ``ResidentOperand.refresh_values``).
    ``source`` is the block the strips currently hold the values of.

    ``tall`` is the split strip-major with *global* column ids (row
    ``j · nrows + r`` is row ``r`` of strip ``j``; the strips' values):
    what the tiled consumer multiplies once per round.

    ``col_ranges`` must tile ``[0, mat.ncols)`` contiguously (empty ranges
    allowed), as ``Block1D.ranges`` does: the split finds every entry's
    owner with one lookup on the range starts.
    """

    def __init__(self, mat: CsrMatrix, col_ranges: Sequence[Tuple[int, int]]):
        self.col_ranges = list(col_ranges)
        self.source = mat
        p = len(self.col_ranges)
        bounds = [0] + [c1 for _, c1 in self.col_ranges]
        if bounds[-1] != mat.ncols or any(
            c0 != lo or c1 < c0 for (c0, c1), lo in zip(self.col_ranges, bounds)
        ):
            raise ValueError(
                f"column ranges must tile [0, {mat.ncols}) contiguously, "
                f"got {self.col_ranges}"
            )
        nrows = mat.nrows
        starts = np.array(bounds[:-1], dtype=INDEX_DTYPE)
        # Owner of every entry: the last range starting at or before its
        # column (side="right" steps over empty ranges sharing a start),
        # held in <= 16 bits so the stable sort is numpy's radix sort.
        owner = np.searchsorted(starts, mat.indices, side="right") - 1
        owner = owner.astype(np.min_scalar_type(max(p - 1, 0)))
        self._order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=p)
        self._cuts: List[int] = [0, *np.cumsum(counts).tolist()]
        self.selections: List[np.ndarray] = self._per_strip(self._order)
        # Entries per (strip, row), prefix-summed: the tall view's indptr.
        cell = owner.astype(INDEX_DTYPE)
        cell *= nrows
        cell += mat.row_ids()
        ptr = np.zeros(p * nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(cell, minlength=p * nrows), out=ptr[1:])
        order = self._order
        self.tall = CsrMatrix(
            (p * nrows, mat.ncols), ptr, mat.indices[order], mat.data[order], check=False
        )
        local = self._per_strip(self.tall.indices - np.repeat(starts, counts))
        self.strips: List[CsrMatrix] = [
            CsrMatrix(
                (nrows, c1 - c0), ptr[j * nrows : (j + 1) * nrows + 1] - cut, idx, vals, check=False
            )
            for j, ((c0, c1), cut, idx, vals) in enumerate(
                zip(self.col_ranges, self._cuts, local, self._per_strip(self.tall.data))
            )
        ]

    def _per_strip(self, permuted: np.ndarray) -> List[np.ndarray]:
        """Cut an array in the split's order into its per-strip views."""
        return [permuted[a:b] for a, b in zip(self._cuts[:-1], self._cuts[1:])]

    def __len__(self) -> int:
        return len(self.strips)

    def __getitem__(self, j: int) -> CsrMatrix:
        return self.strips[j]

    def refresh_values(self, mat: CsrMatrix) -> None:
        """Re-load strip values from ``mat``, which must share the pattern
        the strips were built from.

        The entry selection of every strip is pattern-determined and was
        fixed by the split, so a refresh is one gather — the
        persistent-plan path for operands whose values change while their
        pattern stays fixed (sparse embedding's coefficient matrix between
        negative re-samples).
        """
        if (mat.nrows, mat.nnz) != (self.source.nrows, len(self._order)):
            raise ValueError("refresh_values requires an identical pattern")
        t = self.tall
        self.tall = CsrMatrix(t.shape, t.indptr, t.indices, mat.data[self._order], check=False)
        self.strips = [
            CsrMatrix(s.shape, s.indptr, s.indices, vals, check=False)
            for s, vals in zip(self.strips, self._per_strip(self.tall.data))
        ]
        self.source = mat

