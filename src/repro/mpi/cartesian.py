"""Cartesian process grids for the SUMMA baselines.

Sparse SUMMA lays ``p = pr × pc × l`` processes on ``l`` layers of
``pr × pc`` faces and broadcasts stages along face rows and columns; the
layers reduce their partial products along fibers.  2-D SUMMA is the
one-layer grid.  These helpers build the row/column/fiber
sub-communicators from a parent :class:`~repro.mpi.comm.SimComm` via
``split`` and expose the grid coordinates, matching the shape of
``MPI_Cart_create`` + ``MPI_Cart_sub`` usage in CombBLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .comm import SimComm


def square_grid_dims(p: int) -> Tuple[int, int]:
    """Return the most-square ``(pr, pc)`` factorization of ``p``.

    CombBLAS requires a square process count for SUMMA; we relax that to
    the most-square factor pair so any ``p`` can run, preferring
    ``pr <= pc``.
    """
    pr = int(math.isqrt(p))
    while pr > 1 and p % pr != 0:
        pr -= 1
    return pr, p // pr


def layered_grid_dims(p: int, layers: int) -> Tuple[int, int, int]:
    """Return ``(pr, pc, l)`` for a 3-D grid with the requested layers.

    Falls back to the largest divisor of ``p`` not exceeding ``layers`` so
    callers can ask for e.g. 4 layers on any process count.
    """
    if p < 1 or layers < 1:
        raise ValueError(f"need p >= 1 and layers >= 1, got p={p}, layers={layers}")
    l = min(layers, p)
    while l > 1 and p % l != 0:
        l -= 1
    pr, pc = square_grid_dims(p // l)
    return pr, pc, l


@dataclass
class Grid3D:
    """A layered process grid for SUMMA (one layer: the 2-D grid).

    Parent rank ``r`` maps to ``layer = r // (pr*pc)`` with the remainder
    laid out row-major on the 2-D face.  ``row_comm`` spans the process's
    face row (size ``pc``), ``col_comm`` its face column (size ``pr``).
    ``fiber_comm`` connects the ``l`` processes sharing one face position
    across layers (used for the final reduction of partial C blocks); a
    one-layer grid has no fiber and leaves it ``None``.
    """

    comm: SimComm
    pr: int
    pc: int
    layers: int
    layer: int
    row: int
    col: int
    row_comm: SimComm
    col_comm: SimComm
    fiber_comm: Optional[SimComm]


def make_grid3d(comm: SimComm, layers: int) -> Grid3D:
    """Build a :class:`Grid3D` with (up to) ``layers`` layers."""
    pr, pc, l = layered_grid_dims(comm.size, layers)
    face = pr * pc
    layer, rem = divmod(comm.rank, face)
    row, col = divmod(rem, pc)
    row_comm = comm.split(color=layer * pr + row, key=col)
    col_comm = comm.split(color=layer * pc + col, key=row)
    fiber_comm = comm.split(color=rem, key=layer) if l > 1 else None
    assert row_comm is not None and col_comm is not None
    return Grid3D(comm, pr, pc, l, layer, row, col, row_comm, col_comm, fiber_comm)
