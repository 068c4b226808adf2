"""Data-distribution layer: 1-D block maps and distributed matrix handles."""

from .block1d import Block1D
from .distmat import DistDenseMatrix, DistHandle, DistSparseMatrix
from .grid_dist import grid_block, inner_chunk_owner_row, layer_slices, summa_b_chunks

__all__ = [
    "Block1D",
    "DistDenseMatrix",
    "DistHandle",
    "DistSparseMatrix",
    "grid_block",
    "inner_chunk_owner_row",
    "layer_slices",
    "summa_b_chunks",
]
