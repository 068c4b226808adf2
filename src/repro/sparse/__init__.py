"""Sparse-matrix substrate: CSR container, semirings and local kernels.

This layer is the shared-memory foundation under the distributed
algorithms: a validated CSR type, the semiring abstraction the paper's
generalized SpGEMM requires, Gustavson SpGEMM kernels with SPA / hash /
expand-sort-compress accumulation, partial-result merging, tiling, and the
structural operations (transpose, slicing, pattern set-ops, top-k
sparsification) that the applications build on.
"""

from .build import coo_to_csr, from_edges, random_csr
from .csr import INDEX_DTYPE, CsrMatrix
from .io import read_matrix_market
from .kernels import (
    DEFAULT_KERNEL,
    KernelSpec,
    SPA_AUTO_MAX_D,
    available_kernels,
    dispatch_spgemm,
    get_kernel,
    register_kernel,
    resolve_spgemm,
    spgemm_flops,
)
from .merge import merge_bytes, merge_csrs
from .sddmm import force2vec_coefficients, sddmm, sigmoid
from .ops import (
    ewise_add,
    extract_col_range,
    extract_row_range,
    extract_rows,
    mask_entries,
    nonzero_columns_by_rows,
    pattern_difference,
    row_topk,
    spmm_dense,
    transpose,
)
from .semiring import (
    BOOL_AND_OR,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    SEL2ND_MIN,
    Semiring,
)
from .spgemm import spgemm
from .tile import ColumnStrips, block_owner, block_owners, block_ranges

__all__ = [
    "BOOL_AND_OR",
    "ColumnStrips",
    "CsrMatrix",
    "DEFAULT_KERNEL",
    "INDEX_DTYPE",
    "KernelSpec",
    "MAX_TIMES",
    "MIN_PLUS",
    "PLUS_TIMES",
    "SEL2ND_MIN",
    "SPA_AUTO_MAX_D",
    "Semiring",
    "available_kernels",
    "block_owner",
    "block_owners",
    "block_ranges",
    "coo_to_csr",
    "dispatch_spgemm",
    "ewise_add",
    "extract_col_range",
    "extract_row_range",
    "extract_rows",
    "mask_entries",
    "from_edges",
    "force2vec_coefficients",
    "get_kernel",
    "merge_bytes",
    "merge_csrs",
    "nonzero_columns_by_rows",
    "pattern_difference",
    "random_csr",
    "read_matrix_market",
    "register_kernel",
    "resolve_spgemm",
    "row_topk",
    "sddmm",
    "sigmoid",
    "spgemm",
    "spgemm_flops",
    "spmm_dense",
    "transpose",
]
