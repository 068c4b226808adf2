"""Validated CSR matrix container used throughout the reproduction.

All distributed algorithms store local blocks in CSR (the paper: "Both A,
Z, and ZT are 1-D partitioned and stored in each process in CSR format").
We wrap rather than subclass :class:`scipy.sparse.csr_matrix` because the
kernels need (a) arbitrary-semiring values including booleans without
scipy's implicit arithmetic, (b) strict structural validation, and (c) a
wire-size estimate for the communication cost model.

Column indices are kept **sorted within each row** as an invariant; every
constructor either verifies or establishes it.  Duplicate entries are not
allowed (builders in :mod:`repro.sparse.build` collapse them with a
semiring add).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

INDEX_DTYPE = np.int64


class CsrMatrix:
    """An immutable-by-convention CSR matrix.

    Attributes
    ----------
    shape:
        ``(nrows, ncols)``.
    indptr:
        ``int64[nrows+1]`` row pointers.
    indices:
        ``int64[nnz]`` column indices, sorted within each row, no
        duplicates.
    data:
        ``nnz`` values of any numpy dtype (bool, float, int...).
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        check: bool = True,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.asarray(indices, dtype=INDEX_DTYPE)
        self.data = np.asarray(data)
        if check:
            self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative shape {self.shape}")
        if self.indptr.ndim != 1 or len(self.indptr) != nrows + 1:
            raise ValueError(
                f"indptr must have length nrows+1={nrows + 1}, got {len(self.indptr)}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} != nnz={len(self.indices)}"
            )
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data length mismatch")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= ncols:
                raise ValueError("column index out of bounds")
            # Sorted + duplicate-free within each row: adjacent indices in
            # the same row must strictly increase.  Mask out positions that
            # straddle a row boundary, then check the rest.
            if len(self.indices) > 1:
                diffs = np.diff(self.indices)
                same_row = np.ones(len(self.indices) - 1, dtype=bool)
                bounds = self.indptr[1:-1]
                bounds = bounds[(bounds > 0) & (bounds < len(self.indices))]
                same_row[bounds - 1] = False
                if np.any(diffs[same_row] <= 0):
                    raise ValueError(
                        "column indices must be strictly increasing per row"
                    )

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts (length ``nrows``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def nbytes_estimate(self) -> int:
        """Wire size: values + column indices + row pointers.

        This is what the α–β model charges when a CSR block is shipped;
        it matches the paper's observation that SpGEMM "requires
        communication of both indices and values, whereas SpMM only
        communicates values" (§V-C).
        """
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)

    # ------------------------------------------------------------------
    # constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Tuple[int, int], dtype=np.float64) -> "CsrMatrix":
        """A matrix with no stored entries."""
        return cls(
            shape,
            np.zeros(shape[0] + 1, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=INDEX_DTYPE),
            np.zeros(0, dtype=dtype),
            check=False,
        )

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls(
            (n, n),
            np.arange(n + 1, dtype=INDEX_DTYPE),
            np.arange(n, dtype=INDEX_DTYPE),
            np.ones(n),
            check=False,
        )

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CsrMatrix":
        """Convert any scipy sparse matrix (deduplicated, sorted)."""
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape, csr.indptr, csr.indices, csr.data)

    def to_scipy(self) -> sp.csr_matrix:
        """View as scipy CSR (bool data upcast to float64 for arithmetic)."""
        data = self.data
        if data.dtype == np.bool_:
            data = data.astype(np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        mask = dense != 0
        counts = mask.sum(axis=1)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
        rows, cols = np.nonzero(mask)
        return cls(dense.shape, indptr, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array with a zero background."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.nrows), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    # ------------------------------------------------------------------
    # lightweight accessors
    # ------------------------------------------------------------------
    def row(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (column indices, values) of row ``r`` as views."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_ids(self) -> np.ndarray:
        """The row index of every stored entry (length ``nnz``)."""
        return np.repeat(np.arange(self.nrows, dtype=INDEX_DTYPE), self.row_nnz())

    def nonzero_columns(self) -> np.ndarray:
        """Sorted unique column ids holding at least one nonzero.

        This is the ``nzc`` vector of Fig 1: it determines which rows of
        ``B`` a process (or tile) needs.
        """
        return np.unique(self.indices)

    def astype(self, dtype) -> "CsrMatrix":
        return CsrMatrix(
            self.shape, self.indptr, self.indices, self.data.astype(dtype), check=False
        )

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def prune_zeros(self) -> "CsrMatrix":
        """Drop stored entries equal to 0 (explicit zeros)."""
        keep = self.data != 0
        if keep.all():
            return self
        csum = np.concatenate([[0], np.cumsum(keep)])
        return CsrMatrix(
            self.shape,
            csum[self.indptr].astype(INDEX_DTYPE),
            self.indices[keep],
            self.data[keep],
            check=False,
        )

    # ------------------------------------------------------------------
    def equal(self, other: "CsrMatrix") -> bool:
        """Structural + numerical equality (same pattern, values close to
        ``rtol=1e-10``, ``atol=1e-12``)."""
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        if self.data.dtype == np.bool_ or other.data.dtype == np.bool_:
            return bool(np.array_equal(self.data.astype(bool), other.data.astype(bool)))
        return bool(np.allclose(self.data, other.data, rtol=1e-10, atol=1e-12))

    def __repr__(self) -> str:
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.data.dtype})"
        )
