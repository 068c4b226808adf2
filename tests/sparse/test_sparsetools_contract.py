"""The private scipy contract the ``scipy`` kernel and ``symbolic_size`` use.

``repro.sparse.kernels`` calls three ``scipy.sparse._sparsetools`` routines
on raw CSR arrays — the ones ``csr_matrix @ csr_matrix`` itself runs
(``scipy/sparse/_compressed.py::_matmul_sparse``).  They are private, so
what is relied on is pinned here against the *public* product: a scipy
whose private contract moved fails tier-1 at this file (at import, if a
routine is gone), not in the middle of a multiply.

Relied on: ``csr_matmat_maxnnz`` counts the distinct output positions from
the patterns alone; ``csr_matmat`` accepts int64 index arrays, fills
``indptr`` and the first ``indptr[-1]`` slots of preallocated
``maxnnz``-long outputs, accumulates in the output dtype, *drops* sums that
are exactly zero and leaves rows unsorted, each in an order that is a
function of that row alone (:class:`TestUnsortedRows`: a kept slice of an
unsorted column-block product is the unsorted product of its rows);
``csr_has_sorted_indices`` tells sorted rows from unsorted ones;
``csr_sort_indices`` sorts columns and values together, in place, reading
row extents from ``indptr``.

The ``spa`` kernel runs the same three routines on ``bool`` data for
all-True boolean operands (:class:`TestBoolData`): there ``+`` is *or* and
``×`` is *and*, the output is ``bool``, and an entry whose every
contribution is ``False`` is dropped like a cancelled sum — the reason
operands that store a ``False`` never take that route.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import (
    csr_has_sorted_indices,
    csr_matmat,
    csr_matmat_maxnnz,
    csr_sort_indices,
)

from repro.sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix, dispatch_spgemm


def unsorted_product(a: sp.csr_matrix, b: sp.csr_matrix, out_dtype):
    """The two product routines on int64 copies of the operands' arrays;
    returns ``(maxnnz, indptr, indices, data)`` untrimmed, rows unsorted."""
    nrows, ncols = a.shape[0], b.shape[1]
    ap, aj = a.indptr.astype(np.int64), a.indices.astype(np.int64)
    bp, bj = b.indptr.astype(np.int64), b.indices.astype(np.int64)
    maxnnz = csr_matmat_maxnnz(nrows, ncols, ap, aj, bp, bj)
    indptr = np.empty(nrows + 1, dtype=np.int64)
    indices = np.empty(maxnnz, dtype=np.int64)
    data = np.empty(maxnnz, dtype=out_dtype)
    csr_matmat(nrows, ncols, ap, aj, a.data, bp, bj, b.data, indptr, indices, data)
    return maxnnz, indptr, indices, data


def raw_product(a: sp.csr_matrix, b: sp.csr_matrix, out_dtype):
    """The three routines on int64 copies of the operands' arrays; returns
    ``(maxnnz, indptr, indices, data, unsorted indices)`` untrimmed."""
    maxnnz, indptr, indices, data = unsorted_product(a, b, out_dtype)
    unsorted = indices.copy()
    csr_sort_indices(a.shape[0], indptr, indices, data)
    return maxnnz, indptr, indices, data, unsorted


def public_product(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    c = sp.csr_matrix(a) @ sp.csr_matrix(b)
    c.sum_duplicates()
    c.sort_indices()
    return c


def random_operands(rng, dtype, m=23, k=17, n=9):
    """Operands with empty rows on both sides and values of ``dtype``."""

    def one(nrows, ncols, density):
        mask = rng.random((nrows, ncols)) < density
        mask[::4] = False  # empty rows
        if dtype == np.bool_:
            vals = np.ones((nrows, ncols))  # bool stored, float64 multiplied
        elif np.issubdtype(dtype, np.integer):
            vals = rng.integers(-9, 10, (nrows, ncols))
        else:  # magnitudes 1e-4 .. 1e4: accumulation order shows in the bits
            vals = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-4, 5, (nrows, ncols))
        out_dtype = np.float64 if dtype == np.bool_ else dtype
        return sp.csr_matrix(np.where(mask, vals, 0).astype(out_dtype))

    return one(m, k, 0.3), one(k, n, 0.4)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
def test_raw_routines_are_the_public_product(rng, dtype):
    a, b = random_operands(rng, dtype)
    want = public_product(a, b)
    maxnnz, indptr, indices, data, unsorted = raw_product(a, b, want.dtype)
    nnz = indptr[-1]
    assert nnz <= maxnnz == np.count_nonzero((abs(a) @ abs(b)).toarray())
    assert not np.array_equal(unsorted[:nnz], indices[:nnz])  # csr_matmat does not sort
    np.testing.assert_array_equal(indptr, want.indptr)
    np.testing.assert_array_equal(indices[:nnz], want.indices)
    assert data.dtype == want.dtype
    assert data[:nnz].tobytes() == want.data.tobytes()


def test_cancelled_sums_are_dropped_and_the_output_is_short():
    a = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [0.0, 2.0, 3.0]]))
    b = sp.csr_matrix(np.array([[1.0, 4.0], [1.0, 0.0], [0.0, 5.0]]))
    want = public_product(a, b)
    maxnnz, indptr, indices, data, _ = raw_product(a, b, np.float64)
    assert maxnnz == 4 and indptr[-1] == 3  # (0, 0) cancelled to exactly 0.0
    np.testing.assert_array_equal(indptr, want.indptr)
    np.testing.assert_array_equal(indices[:3], want.indices)
    np.testing.assert_array_equal(data[:3], want.data)


@pytest.mark.parametrize("empty", ["a", "b"])
def test_an_empty_operand_gives_an_all_zero_indptr(empty):
    a = sp.csr_matrix((4, 3)) if empty == "a" else sp.csr_matrix(np.eye(4, 3))
    b = sp.csr_matrix((3, 2)) if empty == "b" else sp.csr_matrix(np.ones((3, 2)))
    maxnnz, indptr, indices, data, _ = raw_product(a, b, np.float64)
    assert maxnnz == 0 and len(indices) == len(data) == 0
    np.testing.assert_array_equal(indptr, np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.bool_])
def test_the_scipy_kernel_is_the_public_product(rng, dtype):
    """The kernel itself, through the registry: pattern, dtype and bits."""
    a, b = random_operands(rng, dtype)
    want = public_product(a, b)
    got, flops = dispatch_spgemm(
        CsrMatrix.from_scipy(a).astype(dtype),  # bool stored: the kernel upcasts
        CsrMatrix.from_scipy(b).astype(dtype),
        PLUS_TIMES,
        "scipy",
    )
    assert flops == int(b.getnnz(axis=1)[a.indices].sum())
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.indptr.dtype == got.indices.dtype == np.int64
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    got._validate()  # sorted, duplicate-free, consistent


class TestBoolData:
    """``csr_matmat`` on ``bool`` arrays is the or-of-ands product."""

    @staticmethod
    def bool_csr(dense, values=None) -> sp.csr_matrix:
        """Boolean scipy CSR storing ``dense``'s pattern with ``values``
        there (default all True), so a stored ``False`` is expressible."""
        mat = sp.csr_matrix(np.asarray(dense, dtype=bool))
        mat.sort_indices()
        if values is not None:
            rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
            mat.data = np.asarray(values, dtype=bool)[rows, mat.indices]
        return mat

    def test_all_true_operands_give_the_public_boolean_product(self, rng):
        a_dense = rng.random((23, 17)) < 0.3
        b_dense = rng.random((17, 9)) < 0.4
        a_dense[::4] = False  # empty rows, on both sides
        b_dense[::3] = False
        a, b = self.bool_csr(a_dense), self.bool_csr(b_dense)
        want = public_product(a, b)
        assert want.dtype == np.bool_
        maxnnz, indptr, indices, data, unsorted = raw_product(a, b, np.bool_)
        nnz = indptr[-1]
        assert nnz == maxnnz == np.count_nonzero(a_dense.astype(int) @ b_dense.astype(int))
        assert indptr.dtype == indices.dtype == np.int64 and data.dtype == np.bool_
        assert not np.array_equal(unsorted, indices)  # fixed by csr_sort_indices
        np.testing.assert_array_equal(indptr, want.indptr)
        np.testing.assert_array_equal(indices, want.indices)
        assert data.all() and want.data.all()
        np.testing.assert_array_equal(
            sp.csr_matrix((data, indices, indptr), shape=want.shape).toarray(),
            (a_dense.astype(int) @ b_dense.astype(int)) > 0,
        )

    @pytest.mark.parametrize("empty", ["a", "b"])
    def test_an_empty_operand_gives_an_all_zero_indptr(self, empty):
        a = self.bool_csr(np.zeros((4, 3)) if empty == "a" else np.eye(4, 3))
        b = self.bool_csr(np.zeros((3, 2)) if empty == "b" else np.ones((3, 2)))
        maxnnz, indptr, indices, data, _ = raw_product(a, b, np.bool_)
        assert maxnnz == 0 and len(indices) == len(data) == 0
        np.testing.assert_array_equal(indptr, np.zeros(5, dtype=np.int64))

    def test_an_entry_whose_every_contribution_is_false_is_dropped(self):
        # C[0,0] = (T∧F) ∨ (F∧T) ∨ (F∧F) = False: csr_matmat drops it, the
        # repo's kernels keep it stored (TestStoredFalse in test_kernels.py).
        a = self.bool_csr([[1, 1, 1], [1, 0, 0]], [[1, 0, 0], [1, 0, 0]])
        b = self.bool_csr([[1, 1], [1, 1], [1, 0]], [[0, 1], [1, 1], [0, 0]])
        maxnnz, indptr, indices, data, _ = raw_product(a, b, np.bool_)
        assert maxnnz == 4  # the pattern holds four positions ...
        np.testing.assert_array_equal(indptr, [0, 1, 2])  # ... two survive
        np.testing.assert_array_equal(indices[:2], [1, 1])
        assert data[:2].tolist() == [True, True]
        kept, _ = dispatch_spgemm(
            CsrMatrix(a.shape, a.indptr, a.indices, a.data),
            CsrMatrix(b.shape, b.indptr, b.indices, b.data),
            BOOL_AND_OR,
            "spa",
        )
        np.testing.assert_array_equal(kept.indptr, [0, 2, 4])
        assert kept.data.tolist() == [False, True, False, True]


class TestUnsortedRows:
    """What an unordered product (``dispatch_spgemm`` with ``ordered``
    false) rests on: the tile call sites skip ``csr_sort_indices``, and
    ``replan`` keeps row slices of one unsorted column-block product."""

    @staticmethod
    def trimmed(a: sp.csr_matrix, b: sp.csr_matrix):
        _, indptr, indices, data = unsorted_product(a, b, a.dtype)
        return indptr, indices[: indptr[-1]], data[: indptr[-1]]

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_a_row_ranges_order_is_that_of_its_rows_alone(self, rng, dtype):
        a, b = random_operands(rng, dtype, m=40, k=30, n=25)
        if dtype == np.bool_:
            a, b = (TestBoolData.bool_csr(x.toarray()) for x in (a, b))
        whole = self.trimmed(a, b)
        assert not csr_has_sorted_indices(a.shape[0], whole[0], whole[1])
        for g0, g1 in [(0, 40), (0, 7), (5, 6), (13, 29), (31, 40), (9, 9)]:
            indptr, indices, data = self.trimmed(a[g0:g1], b)
            lo, hi = whole[0][g0], whole[0][g1]
            np.testing.assert_array_equal(indptr, whole[0][g0 : g1 + 1] - lo)
            np.testing.assert_array_equal(indices, whole[1][lo:hi])
            assert data.tobytes() == whole[2][lo:hi].tobytes()

    def test_has_sorted_indices(self):
        indptr = np.array([0, 3, 3, 5], dtype=np.int64)  # row 1 empty
        assert csr_has_sorted_indices(3, indptr, np.array([0, 2, 4, 1, 3], dtype=np.int64))
        assert not csr_has_sorted_indices(3, indptr, np.array([0, 4, 2, 1, 3], dtype=np.int64))
        assert not csr_has_sorted_indices(3, indptr, np.array([0, 2, 4, 3, 1], dtype=np.int64))
        # a decrease across a row boundary is not a disorder
        assert csr_has_sorted_indices(3, indptr, np.array([2, 3, 4, 0, 1], dtype=np.int64))
        empty = np.zeros(4, dtype=np.int64)
        assert csr_has_sorted_indices(3, empty, np.zeros(0, dtype=np.int64))
        assert csr_has_sorted_indices(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))
