"""SpGEMM kernel tests: all methods, all semirings, vs dense references."""

import numpy as np
import pytest

from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    SEL2ND_MIN,
    CsrMatrix,
    spgemm,
    spgemm_flops,
)
from ..conftest import csr_from_dense, random_dense

METHODS = ["esc-vectorized", "spa", "auto"]


def dense_semiring_matmul(a, b, semiring):
    """Reference dense semiring product (explicit loops, trusted)."""
    n, k = a.shape
    _, d = b.shape
    a_pattern = a != 0
    b_pattern = b != 0
    out = np.full((n, d), semiring.zero, dtype=semiring.dtype)
    written = np.zeros((n, d), dtype=bool)
    for i in range(n):
        for kk in range(k):
            if not a_pattern[i, kk]:
                continue
            for j in range(d):
                if not b_pattern[kk, j]:
                    continue
                prod = semiring.mul(
                    semiring.coerce(np.array(a[i, kk])),
                    semiring.coerce(np.array(b[kk, j])),
                )
                if written[i, j]:
                    out[i, j] = semiring.add(out[i, j], prod)
                else:
                    out[i, j] = prod
                    written[i, j] = True
    return out, written


def assert_matches_dense(c: CsrMatrix, expected, written):
    got = np.full(c.shape, None, dtype=object)
    dense = c.to_dense()
    pattern = np.zeros(c.shape, dtype=bool)
    rows = c.row_ids()
    pattern[rows, c.indices] = True
    np.testing.assert_array_equal(pattern, written)
    if c.dtype == np.bool_:
        np.testing.assert_array_equal(dense[written], expected[written])
    else:
        np.testing.assert_allclose(
            dense[written].astype(float), expected[written].astype(float)
        )


class TestArithmetic:
    @pytest.mark.parametrize("method", METHODS + ["scipy"])
    def test_small_known_product(self, method):
        a = csr_from_dense([[1, 2], [0, 3]])
        b = csr_from_dense([[4, 0], [5, 6]])
        c, flops = spgemm(a, b, PLUS_TIMES, method=method)
        np.testing.assert_allclose(c.to_dense(), [[14, 12], [15, 18]])
        # B-row nnz per A nonzero: A(0,0)->1, A(0,1)->2, A(1,1)->2
        assert flops == 1 + 2 + 2

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape", [(5, 7, 3), (10, 10, 10), (8, 4, 16)])
    def test_random_vs_scipy(self, rng, method, shape):
        n, k, d = shape
        a = csr_from_dense(random_dense(rng, n, k, 0.3))
        b = csr_from_dense(random_dense(rng, k, d, 0.4))
        c, flops = spgemm(a, b, PLUS_TIMES, method=method)
        c_ref, flops_ref = spgemm(a, b, PLUS_TIMES, method="scipy")
        np.testing.assert_allclose(c.to_dense(), c_ref.to_dense())
        assert flops == flops_ref

    def test_empty_operands(self):
        a = CsrMatrix.empty((3, 4))
        b = CsrMatrix.empty((4, 2))
        for method in METHODS:
            c, flops = spgemm(a, b, PLUS_TIMES, method=method)
            assert c.nnz == 0 and flops == 0
            assert c.shape == (3, 2)

    def test_dimension_mismatch(self):
        a = CsrMatrix.empty((3, 4))
        b = CsrMatrix.empty((5, 2))
        for method in METHODS + ["scipy"]:
            with pytest.raises(ValueError, match="mismatch"):
                spgemm(a, b, PLUS_TIMES, method=method)

    def test_numerical_cancellation_kept_as_explicit_zero(self):
        # (+1)*1 + (-1)*1 = 0 stays a stored entry (standard SpGEMM).
        a = csr_from_dense([[1, -1]])
        b = csr_from_dense([[1, 0], [1, 0]])
        c, _ = spgemm(a, b, PLUS_TIMES, method="esc-vectorized")
        assert c.nnz == 1
        assert c.data[0] == 0.0


class TestSemirings:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, BOOL_AND_OR, MIN_PLUS, SEL2ND_MIN]
    )
    def test_random_vs_dense_reference(self, rng, method, semiring):
        dtype = np.bool_ if semiring is BOOL_AND_OR else np.float64
        a = random_dense(rng, 6, 8, 0.35, dtype=dtype)
        b = random_dense(rng, 8, 5, 0.4, dtype=dtype)
        c, _ = spgemm(csr_from_dense(a), csr_from_dense(b), semiring, method=method)
        expected, written = dense_semiring_matmul(a, b, semiring)
        assert_matches_dense(c, expected, written)

    def test_bool_bfs_step_semantics(self):
        # adjacency: 0->1, 1->2 ; frontier column at vertex 0
        adj = csr_from_dense(
            np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=bool).T
        )  # transpose: row r holds in-neighbors... use A^T @ F convention
        frontier = csr_from_dense(np.array([[1], [0], [0]], dtype=bool))
        nxt, _ = spgemm(adj, frontier, BOOL_AND_OR)
        np.testing.assert_array_equal(
            nxt.to_dense().ravel(), [False, True, False]
        )

    def test_scipy_rejects_non_arithmetic(self):
        a = CsrMatrix.empty((2, 2))
        with pytest.raises(ValueError, match="plus_times"):
            spgemm(a, a, BOOL_AND_OR, method="scipy")

    def test_auto_dispatches_bool_to_esc(self):
        a = csr_from_dense(np.eye(3, dtype=bool))
        c, _ = spgemm(a, a, BOOL_AND_OR, method="auto")
        assert c.dtype == np.bool_
        np.testing.assert_array_equal(c.to_dense(), np.eye(3, dtype=bool))

    def test_unknown_method(self):
        a = CsrMatrix.empty((1, 1))
        with pytest.raises(ValueError, match="unknown kernel"):
            spgemm(a, a, PLUS_TIMES, method="btree")

    @pytest.mark.parametrize("method", ["esc", "hash", "spa-rowwise", "hash-rowwise"])
    def test_seed_names_are_not_methods(self, method):
        # method= takes a registry kernel name or "auto": no short-name
        # alias (``hash`` was one for esc-vectorized) and no fallback to the seed's scalar rowwise kernels
        a = CsrMatrix.empty((1, 1))
        with pytest.raises(ValueError, match="unknown kernel"):
            spgemm(a, a, PLUS_TIMES, method=method)


class TestFlops:
    def test_flops_formula(self, rng):
        a = csr_from_dense(random_dense(rng, 7, 9, 0.3))
        b = csr_from_dense(random_dense(rng, 9, 4, 0.5))
        expected = sum(
            b.row_nnz()[int(c)] for c in a.indices
        )
        assert spgemm_flops(a, b) == expected

    def test_flops_zero_for_empty(self):
        assert spgemm_flops(CsrMatrix.empty((2, 3)), CsrMatrix.empty((3, 4))) == 0

    def test_all_methods_report_same_flops(self, rng):
        a = csr_from_dense(random_dense(rng, 6, 6, 0.4))
        b = csr_from_dense(random_dense(rng, 6, 3, 0.5))
        flops = {m: spgemm(a, b, PLUS_TIMES, method=m)[1] for m in METHODS}
        assert len(set(flops.values())) == 1
        assert list(flops.values())[0] == spgemm_flops(a, b)


class TestTallSkinny:
    """The paper's regime: square A times tall-skinny sparse B."""

    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_ts_shapes(self, rng, d):
        n = 40
        a = csr_from_dense(random_dense(rng, n, n, 0.1))
        b = csr_from_dense(random_dense(rng, n, d, 0.2))
        c, _ = spgemm(a, b, PLUS_TIMES, method="esc-vectorized")
        c_ref, _ = spgemm(a, b, PLUS_TIMES, method="scipy")
        assert c.shape == (n, d)
        np.testing.assert_allclose(c.to_dense(), c_ref.to_dense())

    def test_output_sparsity_bounded_by_d(self, rng):
        n, d = 30, 8
        a = csr_from_dense(random_dense(rng, n, n, 0.15))
        b = csr_from_dense(random_dense(rng, n, d, 0.3))
        c, _ = spgemm(a, b, PLUS_TIMES)
        assert (c.row_nnz() <= d).all()
