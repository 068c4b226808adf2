"""Property-based tests (hypothesis) for the sparse substrate invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    BOOL_AND_OR,
    PLUS_TIMES,
    ColumnStrips,
    CsrMatrix,
    block_owner,
    block_ranges,
    coo_to_csr,
    ewise_add,
    extract_col_range,
    extract_row_range,
    extract_rows,
    merge_csrs,
    pattern_difference,
    row_topk,
    spgemm,
    transpose,
)
from repro.sparse.ops import difference_and_union

from _oracles import csr_row_topk

from ..conftest import assert_same_arrays


@st.composite
def dense_matrices(draw, max_dim=12, dtype="float"):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    if dtype == "bool":
        elems = st.booleans()
    else:
        elems = st.sampled_from([0, 0, 0, 1, 2, -3, 5])  # integers avoid fp noise
    flat = draw(
        st.lists(elems, min_size=nrows * ncols, max_size=nrows * ncols)
    )
    arr = np.array(flat).reshape(nrows, ncols)
    return arr.astype(bool) if dtype == "bool" else arr.astype(np.float64)


@st.composite
def matmul_pairs(draw, max_dim=10):
    n = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    d = draw(st.integers(1, 6))
    elems = st.sampled_from([0, 0, 0, 1, 2, -1])
    a = np.array(
        draw(st.lists(elems, min_size=n * k, max_size=n * k))
    ).reshape(n, k).astype(np.float64)
    b = np.array(
        draw(st.lists(elems, min_size=k * d, max_size=k * d))
    ).reshape(k, d).astype(np.float64)
    return a, b


class TestCsrInvariants:
    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_dense_roundtrip_exact(self, dense):
        mat = CsrMatrix.from_dense(dense)
        CsrMatrix(mat.shape, mat.indptr, mat.indices, mat.data, check=True)
        np.testing.assert_array_equal(mat.to_dense(), dense)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, dense):
        mat = CsrMatrix.from_dense(dense)
        assert transpose(transpose(mat)).equal(mat)

    @given(dense_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nnz_conserved_by_transpose(self, dense):
        mat = CsrMatrix.from_dense(dense)
        assert transpose(mat).nnz == mat.nnz


class TestSpgemmEquivalence:
    @given(matmul_pairs())
    @settings(max_examples=50, deadline=None)
    def test_esc_matches_numpy_product(self, pair):
        a, b = pair
        c, _ = spgemm(
            CsrMatrix.from_dense(a),
            CsrMatrix.from_dense(b),
            PLUS_TIMES,
            method="esc-vectorized",
        )
        np.testing.assert_allclose(c.to_dense(), a @ b)

    @given(matmul_pairs())
    @settings(max_examples=30, deadline=None)
    def test_spa_esc_agree(self, pair):
        a, b = pair
        ca = CsrMatrix.from_dense(a)
        cb = CsrMatrix.from_dense(b)
        esc, spa = (spgemm(ca, cb, PLUS_TIMES, method=m)[0] for m in ("esc-vectorized", "spa"))
        assert esc.equal(spa)

    @given(matmul_pairs())
    @settings(max_examples=30, deadline=None)
    def test_flops_identical_across_methods(self, pair):
        a, b = pair
        ca = CsrMatrix.from_dense(a)
        cb = CsrMatrix.from_dense(b)
        flops = {spgemm(ca, cb, PLUS_TIMES, method=m)[1] for m in ("esc-vectorized", "spa")}
        assert len(flops) == 1

    @given(dense_matrices(max_dim=8, dtype="bool"), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_bool_product_matches_reachability(self, adj, d):
        # (A F) over (∧,∨) equals boolean matmul
        rng = np.random.default_rng(0)
        f = rng.random((adj.shape[1], d)) < 0.4
        c, _ = spgemm(
            CsrMatrix.from_dense(adj), CsrMatrix.from_dense(f), BOOL_AND_OR
        )
        expected = (adj.astype(int) @ f.astype(int)) > 0
        got = np.zeros(c.shape, dtype=bool)
        got[c.row_ids(), c.indices] = c.data
        np.testing.assert_array_equal(got, expected)


class TestSetOpsProperties:
    @given(dense_matrices(dtype="bool"), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_difference_then_union_restores_superset(self, dense, rnd):
        full = CsrMatrix.from_dense(dense)
        # random sub-pattern of `full`
        mask = np.array([rnd.random() < 0.5 for _ in range(full.nnz)], dtype=bool)
        csum = np.concatenate([[0], np.cumsum(mask)])
        sub = CsrMatrix(
            full.shape,
            csum[full.indptr],
            full.indices[mask],
            full.data[mask],
            check=False,
        )
        diff = pattern_difference(full, sub)
        assert diff.nnz == full.nnz - sub.nnz
        union = ewise_add(diff, sub, BOOL_AND_OR)
        assert union.nnz == full.nnz

    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_difference_with_self_is_empty(self, dense):
        mat = CsrMatrix.from_dense(dense)
        assert pattern_difference(mat, mat).nnz == 0

    @given(dense_matrices(), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_row_topk_bounds_and_subset(self, dense, k):
        mat = CsrMatrix.from_dense(dense)
        out, twin = row_topk(dense, k)
        assert (out.row_nnz() <= k).all()
        # output pattern is a subset of input pattern
        assert pattern_difference(out, mat).nnz == 0
        np.testing.assert_array_equal(twin, out.to_dense())


#: Tied ±x magnitudes, signed zeros, infinities and NaN.
TOPK_VALUES = [0.0, -0.0, 0.5, -0.5, 2.0, -2.0, 3.0, np.inf, -np.inf, np.nan]


@st.composite
def topk_blocks(draw):
    """Dense blocks for ``row_topk``: up to 40 columns, so rows of tied
    values are long enough for an unstable sort to reorder them; some
    rows all zero; float64 or float32."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 40))
    cells = st.lists(
        st.sampled_from(TOPK_VALUES), min_size=nrows * ncols, max_size=nrows * ncols
    )
    z = np.array(draw(cells), dtype=np.float64).reshape(nrows, ncols)
    z[np.array(draw(st.lists(st.booleans(), min_size=nrows, max_size=nrows)), bool)] = 0
    return z.astype(draw(st.sampled_from([np.float64, np.float32])))


class TestRowTopkOracle:
    @given(topk_blocks(), st.integers(0, 42))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_csr_version(self, z, k):
        """The dense ``row_topk`` keeps what the CSR-input one kept from
        ``from_dense(z)``, array for array and value bit for value bit,
        and its twin is that CSR's ``to_dense()`` byte for byte."""
        got, twin = row_topk(z, k)
        want = csr_row_topk(CsrMatrix.from_dense(z), k)
        assert_same_arrays(got, want)
        assert got.data.tobytes() == want.data.tobytes()
        dense = want.to_dense()
        assert (twin.dtype, twin.shape) == (dense.dtype, dense.shape)
        assert twin.tobytes() == dense.tobytes()


@st.composite
def stored_bool_pairs(draw, max_dim=9):
    """Two equal-shape boolean CSRs whose stored values are drawn apart
    from their patterns (so either side may store ``False``), related as
    Alg 3's operands can be: anyhow, disjoint, identical, nested, all rows
    empty but one, or one side empty."""
    nrows, ncols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    grids = st.lists(
        st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols
    ).map(lambda bits: np.array(bits, dtype=bool).reshape(nrows, ncols))
    pat_a, pat_b, val_a, val_b = draw(grids), draw(grids), draw(grids), draw(grids)
    relation = draw(
        st.sampled_from(
            ["any", "disjoint", "identical", "a-in-b", "b-in-a", "one-row", "empty-a", "empty-b"]
        )
    )
    if relation == "disjoint":
        pat_b &= ~pat_a
    elif relation == "identical":
        pat_b = pat_a.copy()
    elif relation == "a-in-b":
        pat_b |= pat_a
    elif relation == "b-in-a":
        pat_a |= pat_b
    elif relation == "one-row":
        other_rows = np.arange(nrows) != draw(st.integers(0, nrows - 1))
        pat_a[other_rows] = pat_b[other_rows] = False
    elif relation == "empty-a":
        pat_a[:] = False
    elif relation == "empty-b":
        pat_b[:] = False

    def stored(pattern, values):
        mat = CsrMatrix.from_dense(pattern)
        return CsrMatrix(mat.shape, mat.indptr, mat.indices, values[pattern])

    return stored(pat_a, val_a), stored(pat_b, val_b)


class TestDifferenceAndUnion:
    """Alg 3's ``F ← N \\ S``, ``S ← S ∨ N`` from one search is the two
    operations, array for array and dtype for dtype."""

    @given(stored_bool_pairs())
    @settings(max_examples=150, deadline=None)
    def test_boolean_pairs_equal_the_two_ops(self, pair):
        a, b = pair
        difference, union = difference_and_union(a, b, BOOL_AND_OR)
        assert_same_arrays(difference, pattern_difference(a, b))
        assert_same_arrays(union, ewise_add(b, a, BOOL_AND_OR))

    @given(dense_matrices(), dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_other_operands_run_the_two_ops(self, dense_a, dense_b):
        nrows = min(dense_a.shape[0], dense_b.shape[0])
        ncols = min(dense_a.shape[1], dense_b.shape[1])
        a = CsrMatrix.from_dense(dense_a[:nrows, :ncols])
        b = CsrMatrix.from_dense(dense_b[:nrows, :ncols])
        for x, y, semiring in (
            (a, b, PLUS_TIMES),  # float pair: the overlaps sum
            (a.astype(np.bool_), b.astype(np.bool_), PLUS_TIMES),  # bool pair, arithmetic add
            (a, b, BOOL_AND_OR),  # float pair coerced by a boolean add
        ):
            difference, union = difference_and_union(x, y, semiring)
            assert_same_arrays(difference, pattern_difference(x, y))
            assert_same_arrays(union, ewise_add(y, x, semiring))

    @pytest.mark.parametrize("semiring", [BOOL_AND_OR, PLUS_TIMES])
    def test_shape_mismatch_raises(self, semiring):
        a = CsrMatrix.from_dense(np.ones((2, 3), dtype=bool))
        b = CsrMatrix.from_dense(np.ones((3, 2), dtype=bool))
        with pytest.raises(ValueError, match="shape mismatch"):
            difference_and_union(a, b, semiring)


class TestMergeProperties:
    @given(st.lists(dense_matrices(max_dim=6), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_dense_sum(self, denses):
        shape = (6, 6)
        padded = []
        for d in denses:
            out = np.zeros(shape)
            out[: d.shape[0], : d.shape[1]] = d
            padded.append(out)
        parts = [CsrMatrix.from_dense(p) for p in padded]
        merged = merge_csrs(parts, PLUS_TIMES)
        np.testing.assert_allclose(merged.to_dense(), sum(padded))

    @given(st.lists(dense_matrices(max_dim=5), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_merge_order_invariant(self, denses):
        shape = (5, 5)
        parts = []
        for d in denses:
            out = np.zeros(shape)
            out[: d.shape[0], : d.shape[1]] = d
            parts.append(CsrMatrix.from_dense(out))
        assert merge_csrs(parts).equal(merge_csrs(list(reversed(parts))))


class TestPartitionProperties:
    @given(st.integers(1, 500), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_block_ranges_partition(self, n, p):
        ranges = block_ranges(n, p)
        assert len(ranges) == p
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
        for (_, a1), (b0, _) in zip(ranges, ranges[1:]):
            assert a1 == b0

    @given(st.integers(1, 300), st.integers(1, 32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_owner_within_range(self, n, p, data):
        i = data.draw(st.integers(0, n - 1))
        owner = block_owner(i, n, p)
        lo, hi = block_ranges(n, p)[owner]
        assert lo <= i < hi


class TestTilingProperties:
    @given(dense_matrices(max_dim=15), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_tiles_cover_all_nnz(self, dense, h, p):
        # a tile is h rows of a column strip: the tiles of every strip
        # hold each entry of the block exactly once
        mat = CsrMatrix.from_dense(dense)
        strips = ColumnStrips(mat, block_ranges(mat.ncols, p))
        tiles = [
            extract_row_range(strip, r0, min(r0 + h, mat.nrows))
            for strip in strips
            for r0 in range(0, mat.nrows, h)
        ]
        assert sum(tile.nnz for tile in tiles) == mat.nnz

    @given(dense_matrices(max_dim=12), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_col_strips_nnz_preserved(self, dense, p):
        mat = CsrMatrix.from_dense(dense)
        ranges = block_ranges(mat.ncols, p)
        total = sum(
            extract_col_range(mat, c0, c1).nnz for c0, c1 in ranges
        )
        assert total == mat.nnz

    @given(dense_matrices(max_dim=10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_extract_rows_preserves_rows(self, dense, data):
        mat = CsrMatrix.from_dense(dense)
        ids = data.draw(
            st.lists(st.integers(0, mat.nrows - 1), min_size=0, max_size=8)
        )
        sel = extract_rows(mat, np.array(ids, dtype=np.int64))
        np.testing.assert_array_equal(sel.to_dense(), dense[ids])
