"""Kernel dispatch registry tests: cross-kernel output equivalence.

Every kernel registered in :mod:`repro.sparse.kernels` must produce
*identical* ``(indptr, indices, data)`` output — same pattern, including
explicit zeros, bit-equal values — on every input and semiring it
supports.  Values are integer-valued so floating-point addition is exact
regardless of the accumulation order a kernel uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TsConfig
from repro.sparse import (
    BOOL_AND_OR,
    DEFAULT_KERNEL,
    MIN_PLUS,
    PLUS_TIMES,
    SEL2ND_MIN,
    CsrMatrix,
    available_kernels,
    dispatch_spgemm,
    get_kernel,
    random_csr,
    register_kernel,
    resolve_spgemm,
)
from repro.sparse.build import order_rows
from repro.sparse.kernels import symbolic_size
from _oracles import spgemm_hash_rowwise, spgemm_spa_rowwise

from ..conftest import csr_from_dense, random_dense

#: The seed's scalar row-by-row SpGEMM (``benchmarks/_oracles.py``), any
#: semiring: every registry kernel must equal them too.
REFERENCES = {"spa-rowwise": spgemm_spa_rowwise, "hash-rowwise": spgemm_hash_rowwise}
#: ``auto`` picks a registry kernel per call, from the operands it is given.
CSR_KERNELS = available_kernels() + ("auto",) + tuple(REFERENCES)


def _supports(kernel, semiring) -> bool:
    return kernel in REFERENCES or kernel == "auto" or get_kernel(kernel).supports(semiring)


def _multiply(a, b, semiring, kernel):
    """``(C, flops)`` of the registry kernel ``kernel`` through dispatch,
    or of the reference of that name."""
    if kernel in REFERENCES:
        return REFERENCES[kernel](a, b, semiring)
    return dispatch_spgemm(a, b, semiring, kernel)


SEMIRINGS = [PLUS_TIMES, MIN_PLUS, BOOL_AND_OR]


def _integerize(mat: CsrMatrix, rng) -> CsrMatrix:
    """Replace values with small integers so float addition is exact and
    bit-equality holds regardless of a kernel's accumulation order."""
    mat.data[:] = rng.integers(1, 10, size=mat.nnz)
    return mat


def _case_random(rng):
    """Seeded random operands in the paper's tall-skinny regime."""
    a = _integerize(random_csr(60, 60, nnz_per_row=5, rng=rng), rng)
    b = _integerize(random_csr(60, 24, nnz_per_row=6, rng=rng), rng)
    return a, b


def _case_empty_rows(rng):
    """Operands with interleaved all-zero rows (and an empty B row)."""
    a_dense = random_dense(rng, 24, 18, 0.3)
    a_dense[::3] = 0  # every third A row empty
    b_dense = random_dense(rng, 18, 7, 0.4)
    b_dense[1::2] = 0  # every second B row empty
    return csr_from_dense(a_dense), csr_from_dense(b_dense)


def _case_duplicate_heavy(rng):
    """Dense-ish operands: every output entry folds many duplicates."""
    a_dense = random_dense(rng, 30, 6, 0.9)
    b_dense = random_dense(rng, 6, 5, 0.9)
    return csr_from_dense(a_dense), csr_from_dense(b_dense)


CASES = {
    "random": _case_random,
    "empty-rows": _case_empty_rows,
    "duplicate-heavy": _case_duplicate_heavy,
}


def _coerce(mat: CsrMatrix, semiring) -> CsrMatrix:
    return mat.astype(semiring.dtype)


class TestCrossKernelEquivalence:
    @pytest.mark.parametrize("kernel", CSR_KERNELS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_identical_output(self, rng, kernel, case, semiring):
        if not _supports(kernel, semiring):
            pytest.skip(f"{kernel} does not support {semiring.name}")
        a, b = CASES[case](rng)
        a, b = _coerce(a, semiring), _coerce(b, semiring)
        reference, ref_flops = dispatch_spgemm(a, b, semiring, DEFAULT_KERNEL)
        got, flops = _multiply(a, b, semiring, kernel)
        assert got.shape == reference.shape
        np.testing.assert_array_equal(got.indptr, reference.indptr)
        np.testing.assert_array_equal(got.indices, reference.indices)
        np.testing.assert_array_equal(got.data, reference.data)
        assert flops == ref_flops

    @pytest.mark.parametrize("kernel", [k for k in CSR_KERNELS if k not in ("scipy", "auto")])
    def test_explicit_zero_from_cancellation_kept(self, kernel):
        # (+1)*1 + (-1)*1 = 0 stays a stored entry in every kernel; scipy
        # (and ``auto``, which picks it for float plus_times) is exempt —
        # its matmul canonicalizes away cancelled entries.
        a = csr_from_dense([[1, -1]])
        b = csr_from_dense([[1, 0], [1, 0]])
        c, _ = _multiply(a, b, PLUS_TIMES, kernel)
        assert c.nnz == 1
        assert c.data[0] == 0.0

    @pytest.mark.parametrize("kernel", CSR_KERNELS)
    def test_empty_operands(self, kernel):
        a = CsrMatrix.empty((3, 4))
        b = CsrMatrix.empty((4, 2))
        c, flops = _multiply(a, b, PLUS_TIMES, kernel)
        assert c.shape == (3, 2) and c.nnz == 0 and flops == 0

    @pytest.mark.parametrize("kernel", CSR_KERNELS)
    def test_dimension_mismatch(self, kernel):
        a = CsrMatrix.empty((3, 4))
        b = CsrMatrix.empty((5, 2))
        with pytest.raises(ValueError, match="mismatch"):
            _multiply(a, b, PLUS_TIMES, kernel)


class TestRegistry:
    def test_issue_kernels_registered(self):
        assert set(available_kernels()) >= {"esc-vectorized", "spa", "scipy"}
        assert "hash" not in available_kernels()  # one kernel, one name
        assert "dense" not in available_kernels()  # SpMM calls ops.spmm_dense

    def test_default_is_vectorized_esc(self):
        assert DEFAULT_KERNEL == "esc-vectorized"
        assert get_kernel(DEFAULT_KERNEL).vectorized
        # Config defaults to "auto": scipy's C fast path for arithmetic
        # float data, the vectorized ESC default for every other semiring.
        assert TsConfig().kernel == "auto"
        assert resolve_spgemm("auto", MIN_PLUS).name == DEFAULT_KERNEL

    def test_spa_restricted_to_identity_safe_semirings(self):
        # max_times' zero (0.0) is not an identity for negative products;
        # the scatter-fold SPA kernel must refuse rather than be wrong.
        from repro.sparse import MAX_TIMES

        assert not get_kernel("spa").supports(MAX_TIMES)
        a = csr_from_dense([[-1.0]])
        b = csr_from_dense([[2.0]])
        expected, _ = dispatch_spgemm(a, b, MAX_TIMES, DEFAULT_KERNEL)
        assert expected.data[0] == -2.0
        with pytest.raises(ValueError, match="spa"):
            dispatch_spgemm(a, b, MAX_TIMES, "spa")

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("btree")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("spa", vectorized=True)(lambda a, b, s: None)

    def test_config_validates_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            TsConfig(kernel="btree")
        assert TsConfig(kernel="auto").kernel == "auto"

    def test_auto_resolution(self):
        a = csr_from_dense([[1.0]])
        assert resolve_spgemm("auto", PLUS_TIMES, a).name == "scipy"
        assert resolve_spgemm("auto", BOOL_AND_OR).name == DEFAULT_KERNEL
        bool_a = a.astype(np.bool_)
        assert resolve_spgemm("auto", PLUS_TIMES, bool_a).name == DEFAULT_KERNEL

    def test_auto_prefers_spa_for_small_d_non_arithmetic(self):
        """ROADMAP follow-up: batched SPA wins the microbench (~83x vs
        ~19x over the seed path) on small-d identity-safe semirings, so
        auto picks it when the output width is known and cache-resident;
        scipy keeps arithmetic float data, ESC everything else."""
        from repro.sparse.kernels import SPA_AUTO_MAX_D

        a = csr_from_dense([[1.0]])
        # known small d, identity-safe non-arithmetic semiring -> spa
        assert resolve_spgemm("auto", BOOL_AND_OR, d=64).name == "spa"
        assert resolve_spgemm("auto", MIN_PLUS, d=SPA_AUTO_MAX_D).name == "spa"
        assert resolve_spgemm("auto", PLUS_TIMES, a.astype(np.bool_), d=64).name == "spa"
        # beyond the SPA cache crossover -> the any-semiring default
        assert (
            resolve_spgemm("auto", BOOL_AND_OR, d=SPA_AUTO_MAX_D + 1).name
            == DEFAULT_KERNEL
        )
        # non-identity-safe semirings can never take the SPA scratch
        from repro.sparse import MAX_TIMES

        assert resolve_spgemm("auto", MAX_TIMES, d=64).name == DEFAULT_KERNEL
        # arithmetic float data keeps scipy's C path regardless of d
        assert resolve_spgemm("auto", PLUS_TIMES, a, d=64).name == "scipy"

    def test_dispatch_auto_routes_bool_to_spa(self):
        rng = np.random.default_rng(0)
        a = csr_from_dense(random_dense(rng, 20, 20, 0.3, dtype=np.bool_))
        b = csr_from_dense(random_dense(rng, 20, 8, 0.4, dtype=np.bool_))
        via_auto, _ = dispatch_spgemm(a, b, BOOL_AND_OR, "auto")
        via_spa, _ = dispatch_spgemm(a, b, BOOL_AND_OR, "spa")
        assert via_auto.equal(via_spa)

    def test_strict_default_rejects_unsupported_semiring(self):
        # Numeric paths never silently substitute a forced kernel.
        with pytest.raises(ValueError, match="plus_times"):
            resolve_spgemm("scipy", BOOL_AND_OR)

    def test_lenient_degrades_to_default(self):
        # The tiled algorithm's boolean symbolic phase (the one lenient
        # call site) relies on this.
        assert resolve_spgemm("scipy", BOOL_AND_OR, strict=False).name == DEFAULT_KERNEL

    def test_dense_kernel_rejected_as_spgemm(self):
        a = csr_from_dense([[1.0]])
        with pytest.raises(ValueError, match="unknown kernel 'dense'"):
            dispatch_spgemm(a, a, PLUS_TIMES, "dense")


class TestForcedKernelEndToEnd:
    """A forced kernel flows from TsConfig through the tiled algorithm."""

    @pytest.mark.parametrize("kernel", ["esc-vectorized", "spa", "scipy"])
    def test_tiled_multiply_all_kernels_agree(self, rng, kernel):
        from repro.core import ts_spgemm

        a = random_csr(48, 48, nnz_per_row=4, rng=rng)
        b = random_csr(48, 8, nnz_per_row=3, rng=rng)
        reference = ts_spgemm(a, b, 4, config=TsConfig()).C
        got = ts_spgemm(a, b, 4, config=TsConfig(kernel=kernel)).C
        assert got.equal(reference)


def _explicit_bool(dense_pattern, dense_values) -> CsrMatrix:
    """Boolean CSR storing every ``dense_pattern`` position, with the value
    ``dense_values`` has there — so a stored ``False`` is expressible."""
    pattern = np.asarray(dense_pattern, dtype=bool)
    mat = CsrMatrix.from_dense(pattern)
    rows = mat.row_ids()
    return CsrMatrix(
        mat.shape, mat.indptr, mat.indices,
        np.asarray(dense_values, dtype=bool)[rows, mat.indices],
    )


def _bool_product_oracle(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Scalar (∧, ∨) product: an entry is stored iff some product lands on
    it, and is True iff one of those products is."""
    pattern = np.zeros((a.nrows, b.ncols), dtype=bool)
    values = np.zeros((a.nrows, b.ncols), dtype=bool)
    for i in range(a.nrows):
        for k, av in zip(*a.row(i)):
            for j, bv in zip(*b.row(int(k))):
                pattern[i, j] = True
                values[i, j] |= bool(av) and bool(bv)
    return _explicit_bool(pattern, values)


def _assert_bit_identical(got: CsrMatrix, want: CsrMatrix):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


BOOL_KERNELS = [k for k in CSR_KERNELS if _supports(k, BOOL_AND_OR)]


class TestStoredFalse:
    """Boolean operands that store an explicit ``False`` (the other cases
    coerce positive integers, so they never do): the entry stays stored,
    and its value is the OR of its products, not of its pattern."""

    @pytest.mark.parametrize("kernel", BOOL_KERNELS)
    @pytest.mark.parametrize("false_in", ["a", "b", "both", "neither"])
    def test_random_operands(self, rng, kernel, false_in):
        a_pattern = rng.random((20, 16)) < 0.35
        b_pattern = rng.random((16, 9)) < 0.4
        a_vals = rng.random((20, 16)) < (0.5 if false_in in ("a", "both") else 2)
        b_vals = rng.random((16, 9)) < (0.5 if false_in in ("b", "both") else 2)
        a, b = _explicit_bool(a_pattern, a_vals), _explicit_bool(b_pattern, b_vals)
        assert (not a.data.all()) == (false_in in ("a", "both"))
        assert (not b.data.all()) == (false_in in ("b", "both"))
        got, flops = _multiply(a, b, BOOL_AND_OR, kernel)
        want = _bool_product_oracle(a, b)
        _assert_bit_identical(got, want)
        assert flops == int(b.row_nnz()[a.indices].sum())
        if false_in == "neither":
            assert got.data.all()
        else:
            assert not got.data.all() and got.data.any()

    @pytest.mark.parametrize("kernel", BOOL_KERNELS)
    def test_entry_whose_every_contribution_is_false_stays_stored(self, kernel):
        # C[0,0] = (T∧F) ∨ (F∧T) ∨ (F∧F) = False, but it is an entry;
        # C[0,1] = (T∧T) ∨ (F∧T) = True; C[1,0] = (T∧F) = False.
        a = _explicit_bool([[1, 1, 1], [1, 0, 0]], [[1, 0, 0], [1, 0, 0]])
        b = _explicit_bool([[1, 1], [1, 1], [1, 0]], [[0, 1], [1, 1], [0, 0]])
        got, flops = _multiply(a, b, BOOL_AND_OR, kernel)
        assert flops == 7
        np.testing.assert_array_equal(got.indptr, [0, 2, 4])
        np.testing.assert_array_equal(got.indices, [0, 1, 0, 1])
        assert got.data.dtype == np.bool_
        assert got.data.tolist() == [False, True, False, True]


class TestSpaRowBlocks:
    """The ``spa`` kernel splits into row blocks only when ``nrows * d``
    exceeds its scratch bound; whatever the split, the output is the one
    every other kernel gives."""

    NROWS, D = 24, 7

    def _operands(self, rng, semiring):
        a_dense = random_dense(rng, self.NROWS, 18, 0.3)
        a_dense[::5] = 0  # empty rows ...
        a_dense[8:14] = 0  # ... and whole blocks that hold no product
        b_dense = random_dense(rng, 18, self.D, 0.4)
        a = csr_from_dense(a_dense).astype(semiring.dtype)
        b = csr_from_dense(b_dense).astype(semiring.dtype)
        if semiring.dtype == np.bool_:
            a.data[::3] = False  # stored False: values are blocked too
            b.data[::4] = False
        return a, b

    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, MIN_PLUS, SEL2ND_MIN, BOOL_AND_OR], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("rows_per_block", [24, 23, 12, 2, 1, 0])
    def test_any_split_matches_the_other_kernels(
        self, rng, monkeypatch, semiring, rows_per_block
    ):
        import repro.sparse.kernels as kernels_module

        a, b = self._operands(rng, semiring)
        want, want_flops = dispatch_spgemm(a, b, semiring, "esc-vectorized")
        # 0 rows' worth of scratch still makes progress, one row at a time
        bound = rows_per_block * self.D if rows_per_block else 1
        step = max(rows_per_block, 1)

        folds = []
        fold = kernels_module.spa_fold
        monkeypatch.setattr(
            kernels_module,
            "spa_fold",
            lambda flat, vals, size, sr: folds.append(size) or fold(flat, vals, size, sr),
        )
        monkeypatch.setattr(kernels_module, "SPA_MAX_SCRATCH_ELEMS", bound)
        got, flops = kernels_module.spgemm_spa_vectorized(a, b, semiring)
        got = order_rows(got, copy=False)  # the step dispatch_spgemm adds
        # one fold per block that holds a product, none larger than the bound
        edges = list(range(0, self.NROWS, step)) + [self.NROWS]
        occupied = [
            (r1 - r0) * self.D
            for r0, r1 in zip(edges, edges[1:])
            if want.indptr[r1] > want.indptr[r0]
        ]
        assert folds == occupied
        assert len(folds) > 1 or rows_per_block >= 23
        _assert_bit_identical(got, want)
        assert flops == want_flops
        _assert_bit_identical(got, spgemm_spa_rowwise(a, b, semiring)[0])


# ----------------------------------------------------------------------
# all-True boolean operands: the spa kernel's compiled route
# ----------------------------------------------------------------------
@st.composite
def all_true_operands(draw):
    """Boolean ``(a, b)`` storing no ``False``: empty rows on both sides,
    sometimes an empty ``b``, output width ``d`` from 1 to past a cache line."""
    m, k = draw(st.integers(1, 14)), draw(st.integers(1, 10))
    d = draw(st.sampled_from([1, 8, 64, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(nrows, ncols, density):
        pattern = rng.random((nrows, ncols)) < density
        pattern[rng.random(nrows) < 0.3] = False  # empty rows
        return CsrMatrix.from_dense(pattern)

    a = operand(m, k, draw(st.sampled_from([0.2, 0.6])))
    b = operand(k, d, draw(st.sampled_from([0.0, 0.05, 0.5])))
    return a, b


@given(all_true_operands(), st.sampled_from(["below", "above"]))
@settings(max_examples=200, deadline=None)
def test_all_true_boolean_spa_is_every_other_kernels_product(operands, scratch):
    """The compiled route has no scratch, so the bound changes nothing; the
    output is the fold's — pattern, ``True`` data, dtype, flops, and order
    once ``dispatch_spgemm``'s ordering step has run."""
    import repro.sparse.kernels as kernels_module

    a, b = operands
    assert a.dtype == b.dtype == np.bool_ and a.data.all() and b.data.all()
    cells = a.nrows * b.ncols
    bound = max(1, cells // 3) if scratch == "below" else cells + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels_module, "SPA_MAX_SCRATCH_ELEMS", bound)
        got, flops = kernels_module.spgemm_spa_vectorized(a, b, BOOL_AND_OR)
    got = order_rows(got, copy=False)
    assert got.indptr.dtype == got.indices.dtype == np.int64
    for kernel in ("esc-vectorized", "spa-rowwise"):
        want, want_flops = _multiply(a, b, BOOL_AND_OR, kernel)
        _assert_bit_identical(got, want)
        assert flops == want_flops and type(flops) is int
    assert got.data.all()
    got._validate()


def test_all_true_boolean_spa_checks_dimensions_first():
    """The compiled routines check no bounds: the mismatch must raise the
    kernels' own error before they see an array."""
    a = CsrMatrix.from_dense(np.ones((3, 4), dtype=bool))
    b = CsrMatrix.from_dense(np.ones((5, 2), dtype=bool))
    with pytest.raises(ValueError, match="mismatch"):
        dispatch_spgemm(a, b, BOOL_AND_OR, "spa")


# ----------------------------------------------------------------------
# symbolic_size: the product's size without the product
# ----------------------------------------------------------------------
@st.composite
def stored_operands(draw):
    """``(a, b)`` float or boolean CSR operands that store explicit
    ``0.0`` / ``False``, with empty rows, sometimes an empty operand and
    sometimes an ``a`` none of whose needed ``b`` rows stores anything."""
    m, k, n = (draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.bool_]))

    def operand(nrows, ncols, empty_rows=()):
        pattern = rng.random((nrows, ncols)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
        pattern[rng.random(nrows) < 0.3] = False  # empty rows
        pattern[empty_rows] = False
        mat = _explicit_bool(pattern, rng.random((nrows, ncols)) < 0.5)
        if dtype == np.bool_:
            return mat  # about half the stored values are False
        return mat.astype(np.float64)  # ... or 0.0

    a = operand(m, k)
    starved = draw(st.booleans())  # every B row that A needs is empty
    return a, operand(k, n, np.unique(a.indices) if starved else ())


@given(stored_operands())
@settings(max_examples=300, deadline=None)
def test_symbolic_size_is_the_pattern_products_size(operands):
    a, b = operands
    pattern, flops = dispatch_spgemm(
        a.astype(np.bool_), b.astype(np.bool_), BOOL_AND_OR, "esc-vectorized"
    )
    want = (pattern.nnz, int(np.count_nonzero(pattern.row_nnz())), flops)
    got = symbolic_size(a, b)
    assert got == want
    assert all(type(x) is int for x in got)


def test_symbolic_size_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        symbolic_size(CsrMatrix.empty((3, 4)), CsrMatrix.empty((5, 2)))
