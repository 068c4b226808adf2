"""A tile product is ordered once, in the merge it feeds.

``merge_csrs`` orders entries by (row, col) whatever order they arrive in
within a part, so a product whose only reader is the merge is dispatched
with ``ordered`` false and keeps its rows in accumulator order.  Pinned
here: the merge's arrays do not depend on the column order inside any
part — on the dense-key path and the sorted path, for a float sum that
cancels to ``0.0``, stored ``False`` and ``min_plus`` signed zeros — and
its one-part branch returns sorted rows; and every kernel's unordered
product is its ordered one once each row is sorted, while the default
output is what a sorted product has always been.
"""

from unittest import mock

import numpy as np
import pytest
from _oracles import shuffled_rows
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sparse.merge as merge_module
from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    CsrMatrix,
    available_kernels,
    dispatch_spgemm,
    get_kernel,
    merge_csrs,
)
from repro.sparse.build import order_rows

from ..conftest import assert_same_arrays

SEMIRINGS = {s.name: s for s in (PLUS_TIMES, BOOL_AND_OR, MIN_PLUS)}
#: Float values drawn so sums cancel to exactly 0.0 (±x pairs), carry a
#: signed zero for ``min_plus``, and round differently by association.
FLOAT_VALUES = np.array([-2.0, 2.0, -0.5, 0.5, 0.1, 0.2, 0.3, 1e16, -1e16, 0.0, -0.0])


def random_part(rng, shape, density, semiring) -> CsrMatrix:
    """A canonical (sorted) part storing about ``density`` of ``shape``'s
    slots, with empty rows."""
    pattern = rng.random(shape) < density
    pattern[rng.random(shape[0]) < 0.2] = False
    mat = CsrMatrix.from_dense(pattern)
    if semiring.dtype == np.bool_:
        data = rng.random(mat.nnz) < 0.7  # about 30 % stored False
    else:
        data = FLOAT_VALUES[rng.integers(0, len(FLOAT_VALUES), mat.nnz)]
    return CsrMatrix(mat.shape, mat.indptr, mat.indices, data)


def all_true(mat: CsrMatrix) -> CsrMatrix:
    return CsrMatrix(mat.shape, mat.indptr, mat.indices, np.ones(mat.nnz, dtype=bool))


@st.composite
def merge_cases(draw):
    semiring = SEMIRINGS[draw(st.sampled_from(sorted(SEMIRINGS)))]
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    parts = [random_part(rng, shape, density, semiring) for _ in range(draw(st.integers(1, 5)))]
    return semiring, parts, rng


@given(merge_cases(), st.sampled_from(["dense", "sorted"]))
@settings(max_examples=300, deadline=None)
def test_merge_ignores_the_column_order_inside_a_part(case, path):
    """Parts whose rows are permuted merge to the canonical parts' arrays,
    bit for bit, and the result is sorted; an all-empty merge stays empty."""
    semiring, parts, rng = case
    # The dense-key path is taken iff the block holds at least one entry per
    # this many slots: 0 forces the sorted path, a huge number the dense one.
    per_entry = 1 << 40 if path == "dense" else 0
    with mock.patch.object(merge_module, "DENSE_MERGE_SLOTS_PER_ENTRY", per_entry):
        want = merge_csrs(parts, semiring)
        got = merge_csrs([shuffled_rows(p, rng) for p in parts], semiring)
    assert_same_arrays(got, want)
    assert got.data.tobytes() == want.data.tobytes()  # signed zeros included
    got._validate()
    assert got.nnz == 0 or any(p.nnz for p in parts)


@pytest.mark.parametrize("semiring", SEMIRINGS.values(), ids=lambda s: s.name)
def test_a_lone_unordered_part_comes_back_sorted(rng, semiring):
    """The one-part branch is the only way an unordered product could reach
    ``C`` unmerged: it sorts a copy, and leaves its part as it was."""
    part = random_part(rng, (9, 7), 0.6, semiring)
    unordered = shuffled_rows(part, rng)
    before = unordered.indices.copy()
    assert not np.array_equal(before, part.indices)
    got = merge_csrs([CsrMatrix.empty(part.shape, semiring.dtype), unordered], semiring)
    assert_same_arrays(got, part)
    np.testing.assert_array_equal(unordered.indices, before)
    assert merge_csrs([part], semiring).indices is part.indices  # sorted: as it is


# ----------------------------------------------------------------------
# dispatch_spgemm: unordered, then sorted per row, is the ordered product
# ----------------------------------------------------------------------
@st.composite
def kernel_operands(draw):
    """``(semiring, a, b)`` with empty rows, and for ``bool_and_or`` both
    all-True operands (the compiled route) and stored ``False``."""
    semiring = SEMIRINGS[draw(st.sampled_from(sorted(SEMIRINGS)))]
    m, k, n = draw(st.integers(1, 14)), draw(st.integers(1, 10)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_part(rng, (m, k), draw(st.sampled_from([0.0, 0.2, 0.6])), semiring)
    b = random_part(rng, (k, n), draw(st.sampled_from([0.0, 0.2, 0.6])), semiring)
    if semiring.dtype == np.bool_ and draw(st.booleans()):
        a, b = all_true(a), all_true(b)
    return semiring, a, b


@given(kernel_operands())
@settings(max_examples=200, deadline=None)
def test_an_unordered_product_is_the_ordered_one_sorted_per_row(operands):
    semiring, a, b = operands
    for kernel in available_kernels():
        if not get_kernel(kernel).supports(semiring):
            continue
        ordered, flops = dispatch_spgemm(a, b, semiring, kernel)
        unordered, unordered_flops = dispatch_spgemm(a, b, semiring, kernel, ordered=False)
        assert flops == unordered_flops
        ordered._validate()  # the default output: sorted, duplicate-free
        assert_same_arrays(order_rows(unordered, copy=True), ordered)


@pytest.mark.parametrize(
    "semiring, kernel", [(PLUS_TIMES, "scipy"), (BOOL_AND_OR, "spa")], ids=["scipy", "spa"]
)
def test_the_compiled_routes_leave_rows_unordered(rng, semiring, kernel):
    """What the unordered callers save: the compiled routes' rows come back
    in accumulator order, and only the default dispatch sorts them."""
    a = random_part(rng, (30, 30), 0.3, semiring)
    b = random_part(rng, (30, 20), 0.4, semiring)
    if semiring.dtype == np.bool_:
        a, b = all_true(a), all_true(b)
    unordered, _ = dispatch_spgemm(a, b, semiring, kernel, ordered=False)
    ordered, _ = dispatch_spgemm(a, b, semiring, kernel)
    assert not np.array_equal(unordered.indices, ordered.indices)
    np.testing.assert_array_equal(unordered.indptr, ordered.indptr)
    assert_same_arrays(order_rows(unordered, copy=True), ordered)
