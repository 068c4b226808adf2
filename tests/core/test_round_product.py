"""One kernel call per round equals one per tile, to the last bit.

The tiled consumer places a round's received ``B`` rows once, at global
height, and multiplies them with the strip-major tall view of its row
block (``core/tiled.py::multiply_round``).  ``_oracles.per_strip_round``
is the consumer it replaced: each tile's rows placed at its producer's
height and multiplied alone.  Swapped in for it, every configuration
must give the same ``C`` arrays, the same diagnostics and the same
``repr`` of every rank's statistics — clocks, bytes, phases and their
order.
"""

import threading

import numpy as np
import pytest

from repro.core import TsConfig, prepare_multiply, tiled_multiply
from repro.core import tiled
from repro.mpi import run_spmd
from repro.partition import DistSparseMatrix
from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES, CsrMatrix
from repro.sparse.kernels import row_flops_before
from repro.sparse.tile import ColumnStrips

from _oracles import per_strip_round
from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4
SEMIRINGS = {
    "bool_and_or": BOOL_AND_OR,
    "bool_and_or-stored-False": BOOL_AND_OR,
    "plus_times": PLUS_TIMES,
    "min_plus": MIN_PLUS,
}
KERNELS = {
    "auto": list(SEMIRINGS),
    "esc-vectorized": list(SEMIRINGS),
    "spa": list(SEMIRINGS),
    "scipy": ["plus_times"],
}
CASES = [(k, s) for k, semirings in KERNELS.items() for s in semirings]


def operands(semiring_name, seed=3):
    rng = np.random.default_rng(seed)
    if semiring_name.startswith("bool"):
        a = csr_from_dense(random_dense(rng, N, N, 0.25, dtype=np.bool_))
        b = csr_from_dense(random_dense(rng, N, D, 0.5, dtype=np.bool_))
        if semiring_name.endswith("stored-False"):
            # stored False in one row block only: the tall view's operand
            # and most tiles' take different routes through ``spa``
            a.data[a.indptr[12] : a.indptr[24] : 3] = False
            b.data[::7] = False
        return a, b
    return (
        csr_from_dense(random_dense(rng, N, N, 0.25)),
        csr_from_dense(random_dense(rng, N, D, 0.5)),
    )


def multiply(a, b, semiring, config, monkeypatch, oracle):
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(tiled, "multiply_round", per_strip_round)

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_b = DistSparseMatrix.scatter_rows(comm, b)
            prepared = prepare_multiply(dist_a, config)
            c, diag = tiled_multiply(dist_a, dist_b, semiring, prepared=prepared)
            return c.local, diag

        result = run_spmd(P, program)
    return [v[0] for v in result.values], [v[1] for v in result.values], result.report


def assert_same_run(got, want):
    (blocks, diags, report), (want_blocks, want_diags, want_report) = got, want
    for g, w in zip(blocks, want_blocks):
        assert g.shape == w.shape and g.data.dtype == w.data.dtype
        np.testing.assert_array_equal(g.indptr, w.indptr)
        np.testing.assert_array_equal(g.indices, w.indices)
        assert g.data.tobytes() == w.data.tobytes()
    assert diags == want_diags
    assert repr(report.rank_stats) == repr(want_report.rank_stats)


@pytest.mark.parametrize("tile_height", [None, 4, 2])
@pytest.mark.parametrize("kernel, semiring", CASES)
def test_round_product_is_the_per_strip_loop(monkeypatch, kernel, semiring, tile_height):
    a, b = operands(semiring)
    for fuse in (True, False):
        for policy in ("hybrid", "local", "remote"):
            config = TsConfig(
                kernel=kernel, tile_height=tile_height, fuse_comm=fuse, mode_policy=policy
            )
            runs = [
                multiply(a, b, SEMIRINGS[semiring], config, monkeypatch, oracle)
                for oracle in (False, True)
            ]
            assert_same_run(*runs)


@pytest.mark.parametrize(
    "config, path",
    [
        # every tile LOCAL: two tiles of one strip ask for one B row
        (TsConfig(tile_height=2, mode_policy="local"), "shared"),
        (TsConfig(tile_height=4, mode_policy="local"), "shared"),
        # hybrid on one-row tiles: a REMOTE tile between two LOCAL ones
        (TsConfig(tile_height=1), "gathered"),
        (TsConfig(), None),
    ],
    ids=["h2-local", "h4-local", "h1-hybrid", "full-height"],
)
def test_overlapping_requests_and_gathered_rows_are_exercised(monkeypatch, config, path):
    """The two cases the tall view treats apart: a B row placed once for
    two tiles that requested it, and an operand gathered from the tiles'
    rows because a row between them must not multiply.  Either way the
    round forms exactly its tiles' products: no row outside a tile adds
    one (``sparse.kernel_products`` is unchanged)."""
    seen = {"shared": 0, "gathered": 0}
    place, tall_rows = tiled.place_row_union, tiled._tall_rows
    operands_of_round = {}  # per rank thread: they run concurrently

    def spy_rows(strips, tiles):
        operand, starts = tall_rows(strips, tiles)
        seen["gathered"] += operand.indices.base is None  # a gather, not a view
        operands_of_round[threading.get_ident()] = operand, tiles, starts
        return operand, starts

    def spy_place(nrows, payloads, ncols):
        ids = np.concatenate([i for i, _ in payloads])
        seen["shared"] += len(np.unique(ids)) < len(ids)
        placed = place(nrows, payloads, ncols)
        operand, tiles, starts = operands_of_round.pop(threading.get_ident())
        before = row_flops_before(operand, placed)
        assert before[-1] == sum(
            before[start + r1 - r0] - before[start]
            for (_, r0, r1, _, _), start in zip(tiles, starts)
        )
        return placed

    a, b = operands("plus_times")
    want = multiply(a, b, PLUS_TIMES, config, monkeypatch, oracle=True)
    monkeypatch.setattr(tiled, "place_row_union", spy_place)
    monkeypatch.setattr(tiled, "_tall_rows", spy_rows)
    got = multiply(a, b, PLUS_TIMES, config, monkeypatch, oracle=False)
    assert path is None or seen[path] > 0
    assert_same_run(got, want)


def test_a_value_refresh_reaches_the_tall_view(rng):
    """The tall view shares the strips' values: a same-pattern refresh
    moves both, so the round product reads the refreshed operand."""
    a = csr_from_dense(random_dense(rng, 6, 9, 0.5))
    strips = ColumnStrips(a, [(0, 3), (3, 5), (5, 9)])
    doubled = CsrMatrix(a.shape, a.indptr, a.indices, 2 * a.data)
    strips.refresh_values(doubled)
    for j, (c0, c1) in enumerate(strips.col_ranges):
        rows = strips.tall.to_dense()[j * 6 : (j + 1) * 6]
        np.testing.assert_array_equal(rows[:, c0:c1], doubled.to_dense()[:, c0:c1])
        np.testing.assert_array_equal(strips[j].to_dense(), doubled.to_dense()[:, c0:c1])
        assert not rows[:, :c0].any() and not rows[:, c1:].any()
