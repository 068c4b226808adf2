"""The rank program does its local work once.

On boolean operands ``replan`` multiplies its whole column block against
``B`` once (one kernel call per rank) and sizes every subtile from that
product; under ``bool_and_or`` a REMOTE or DIAGONAL subtile's rows of it
*are* the partial, so ``_subtile_product`` takes them instead of
multiplying again.  These tests count kernel calls through a kernel
registered the public way, pin ``C`` and the ``SpmdReport`` to a recompute
with the kept products stripped, and check the three situations in which
the kept product must not be taken.  The consumer multiplies a round's
LOCAL tiles in one call, so a multiply makes one kernel call per
(consumer, round) pair that holds a LOCAL tile (:func:`local_rounds`),
not one per tile.  The last class covers the checks the engine's consumer
(``round_tiles``) relies on instead of sorting.

Two numbers that used to coincide and no longer do: ``P`` — the kernel
calls of the symbolic step, one column-block product per rank — and
``TileDiagnostics.symbolic_products`` — the subtiles sized and charged
against ``B``, whose meaning and values did not change.
"""

import dataclasses
import threading
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from repro.core import TsConfig, prepare_multiply, replan, tiled_multiply
from repro.core import tiled
from repro.core.symbolic import DIAGONAL, LOCAL, REMOTE, row_tile_ranges
from repro.core.tiled import (
    TileDiagnostics,
    _stack_row_tiles,
    multiply_round,
    round_tiles,
    tile_rounds,
)
from repro.mpi import run_spmd
from repro.partition import Block1D, DistSparseMatrix
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix, get_kernel
from repro.sparse import kernels
from repro.sparse.ops import extract_row_range
from repro.sparse.tile import ColumnStrips

from _oracles import per_strip_round

from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4
KERNEL = "test-counting"


class CountingKernel:
    """ESC under another name, counting its calls (rank threads share it)."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, a, b, semiring=PLUS_TIMES):
        with self._lock:
            self.calls += 1
        return get_kernel("esc-vectorized").fn(a, b, semiring)


@pytest.fixture
def counter(monkeypatch):
    """A counting kernel, registered for one test only: the registry is
    process-wide, and a kernel left in it would show in every later
    ``--kernel`` choice list."""
    kernel = CountingKernel()
    spec = dataclasses.replace(
        get_kernel("esc-vectorized"), name=KERNEL, fn=kernel, description="test: counts calls"
    )
    monkeypatch.setitem(kernels._REGISTRY, KERNEL, spec)
    return kernel


def bool_operands(rng):
    """A and B dense enough that the hybrid policy picks both modes."""
    a = csr_from_dense(random_dense(rng, N, N, 0.25, dtype=np.bool_))
    b = csr_from_dense(random_dense(rng, N, D, 0.6, dtype=np.bool_))
    return a, b


def stripped_replan(kept):
    """``replan`` with the kept symbolic products removed by hand; each
    rank appends how many it removed to ``kept``."""

    def planner(prepared, A, B):
        plan = replan(prepared, A, B)
        removed = 0
        for infos in plan.produced.values():
            for info in infos:
                removed += info.symbolic is not None
                info.symbolic = None
        kept.append(removed)  # list.append is atomic across rank threads
        return plan

    return planner


def multiply(a, b, semiring, config, *, strip=False, prologue=None):
    """One tiled multiply; returns (C blocks, per-rank diagnostics, kept
    products seen on the plan, report).  ``strip`` recomputes with every
    plan's kept symbolic products removed by hand."""

    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a)
        dist_a.build_column_copy()
        dist_b = DistSparseMatrix.scatter_rows(comm, b)
        prepared = prepare_multiply(dist_a, config)
        fused_prologue = prologue(dist_a) if prologue else None
        c, diag = tiled_multiply(
            dist_a, dist_b, semiring, prepared=prepared,
            fused_prologue=fused_prologue,
        )
        return c.local, diag

    kept = []
    with mock.patch.object(tiled, "replan", stripped_replan(kept)) if strip else nullcontext():
        result = run_spmd(P, program)
    blocks = [v[0] for v in result.values]
    diags = [v[1] for v in result.values]
    return blocks, diags, sum(kept), result.report


def local_rounds(a, b, config):
    """(consumer, round) pairs holding a LOCAL tile: one round product
    each.  Planned with the ``auto`` kernel, so no counted call."""
    config = dataclasses.replace(config, kernel="auto")
    width = config.tile_width_factor

    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a)
        dist_a.build_column_copy()
        dist_b = DistSparseMatrix.scatter_rows(comm, b)
        plan = replan(prepare_multiply(dist_a, config), dist_a, dist_b)
        return [(i, comm.rank) for i, infos in plan.by_mode[LOCAL].items() if infos]

    pairs = {pair for rank in run_spmd(P, program).values for pair in rank}
    return len({
        (i, next(k for k, (_, prods) in enumerate(tile_rounds(i, P, width)) if j in prods))
        for i, j in pairs
    })


def vstack(blocks):
    return np.vstack([blk.to_dense() for blk in blocks])


def total(diags, field):
    return sum(getattr(d, field) for d in diags)


def assert_blocks_identical(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        np.testing.assert_array_equal(g.indptr, w.indptr)
        np.testing.assert_array_equal(g.indices, w.indices)
        np.testing.assert_array_equal(g.data, w.data)


class Idle:
    """A fused prologue that ships nothing and changes nothing."""

    def __init__(self, dist_a):
        pass

    def sections(self, comm):
        return []

    def finish(self, comm, received):
        pass


class TestKeptSymbolicProduct:
    @pytest.mark.parametrize(
        "fuse, prologue",
        [
            pytest.param(True, None, id="True"),
            pytest.param(False, None, id="False"),
            # a fused prologue that refreshes nothing keeps the products
            pytest.param(True, Idle, id="True-idle-prologue"),
        ],
    )
    def test_boolean_multiply_runs_each_product_once(self, rng, counter, fuse, prologue):
        a, b = bool_operands(rng)
        config = TsConfig(kernel=KERNEL, fuse_comm=fuse, tile_height=4)

        blocks, diags, _, report = multiply(a, b, BOOL_AND_OR, config, prologue=prologue)
        once = counter.calls
        remote, local = total(diags, "remote_tiles"), total(diags, "local_tiles")
        assert remote > 0 and local > 0, "operands must exercise both modes"
        diagonal = total(diags, "diagonal_tiles")
        rounds = local_rounds(a, b, config)
        assert 0 < rounds <= local
        assert once == P + rounds  # one column-block product per rank

        counter.calls = 0
        ref_blocks, ref_diags, kept, ref_report = multiply(
            a, b, BOOL_AND_OR, config, strip=True, prologue=prologue
        )
        assert kept == remote + diagonal  # exactly those subtiles carried one
        assert counter.calls == once + remote + diagonal
        assert_blocks_identical(blocks, ref_blocks)
        assert report == ref_report  # clocks, per-phase bytes, rounds: all of it
        assert [d.flops for d in diags] == [d.flops for d in ref_diags]
        np.testing.assert_array_equal(
            vstack(blocks), (a.to_dense().astype(int) @ b.to_dense().astype(int)) > 0
        )

    def test_float_multiply_keeps_nothing(self, rng, counter):
        a = csr_from_dense(random_dense(rng, N, N, 0.25))
        b = csr_from_dense(random_dense(rng, N, D, 0.6))
        config = TsConfig(kernel=KERNEL, tile_height=4)
        blocks, diags, kept, _ = multiply(a, b, PLUS_TIMES, config, strip=True)
        assert kept == 0
        remote = total(diags, "remote_tiles")
        assert remote > 0
        # float subtiles are sized in replan, not multiplied
        assert total(diags, "symbolic_products") > 0
        assert counter.calls == (
            total(diags, "diagonal_tiles") + local_rounds(a, b, config) + remote
        )
        np.testing.assert_allclose(vstack(blocks), a.to_dense() @ b.to_dense())

    @pytest.mark.parametrize("width", [1, 16])
    def test_one_kernel_call_per_round_not_per_tile(self, rng, counter, width):
        """Every tile LOCAL, three row tiles per strip: the consumer's
        calls are its rounds, across one round (width 16) or four."""
        a = csr_from_dense(random_dense(rng, N, N, 0.25))
        b = csr_from_dense(random_dense(rng, N, D, 0.6))
        config = TsConfig(
            kernel=KERNEL, tile_height=4, mode_policy="local", tile_width_factor=width
        )
        blocks, diags, _, _ = multiply(a, b, PLUS_TIMES, config)
        rounds = local_rounds(a, b, config)
        assert rounds == (P * (P - 1) if width == 1 else P)
        assert rounds < total(diags, "local_tiles")
        assert counter.calls == total(diags, "diagonal_tiles") + rounds
        np.testing.assert_allclose(vstack(blocks), a.to_dense() @ b.to_dense())

    def test_other_semiring_on_boolean_operands_recomputes(self, rng, counter):
        """Kept products exist (both operands boolean) but the multiply
        counts paths under plus_times: they are not its partials."""
        a, b = bool_operands(rng)
        config = TsConfig(kernel=KERNEL, tile_height=4)
        blocks, diags, _, _ = multiply(a, b, PLUS_TIMES, config)
        remote = total(diags, "remote_tiles")
        assert remote > 0
        assert counter.calls == (
            P + total(diags, "diagonal_tiles") + local_rounds(a, b, config) + remote
        )
        np.testing.assert_array_equal(
            vstack(blocks), a.to_dense().astype(float) @ b.to_dense().astype(float)
        )

    def test_value_refresh_drops_the_kept_product(self, rng, counter):
        """A fused prologue that changes A's values after replan ran: the
        kept products describe the old values and must not be shipped."""
        a, b = bool_operands(rng)
        # same pattern, every stored value an explicit False
        a_off = CsrMatrix(a.shape, a.indptr, a.indices, np.zeros(a.nnz, bool))
        config = TsConfig(kernel=KERNEL, tile_height=4)

        class TurnOff:
            def __init__(self, dist_a):
                self.dist_a = dist_a

            def sections(self, comm):
                return []

            def finish(self, comm, received):
                self.dist_a.local = extract_row_range(a_off, *self.dist_a.local_range)
                self.dist_a.build_column_copy()

        blocks, diags, _, _ = multiply(a, b, BOOL_AND_OR, config, prologue=TurnOff)
        remote = total(diags, "remote_tiles")
        assert remote > 0
        assert counter.calls == (
            P + total(diags, "diagonal_tiles") + local_rounds(a, b, config) + remote
        )
        assert not any(blk.data.any() for blk in blocks)
        assert_blocks_identical(blocks, multiply(a_off, b, BOOL_AND_OR, config)[0])

    def test_kept_only_on_remote_boolean_subtiles(self, rng):
        a, b = bool_operands(rng)
        config = TsConfig(tile_height=4)

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_b = DistSparseMatrix.scatter_rows(comm, b)
            plan = replan(prepare_multiply(dist_a, config), dist_a, dist_b)
            return [
                (info.mode, info.symbolic, info.output_nnz)
                for infos in plan.produced.values()
                for info in infos
            ]

        seen = [t for rank in run_spmd(P, program).values for t in rank]
        assert any(mode == REMOTE for mode, _, _ in seen)
        assert any(mode == DIAGONAL for mode, _, _ in seen)
        for mode, symbolic, output_nnz in seen:
            assert (symbolic is not None) == (mode in (REMOTE, DIAGONAL))
            if mode == REMOTE:
                pattern, flops = symbolic
                assert pattern.nnz == output_nnz and flops > 0

    @pytest.mark.parametrize("float_side", ["a", "b", "both"])
    def test_sized_subtiles_plan_like_multiplied_ones(self, rng, counter, float_side):
        """A subtile with a non-boolean operand is sized without a kernel
        call; modes, sizes and the symbolic charge are those of the
        boolean plan, which multiplies the same patterns."""
        a, b = bool_operands(rng)
        a.data[::5] = False  # stored entries that are zero still count
        b.data[::7] = False
        config = TsConfig(kernel=KERNEL, tile_height=4)

        def plan_of(a, b):
            def program(comm):
                dist_a = DistSparseMatrix.scatter_rows(comm, a)
                dist_a.build_column_copy()
                dist_b = DistSparseMatrix.scatter_rows(comm, b)
                plan = replan(prepare_multiply(dist_a, config), dist_a, dist_b)
                return plan.pattern_products, [
                    (info.mode, info.needed_b_nnz, info.output_nnz, info.symbolic is None)
                    for infos in plan.produced.values()
                    for info in infos
                ]

            counter.calls = 0
            result = run_spmd(P, program)
            charged = [rs.phases["symbolic"] for rs in result.report.rank_stats]
            return result.values, charged, counter.calls

        multiplied, multiplied_phase, calls = plan_of(a, b)
        assert calls == P and sum(n for n, _ in multiplied) > 0
        sized, sized_phase, calls = plan_of(
            a.astype(np.float64) if float_side in ("a", "both") else a,
            b.astype(np.float64) if float_side in ("b", "both") else b,
        )
        assert calls == 0
        assert sized_phase == multiplied_phase
        for (n_sized, infos), (n_mult, want) in zip(sized, multiplied):
            assert n_sized == n_mult
            assert [i[:3] for i in infos] == [w[:3] for w in want]
            assert all(i[3] for i in infos)  # nothing to keep


class TestRoundTiles:
    """The engine's consumer: products are placed by the payload's row
    tile ids, and B rows by their global ids, so the producer's order is
    checked before anything is multiplied (stacking replaced sorting; an
    id the consumer cannot place once dropped the tile's output rows
    silently).  Producer 1 owns columns ``[8, 16)`` of an 8-row block cut
    into four row tiles."""

    strips = ColumnStrips(csr_from_dense(np.hstack([np.eye(8), np.eye(8)])), [(0, 8), (8, 16)])
    ranges = row_tile_ranges(8, 2)
    rows = Block1D(16, 2)

    def _tiles(self, tile_ids, ids_of=lambda rt: np.arange(8 + 2 * rt, 10 + 2 * rt)):
        payload = [(rt, ids_of(rt), csr_from_dense(np.ones((2, 3)))) for rt in tile_ids]
        return round_tiles(self.strips, [None, payload], range(2), self.ranges, self.rows)

    @pytest.mark.parametrize("multiply", [multiply_round, per_strip_round])
    def test_in_order_payload_places_each_tile(self, multiply):
        tiles = self._tiles([0, 2, 3])
        assert [(j, r0, r1) for j, r0, r1, _, _ in tiles] == [(1, 0, 2), (1, 4, 6), (1, 6, 8)]

        def program(comm):
            diag = TileDiagnostics()
            parts = multiply(comm, self.strips, tiles, 16, PLUS_TIMES, "esc-vectorized", diag)
            per_tile = comm.machine.spgemm_time(6, d=3, kernel="esc-vectorized")
            return parts, diag.flops, comm.time, per_tile

        parts, flops, elapsed, per_tile = run_spmd(1, program).values[0]
        for part in parts:
            np.testing.assert_array_equal(part.to_dense(), np.ones((2, 3)))
        assert flops == 18 and elapsed == pytest.approx(3 * per_tile)

    @pytest.mark.parametrize("tile_ids", [[0, 4], [1, 0], [2, 2]])
    def test_unplaceable_row_tile_raises(self, tile_ids):
        with pytest.raises(ValueError, match="strictly increasing and below 4"):
            self._tiles(tile_ids)

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([7, 8], "out of range"),  # the first id is producer 0's
            ([15, 16], "out of range"),  # past producer 1's block
            ([9, 9], "strictly increasing"),  # repeated
            ([10, 9], "strictly increasing"),  # unsorted
        ],
    )
    def test_unplaceable_b_row_raises(self, ids, message):
        with pytest.raises(ValueError, match=message):
            self._tiles([1], ids_of=lambda rt: np.array(ids))


def test_a_tile_spanning_the_block_is_not_rebuilt():
    """``tile_height=None``: every stack is one tile that already is the
    block — handed back with its arrays, values in the semiring's dtype."""
    tile = csr_from_dense(np.arange(12.0).reshape(4, 3))
    same = _stack_row_tiles([(0, tile)], 4, 3, PLUS_TIMES)
    assert same.shape == (4, 3)
    assert same.indptr is tile.indptr and same.indices is tile.indices
    assert same.data is tile.data
    as_bool = _stack_row_tiles([(0, tile)], 4, 3, BOOL_AND_OR)
    assert as_bool.indices is tile.indices and as_bool.dtype == np.bool_
    taller = _stack_row_tiles([(2, tile)], 6, 3, PLUS_TIMES)  # same tile, offset
    np.testing.assert_array_equal(taller.to_dense()[2:], tile.to_dense())
    assert taller.indptr is not tile.indptr and not taller.to_dense()[:2].any()
