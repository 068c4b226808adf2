"""One product per column block: what ``replan`` builds, and what it rests on.

On boolean operands ``replan`` multiplies ``Ac_j ⊗ B_j`` once and reads
every subtile's size, flops and kept partial off that product at the
subtile's global row range.  Two things are pinned here:

* the plan equals, field for field and charge for charge, the one a
  kernel call per stored subtile builds — ``per_subtile_plan`` below is the
  loop body this replaced, kept as the oracle;
* the fact the slicing rests on: every stored ``PreparedSubtile.block`` is,
  array for array, rows ``[g0, g1)`` of the rank's current ``A.col_copy`` —
  after every writer of either (prepare, value refresh, edge-subset
  derivation, checkpoint restore, shrink).
"""

import numpy as np
import pytest

from repro.core import TsConfig, prepare_multiply, replan, tiled_multiply
from repro.core.driver import TsSession
from repro.core.symbolic import DIAGONAL, EMPTY, LOCAL, REMOTE
from repro.mpi import run_spmd
from repro.partition import Block1D, DistSparseMatrix
from repro.sparse import BOOL_AND_OR, CsrMatrix, dispatch_spgemm, resolve_spgemm
from repro.sparse.ops import extract_row_range

from ..conftest import csr_from_dense, random_dense

N, D = 36, 5
VARIANTS = [
    "all-true", "empty-b-block", "empty-column-block", "false-a", "false-b", "false-both",
]


def operands(variant, p, seed=11):
    """Boolean ``A`` (N × N) and ``B`` (N × D).  The top third of ``A`` is
    two full rows (few output rows against many ``B`` rows: REMOTE wins),
    the rest sparse rows crossing full columns (many output rows against few
    ``B`` rows: LOCAL wins), so the hybrid policy picks both modes at every
    world size and tile height."""
    rng = np.random.default_rng(seed)
    a = random_dense(rng, N, N, 0.1, dtype=np.bool_)
    a[: N // 3] = False
    a[[0, 7]] = True
    a[N // 3 :, 2::9] = True
    b = random_dense(rng, N, D, 0.5, dtype=np.bool_)
    lo, hi = Block1D(N, p).ranges[min(1, p - 1)]
    if variant == "empty-b-block":
        b[lo:hi] = False  # that rank multiplies against nothing
    if variant == "empty-column-block":
        a[:, lo:hi] = False  # that rank's Ac_j stores nothing
    a, b = csr_from_dense(a), csr_from_dense(b)
    if variant in ("false-a", "false-both"):
        a.data[::3] = False  # stored False: the product keeps the numpy fold
    if variant in ("false-b", "false-both"):
        b.data[::4] = False
    return a, b


def same_arrays(got: CsrMatrix, want: CsrMatrix) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
        and np.array_equal(got.data, want.data)
    )


def per_subtile_plan(prepared, A, B):
    """The hybrid boolean symbolic step as one kernel call per stored
    subtile: ``(peer, row tile, mode, needed_b_nnz, output_nnz, kept)`` per
    slot, charged like ``replan``."""
    comm, config = A.comm, prepared.config

    def product(ps):
        return dispatch_spgemm(
            ps.block, B.local, BOOL_AND_OR, config.kernel, strict=False
        )

    slots = []
    with comm.phase("symbolic"):
        b_row_nnz = B.local.row_nnz()
        sym_kernel = resolve_spgemm(
            config.kernel, BOOL_AND_OR, d=B.ncols, strict=False
        ).name
        for peer in range(comm.size):
            for ps in prepared.subtiles[peer]:
                if ps.block is None:
                    slots.append((peer, ps.row_tile, EMPTY, 0, 0, None))
                    continue
                if peer == comm.rank:
                    slots.append((peer, ps.row_tile, DIAGONAL, 0, 0, product(ps)))
                    continue
                nzc = ps.needed_b_rows
                needed_nnz = int(b_row_nnz[nzc].sum())
                pattern, flops = product(ps)
                comm.charge_symbolic(flops, kernel=sym_kernel)
                out_rows = int(np.count_nonzero(pattern.row_nnz()))
                remote = 16 * pattern.nnz + 16 * out_rows < 16 * needed_nnz + 16 * len(nzc)
                slots.append(
                    (
                        peer, ps.row_tile, REMOTE if remote else LOCAL, needed_nnz,
                        pattern.nnz, (pattern, flops) if remote else None,
                    )
                )
    return slots


def replan_slots(prepared, A, B):
    plan = replan(prepared, A, B)
    assert plan.pattern_products == sum(
        info.mode in (LOCAL, REMOTE) for infos in plan.produced.values() for info in infos
    )
    return [
        (peer, info.row_tile, info.mode, info.needed_b_nnz, info.output_nnz, info.symbolic)
        for peer in sorted(plan.produced)
        for info in plan.produced[peer]
    ]


def plan_with(planner, a, b, p, config):
    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a)
        dist_a.build_column_copy()
        dist_b = DistSparseMatrix.scatter_rows(comm, b)
        return planner(prepare_multiply(dist_a, config), dist_a, dist_b)

    result = run_spmd(p, program)
    return result.values, [rs.phases["symbolic"] for rs in result.report.rank_stats]


class TestPlanEqualsPerSubtileOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("tile_height", [None, 3, 5])
    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_plan_and_charges(self, p, tile_height, variant):
        a, b = operands(variant, p)
        config = TsConfig(tile_height=tile_height)
        got, got_phase = plan_with(replan_slots, a, b, p, config)
        want, want_phase = plan_with(per_subtile_plan, a, b, p, config)
        assert got_phase == want_phase  # per rank: clocks and counters
        modes = set()
        for rank_got, rank_want in zip(got, want):
            assert [s[:5] for s in rank_got] == [s[:5] for s in rank_want]
            for (*_, mode, _, _, kept), (*_, want_kept) in zip(rank_got, rank_want):
                modes.add(mode)
                assert (kept is None) == (want_kept is None)
                if kept is not None:
                    assert same_arrays(kept[0], want_kept[0])
                    assert kept[1] == want_kept[1] and type(kept[1]) is int
        if p > 1 and variant == "all-true":
            assert {LOCAL, REMOTE, DIAGONAL} <= modes, "operands must exercise every mode"

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("tile_height", [None, 3])
    def test_multiply_takes_the_slices(self, tile_height, variant, fuse):
        """End to end: the kept slices are the partials — ``C`` is the
        global product array for array, stored ``False`` included."""
        p = 4
        a, b = operands(variant, p)
        config = TsConfig(tile_height=tile_height, fuse_comm=fuse)

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            dist_b = DistSparseMatrix.scatter_rows(comm, b)
            return tiled_multiply(dist_a, dist_b, BOOL_AND_OR, config)[0].local

        want, _ = dispatch_spgemm(a, b, BOOL_AND_OR, "esc-vectorized")
        for (lo, hi), block in zip(Block1D(N, p).ranges, run_spmd(p, program).values):
            assert same_arrays(block, extract_row_range(want, lo, hi))


    @pytest.mark.parametrize("fuse", [True, False])
    def test_a_reused_plan_drops_every_kept_slice(self, fuse):
        """``tiled_multiply(plan=...)`` promises the patterns the plan was
        built from, not the values: a plan made against an all-True ``B``,
        reused against the same pattern storing ``False``, must not ship
        (REMOTE) or merge (DIAGONAL) the slices of the first product."""
        p = 4
        a, b = operands("all-true", p)
        b_off = CsrMatrix(b.shape, b.indptr, b.indices, np.arange(b.nnz) % 2 == 0)
        config = TsConfig(tile_height=3, fuse_comm=fuse)

        def program(comm):
            dist_a = DistSparseMatrix.scatter_rows(comm, a)
            dist_a.build_column_copy()
            prepared = prepare_multiply(dist_a, config)
            plan = replan(prepared, dist_a, DistSparseMatrix.scatter_rows(comm, b))
            kept = {info.mode for infos in plan.produced.values() for info in infos
                    if info.symbolic is not None}
            c, _ = tiled_multiply(
                dist_a, DistSparseMatrix.scatter_rows(comm, b_off), BOOL_AND_OR,
                config, plan=plan, prepared=prepared,
            )
            return c.local, kept

        values = run_spmd(p, program).values
        assert set().union(*(kept for _, kept in values)) == {REMOTE, DIAGONAL}
        want, _ = dispatch_spgemm(a, b_off, BOOL_AND_OR, "esc-vectorized")
        assert not want.data.all()
        for (lo, hi), (block, _) in zip(Block1D(N, p).ranges, values):
            assert same_arrays(block, extract_row_range(want, lo, hi))


# ----------------------------------------------------------------------
# the invariant: stored blocks are row ranges of the current column copy
# ----------------------------------------------------------------------
def assert_blocks_are_col_copy_rows(session: TsSession):
    checked = 0
    for rank, (rows, _, col_copy, prepared, _) in enumerate(session._state):
        assert prepared.rank == rank and prepared.size == rows.p == session.p
        for peer, subtiles in prepared.subtiles.items():
            peer_lo, peer_hi = rows.range_of(peer)
            assert subtiles[-1].row_range[1] == peer_hi - peer_lo
            for ps in subtiles:
                want = extract_row_range(
                    col_copy, peer_lo + ps.row_range[0], peer_lo + ps.row_range[1]
                )
                if ps.block is None:
                    assert want.nnz == 0
                else:
                    assert same_arrays(ps.block, want), (rank, peer, ps.row_tile)
                    checked += 1
    assert checked > session.p  # off-diagonal blocks were compared too


def bool_graph(seed=3):
    rng = np.random.default_rng(seed)
    return csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))


def session_on(a, p=4, **config):
    return TsSession(
        a, p, semiring=BOOL_AND_OR, config=TsConfig(tile_height=4, **config)
    )


class TestBlocksAreColumnCopyRows:
    def test_after_prepare(self):
        with session_on(bool_graph()) as session:
            assert_blocks_are_col_copy_rows(session)

    def test_after_refresh_values(self, rng):
        a = bool_graph()
        b = csr_from_dense(random_dense(rng, N, D, 0.4, dtype=np.bool_))

        def turn_some_off(comm, operand):
            operand.refresh_values(np.arange(operand.local.nnz) % 3 != 0)

        with session_on(a) as session:
            session.multiply(b, prologue=turn_some_off)
            assert not all(state[2].data.all() for state in session._state)
            assert_blocks_are_col_copy_rows(session)

    @pytest.mark.parametrize("revalue", [False, True])
    def test_after_derive_edge_subset(self, rng, revalue):
        a = bool_graph()
        keep = rng.random(a.nnz) < 0.6
        values = (rng.random(a.nnz) < 0.7) if revalue else None
        with session_on(a) as parent:
            child = parent.derive_edge_subset(keep, values=values)
            assert_blocks_are_col_copy_rows(child)
            assert_blocks_are_col_copy_rows(parent)
            assert sum(s[2].nnz for s in child._state) == int(keep.sum())

    def test_after_checkpoint_restore(self, rng):
        a = bool_graph()
        b = csr_from_dense(random_dense(rng, N, D, 0.4, dtype=np.bool_))
        config = dict(recoverable=True, retry_backoff=0.0, faults="crash@1,task=2,seq=0")
        with session_on(a, **config) as session:
            session.multiply(b)
            assert session.recoveries == 1
            assert_blocks_are_col_copy_rows(session)

    @pytest.mark.parametrize("dead_rank", [1, 3])
    def test_after_shrink(self, dead_rank):
        """Adopter (every subtile re-extracted) and survivors (only the
        merged peer's re-extracted, the rest renumbered)."""
        with session_on(bool_graph(), recoverable=True, retry_backoff=0.0) as session:
            session.shrink(dead_rank)
            assert session.p == 3
            assert_blocks_are_col_copy_rows(session)
