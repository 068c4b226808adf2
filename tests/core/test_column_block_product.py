"""One product per column block: what ``replan`` builds, and what it rests on.

On boolean operands ``replan`` multiplies ``Ac_j ⊗ B_j`` once and reads
every subtile's size, flops and kept partial off that product at the
subtile's global row range.  Two things are pinned here:

* the plan equals, field for field and charge for charge, the one a
  kernel call per stored subtile builds — ``per_subtile_plan``
  (``benchmarks/_oracles.py``), the loop body this replaced;
* the fact the slicing rests on — a subtile *is* rows ``[g0, g1)`` of the
  rank's current ``A.col_copy``, read there at use, so no state transition
  can leave a stale copy behind: after each of them (value update,
  refreshing prologue, edge-subset derivation, checkpoint restore, shrink)
  the next multiplies are those of a fresh session built at that state —
  and so is the next plan, field for field: the index of stored slots
  ``replan`` walks follows ``prepared.subtiles`` (docs/planning.md,
  *Stored slots*).
"""

import dataclasses

import numpy as np
import pytest
from _oracles import assert_same_plan, per_subtile_plan

from repro.core import TsConfig, prepare_multiply, replan, tiled_multiply
from repro.core.driver import TsSession
from repro.core.symbolic import DIAGONAL, EMPTY, LOCAL, REMOTE
from repro.mpi import run_spmd
from repro.partition import Block1D, DistSparseMatrix
from repro.sparse import BOOL_AND_OR, CsrMatrix, dispatch_spgemm, mask_entries
from repro.sparse.ops import extract_row_range

from ..conftest import assert_same_arrays, csr_from_dense, random_dense
from .test_column_split import _FusedScale, revalued, scale_values

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
            prepared = prepare_multiply(dist_a, config)
            return tiled_multiply(dist_a, dist_b, BOOL_AND_OR, prepared=prepared)[0].local

        want, _ = dispatch_spgemm(a, b, BOOL_AND_OR, "esc-vectorized")
        for (lo, hi), block in zip(Block1D(N, p).ranges, run_spmd(p, program).values):
            assert same_arrays(block, extract_row_range(want, lo, hi))


# ----------------------------------------------------------------------
# state transitions: the next multiplies are a fresh session's
# ----------------------------------------------------------------------
def _update_operand(session, a, b):
    session.update_operand(revalued(a, 3.0))
    return session, revalued(a, 3.0)


def _fused_prologue(session, a, b):
    session.multiply(b, prologue=_FusedScale())
    return session, revalued(a, 2.0)


def _derive(session, a, b):
    keep = np.random.default_rng(2).random(a.nnz) < 0.6
    return session.derive_edge_subset(keep), mask_entries(a, keep)


def _derive_values(session, a, b):
    """A derived child whose edges then take new weights: a values-only
    update before the child's first multiply."""
    child, kept = _derive(session, a, b)
    weights = (np.random.default_rng(4).random(kept.nnz) + 0.5).astype(kept.dtype)
    kept = CsrMatrix(kept.shape, kept.indptr, kept.indices, weights, check=False)
    child.update_operand(kept)
    return child, kept


def _derive_emptied(session, a, b):
    """A mask that empties stored subtiles: whole rows of every block go."""
    keep = (a.row_ids() % 12 >= 6) & (np.random.default_rng(2).random(a.nnz) < 0.8)
    return session.derive_edge_subset(keep), mask_entries(a, keep)


def _restore(session, a, b):
    """The multiply the session's fault plan strikes: its own prologue has
    refreshed the values in place when the rank is lost, the replica rolls
    the rank back and the retry refreshes again."""
    result = session.multiply(b, prologue=scale_values)
    assert result.diagnostics["recoveries"] == 1
    return session, revalued(a, 2.0)


def _shrink(session, a, b):
    session.shrink(session.p - 2)
    return session, a


#: name -> (transition, fault kind its session is built with, whether the
#: SpMM mode table the warm-up built survives it).  Setup and its
#: checkpoint are tasks 0-1, the warm-up multiplies 2-3, ``update_operand``
#: and its checkpoint 4-5: the fault strikes task 6 at the rank's second
#: collective, after its prologue's values-only exchange.
TRANSITIONS = {
    "update_operand": (_update_operand, None, True),
    "fused_prologue": (_fused_prologue, None, True),
    "derive": (_derive, None, False),
    "derive_values": (_derive_values, None, False),
    "derive_emptied": (_derive_emptied, None, False),
    "crash_restore": (_restore, "crash", True),
    "transient_restore": (_restore, "transient", True),
    "shrink": (_shrink, None, False),
}


class TestStateTransitions:
    @pytest.mark.parametrize("tile_height", [None, 4])
    @pytest.mark.parametrize("policy", ["hybrid", "remote"])
    @pytest.mark.parametrize(
        "name, p",
        [(name, p) for name in TRANSITIONS for p in (1, 3, 4) if (name, p) != ("shrink", 1)],
    )
    def test_next_multiplies_are_a_fresh_sessions(self, rng, name, p, policy, tile_height):
        """Sparse and dense: output and the whole ``SpmdReport``."""
        transition, fault, keeps_mode_table = TRANSITIONS[name]
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        b_dense = rng.random((N, D))
        config = TsConfig(
            tile_height=tile_height, mode_policy=policy, recoverable=True,
            retry_backoff=0.0,
            faults=fault and f"{fault}@{p - 1},task=6,seq=1",
        )
        with TsSession(a, p, config=config) as parent:
            parent.multiply(b_dense)
            parent.multiply(b)
            if fault:
                _, a = _update_operand(parent, a, b)
            session, a_now = transition(parent, a, b)
            # One settling multiply: a derived session cuts its strips in it.
            settled = session.multiply(b).C
            got = [session.multiply(b), session.multiply(b_dense), session.multiply(b_dense)]
            with TsSession(
                a_now, session.p, config=dataclasses.replace(config, faults=None),
                row_bounds=session._rows.bounds,
            ) as fresh:
                want = [fresh.multiply(b), fresh.multiply(b_dense), fresh.multiply(b_dense)]
        assert_same_arrays(settled, want[0].C)
        assert_same_arrays(got[0].C, want[0].C)
        assert got[0].report == want[0].report
        for result in got[1:]:
            assert result.C.tobytes() == want[1].C.tobytes()
        # The mode table is the pattern's: values and restores leave it be.
        assert got[1].diagnostics["plan_reused"] == (session.p if keeps_mode_table else 0)
        assert ("symbolic" in got[1].report.phase_bytes()) == (not keeps_mode_table)
        assert got[1].report == want[2 if keeps_mode_table else 1].report
        assert got[2].report == want[2].report

    @pytest.mark.parametrize("tile_height", [None, 3])
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize(
        "name, p",
        [(name, p) for name in TRANSITIONS for p in (1, 4) if (name, p) != ("shrink", 1)],
    )
    def test_next_plan_is_a_fresh_prepares(self, rng, name, p, policy, tile_height):
        """The ``PreparedA`` a session carries through a transition — its
        stored-slot index built by the warm-up multiplies — plans the next
        multiply exactly as ``prepare_multiply`` at that state does."""
        transition, fault, _ = TRANSITIONS[name]
        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        b = csr_from_dense(random_dense(rng, N, D, 0.4, dtype=np.bool_))
        config = TsConfig(
            tile_height=tile_height, mode_policy=policy, recoverable=True,
            retry_backoff=0.0,
            faults=fault and f"{fault}@{p - 1},task=6,seq=1",
        )
        with TsSession(a, p, config=config, semiring=BOOL_AND_OR) as parent:
            parent.multiply(b)
            parent.multiply(b)
            if fault:
                _update_operand(parent, a, b)
            session, _ = transition(parent, a, b)
            state, ncols = session._state, session.ncols
            plain = dataclasses.replace(config, faults=None)

            def program(comm):
                rows, local, col_copy, prepared, _ = state[comm.rank]
                dist_a = DistSparseMatrix(comm, rows, local, ncols, col_copy)
                dist_b = DistSparseMatrix.scatter_rows(comm, b, rows=rows)
                stored = sum(ps.stored for subs in prepared.subtiles.values() for ps in subs)
                slots = sum(map(len, prepared.subtiles.values()))
                got = replan(prepared, dist_a, dist_b)
                assert_same_plan(got, replan(prepare_multiply(dist_a, plain), dist_a, dist_b))
                assert got.count(EMPTY) == slots - stored
                return stored, slots

            counts = run_spmd(session.p, program).values
        if name == "derive_emptied" and tile_height == 3:
            assert sum(st for st, _ in counts) < sum(sl for _, sl in counts)
