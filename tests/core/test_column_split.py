"""One split of a row block per operand pattern.

``ColumnStrips`` is cut once — by ``build_column_copy`` — and that object
is what the consumer side multiplies from, what a values-only refresh
gathers through and what ``_ensure_edge_ids`` replays.  Pinned here:

* how often the split runs (a counter on ``ColumnStrips.__init__``):
  once per rank per pattern, never in a resident multiply or a refresh;
* that the kept strips stay true to the resident block through every
  writer of either (value refresh, recovery, shrink);
* that the companions built *through* the batched passes — the edge-id
  replay, the derived session's ``needed_b_rows`` — equal the per-range
  loops they replaced (``benchmarks/_oracles.py``).
"""

import dataclasses

import numpy as np
import pytest
from _oracles import masked_replay_edge_ids

from repro.apps import train_sparse_embedding
from repro.core import TsConfig, ts_spgemm
from repro.core.driver import FusedPrologue, TsSession
from repro.data import erdos_renyi
from repro.mpi.errors import RankError
from repro.sparse import (
    PLUS_TIMES,
    ColumnStrips,
    CsrMatrix,
    extract_col_range,
    mask_entries,
)

from ..conftest import assert_same_arrays, csr_from_dense, random_dense

N, D, P = 36, 5, 4


def float_graph(seed=3, density=0.2):
    rng = np.random.default_rng(seed)
    return csr_from_dense(random_dense(rng, N, N, density))


def revalued(a: CsrMatrix, factor=3.0) -> CsrMatrix:
    return CsrMatrix(a.shape, a.indptr, a.indices, a.data * factor, check=False)


def operand(seed=7):
    rng = np.random.default_rng(seed)
    return csr_from_dense(random_dense(rng, N, D, 0.4))


def session_on(a, p=P, **config):
    config.setdefault("tile_height", 4)
    return TsSession(a, p, semiring=PLUS_TIMES, config=TsConfig(**config))


def scale_values(comm, resident):
    """A prologue that refreshes the resident values on every rank."""
    resident.refresh_values(resident.local.data * 2.0)


class _FusedScale(FusedPrologue):
    """The same refresh from inside the multiply's fused exchange."""

    def sections(self, comm, resident):
        return []

    def finish(self, comm, resident, received):
        scale_values(comm, resident)


#: The refresh before the multiply, and the refresh riding its exchange
#: (``fuse_comm`` is on by default).
REFRESHES = [scale_values, _FusedScale()]


@pytest.fixture
def splits(monkeypatch):
    """Every block split while the test runs (rank threads append; list
    appends are atomic)."""
    seen = []
    cut = ColumnStrips.__init__

    def counting(self, mat, col_ranges):
        seen.append(mat)
        cut(self, mat, col_ranges)

    monkeypatch.setattr(ColumnStrips, "__init__", counting)
    return seen


# ----------------------------------------------------------------------
# how often the split runs
# ----------------------------------------------------------------------
class TestSplitCounts:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_oneshot_multiply_splits_once_per_rank(self, splits, fuse):
        ts_spgemm(float_graph(), operand(), P, config=TsConfig(fuse_comm=fuse))
        assert len(splits) == P

    def test_oneshot_spmm_splits_once_per_rank(self, splits):
        ts_spgemm(float_graph(), np.ones((N, D)), P)
        assert len(splits) == P

    def test_session_setup_splits_once_per_rank(self, splits):
        with session_on(float_graph()):
            assert len(splits) == P

    def test_resident_multiplies_never_split(self, splits):
        with session_on(float_graph()) as session:
            del splits[:]
            session.multiply(operand())
            handle = session.multiply(operand(8), gather=False).C
            session.multiply(handle)
            session.multiply(np.ones((N, D)))  # the SpMM path
            assert splits == []

    @pytest.mark.parametrize("refresh", REFRESHES)
    def test_value_refresh_never_splits(self, splits, refresh):
        with session_on(float_graph()) as session:
            del splits[:]
            session.multiply(operand(), prologue=refresh)
            session.multiply(operand(), prologue=refresh)
            assert splits == []

    def test_update_operand_splits_only_for_a_new_pattern(self, splits):
        a = float_graph()
        with session_on(a) as session:
            del splits[:]
            session.update_operand(revalued(a))
            assert splits == []
            session.update_operand(float_graph(seed=4))
            assert len(splits) == P

    def test_refresh_after_checkpoint_restore_never_splits(self, splits):
        faults = dict(recoverable=True, retry_backoff=0.0, faults="crash@1,task=2,seq=0")
        with session_on(float_graph(), **faults) as session:
            del splits[:]
            session.multiply(operand())
            assert session.recoveries == 1
            session.multiply(operand(), prologue=scale_values)
            assert splits == []

    def test_shrink_resplits_once_per_survivor(self, splits):
        with session_on(float_graph(), recoverable=True, retry_backoff=0.0) as session:
            del splits[:]
            session.shrink(1)
            assert len(splits) == P - 1
            del splits[:]
            session.multiply(operand(), prologue=scale_values)
            assert splits == []

    @pytest.mark.parametrize("refresh", REFRESHES)
    def test_derived_session_splits_once_per_rank_at_derivation(self, splits, refresh):
        """A derived session cuts its masked block's strips when it is
        derived, like a fresh session's setup; its multiplies and value
        refreshes keep them."""
        a = float_graph()
        with session_on(a) as parent:
            parent._ensure_edge_ids()  # the driver's id replay splits too
            del splits[:]
            session = parent.derive_edge_subset(np.ones(a.nnz, bool))
            assert len(splits) == P
            del splits[:]
            session.multiply(operand(), prologue=refresh)
            session.multiply(operand(), prologue=refresh)
            session.multiply(operand())
            assert splits == []

    @pytest.mark.parametrize("negative_refresh, patterns", [(3, 1), (1, 3)])
    def test_embedding_splits_once_per_rank_per_pattern(
        self, splits, negative_refresh, patterns
    ):
        """Fig 13's loop: a redrawn negative sample is a new pattern, an
        epoch on a kept one only refreshes values."""
        train_sparse_embedding(
            erdos_renyi(48, 4, seed=5), P, d=8, sparsity=0.5, epochs=3, seed=1,
            negative_refresh=negative_refresh,
        )
        assert len(splits) == patterns * P


# ----------------------------------------------------------------------
# the kept strips stay true to the resident block
# ----------------------------------------------------------------------
def assert_strips_hold_local_values(session: TsSession):
    for rows, local, _, prepared, _ in session._state:
        strips = prepared.strips
        assert strips.col_ranges == rows.ranges
        for j, (c0, c1) in enumerate(rows.ranges):
            np.testing.assert_array_equal(
                strips[j].data, local.data[strips.selections[j]]
            )
            assert_same_arrays(strips[j], extract_col_range(local, c0, c1))


class TestStripsFollowTheResidentBlock:
    def test_after_setup(self):
        with session_on(float_graph()) as session:
            assert_strips_hold_local_values(session)

    @pytest.mark.parametrize("refresh", REFRESHES)
    def test_after_refresh_values(self, refresh):
        a = float_graph()
        with session_on(a) as session:
            session.multiply(operand(), prologue=refresh)
            assert np.array_equal(
                np.concatenate([s[1].data for s in session._state]), a.data * 2.0
            )
            assert_strips_hold_local_values(session)

    def test_after_update_operand(self):
        a = float_graph()
        with session_on(a) as session:
            session.update_operand(revalued(a))
            assert_strips_hold_local_values(session)

    def test_after_recovery(self):
        """A restore re-derives the strips from the restored block: both
        must come back as the refreshed checkpoint had the block.  (Setup
        and its checkpoint are tasks 0-1, the refreshing multiply and its
        checkpoint 2-3, the crashed multiply task 4.)"""
        a = float_graph()
        faults = dict(recoverable=True, retry_backoff=0.0, faults="crash@1,task=4,seq=0")
        with session_on(a, **faults) as session:
            session.multiply(operand(), prologue=scale_values)
            session.multiply(operand())
            assert session.recoveries == 1
            assert np.array_equal(
                np.concatenate([s[1].data for s in session._state]), a.data * 2.0
            )
            assert_strips_hold_local_values(session)

    @pytest.mark.parametrize("dead_rank", [1, 3])
    def test_after_shrink(self, dead_rank):
        with session_on(float_graph(), recoverable=True, retry_backoff=0.0) as session:
            session.shrink(dead_rank)
            assert_strips_hold_local_values(session)
            session.multiply(operand(), prologue=scale_values)
            assert_strips_hold_local_values(session)


class TestStaleSelectionsAreRefused:
    """The values-only round ships ``nnz`` values through the cached
    selections; a list that no longer matches the pattern must not
    silently rebuild a column copy of the wrong length."""

    def test_refresh_raises_before_replacing_the_copy(self):
        a = float_graph()
        with session_on(a) as session:
            strips = session._state[0][3].strips
            stale = list(strips.selections)
            assert len(stale[1]) > 0
            stale[1] = stale[1][:-1]
            strips.selections = stale
            col_copies = [state[2] for state in session._state]
            with pytest.raises(RankError, match="identical A pattern") as err:
                session.update_operand(revalued(a))
            assert err.value.rank == 1 and isinstance(err.value.original, ValueError)
            assert all(state[2] is cc for state, cc in zip(session._state, col_copies))


# ----------------------------------------------------------------------
# companions built through the batched passes
# ----------------------------------------------------------------------
class TestEdgeIdReplay:
    @pytest.mark.parametrize(
        "p, row_bounds",
        [(1, None), (3, None), (4, None), (4, (0, 5, 5, 30, N)), (3, (0, N, N, N))],
    )
    def test_companions_equal_the_masked_replay(self, p, row_bounds):
        a = float_graph()
        config = TsConfig(tile_height=4)
        with TsSession(a, p, config=config, row_bounds=row_bounds) as session:
            session._ensure_edge_ids()
            want = masked_replay_edge_ids(session)
            assert len(session._edge_ids) == p
            for got, wanted in zip(session._edge_ids, want):
                assert len(got) == len(wanted) == 2  # (local ids, column-copy ids)
                for got_ids, want_ids in zip(got, wanted):
                    assert got_ids.dtype == np.int64
                    np.testing.assert_array_equal(got_ids, want_ids)
            # the ids do address the resident blocks' own values
            for (loc, col), (_, local, col_copy, _, _) in zip(
                session._edge_ids, session._state
            ):
                np.testing.assert_array_equal(a.data[loc], local.data)
                np.testing.assert_array_equal(a.data[col], col_copy.data)


class TestDerivedNeededRows:
    @pytest.mark.parametrize("policy", ["hybrid", "remote"])
    def test_derived_plan_equals_a_fresh_one(self, rng, policy):
        """Subtile for subtile: a subtile masked empty stores nothing, a
        kept one has the ``nzc`` a fresh prepare scans; the derivation's
        ``prepare`` charge is the fresh session's plus the masking pass
        over the kept blocks, and its ``tiling`` charge is the fresh one."""
        a = float_graph(density=0.15)
        keep = rng.random(a.nnz) < 0.5
        keep[a.row_ids() < 4] = False  # whole subtiles masked empty
        config = dict(tile_height=4, mode_policy=policy)
        with session_on(a, **config) as parent, session_on(
            mask_entries(a, keep), **config
        ) as fresh:
            child = parent.derive_edge_subset(keep)
            emptied = 0
            for rank, (got, want) in enumerate(zip(child._state, fresh._state)):
                assert_same_arrays(got[2], want[2])  # the subtiles' one home
                for peer, subs in want[3].subtiles.items():
                    assert len(got[3].subtiles[peer]) == len(subs)
                    for ps, ws, parent_ps in zip(
                        got[3].subtiles[peer], subs, parent._state[rank][3].subtiles[peer]
                    ):
                        assert (ps.peer, ps.row_tile, ps.row_range, ps.stored) == (
                            ws.peer, ws.row_tile, ws.row_range, ws.stored
                        )
                        if not ws.stored:
                            assert ps.needed_b_rows is None
                            emptied += parent_ps.stored
                            continue
                        if peer == rank:
                            assert ps.needed_b_rows is None
                            continue
                        assert ps.needed_b_rows.dtype == ws.needed_b_rows.dtype
                        np.testing.assert_array_equal(
                            ps.needed_b_rows, ws.needed_b_rows
                        )
                masking = child.machine.touch_time(
                    got[1].nbytes_estimate() + got[2].nbytes_estimate()
                )
                got_phases = child.setup_report.rank_stats[rank].phases
                want_phases = fresh.setup_report.rank_stats[rank].phases
                want_prepare = want_phases["prepare"]
                assert got_phases["prepare"] == dataclasses.replace(
                    want_prepare, compute_time=masking + want_prepare.compute_time
                )
                assert got_phases["tiling"] == want_phases["tiling"]
            assert emptied > 0


class TestNeededRowScans:
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_dense_multiplies_scan_no_needed_rows(self, monkeypatch, policy):
        """The dense mode table reads each slot's row range, ``stored`` flag
        and needed B rows off the prepared plan: the one nonzero-column
        pass over ``Ac`` per rank is the setup's."""
        import repro.core.plan as plan_module

        seen = []
        scan = plan_module.nonzero_columns_by_rows

        def counting(*args):
            seen.append(args)
            return scan(*args)

        monkeypatch.setattr(plan_module, "nonzero_columns_by_rows", counting)
        with session_on(float_graph(), mode_policy=policy) as session:
            assert len(seen) == P
            session.multiply(np.ones((N, D)))
            session.multiply(np.full((N, D), 2.0))
            assert len(seen) == P
