"""Fused communication rounds: equivalence, accounting and ablation.

The contract of ``TsConfig.fuse_comm``: collapsing the symbolic mode
exchange, every tile round's ``fetch-B``/``send-C`` and a fused-capable
prologue's fetch (the embedding's distributed SDDMM) into one combined
multi-section all-to-all must be **observationally free** except for
time — bit-identical outputs across kernels, mode policies and refresh
periods, exact per-phase byte conservation (fused section bytes == the
separate exchanges' bytes) — while the all-to-all *round count* (the
α·rounds latency term) drops.
"""

import numpy as np
import pytest

from _oracles import single_program_msbfs

from repro.apps import msbfs, train_sparse_embedding
from repro.core import (
    FUSED_SECTION_PHASES,
    TsConfig,
    TsSession,
    ts_spgemm,
)
from repro.core.tiled import exchange_sections
from repro.mpi import run_spmd
from repro.mpi.costmodel import PERLMUTTER
from repro.mpi.errors import CollectiveMismatchError, CommMismatchError, RankError
from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES, CsrMatrix

from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4



def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def config_pair(**kwargs):
    return TsConfig(fuse_comm=True, **kwargs), TsConfig(fuse_comm=False, **kwargs)


def assert_bytes_conserved(rep_on, rep_off):
    """Fused per-phase bytes == sum of the unfused section bytes."""
    pb_on, pb_off = rep_on.phase_bytes(), rep_off.phase_bytes()
    for phase in FUSED_SECTION_PHASES:
        assert pb_on.get(phase, 0) == pb_off.get(phase, 0), phase
    # the fused-round phase itself carries no bytes (they live on the
    # sections), so whole-run traffic is conserved too
    assert pb_on.get("fused-round", 0) == 0
    assert sum(pb_on.values()) == sum(pb_off.values())


# ----------------------------------------------------------------------
# comm-layer unit semantics
# ----------------------------------------------------------------------
class TestAlltoallFused:
    def test_section_bytes_match_separate_exchanges(self):
        def fused(comm):
            a = [np.arange(comm.rank + 2, dtype=np.int64)] * comm.size
            b = [np.ones(3 * (comm.rank + 1))] * comm.size
            with comm.phase("combined"):
                received, metas = comm.alltoall_fused(
                    [("alpha", a), ("beta", b)], meta=comm.rank == 2
                )
            assert metas == [False, False, True, False]
            return received

        def separate(comm):
            a = [np.arange(comm.rank + 2, dtype=np.int64)] * comm.size
            b = [np.ones(3 * (comm.rank + 1))] * comm.size
            received, metas = exchange_sections(
                comm, [("alpha", a), ("beta", b)], fuse=False
            )
            assert metas is None  # the flag rides the fused header only
            return received

        res_f = run_spmd(P, fused)
        res_s = run_spmd(P, separate)
        for name in ("alpha", "beta"):
            assert (
                res_f.report.phase_bytes()[name]
                == res_s.report.phase_bytes()[name]
                > 0
            )
            for rank in range(P):
                for x, y in zip(res_f[rank][name], res_s[rank][name]):
                    assert np.array_equal(x, y)
        # one round instead of two, counted under the call-site phase
        assert res_f.report.alltoall_rounds() == 1
        assert res_s.report.alltoall_rounds() == 2
        rounds = {
            name: stats.alltoall_rounds
            for rs in res_f.report.rank_stats
            for name, stats in rs.phases.items()
            if stats.alltoall_rounds
        }
        assert rounds == {"combined": 1}

    def test_one_latency_many_bandwidth_terms(self):
        m = PERLMUTTER
        sections = [(1000, 2000), (512, 64), (0, 0)]
        want = (
            m.alpha
            + (P - 1) * m.gamma
            + m.beta * (2000 + 512)
        )
        assert m.alltoallv_fused(P, sections) == pytest.approx(want)
        # fused is cheaper than the separate rounds by (k-1) latency
        # terms, and never cheaper in bandwidth
        separate = sum(m.alltoallv(P, s, r) for s, r in sections)
        assert m.alltoallv_fused(P, sections) < separate
        assert m.alltoallv_fused(P, sections) >= m.beta * (2000 + 512)
        assert m.alltoallv_fused(1, sections) == 0.0

    def test_mismatched_section_names_raise(self):
        def program(comm):
            name = "x" if comm.rank == 0 else "y"
            comm.alltoall_fused([(name, [None] * comm.size)])

        # Plain mode: the in-collective name check raises inside the rank
        # (RankError).  Sanitize mode catches the divergence one step
        # earlier as a structured cross-rank CollectiveMismatchError.
        with pytest.raises((RankError, CollectiveMismatchError)):
            run_spmd(P, program)

    def test_bad_section_shape_raises(self):
        def program(comm):
            comm.alltoall_fused([("x", [None] * (comm.size + 1))])

        with pytest.raises(RankError) as exc:
            run_spmd(P, program)
        assert isinstance(exc.value.__cause__, CommMismatchError)


# ----------------------------------------------------------------------
# one-shot multiplies
# ----------------------------------------------------------------------
class TestFusedMultiplyEquivalence:
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_bit_identical_across_policies_and_widths(self, rng, policy, width):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.5))
        on, off = config_pair(mode_policy=policy, tile_width_factor=width)
        r_on = ts_spgemm(a, b, P, config=on)
        r_off = ts_spgemm(a, b, P, config=off)
        assert bitwise_equal(r_on.C, r_off.C)
        assert_bytes_conserved(r_on.report, r_off.report)
        assert r_on.rounds < r_off.rounds
        # fewer rounds is the whole point: modelled time must not grow
        assert r_on.multiply_time <= r_off.multiply_time

    @pytest.mark.parametrize("kernel", ["auto", "esc-vectorized", "spa", "scipy"])
    def test_bit_identical_across_kernels(self, rng, kernel):
        a = csr_from_dense(random_dense(rng, N, N, 0.25))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        on, off = config_pair(kernel=kernel, tile_width_factor=2)
        assert bitwise_equal(
            ts_spgemm(a, b, P, config=on).C, ts_spgemm(a, b, P, config=off).C
        )

    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, BOOL_AND_OR])
    def test_bit_identical_across_semirings(self, rng, semiring):
        dtype = np.bool_ if semiring is BOOL_AND_OR else np.float64
        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=dtype))
        b = csr_from_dense(random_dense(rng, N, D, 0.5, dtype=dtype))
        on, off = config_pair(tile_width_factor=1)
        r_on = ts_spgemm(a, b, P, semiring=semiring, config=on)
        r_off = ts_spgemm(a, b, P, semiring=semiring, config=off)
        assert bitwise_equal(r_on.C, r_off.C)
        assert_bytes_conserved(r_on.report, r_off.report)

    def test_spmm_bit_identical(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        bd = rng.random((N, D))
        on, off = config_pair(tile_width_factor=1)
        r_on = ts_spgemm(a, bd, P, config=on)
        r_off = ts_spgemm(a, bd, P, config=off)
        assert np.array_equal(r_on.C, r_off.C)
        assert_bytes_conserved(r_on.report, r_off.report)
        assert r_on.rounds < r_off.rounds

    def test_single_rank_fused(self, rng):
        a = csr_from_dense(random_dense(rng, 10, 10, 0.3))
        b = csr_from_dense(random_dense(rng, 10, 3, 0.5))
        on, off = config_pair()
        assert bitwise_equal(
            ts_spgemm(a, b, 1, config=on).C, ts_spgemm(a, b, 1, config=off).C
        )


# ----------------------------------------------------------------------
# resident sessions: one fused exchange per multiply step
# ----------------------------------------------------------------------
class TestFusedSessions:
    def test_session_multiply_is_one_round(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        on, off = config_pair(tile_width_factor=1)
        with TsSession(a, P, config=on) as s_on, TsSession(
            a, P, config=off
        ) as s_off:
            for density in (0.5, 0.2):
                b = csr_from_dense(random_dense(rng, N, D, density))
                m_on, m_off = s_on.multiply(b), s_off.multiply(b)
                assert bitwise_equal(m_on.C, m_off.C)
                assert_bytes_conserved(m_on.report, m_off.report)
                # FusedMM proper: modes + all rounds' fetch-B + send-C
                # in a single exchange
                assert m_on.rounds == 1
                assert m_off.rounds == 1 + 2 * P  # symbolic + per-round pairs

    def test_handle_chain_bit_identical(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        b0 = csr_from_dense(random_dense(rng, N, D, 0.3, dtype=np.bool_))
        outs = {}
        for cfg in config_pair(tile_width_factor=2):
            with TsSession(a, P, semiring=BOOL_AND_OR, config=cfg) as s:
                h = s.scatter(b0)
                for _ in range(3):
                    h = s.multiply(h, gather=False).C
                outs[cfg.fuse_comm] = h.gather()
        assert bitwise_equal(outs[True], outs[False])


# ----------------------------------------------------------------------
# apps: MS-BFS and the SDDMM-fused embedding epoch
# ----------------------------------------------------------------------
def _symmetric_graph(rng, n, density):
    dense = rng.random((n, n)) < density
    dense = dense | dense.T
    np.fill_diagonal(dense, False)
    return CsrMatrix.from_dense(dense.astype(np.float64))


class TestFusedApps:
    def test_msbfs_bit_identical_and_one_round_per_level(self, rng):
        a = _symmetric_graph(rng, 60, 0.08)
        sources = np.array([0, 7, 21, 33])
        on, off = config_pair(tile_width_factor=1)
        r_on = msbfs(a, sources, P, config=on)
        r_off = msbfs(a, sources, P, config=off)
        assert bitwise_equal(r_on.visited, r_off.visited)
        assert all(it.rounds == 1 for it in r_on.iterations)
        assert all(it.rounds == 1 + 2 * P for it in r_off.iterations)
        # the resident SPMD loop rides the same fused schedule: per-level
        # traces must agree byte-for-byte and round-for-round
        spmd = single_program_msbfs(a, sources, P, config=on)
        assert bitwise_equal(spmd.visited, r_on.visited)
        assert [it.comm_bytes for it in spmd.iterations] == [
            it.comm_bytes for it in r_on.iterations
        ]
        assert [it.rounds for it in spmd.iterations] == [
            it.rounds for it in r_on.iterations
        ]

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("refresh", [1, 3])
    def test_embedding_bit_identical(self, rng, policy, refresh):
        adj = _symmetric_graph(rng, N, 0.12)
        kwargs = dict(
            d=8, sparsity=0.5, epochs=4, seed=7, negative_refresh=refresh
        )
        on, off = config_pair(
            mode_policy=policy, tile_width_factor=2, tile_height=8
        )
        r_on = train_sparse_embedding(adj, P, config=on, **kwargs)
        r_off = train_sparse_embedding(adj, P, config=off, **kwargs)
        assert bitwise_equal(r_on.Z, r_off.Z)
        assert r_on.accuracy == r_off.accuracy
        for e_on, e_off in zip(r_on.epochs, r_off.epochs):
            assert e_on.comm_bytes == e_off.comm_bytes
            assert e_on.rounds < e_off.rounds
            assert e_on.driver_scatter_bytes == e_on.driver_gather_bytes == 0

    def test_embedding_epoch_round_budget(self, rng):
        """The fused epoch is 2-3 exchanges — the SDDMM fetch rides the
        multiply's combined round, the values-only refresh stays its own
        round, and send-C is skipped collectively when no tile is remote
        — vs the unfused 3 + 2*ceil(p/w)."""
        adj = _symmetric_graph(rng, N, 0.12)
        on, off = config_pair(tile_width_factor=1, tile_height=8)
        kwargs = dict(d=8, sparsity=0.5, epochs=3, seed=7)
        r_on = train_sparse_embedding(adj, P, config=on, **kwargs)
        r_off = train_sparse_embedding(adj, P, config=off, **kwargs)
        for e_on, e_off in zip(r_on.epochs, r_off.epochs):
            assert e_on.rounds <= 3
            assert e_off.rounds == 3 + 2 * P
            assert e_off.rounds >= 2 * e_on.rounds

    def test_embedding_driver_gather_matches_fused(self, rng):
        adj = _symmetric_graph(rng, N, 0.12)
        on, _ = config_pair(tile_width_factor=2, tile_height=8)
        kwargs = dict(d=8, sparsity=0.5, epochs=3, seed=9, config=on)
        resident = train_sparse_embedding(adj, P, **kwargs)
        ablated = train_sparse_embedding(adj, P, driver_gather=True, **kwargs)
        assert bitwise_equal(resident.Z, ablated.Z)


# ----------------------------------------------------------------------
# satellite: values-only update_operand
# ----------------------------------------------------------------------
class TestValuesOnlyUpdateOperand:
    def test_values_only_refresh_bytes(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        with TsSession(a, P) as session:
            a2 = CsrMatrix(
                a.shape, a.indptr, a.indices, a.data * 1.5, check=False
            )
            report = session.update_operand(a2)
            phases = report.phase_bytes()
            # only the nnz values travel: no full column-copy rebuild
            assert phases.get("build-Ac", 0) == 0
            assert 0 < phases.get("refresh-values", 0) <= a.data.nbytes
            b = csr_from_dense(random_dense(rng, N, D, 0.4))
            assert bitwise_equal(
                session.multiply(b).C, ts_spgemm(a2, b, P).C
            )

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_bit_identical_across_policies(self, rng, policy):
        config = TsConfig(mode_policy=policy)
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a, P, config=config) as session:
            session.multiply(b)
            a2 = CsrMatrix(
                a.shape, a.indptr, a.indices, a.data + 0.25, check=False
            )
            session.update_operand(a2)
            assert bitwise_equal(
                session.multiply(b).C, ts_spgemm(a2, b, P, config=config).C
            )

    def test_pattern_change_still_full_resetup(self, rng):
        a1 = csr_from_dense(random_dense(rng, N, N, 0.2))
        a2 = csr_from_dense(random_dense(rng, N, N, 0.25))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(a1, P) as session:
            report = session.update_operand(a2)
            assert report.phase_bytes().get("build-Ac", 0) > 0
            assert bitwise_equal(session.multiply(b).C, ts_spgemm(a2, b, P).C)
