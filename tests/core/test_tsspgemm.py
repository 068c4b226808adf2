"""Correctness of the distributed TS-SpGEMM (Alg 2) vs the serial reference."""

import numpy as np
import pytest

from _configs import moved_bytes
from repro.core import TsConfig, ts_spgemm
from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES, CsrMatrix, spgemm
from ..conftest import csr_from_dense, random_dense

PS = [1, 2, 3, 4, 8]


def make_inputs(rng, n=24, d=6, density_a=0.15, density_b=0.3, dtype=np.float64):
    a = csr_from_dense(random_dense(rng, n, n, density_a, dtype=dtype))
    b = csr_from_dense(random_dense(rng, n, d, density_b, dtype=dtype))
    return a, b


class TestTiledCorrectness:
    @pytest.mark.parametrize("p", PS)
    def test_matches_serial_arithmetic(self, rng, p):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = ts_spgemm(a, b, p)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("p", [1, 3, 4])
    def test_matches_serial_bool(self, rng, p):
        a, b = make_inputs(rng, dtype=np.bool_)
        expected, _ = spgemm(a, b, BOOL_AND_OR)
        result = ts_spgemm(a, b, p, semiring=BOOL_AND_OR)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("p", [2, 4])
    def test_matches_serial_min_plus(self, rng, p):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, MIN_PLUS)
        result = ts_spgemm(a, b, p, semiring=MIN_PLUS)
        assert result.C.equal(expected)

    @pytest.mark.parametrize(
        "policy", ["hybrid", "local", "remote"]
    )
    @pytest.mark.parametrize("p", [2, 4])
    def test_all_mode_policies_agree(self, rng, p, policy):
        a, b = make_inputs(rng, n=20, d=5)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        cfg = TsConfig(mode_policy=policy)
        result = ts_spgemm(a, b, p, config=cfg)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("width", [1, 2, 4, 16])
    def test_tile_width_does_not_change_result(self, rng, width):
        a, b = make_inputs(rng, n=30, d=4)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        cfg = TsConfig(tile_width_factor=width)
        result = ts_spgemm(a, b, 6, config=cfg)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("height", [1, 2, 5, 1000])
    def test_tile_height_does_not_change_result(self, rng, height):
        a, b = make_inputs(rng, n=27, d=4)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        cfg = TsConfig(tile_height=height)
        result = ts_spgemm(a, b, 3, config=cfg)
        assert result.C.equal(expected)

    def test_empty_b(self, rng):
        a, _ = make_inputs(rng, n=12)
        b = CsrMatrix.empty((12, 4))
        result = ts_spgemm(a, b, 3)
        assert result.C.nnz == 0 and result.C.shape == (12, 4)

    def test_empty_a(self, rng):
        _, b = make_inputs(rng, n=12, d=4)
        a = CsrMatrix.empty((12, 12))
        result = ts_spgemm(a, b, 3)
        assert result.C.nnz == 0

    def test_dense_row_in_a(self, rng):
        # the load-imbalance scenario the paper highlights (Fig 1)
        dense = random_dense(rng, 16, 16, 0.1)
        dense[3, :] = 1.0  # fully dense row
        a = csr_from_dense(dense)
        b = csr_from_dense(random_dense(rng, 16, 5, 0.4))
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = ts_spgemm(a, b, 4)
        assert result.C.equal(expected)

    def test_identity_a_returns_b(self, rng):
        n, d = 15, 4
        a = CsrMatrix.identity(n)
        b = csr_from_dense(random_dense(rng, n, d, 0.4))
        result = ts_spgemm(a, b, 3)
        assert result.C.equal(b)

    def test_shape_validation(self, rng):
        a = csr_from_dense(random_dense(rng, 5, 6, 0.5))  # not square
        b = csr_from_dense(random_dense(rng, 6, 2, 0.5))
        with pytest.raises(ValueError):
            ts_spgemm(a, b, 2)

    def test_p_larger_than_n(self, rng):
        a, b = make_inputs(rng, n=6, d=3)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = ts_spgemm(a, b, 8)  # some ranks own zero rows
        assert result.C.equal(expected)


class TestDiagnosticsAndCosts:
    def test_diagnostics_count_tiles(self, rng):
        a, b = make_inputs(rng, n=24)
        result = ts_spgemm(a, b, 4)
        d = result.diagnostics
        total = (
            d["local_tiles"] + d["remote_tiles"] + d["empty_tiles"]
            + d["diagonal_tiles"]
        )
        # p*p subtiles with default h = n/p (one row tile per block)
        assert total == 16
        assert d["diagonal_tiles"] == 4

    def test_forced_local_has_no_remote(self, rng):
        a, b = make_inputs(rng)
        result = ts_spgemm(a, b, 4, config=TsConfig(mode_policy="local"))
        assert result.diagnostics["remote_tiles"] == 0

    def test_forced_remote_has_no_local(self, rng):
        a, b = make_inputs(rng)
        result = ts_spgemm(a, b, 4, config=TsConfig(mode_policy="remote"))
        assert result.diagnostics["local_tiles"] == 0

    def test_runtime_positive_and_decomposes(self, rng):
        a, b = make_inputs(rng)
        result = ts_spgemm(a, b, 4)
        assert result.runtime > 0
        assert 0 < result.multiply_time <= result.runtime
        assert result.comm_time <= result.multiply_time

    def test_hybrid_bytes_at_most_local_only(self, rng):
        """Mode selection must never move more bytes than local-only.

        This is the paper's Fig 6 claim; exact per-tile minimization makes
        it a hard invariant at tile granularity.  Each side counts every
        byte its multiply moves plus its mode table: a forced policy
        ships that table once, at set-up (``symbolic``), the hybrid one
        with the multiply (``_configs.moved_bytes``, shared with the Fig 6
        bench).
        """
        a, b = make_inputs(rng, n=40, d=6, density_a=0.2, density_b=0.5)

        hybrid, hybrid_bytes = moved_bytes(a, b, 4, TsConfig(mode_policy="hybrid"))
        local, local_bytes = moved_bytes(a, b, 4, TsConfig(mode_policy="local"))
        assert hybrid.C.equal(local.C)
        assert hybrid_bytes <= local_bytes

    def test_narrow_tiles_reduce_peak_memory(self, rng):
        a, b = make_inputs(rng, n=48, d=8, density_a=0.25, density_b=0.6)
        wide = ts_spgemm(a, b, 8, config=TsConfig(tile_width_factor=8))
        narrow = ts_spgemm(a, b, 8, config=TsConfig(tile_width_factor=1))
        assert (
            narrow.diagnostics["peak_recv_b_bytes"]
            <= wide.diagnostics["peak_recv_b_bytes"]
        )

    def test_fetch_and_send_phases_recorded(self, rng):
        a, b = make_inputs(rng, n=32, d=6, density_a=0.3, density_b=0.6)
        result = ts_spgemm(a, b, 4)
        phases = result.report.phase_bytes()
        assert "fetch-B" in phases or "send-C" in phases

    def test_flops_match_expected_total(self, rng):
        a, b = make_inputs(rng, n=20, d=5)
        from repro.sparse import spgemm_flops

        result = ts_spgemm(a, b, 4)
        assert result.diagnostics["flops"] == spgemm_flops(a, b)
