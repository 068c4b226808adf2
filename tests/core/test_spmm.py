"""Correctness of the distributed SpMM variant (dense B)."""

import numpy as np
import pytest

from repro.core import TsConfig, ts_spgemm
from repro.mpi.comm import SimComm
from repro.mpi.errors import RankError
from ..conftest import csr_from_dense, random_dense

PS = [1, 2, 3, 4, 8]


def make_inputs(rng, n=24, d=6, density_a=0.2):
    a = csr_from_dense(random_dense(rng, n, n, density_a))
    b = rng.random((n, d))
    return a, b


class TestSpmmCorrectness:
    @pytest.mark.parametrize("p", PS)
    def test_matches_numpy(self, rng, p):
        a, b = make_inputs(rng)
        result = ts_spgemm(a, b, p)
        np.testing.assert_allclose(result.C, a.to_dense() @ b, atol=1e-10)

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_mode_policies_agree(self, rng, policy):
        a, b = make_inputs(rng, n=20, d=4)
        result = ts_spgemm(a, b, 4, config=TsConfig(mode_policy=policy))
        np.testing.assert_allclose(result.C, a.to_dense() @ b, atol=1e-10)

    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_tile_width_invariant(self, rng, width):
        a, b = make_inputs(rng, n=30, d=5)
        result = ts_spgemm(a, b, 6, config=TsConfig(tile_width_factor=width))
        np.testing.assert_allclose(result.C, a.to_dense() @ b, atol=1e-10)

    def test_tile_height_invariant(self, rng):
        a, b = make_inputs(rng, n=27, d=4)
        result = ts_spgemm(a, b, 3, config=TsConfig(tile_height=2))
        np.testing.assert_allclose(result.C, a.to_dense() @ b, atol=1e-10)

    def test_zero_a(self, rng):
        from repro.sparse import CsrMatrix

        b = rng.random((12, 3))
        result = ts_spgemm(CsrMatrix.identity(12), b, 3)
        np.testing.assert_allclose(result.C, b)

    def test_shape_validation(self, rng):
        a, _ = make_inputs(rng, n=10)
        with pytest.raises(ValueError):
            ts_spgemm(a, np.zeros((11, 3)), 2)

    def test_dense_row(self, rng):
        dense = random_dense(rng, 16, 16, 0.1)
        dense[5, :] = 2.0
        a = csr_from_dense(dense)
        b = rng.random((16, 4))
        result = ts_spgemm(a, b, 4)
        np.testing.assert_allclose(result.C, dense @ b, atol=1e-10)


class TestSendCPlacement:
    """A ``send-C`` partial the consumer cannot place must raise.  The
    consumer once added it with ``np.add.at``: id ``-1`` landed in the
    last row and a repeated id was added twice, silently."""

    @staticmethod
    def _corrupt(payload, how):
        if payload is None:
            return None
        row_ids, rows = payload
        if how == "negative":
            return np.concatenate([[-1], row_ids[1:]]), rows
        return np.concatenate([row_ids[:1], row_ids]), np.vstack([rows[:1], rows])

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("how", ["negative", "repeated"])
    def test_bad_row_ids_raise(self, rng, monkeypatch, how, fuse):
        a, b = make_inputs(rng)
        config = TsConfig(mode_policy="remote", fuse_comm=fuse)
        clean = ts_spgemm(a, b, 4, config=config)
        assert clean.diagnostics["remote_tiles"] > 0
        send = SimComm.alltoall_fused if fuse else SimComm.alltoall
        corrupt = self._corrupt

        def corrupting(comm, sections, *args, **kwargs):
            if fuse:
                sections = [
                    (name, [corrupt(x, how) for x in sendlist] if name == "send-C" else sendlist)
                    for name, sendlist in sections
                ]
            elif comm.stats.current_phase == "send-C":
                sections = [corrupt(x, how) for x in sections]
            return send(comm, sections, *args, **kwargs)

        monkeypatch.setattr(SimComm, send.__name__, corrupting)
        with pytest.raises(RankError, match="placed row id"):
            ts_spgemm(a, b, 4, config=config)


class TestSpmmVsSpgemmCosts:
    def test_spmm_ships_no_index_structure(self, rng):
        """For a fully dense B, SpMM must move fewer bytes than SpGEMM on
        the equivalent fully-dense sparse B (indices are pure overhead)."""
        from repro.core import ts_spgemm
        from repro.sparse import CsrMatrix

        n, d, p = 32, 8, 4
        a = csr_from_dense(random_dense(rng, n, n, 0.3))
        dense_b = rng.random((n, d)) + 0.1  # no zeros
        sparse_b = CsrMatrix.from_dense(dense_b)
        spmm_res = ts_spgemm(a, dense_b, p)
        spgemm_res = ts_spgemm(a, sparse_b, p)
        assert spmm_res.comm_bytes() < spgemm_res.comm_bytes()

    def test_flops_counted(self, rng):
        a, b = make_inputs(rng, n=20, d=5)
        result = ts_spgemm(a, b, 4)
        assert result.diagnostics["flops"] == a.nnz * 5
