"""Tests for the closed-form §III-E cost models."""

import json
from pathlib import Path

import pytest

from repro.model import (
    COST_MODELS,
    Workload,
    analytic,
    petsc1d_cost,
    predict,
    spmm_cost,
    summa3d_cost,
    ts_spgemm_cost,
)
from repro.mpi.cartesian import layered_grid_dims
from repro.mpi.costmodel import PERLMUTTER, PROFILES

W = Workload(n=1_000_000, kA=16, d=128, b_sparsity=0.8)
#: uk-2002-scale workload used for the paper-ordering checks
W_PAPER = Workload(n=20_000_000, kA=16, d=128, b_sparsity=0.8)


class TestWorkload:
    def test_kb(self):
        assert W.kB == pytest.approx(128 * 0.2)

    def test_kc_bounded_by_d(self):
        assert 0 < W.kC <= W.d
        # with kA=16 rows of ~25.6 nnz each, C rows are nearly full
        assert W.kC > 100

    def test_kc_sparse_limit(self):
        thin = Workload(n=1000, kA=1, d=128, b_sparsity=0.99)
        assert thin.kC == pytest.approx(thin.kB, rel=0.01)

    def test_flops(self):
        assert W.flops == pytest.approx(1_000_000 * 16 * 25.6)

    def test_empty_d(self):
        assert Workload(10, 2, 0, 0.0).kC == 0.0


class TestCostShapes:
    @pytest.mark.parametrize("name", sorted(COST_MODELS))
    def test_single_rank_has_no_comm(self, name):
        cost = predict(name, W, 1)
        assert cost.comm_time == 0.0
        assert cost.compute_time > 0.0

    @pytest.mark.parametrize("name", sorted(COST_MODELS))
    def test_compute_scales_down_with_p(self, name):
        c8 = predict(name, W, 8)
        c64 = predict(name, W, 64)
        assert c64.compute_time < c8.compute_time

    def test_runtime_is_sum(self):
        cost = ts_spgemm_cost(W, 16)
        assert cost.runtime == pytest.approx(cost.comm_time + cost.compute_time)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            predict("Cannon", W, 4)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            ts_spgemm_cost(W, 0)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            summa3d_cost(W, 4, layers=0)

    @pytest.mark.parametrize("p", [1, 5, 7])
    def test_summa3d_without_a_second_layer_is_summa2d(self, p):
        """The layer count falls back as the simulated grid's does: with
        no divisor of ``p`` in 2..4, SUMMA-3D runs one layer and costs
        what SUMMA-2D costs."""
        assert predict("SUMMA-3D", W, p) == predict("SUMMA-2D", W, p)


class TestPaperOrderings:
    """The qualitative orderings the paper's figures report must hold."""

    def test_ts_fastest_up_to_1024(self):
        # Figs 8-10: d=128, 80% sparse — TS-SpGEMM wins through 128 nodes
        for p in (16, 64, 256, 1024):
            ts = ts_spgemm_cost(W_PAPER, p).runtime
            assert ts < summa3d_cost(W_PAPER, p, layers=1).runtime, f"p={p}"
            assert ts < summa3d_cost(W_PAPER, p).runtime, f"p={p}"
            assert ts <= petsc1d_cost(W_PAPER, p).runtime * 1.001, f"p={p}"

    def test_ts_beats_petsc_at_moderate_d(self):
        # Fig 8: PETSc degrades once its untiled fetch spills the cache
        for d in (64, 256):
            wide = Workload(n=20_000_000, kA=16, d=d, b_sparsity=0.8)
            ts = ts_spgemm_cost(wide, 1024).runtime
            petsc = petsc1d_cost(wide, 1024).runtime
            assert ts < 0.8 * petsc, f"d={d}"

    def test_petsc_competitive_at_tiny_d(self):
        # Fig 8: at d=4 the two 1-D algorithms are close
        tiny = Workload(n=20_000_000, kA=16, d=4, b_sparsity=0.8)
        ts = ts_spgemm_cost(tiny, 1024).runtime
        petsc = petsc1d_cost(tiny, 1024).runtime
        assert petsc < 2 * ts

    def test_summa3d_comm_beats_summa2d_at_scale(self):
        # Fig 11 / §V-E: the communication-avoiding variant wins at scale
        big_p = 4096
        c2 = predict("SUMMA-2D", W_PAPER, big_p).comm_time
        c3 = summa3d_cost(W_PAPER, big_p, layers=16).comm_time
        assert c3 < c2

    def test_ts_comm_latency_dominated_past_1024(self):
        # Fig 11: TS communication stops scaling past 1024 ranks — going
        # 4x in ranks buys almost nothing because the latency term grows.
        c256 = ts_spgemm_cost(W_PAPER, 256).comm_time
        c1024 = ts_spgemm_cost(W_PAPER, 1024).comm_time
        c4096 = ts_spgemm_cost(W_PAPER, 4096).comm_time
        assert c1024 < c256  # still scaling at 1024
        assert c4096 > 0.5 * c1024  # effectively stalled past 1024

    def test_spmm_beats_spgemm_when_dense(self):
        # Fig 7: below ~50% sparsity SpMM wins; far above, SpGEMM wins
        dense = Workload(n=20_000_000, kA=16, d=128, b_sparsity=0.2)
        assert spmm_cost(dense, 256).runtime < ts_spgemm_cost(dense, 256).runtime
        sparse = Workload(n=20_000_000, kA=16, d=128, b_sparsity=0.99)
        assert ts_spgemm_cost(sparse, 256).runtime < spmm_cost(sparse, 256).runtime

    def test_spmm_comm_crossover_at_half_sparsity(self):
        # §V-C's justification: 16B/nnz sparse vs 8B/entry dense payloads
        # cross exactly when half the entries are zero.
        just_below = Workload(n=20_000_000, kA=16, d=128, b_sparsity=0.45)
        just_above = Workload(n=20_000_000, kA=16, d=128, b_sparsity=0.55)
        assert (
            spmm_cost(just_below, 256).comm_time
            < ts_spgemm_cost(just_below, 256).comm_time
        )
        assert (
            ts_spgemm_cost(just_above, 256).comm_time
            < spmm_cost(just_above, 256).comm_time
        )

    def test_strong_scaling_flattens(self):
        # Figs 9-10: near-linear early, latency-dominated late
        t8 = ts_spgemm_cost(W_PAPER, 8).runtime
        t64 = ts_spgemm_cost(W_PAPER, 64).runtime
        assert t8 / t64 > 3  # decent scaling 8 -> 64
        t1024 = ts_spgemm_cost(W_PAPER, 1024).runtime
        t4096 = ts_spgemm_cost(W_PAPER, 4096).runtime
        assert t1024 / t4096 < 2  # scaling has degraded


class TestSimulatorCrossCheck:
    """The closed-form model must roughly track the simulator."""

    def test_comm_bytes_order_of_magnitude(self):
        from repro.core import ts_spgemm
        from repro.data import erdos_renyi, tall_skinny

        n, k, d, s, p = 1024, 8, 32, 0.8, 8
        A = erdos_renyi(n, k, seed=0)
        B = tall_skinny(n, d, s, seed=1)
        measured = ts_spgemm(A, B, p)
        w = Workload(n=n, kA=A.nnz / n, d=d, b_sparsity=s)
        modelled = ts_spgemm_cost(w, p)
        # modelled comm time within ~5x of the simulator's
        assert modelled.comm_time < measured.comm_time * 5
        assert measured.comm_time < max(modelled.comm_time, 1e-9) * 20


class TestSummaFaceGrid:
    """The SUMMA closed form prices the grid the simulator runs:
    ``layered_grid_dims``' ``pr × pc`` face, ``pc`` stages, A blocks
    broadcast over ``pc`` ranks and B chunks over ``pr``."""

    GOLDEN = Path(__file__).with_name("summa_square_golden.json")
    WORKLOADS = {
        "W": W,
        "W_PAPER": W_PAPER,
        "uk-small": Workload(n=4096, kA=8, d=64, b_sparsity=0.99),
    }

    def test_square_faces_are_unchanged(self, monkeypatch):
        """Where ``pr == pc`` the stage count was already right: every
        value, recorded before the fix, to the last bit.  The closed form
        prices Perlmutter only; the golden file's other profiles stand in
        for it, so the arithmetic is pinned under three sets of α, β, γ."""
        golden = json.loads(self.GOLDEN.read_text())
        assert len(golden) == 360
        for key, want in golden.items():
            name, p, layers, profile = key.split("|")
            pr, pc, _ = layered_grid_dims(int(p), int(layers))
            assert pr == pc
            monkeypatch.setattr(analytic, "PERLMUTTER", PROFILES[profile])
            cost = summa3d_cost(self.WORKLOADS[name], int(p), layers=int(layers))
            assert repr((cost.comm_time, cost.compute_time)) == want, key

    @pytest.mark.parametrize("p", [2, 8, 32, 128])
    def test_non_square_face_broadcasts(self, p):
        """p = 2 is a 1 × 2 face: two stages whose A broadcasts cost; the
        old √p stage count rounded to one stage and priced it at 0 s."""
        pr, pc, _ = layered_grid_dims(p, 1)
        assert pr < pc
        cost = summa3d_cost(W, p, layers=1)
        assert cost.comm_time > 0
        a_bytes = int(W.n * W.kA / p * 16)
        b_bytes = int(W.n * W.kB / (pc * pc) * 16)
        assert cost.comm_time == pytest.approx(
            pc * (PERLMUTTER.bcast(pc, a_bytes) + PERLMUTTER.bcast(pr, b_bytes))
        )
