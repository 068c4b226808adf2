"""Correctness of the SUMMA baselines vs the serial reference."""

import numpy as np
import pytest

from repro.baselines import SummaSession, petsc1d, summa2d, summa3d
from repro.sparse import BOOL_AND_OR, MIN_PLUS, PLUS_TIMES, CsrMatrix, spgemm
from ..conftest import csr_from_dense, random_dense

PS = [1, 2, 3, 4, 6, 8, 9]


def make_inputs(rng, n=24, d=6, dtype=np.float64):
    a = csr_from_dense(random_dense(rng, n, n, 0.2, dtype=dtype))
    b = csr_from_dense(random_dense(rng, n, d, 0.4, dtype=dtype))
    return a, b


class TestSumma2D:
    @pytest.mark.parametrize("p", PS)
    def test_matches_serial(self, rng, p):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = summa2d(a, b, p)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("p", [4, 9])
    def test_bool_semiring(self, rng, p):
        a, b = make_inputs(rng, dtype=np.bool_)
        expected, _ = spgemm(a, b, BOOL_AND_OR)
        result = summa3d(a, b, p, layers=1, semiring=BOOL_AND_OR)
        assert result.C.equal(expected)

    def test_rectangular_b_wide(self, rng):
        # d comparable to n (the AMG-ish regime SUMMA was designed for)
        n = 16
        a = csr_from_dense(random_dense(rng, n, n, 0.25))
        b = csr_from_dense(random_dense(rng, n, n, 0.25))
        expected, _ = spgemm(a, b, PLUS_TIMES)
        assert summa2d(a, b, 4).C.equal(expected)

    def test_d_smaller_than_grid(self, rng):
        # d < pc: some C blocks are zero-width — must still be correct
        a, b = make_inputs(rng, n=20, d=2)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        assert summa2d(a, b, 9).C.equal(expected)

    def test_dimension_mismatch(self, rng):
        a = csr_from_dense(random_dense(rng, 4, 4, 0.5))
        b = csr_from_dense(random_dense(rng, 5, 2, 0.5))
        with pytest.raises(ValueError):
            summa2d(a, b, 2)

    def test_empty_inputs(self):
        a = CsrMatrix.empty((10, 10))
        b = CsrMatrix.empty((10, 3))
        assert summa2d(a, b, 4).C.nnz == 0

    def test_bcast_phases_recorded(self, rng):
        a, b = make_inputs(rng)
        result = summa2d(a, b, 4)
        phases = result.report.phase_bytes()
        assert phases.get("bcast-A", 0) > 0
        assert phases.get("bcast-B", 0) > 0

    def test_communicates_a_unlike_tsspgemm(self, rng):
        """SUMMA moves A; TS-SpGEMM never does — the paper's core point."""
        from repro.core import ts_spgemm

        a, b = make_inputs(rng, n=32, d=4)
        summa_res = summa2d(a, b, 4)
        ts_res = ts_spgemm(a, b, 4)
        assert summa_res.report.phase_bytes().get("bcast-A", 0) > 0
        ts_phases = ts_res.report.phase_bytes()
        a_moving_phases = {k for k in ts_phases if "bcast-A" in k}
        assert not a_moving_phases


class TestSumma3D:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 12])
    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_matches_serial(self, rng, p, layers):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = summa3d(a, b, p, layers=layers)
        assert result.C.equal(expected)

    def test_bool_semiring(self, rng):
        a, b = make_inputs(rng, dtype=np.bool_)
        expected, _ = spgemm(a, b, BOOL_AND_OR)
        result = summa3d(a, b, 8, layers=2, semiring=BOOL_AND_OR)
        assert result.C.equal(expected)

    def test_layers_fall_back_when_not_divisible(self, rng):
        a, b = make_inputs(rng)
        result = summa3d(a, b, 6, layers=4)  # 4 does not divide 6 -> 3
        assert result.diagnostics["layers"] == 3
        expected, _ = spgemm(a, b, PLUS_TIMES)
        assert result.C.equal(expected)

    def test_fiber_reduce_phase_recorded(self, rng):
        a, b = make_inputs(rng)
        result = summa3d(a, b, 8, layers=2)
        assert "fiber-reduce" in result.report.phase_bytes()

    @pytest.mark.parametrize("p, layers", [(4, 1), (5, 4), (1, 4)])
    def test_single_layer_equals_summa2d(self, rng, p, layers):
        """One layer — asked for, or the fallback when no divisor of ``p``
        lies in 2..layers — is SUMMA-2D charge for charge: no fiber split
        and no ``fiber-reduce`` phase."""
        a, b = make_inputs(rng)
        r3 = summa3d(a, b, p, layers=layers)
        r2 = summa2d(a, b, p)
        assert r3.diagnostics["layers"] == r2.diagnostics["layers"] == 1
        assert r3.C.equal(r2.C)
        assert repr(r3.report.rank_stats) == repr(r2.report.rank_stats)
        assert r3.multiply_time == r2.multiply_time
        assert "fiber-reduce" not in r3.report.phase_bytes()


class TestPetsc1D:
    """PETSc-1D is Alg 1, the naive distributed TS-SpGEMM."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_serial(self, rng, p):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        result = petsc1d(a, b, p)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("p", [2, 4])
    def test_bool_semiring(self, rng, p):
        a, b = make_inputs(rng, dtype=np.bool_)
        expected, _ = spgemm(a, b, BOOL_AND_OR)
        result = petsc1d(a, b, p, semiring=BOOL_AND_OR)
        assert result.C.equal(expected)

    @pytest.mark.parametrize("p", [2, 4])
    def test_min_plus_semiring(self, rng, p):
        a, b = make_inputs(rng)
        expected, _ = spgemm(a, b, MIN_PLUS)
        assert petsc1d(a, b, p, semiring=MIN_PLUS).C.equal(expected)

    def test_request_round_present(self, rng):
        """PETSc-1D pays the index-request round TS-SpGEMM eliminates."""
        a, b = make_inputs(rng, n=32)
        result = petsc1d(a, b, 4)
        assert result.report.phase_bytes().get("request-indices", 0) > 0

    def test_diagnostics_track_fetched_rows(self, rng):
        a, b = make_inputs(rng)
        result = petsc1d(a, b, 4)
        assert result.diagnostics["fetched_b_nnz"] >= 0


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("n, d", [(30, 5), (32, 8)])
    def test_all_algorithms_same_product(self, rng, n, d):
        from repro.baselines import ALGORITHMS

        a, b = make_inputs(rng, n=n, d=d)
        expected, _ = spgemm(a, b, PLUS_TIMES)
        for name, fn in ALGORITHMS.items():
            result = fn(a, b, 4)
            assert result.C.equal(expected), f"{name} produced a wrong product"

    @pytest.mark.parametrize(
        "name", ["PETSc-1D", "SUMMA-2D", "SUMMA-3D", "TS-SpGEMM"]
    )
    def test_every_entry_returns_one_result_type(self, rng, name):
        """Baselines and TS-SpGEMM report through the same
        ``MultiplyResult``, over one scope: the report is the multiply's
        alone, so multiply time is its clock — the largest per-rank sum
        of its phases."""
        from repro.baselines import get_algorithm
        from repro.core import MultiplyResult

        a, b = make_inputs(rng)
        result = get_algorithm(name)(a, b, 4)
        assert type(result) is MultiplyResult
        per_rank = [
            sum(ps.comm_time + ps.compute_time for ps in rs.phases.values())
            for rs in result.report.rank_stats
        ]
        assert result.multiply_time == result.runtime > 0
        assert max(per_rank) == pytest.approx(result.runtime, rel=1e-12)

    def test_registry_lookup(self):
        from repro.baselines import get_algorithm

        assert callable(get_algorithm("SUMMA-2D"))
        with pytest.raises(KeyError):
            get_algorithm("SUMMA-4D")


class TestResidentSessions:
    """SUMMA sessions: A-side setup paid once, per-multiply results equal."""

    @staticmethod
    def _matches_per_call(rng, p, layers, per_call):
        a, _ = make_inputs(rng)
        with SummaSession(a, p, layers=layers) as session:
            for density in (0.4, 0.1):
                b = csr_from_dense(random_dense(rng, 24, 6, density))
                fresh, resident = per_call(a, b), session.multiply(b)
                assert resident.C.equal(fresh.C)
                assert repr(resident.report.rank_stats) == repr(fresh.report.rank_stats)

    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_summa2d_session_matches_per_call(self, rng, p):
        self._matches_per_call(rng, p, 1, lambda a, b: summa2d(a, b, p))

    @pytest.mark.parametrize("p", [4, 8])
    def test_summa3d_session_matches_per_call(self, rng, p):
        self._matches_per_call(rng, p, 2, lambda a, b: summa3d(a, b, p, layers=2))

    def test_session_multiply_report_excludes_setup(self, rng):
        """The per-multiply report is incremental: no setup extraction
        cost leaks into it (fresh clocks per task)."""
        a, b = make_inputs(rng)
        session = SummaSession(a, 4, layers=1)
        try:
            result = session.multiply(b)
            assert result.report.runtime > 0
            # same stage traffic as the per-call path, nothing extra
            fresh = summa2d(a, b, 4)
            assert result.comm_bytes() == fresh.comm_bytes()
        finally:
            session.close()

    def test_registry_make_session_covers_summa(self, rng):
        from repro.baselines import make_session

        a, b = make_inputs(rng)
        for name in ("SUMMA-2D", "SUMMA-3D"):
            session = make_session(name, a, 4)
            assert session is not None, name
            try:
                fresh = summa2d(a, b, 4) if name == "SUMMA-2D" else summa3d(a, b, 4)
                assert session.multiply(b).C.equal(fresh.C), name
            finally:
                session.close()
        assert make_session("PETSc-1D", a, 4) is None
