"""Dense rank-resident handles, the prologue refresh hook, and weighted
edge-subset derivation.

Contracts under test:

* :meth:`TsSession.scatter` of an ndarray / ``multiply(dense,
  gather=False)`` chain dense operands through the SpMM path exactly
  like sparse :class:`DistHandle` chains — bit-identical to the per-call
  :func:`ts_spgemm`, zero driver bytes per multiply, charged round-trip
  under ``charge_driver=True``.
* ``multiply(prologue=...)`` hands rank programs a
  :class:`~repro.core.driver.ResidentOperand` whose ``refresh_values``
  (values-only ``Ac`` strip exchange) leaves the session bit-identical
  to one freshly built on the re-valued operand.
* ``derive_edge_subset(keep)`` then the child's ``update_operand`` (a
  values-only refresh) is bit-identical to a fresh session on the masked
  re-valued matrix — weighted live-edge samples reuse prepared state.
"""

import numpy as np
import pytest

from repro.core import TsConfig, TsSession, ts_spgemm
from repro.sparse import BOOL_AND_OR, CsrMatrix, mask_entries
from ..conftest import csr_from_dense, random_dense

N, D, P = 48, 6, 4


def bitwise_equal(a: CsrMatrix, b: CsrMatrix) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


@pytest.fixture
def square_a(rng):
    return csr_from_dense(random_dense(rng, N, N, 0.2))


@pytest.fixture
def dense_b(rng):
    return rng.random((N, D))


class TestDenseHandleChaining:
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_chain_matches_per_call_spmm(self, square_a, dense_b, policy):
        config = TsConfig(mode_policy=policy)
        with TsSession(square_a, P, config=config) as session:
            handle = session.scatter(dense_b)
            reference = dense_b
            for _ in range(3):
                mult = session.multiply(handle, gather=False)
                handle = mult.C
                assert handle.dense
                reference = ts_spgemm(square_a, reference, P, config=config).C
                assert np.array_equal(handle.gather(), reference)

    def test_gather_true_returns_global_ndarray(self, square_a, dense_b):
        with TsSession(square_a, P) as session:
            h = session.scatter(dense_b)
            resident = session.multiply(h, gather=False).C.gather()
            gathered = session.multiply(h, gather=True).C
            assert isinstance(gathered, np.ndarray)
            assert np.array_equal(resident, gathered)

    def test_driver_resident_ndarray_operand(self, square_a, dense_b):
        with TsSession(square_a, P) as session:
            got = session.multiply(dense_b).C
        want = ts_spgemm(square_a, dense_b, P).C
        assert np.array_equal(got, want)


class TestDenseHandleContract:
    def test_zero_driver_bytes_on_handle_chain(self, square_a, dense_b):
        with TsSession(square_a, P) as session:
            mult = session.multiply(session.scatter(dense_b), gather=False)
            assert mult.diagnostics["driver_scatter_bytes"] == 0
            assert mult.diagnostics["driver_gather_bytes"] == 0
            phases = mult.report.phase_bytes()
            assert "scatter-B" not in phases
            assert "gather-C" not in phases

    def test_charge_driver_prices_dense_round_trip(self, square_a, dense_b):
        with TsSession(square_a, P) as session:
            mult = session.multiply(dense_b, charge_driver=True)
            # dense payloads: d float64 values per shipped row (the root's
            # own block stays put, so strictly less than the full matrix)
            expected = dense_b.nbytes * (P - 1) // P
            assert mult.diagnostics["driver_scatter_bytes"] == expected
            assert mult.diagnostics["driver_gather_bytes"] == expected

    def test_foreign_dense_handle_rejected(self, square_a, dense_b):
        with TsSession(square_a, P) as s1, TsSession(square_a, P) as s2:
            h = s1.scatter(dense_b)
            with pytest.raises(ValueError, match="different session"):
                s2.multiply(h)

    def test_dense_needs_arithmetic_semiring(self, rng, dense_b):
        a_bool = csr_from_dense(random_dense(rng, N, N, 0.2, dtype=np.bool_))
        with TsSession(a_bool, P, semiring=BOOL_AND_OR) as session:
            with pytest.raises(ValueError, match="arithmetic"):
                session.multiply(dense_b)

    def test_scatter_dense_shape_check(self, square_a):
        with TsSession(square_a, P) as session:
            with pytest.raises(ValueError, match="match A"):
                session.scatter(np.zeros((N + 1, D)))

    def test_dense_chain_reuses_spmm_mode_table(self, square_a, dense_b):
        """The SpMM mode rule depends only on A, so from the second
        multiply on the cached table serves the whole symbolic phase."""
        with TsSession(square_a, P) as session:
            h = session.scatter(dense_b)
            first = session.multiply(h, gather=False)
            assert first.diagnostics["plan_reused"] == 0
            second = session.multiply(first.C, gather=False)
            assert second.diagnostics["plan_reused"] == P

    def test_dense_epilogue_outputs_become_dense_handles(
        self, square_a, dense_b
    ):
        """A rank-local epilogue may return ndarray blocks; they come
        back as a dense handle (the embedding's dense Z twin), one
        handle per output whether it returns a tuple or a single block."""

        def epilogue(comm, c_local):
            return CsrMatrix.from_dense(c_local), 2.0 * c_local

        with TsSession(square_a, P) as session:
            mult = session.multiply(dense_b, epilogue=epilogue)
            sp, dn = mult.extra
            assert not sp.dense
            assert dn.dense
            assert np.array_equal(dn.gather(), 2.0 * mult.C)
            single = session.multiply(dense_b, epilogue=lambda comm, c: 3.0 * c)
            assert single.extra.dense
            assert np.array_equal(single.extra.gather(), 3.0 * single.C)


class TestScatterGatherRoundTrip:
    """``scatter(x).gather()`` is ``x`` bit for bit, for either kind of
    ``x`` and for a balanced or an explicit (post-shrink shaped) row map."""

    @pytest.mark.parametrize("bounds", [None, (0, 5, 20, 21, N)])
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_round_trip_is_bitwise(self, rng, square_a, bounds, kind):
        x = rng.random((N, D))
        if kind == "sparse":
            x = csr_from_dense(random_dense(rng, N, D, 0.4))
        with TsSession(square_a, P, row_bounds=bounds) as session:
            h = session.scatter(x)
            assert h.dense == (kind == "dense")
            assert [b.shape[0] for b in h.blocks] == [
                hi - lo for lo, hi in h.rows.ranges
            ]
            back = h.gather()
        if kind == "dense":
            assert back.dtype == x.dtype and np.array_equal(back, x)
        else:
            assert bitwise_equal(back, x)


class TestPrologueRefresh:
    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    @pytest.mark.parametrize("derived", [False, True], ids=["planned", "derived"])
    def test_refresh_values_bitwise_matches_fresh_session(self, rng, policy, derived):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        new_vals = rng.random(a.nnz) + 0.5
        a2 = CsrMatrix(a.shape, a.indptr, a.indices, new_vals, check=False)
        config = TsConfig(mode_policy=policy)
        want = ts_spgemm(a2, b, P, config=config).C

        def prologue(comm, operand):
            lo, hi = operand.rows.range_of(comm.rank)
            operand.refresh_values(new_vals[a.indptr[lo] : a.indptr[hi]])

        with TsSession(a, P, config=config) as parent:
            # A derived session refreshes through the selections cached on
            # ``aux`` (it has no strips before its first multiply).
            session = parent.derive_edge_subset(np.ones(a.nnz, bool)) if derived else parent
            got = session.multiply(b, prologue=prologue).C
            assert bitwise_equal(got, want)
            # the refreshed values are resident: later multiplies reuse them
            again = session.multiply(b).C
            assert bitwise_equal(again, want)

    def test_refresh_values_charges_value_traffic(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))

        def prologue(comm, operand):
            operand.refresh_values(operand.local.data * 2.0)

        with TsSession(a, P) as session:
            mult = session.multiply(b, prologue=prologue)
            phases = mult.report.phase_bytes()
            # only the nnz values travel — the pattern is already resident
            assert 0 < phases["refresh-values"] <= a.data.nbytes

    def test_refresh_values_shape_check(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))

        def prologue(comm, operand):
            operand.refresh_values(np.zeros(operand.local.nnz + 1))

        with pytest.raises(Exception, match="refresh_values"):
            with TsSession(a, P) as session:
                session.multiply(b, prologue=prologue)


class TestWeightedDeriveEdgeSubset:
    """A weighted live-edge sample: ``derive_edge_subset(keep)`` masks, and
    the child's ``update_operand`` gives the kept edges their weights."""

    @pytest.mark.parametrize("policy", ["hybrid", "local", "remote"])
    def test_values_refresh_matches_fresh_session(self, rng, policy):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        keep = rng.random(a.nnz) < 0.6
        weights = rng.random(a.nnz) + 0.25
        a_weighted = mask_entries(
            CsrMatrix(a.shape, a.indptr, a.indices, weights, check=False), keep
        )
        config = TsConfig(mode_policy=policy)
        with TsSession(a, P, config=config) as parent:
            child = parent.derive_edge_subset(keep)
            update = child.update_operand(a_weighted)
            got = child.multiply(b).C
        # same pattern: a values-only refresh, not a re-setup
        assert "refresh-values" in update.phase_bytes()
        with TsSession(a_weighted, P, config=config) as fresh:
            want = fresh.multiply(b).C
        assert bitwise_equal(got, want)

    def test_without_values_keeps_parent_values(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        b = csr_from_dense(random_dense(rng, N, D, 0.4))
        keep = rng.random(a.nnz) < 0.6
        with TsSession(a, P) as parent:
            got = parent.derive_edge_subset(keep).multiply(b).C
        want = ts_spgemm(mask_entries(a, keep), b, P).C
        assert bitwise_equal(got, want)

    def test_values_shape_validated(self, rng):
        a = csr_from_dense(random_dense(rng, N, N, 0.2))
        with TsSession(a, P) as parent:
            child = parent.derive_edge_subset(np.ones(a.nnz, dtype=bool))
            with pytest.raises(ValueError, match="shape"):
                child.update_operand(CsrMatrix.empty((N + 1, N + 1)))
