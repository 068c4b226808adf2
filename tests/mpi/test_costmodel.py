"""Tests for the α–β cost model, virtual clocks and statistics."""

import numpy as np
import pytest

from repro.mpi import (
    ETHERNET_CLUSTER,
    PERLMUTTER,
    MachineProfile,
    VirtualClock,
    get_profile,
    payload_nbytes,
    run_spmd,
)
from repro.mpi.costmodel import accumulator_for


class TestMachineProfile:
    def test_p2p_cost_is_alpha_plus_beta(self):
        m = MachineProfile(alpha=1e-6, beta=1e-9)
        assert m.p2p(1000) == pytest.approx(1e-6 + 1e-6)

    def test_barrier_scales_logarithmically(self):
        m = PERLMUTTER
        assert m.barrier(1) == 0.0
        assert m.barrier(2) == pytest.approx(m.alpha)
        assert m.barrier(8) == pytest.approx(3 * m.alpha)
        assert m.barrier(9) == pytest.approx(4 * m.alpha)

    def test_alltoallv_overlapped_exchange(self):
        m = MachineProfile(alpha=1e-6, gamma=1e-7, beta=1e-9)
        # alpha + (q-1) gamma + beta * max(sent, recv)
        assert m.alltoallv(5, 2000, 1000) == pytest.approx(1e-6 + 4e-7 + 2e-6)
        assert m.alltoallv(5, 1000, 3000) == pytest.approx(1e-6 + 4e-7 + 3e-6)
        assert m.alltoallv(1, 100, 100) == 0.0

    def test_allreduce_is_twice_reduce(self):
        m = PERLMUTTER
        assert m.allreduce(8, 100) == pytest.approx(2 * m.reduce(8, 100))

    def test_spa_spill_penalty_applies_beyond_cache(self):
        m = PERLMUTTER
        small = m.spgemm_time(1000, d=128, accumulator="spa")
        large = m.spgemm_time(1000, d=4096, accumulator="spa")
        assert large == pytest.approx(small * m.spa_spill_penalty)

    def test_hash_slower_than_cached_spa(self):
        m = PERLMUTTER
        spa = m.spgemm_time(1000, d=128, accumulator="spa")
        hsh = m.spgemm_time(1000, d=128, accumulator="hash")
        assert hsh > spa

    def test_hash_beats_spilled_spa(self):
        # This inequality is the paper's rationale for switching to hash
        # accumulation at d > 1024 (§III-C).
        m = PERLMUTTER
        spa = m.spgemm_time(1000, d=16384, accumulator="spa")
        hsh = m.spgemm_time(1000, d=16384, accumulator="hash")
        assert hsh < spa

    def test_accumulator_switches_at_1024(self):
        assert accumulator_for(128) == "spa"
        assert accumulator_for(1024) == "spa"
        assert accumulator_for(1025) == "hash"
        assert accumulator_for(16384) == "hash"
        # the default when no calibrated kernel constant applies
        m = PERLMUTTER
        for d in (1024, 1025):
            assert m.spgemm_time(1000, d=d) == m.spgemm_time(
                1000, d=d, accumulator=accumulator_for(d)
            )
        assert m.spgemm_time(1000, d=1025) != m.spgemm_time(1000, d=1025, accumulator="spa")

    def test_spmm_flops_cheaper_than_spgemm_flops(self):
        m = PERLMUTTER
        assert m.spmm_time(1000) < m.spgemm_time(1000, d=128)

    def test_unknown_accumulator_rejected(self):
        with pytest.raises(ValueError):
            PERLMUTTER.spgemm_time(10, d=4, accumulator="btree")

    def test_zero_and_negative_flops_cost_nothing(self):
        assert PERLMUTTER.spgemm_time(0, d=4) == 0.0
        assert PERLMUTTER.spmm_time(-5) == 0.0

    def test_profiles_registry(self):
        assert get_profile("perlmutter-cpu") is PERLMUTTER
        assert get_profile("ethernet-cluster") is ETHERNET_CLUSTER
        with pytest.raises(KeyError):
            get_profile("cray-xt5")



class TestVirtualClock:
    def test_advance_and_decompose(self):
        c = VirtualClock()
        c.advance_compute(1.0)
        c.advance_comm(0.5)
        assert c.now == pytest.approx(1.5)
        assert c.compute_time == pytest.approx(1.0)
        assert c.comm_time == pytest.approx(0.5)

    def test_negative_rejected(self):
        c = VirtualClock()
        with pytest.raises(ValueError):
            c.advance_compute(-1)
        with pytest.raises(ValueError):
            c.advance_comm(-1)


class TestPayloadNbytes:
    def test_none_is_free(self):
        assert payload_nbytes(None) == 0

    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 8
        assert payload_nbytes(np.float64(1.0)) == 8

    def test_containers_recursive(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40
        assert payload_nbytes({"a": 1, "b": np.zeros(1)}) == 1 + 8 + 1 + 8

    def test_strings_and_bytes(self):
        assert payload_nbytes("abc") == 3
        assert payload_nbytes(b"abcd") == 4

    def test_nbytes_estimate_protocol(self):
        class Fake:
            def nbytes_estimate(self):
                return 1234

        assert payload_nbytes(Fake()) == 1234

    def test_exact_type_fast_path_agrees_with_the_isinstance_chain(self):
        """The fast path (exact tuple / list / str first) must size every
        payload exactly as the chain that defines the byte counts."""
        from repro.sparse import CsrMatrix

        def chain(obj):
            if obj is None:
                return 0
            if isinstance(obj, (np.ndarray, np.generic)):
                return int(obj.nbytes)
            estimate = getattr(obj, "nbytes_estimate", None)
            if callable(estimate):
                return int(estimate())
            if isinstance(obj, (bool, int, float, complex)):
                return 8
            if isinstance(obj, (bytes, bytearray, memoryview)):
                return len(obj)
            if isinstance(obj, str):
                return len(obj.encode("utf-8"))
            if isinstance(obj, dict):
                return sum(chain(k) + chain(v) for k, v in obj.items())
            if isinstance(obj, (tuple, list, set, frozenset)):
                return sum(chain(item) for item in obj)
            return 8

        class SizedTuple(tuple):  # a subclass may self-report
            def nbytes_estimate(self):
                return 77

        class PlainTuple(tuple):
            pass

        class Names(list):
            pass

        class Mode(str):
            pass

        csr = CsrMatrix.identity(5)
        leaves = [
            None, 0, True, 2.5, 1j, np.float32(1), np.zeros((3, 2)), csr,
            "", "remote", "naïve-ü", "日本語", Mode("local"), Mode("é"),
            b"abc", bytearray(4), memoryview(b"12345"), object(),
            (), [], {}, set(), frozenset({1, 2}),
            SizedTuple((1, 2, 3)), PlainTuple(("a", np.ones(2))), Names(["x", "yz"]),
        ]
        corpus = leaves + [
            ("remote", (3, np.zeros(5), csr), None, ["local", "é"]),
            [("a", [("b", [("c", np.ones(1))])])],
            {"k": ("v", [csr, None]), 3: {"n": "ü"}},
            (SizedTuple((csr,)), PlainTuple((csr, "日")), Names([Mode("é"), ()])),
            tuple(leaves),
            list(leaves),
        ]
        for obj in corpus:
            assert payload_nbytes(obj) == chain(obj), repr(obj)
        assert payload_nbytes(SizedTuple((1, 2, 3))) == 77
        assert payload_nbytes("日本語") == 9


class TestRunReports:
    def test_collective_synchronizes_clocks(self):
        """A straggler's compute time must delay everyone's exit."""

        def program(comm):
            if comm.rank == 0:
                comm.charge_seconds(1.0)
            comm.barrier()
            return comm.time

        values = run_spmd(4, program).values
        assert all(t >= 1.0 for t in values)

    def test_report_runtime_is_max_clock(self):
        def program(comm):
            comm.charge_seconds(0.1 * (comm.rank + 1))

        report = run_spmd(3, program).report
        assert report.runtime == pytest.approx(0.3)
        assert report.compute_time == pytest.approx(0.3)

    def test_alltoall_byte_accounting(self):
        nbytes = 800  # 100 float64 per destination

        def program(comm):
            send = [np.zeros(100) for _ in range(comm.size)]
            comm.alltoall(send)

        report = run_spmd(4, program).report
        # each rank sends to 3 others
        assert report.total_bytes() == 4 * 3 * nbytes

    def test_phase_labelling(self):
        def program(comm):
            with comm.phase("fetch-B"):
                comm.alltoall([np.zeros(10) for _ in range(comm.size)])
            with comm.phase("send-C"):
                comm.alltoall([np.zeros(20) for _ in range(comm.size)])

        report = run_spmd(2, program).report
        per_phase = report.phase_bytes()
        assert per_phase["fetch-B"] == 2 * 1 * 80
        assert per_phase["send-C"] == 2 * 1 * 160

    def test_comm_plus_compute_decomposition(self):
        def program(comm):
            comm.charge_seconds(0.5)
            comm.allreduce(np.zeros(1000))

        report = run_spmd(2, program).report
        assert report.compute_time == pytest.approx(0.5)
        assert report.comm_time > 0
        assert report.runtime == pytest.approx(
            report.compute_time + report.comm_time, rel=1e-6
        )

    def test_machine_profile_changes_modelled_time(self):
        def program(comm):
            comm.alltoall([np.zeros(10000) for _ in range(comm.size)])

        fast = run_spmd(4, program, machine=PERLMUTTER).report.runtime
        slow = run_spmd(4, program, machine=ETHERNET_CLUSTER).report.runtime
        assert slow > fast

    def test_max_rank_bytes_recv(self):
        def program(comm):
            if comm.rank == 0:
                send = [np.zeros(1000) for _ in range(comm.size)]
            else:
                send = [None for _ in range(comm.size)]
            comm.alltoall(send)

        report = run_spmd(3, program).report
        assert report.max_rank_bytes_recv() == 8000  # nonzero ranks get 8 KB
