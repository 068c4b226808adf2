"""End-to-end query-service tests: batching bit-identity, exactly-once
delivery, deadlines, admission control, shedding, fairness under load,
and fault-tolerant serving (in-task recovery and pool respawn)."""

import time

import numpy as np
import pytest

from repro.apps.influence import sample_keep_mask, sample_rng
from repro.apps.msbfs import msbfs
from _oracles import reference_reachability
from repro.core.config import TsConfig
from repro.data.generators import erdos_renyi
from repro.mpi.errors import DeadSessionError
from repro.serve import (
    STATUS_EXPIRED,
    STATUS_OK,
    STATUS_SHED,
    DeadlineExpired,
    OverloadError,
    QueryService,
    ServiceStopped,
    ShedError,
    bfs_query,
    embedding_query,
    influence_query,
    split_visited_columns,
)
from repro.sparse.ops import mask_entries

N = 120
P = 2


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(N, 4.0, seed=7)


@pytest.fixture(scope="module")
def a_bool(graph):
    return graph if graph.dtype == np.bool_ else graph.astype(np.bool_)


def _paused_service(graph, **kwargs):
    """A service that admits queries but has no dispatcher running yet,
    so tests can stage the queue deterministically before start()."""
    svc = QueryService(graph, P, start=False, **kwargs)
    svc._accepting = True
    return svc


def _reference_columns(a_bool, sources):
    visited = reference_reachability(a_bool, np.asarray(sources))
    return split_visited_columns(visited)


class TestBatchedCorrectness:
    def test_batched_bfs_bit_identical_to_reference(self, graph, a_bool):
        sources = list(range(10))
        expected = _reference_columns(a_bool, sources)
        with QueryService(graph, P, batch_width=16) as svc:
            tickets = [svc.submit(bfs_query(s)) for s in sources]
            results = [t.result(timeout=60.0) for t in tickets]
        for j, res in enumerate(results):
            assert res.ok
            assert np.array_equal(res.value[0], expected[j])
        snap = svc.metrics.snapshot()
        assert snap["accepted"] == snap["delivered"] == len(sources)
        assert snap["duplicates"] == 0

    def test_multi_source_query_splits_correctly(self, graph, a_bool):
        expected = _reference_columns(a_bool, [3, 50, 77])
        with QueryService(graph, P) as svc:
            res = svc.submit(bfs_query([3, 50, 77])).result(timeout=60.0)
        assert res.ok
        assert len(res.value) == 3
        for j in range(3):
            assert np.array_equal(res.value[j], expected[j])

    def test_influence_matches_fresh_masked_run(self, graph, a_bool):
        sources = np.array([2, 9], dtype=np.int64)
        keep = sample_keep_mask(a_bool, 0.4, sample_rng(11, 3))
        expected = msbfs(
            mask_entries(a_bool, keep), sources, P
        ).reachable_counts()
        with QueryService(graph, P) as svc:
            res = svc.submit(
                influence_query(
                    sources, sample_seed=11, sample=3, probability=0.4
                )
            ).result(timeout=60.0)
        assert res.ok
        np.testing.assert_array_equal(res.value, expected)

    def test_influence_batching_is_grouping_invariant(self, graph):
        # The same (seed, sample) query answered solo and inside a batch
        # of same-sample peers must be bit-identical.
        q = dict(sample_seed=5, sample=1, probability=0.5)
        with QueryService(graph, P, batch_width=8) as svc:
            solo = svc.submit(influence_query(4, **q)).result(timeout=60.0)
            batched = [
                svc.submit(influence_query(s, **q)) for s in (7, 4, 19)
            ]
            together = [t.result(timeout=60.0) for t in batched]
        assert solo.ok and all(r.ok for r in together)
        np.testing.assert_array_equal(solo.value, together[1].value)

    def test_embedding_lookup_returns_rows(self, graph):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((N, 6))
        with QueryService(graph, P, embedding=Z) as svc:
            res = svc.submit(embedding_query([5, 99, 5])).result(
                timeout=60.0
            )
        assert res.ok
        np.testing.assert_array_equal(res.value, Z[[5, 99, 5]])


class TestDeadlines:
    def test_queued_past_deadline_expires_with_structured_error(self, graph):
        svc = _paused_service(graph)
        doomed = svc.submit(bfs_query(0, deadline=0.01))
        healthy = svc.submit(bfs_query(1))
        time.sleep(0.05)
        svc.start()
        try:
            res = doomed.result(timeout=30.0)
            assert res.status == STATUS_EXPIRED
            assert isinstance(res.error, DeadlineExpired)
            assert healthy.result(timeout=30.0).ok
        finally:
            svc.stop()
        snap = svc.metrics.snapshot()
        assert snap[STATUS_EXPIRED] == 1
        assert snap["delivered"] == snap["accepted"] == 2


class TestAdmissionControl:
    def test_saturated_queue_rejects_structurally(self, graph):
        svc = _paused_service(graph, capacity=4)
        tickets = [svc.submit(bfs_query(i)) for i in range(4)]
        with pytest.raises(OverloadError) as exc_info:
            svc.submit(bfs_query(99))
        assert exc_info.value.queue_depth == 4
        assert exc_info.value.capacity == 4
        assert exc_info.value.retry_after > 0
        # Backpressure submit on a stalled service times out the same way.
        with pytest.raises(OverloadError):
            svc.submit(bfs_query(99), block=True, timeout=0.05)
        svc.start()
        try:
            assert all(t.result(timeout=60.0).ok for t in tickets)
        finally:
            svc.stop()
        snap = svc.metrics.snapshot()
        assert snap["rejected"] == 2
        assert snap["accepted"] == snap["delivered"] == 4

    def test_submit_after_stop_fails_fast(self, graph):
        svc = QueryService(graph, P)
        svc.stop()
        with pytest.raises(ServiceStopped):
            svc.submit(bfs_query(0))


class TestLoadShedding:
    def test_watermark_sheds_lowest_priority(self, graph):
        svc = _paused_service(
            graph, capacity=8, shed_watermark=0.25, batch_width=8
        )
        tickets = [
            svc.submit(bfs_query(i, priority=float(i))) for i in range(8)
        ]
        svc.start()
        try:
            results = [t.result(timeout=60.0) for t in tickets]
        finally:
            svc.stop()
        statuses = [r.status for r in results]
        # Watermark 0.25 * capacity 8 = keep 2: the two highest priority.
        assert statuses[-2:] == [STATUS_OK, STATUS_OK]
        assert statuses[:-2] == [STATUS_SHED] * 6
        assert all(isinstance(r.error, ShedError) for r in results[:-2])
        snap = svc.metrics.snapshot()
        assert snap[STATUS_SHED] == 6
        assert snap["delivered"] == snap["accepted"] == 8


class TestFairness:
    def test_aged_low_priority_survives_high_priority_stream(self, graph):
        # A single low-priority query against a sustained stream of
        # high-priority ones: aging must lift it into a batch long before
        # the stream ends (no starvation).
        svc = QueryService(
            graph, P, batch_width=1, capacity=64, aging_rate=50.0
        )
        try:
            low = svc.submit(bfs_query(0, priority=0.0))
            deadline = time.monotonic() + 30.0
            while not low.done and time.monotonic() < deadline:
                try:
                    svc.submit(bfs_query(1, priority=10.0))
                except OverloadError:
                    time.sleep(0.005)
            assert low.done, "low-priority query starved by high traffic"
            assert low.result(timeout=0.0).ok
        finally:
            svc.stop(drain=False)
        snap = svc.metrics.snapshot()
        # Every admitted ticket resolved (served or failed-at-shutdown).
        assert snap["delivered"] == snap["accepted"]
        assert snap["duplicates"] == 0


class TestFaultTolerance:
    FAULT_CONFIG = TsConfig(
        recoverable=True,
        checkpoint="neighbor",
        faults="crash@1,phase=fused-round",
        retry_backoff=0.0,
    )

    def test_crash_mid_stream_bit_identical_exactly_once(
        self, graph, a_bool
    ):
        sources = list(range(12))
        expected = _reference_columns(a_bool, sources)
        with QueryService(
            graph, P, config=self.FAULT_CONFIG, batch_width=4
        ) as svc:
            tickets = [svc.submit(bfs_query(s)) for s in sources]
            results = [t.result(timeout=120.0) for t in tickets]
        for j, res in enumerate(results):
            assert res.ok, f"query {j} not served: {res.status}"
            assert np.array_equal(res.value[0], expected[j])
        snap = svc.metrics.snapshot()
        assert snap["retries"] >= 1, "injected crash never fired"
        assert snap["recoveries"] >= 1
        assert snap["degraded_batches"] >= 1, (
            "service never served at degraded width while healing"
        )
        assert snap["duplicates"] == 0
        assert snap[STATUS_OK] == snap["accepted"] == len(sources)
        assert snap["failed"] == 0

    def test_session_death_respawns_and_reexecutes(self, graph, a_bool):
        sources = [0, 1, 2, 3]
        expected = _reference_columns(a_bool, sources)
        svc = QueryService(graph, P, batch_width=8, start=False)
        real_execute = svc._execute
        calls = {"n": 0}

        def dying_execute(session, queries):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DeadSessionError("simulated watchdog kill")
            return real_execute(session, queries)

        svc._execute = dying_execute
        svc._accepting = True
        tickets = [svc.submit(bfs_query(s)) for s in sources]
        svc.start()
        try:
            results = [t.result(timeout=120.0) for t in tickets]
        finally:
            svc.stop()
        for j, res in enumerate(results):
            assert res.ok
            assert np.array_equal(res.value[0], expected[j])
        assert calls["n"] >= 2, "batch was not re-executed"
        snap = svc.metrics.snapshot()
        assert snap["respawns"] >= 1
        assert snap["degraded_batches"] >= 0  # window armed after respawn
        assert snap["duplicates"] == 0
        assert svc.pool._slots[0].generation >= 1


class TestLifecycle:
    def test_stop_resolves_every_admitted_ticket(self, graph):
        svc = _paused_service(graph, batch_width=2)
        tickets = [svc.submit(bfs_query(i)) for i in range(6)]
        svc.start()
        svc.stop(drain=False)
        for t in tickets:
            res = t.result(timeout=30.0)  # never hangs
            assert res.status in (STATUS_OK, "failed")
            if res.status == "failed":
                assert isinstance(res.error, ServiceStopped)
        snap = svc.metrics.snapshot()
        assert snap["delivered"] == snap["accepted"] == 6

    def test_validation_rejects_bad_queries(self, graph):
        with QueryService(graph, P) as svc:
            with pytest.raises(ValueError):
                svc.submit(bfs_query(N + 5))
            with pytest.raises(ValueError):
                svc.submit(embedding_query(0))  # no embedding held
            with pytest.raises(ValueError):
                svc.submit(bfs_query(0, deadline=-1.0))

    def test_health_check_counts_zero_when_healthy(self, graph):
        with QueryService(graph, P) as svc:
            assert svc.health_check() == 0
