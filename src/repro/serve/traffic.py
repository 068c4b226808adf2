"""Seeded traffic generation for load tests, benchmarks and the CLI.

:func:`make_queries` builds a deterministic mixed workload — BFS source
batches, influence samples, embedding lookups, with priorities and
deadlines — as a pure function of its seed, so two runs (e.g. a
fault-free reference and a fault-injected run) submit *identical* query
streams and their answers can be compared bit for bit.
:func:`run_traffic` pushes a workload through a service, honouring
either admission-control semantics (count ``OverloadError`` rejections)
or backpressure (block the producer), and collects every ticket.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .query import Query, OverloadError, Ticket, bfs_query, embedding_query, influence_query
from .service import QueryService


@dataclass(frozen=True)
class TrafficMix:
    """Workload composition (fractions are normalized)."""

    bfs: float = 0.7
    influence: float = 0.2
    embedding: float = 0.1

    def normalized(self) -> Tuple[float, float, float]:
        total = self.bfs + self.influence + self.embedding
        if total <= 0:
            raise ValueError("traffic mix must have a positive fraction")
        return (
            self.bfs / total,
            self.influence / total,
            self.embedding / total,
        )


@dataclass
class TrafficReport:
    """Everything a producer run observed."""

    tickets: List[Ticket] = field(default_factory=list)
    #: Indices (into the submitted workload) refused with OverloadError.
    rejected: List[int] = field(default_factory=list)
    #: The structured rejections themselves (for assertions on fields).
    overload_errors: List[OverloadError] = field(default_factory=list)
    #: Overloaded submissions retried after sleeping the rejection's
    #: ``retry_after`` hint (``run_traffic(resubmit=...)``).
    resubmits: int = 0
    submit_seconds: float = 0.0


def make_queries(
    n_queries: int,
    n_vertices: int,
    *,
    mix: TrafficMix = TrafficMix(),
    seed: int = 0,
    sources_per_query: int = 1,
    sample_pool: int = 4,
    probability: float = 0.3,
    priorities: int = 3,
    deadline: Optional[float] = None,
    deadline_fraction: float = 0.0,
) -> List[Query]:
    """Deterministic mixed workload of ``n_queries`` queries.

    Influence queries draw their sample index from ``sample_pool``
    distinct live-edge samples (all with base sample seed 0), so the
    batcher has sharing to find; an embedding lookup asks for 4 vertices.
    ``deadline_fraction`` of queries get ``deadline`` seconds of patience
    (the rest are deadline-free).
    Priorities are uniform over ``range(priorities)``.
    """
    if n_queries < 0:
        raise ValueError("n_queries must be >= 0")
    rng = np.random.default_rng(seed)
    p_bfs, p_inf, _ = mix.normalized()
    kinds = rng.random(n_queries)
    queries: List[Query] = []
    for i in range(n_queries):
        priority = float(rng.integers(0, max(1, priorities)))
        dl = (
            deadline
            if deadline is not None and rng.random() < deadline_fraction
            else None
        )
        if kinds[i] < p_bfs:
            sources = rng.integers(0, n_vertices, sources_per_query)
            queries.append(
                bfs_query(sources, priority=priority, deadline=dl)
            )
        elif kinds[i] < p_bfs + p_inf:
            sources = rng.integers(0, n_vertices, sources_per_query)
            queries.append(
                influence_query(
                    sources,
                    sample_seed=0,
                    sample=int(rng.integers(0, max(1, sample_pool))),
                    probability=probability,
                    priority=priority,
                    deadline=dl,
                )
            )
        else:
            vertices = rng.integers(0, n_vertices, 4)
            queries.append(
                embedding_query(vertices, priority=priority, deadline=dl)
            )
    return queries


def run_traffic(
    service: QueryService,
    queries: List[Query],
    *,
    backpressure: bool = False,
    arrival_rate: Optional[float] = None,
    resubmit: int = 0,
) -> TrafficReport:
    """Submit ``queries`` in order; returns tickets + structured rejects.

    ``backpressure=True`` parks the producer on a full queue (no
    rejections unless a submission waits 120 s); ``False`` exercises
    admission control — saturation surfaces as counted
    :class:`OverloadError`\\ s, never as a hang.  ``arrival_rate``
    (queries/second) paces submissions; ``None`` submits as fast as the
    service admits.

    ``resubmit`` makes the producer *honour the admission controller's
    backoff hint*: each overloaded submission sleeps the rejection's
    :attr:`~repro.serve.query.OverloadError.retry_after` and retries, up
    to ``resubmit`` times, before counting the query as rejected.  (The
    previous behaviour — drop on first rejection, hint ignored — is the
    ``resubmit=0`` default, and was the only behaviour before this
    knob existed: the hint was computed, shipped, and discarded.)
    """
    if resubmit < 0:
        raise ValueError(f"resubmit must be >= 0, got {resubmit}")
    report = TrafficReport()
    gap = None if arrival_rate is None else 1.0 / arrival_rate
    t0 = _time.monotonic()
    for i, query in enumerate(queries):
        if gap is not None:
            target = t0 + i * gap
            delay = target - _time.monotonic()
            if delay > 0:
                _time.sleep(delay)
        attempts = 0
        while True:
            try:
                ticket = service.submit(
                    query, block=backpressure, timeout=120.0
                )
            except OverloadError as exc:
                if attempts < resubmit:
                    attempts += 1
                    report.resubmits += 1
                    _time.sleep(max(0.0, exc.retry_after))
                    continue
                report.rejected.append(i)
                report.overload_errors.append(exc)
            else:
                report.tickets.append(ticket)
            break
    report.submit_seconds = _time.monotonic() - t0
    return report


def collect_results(
    report: TrafficReport, *, timeout: float = 120.0
) -> Dict[int, object]:
    """Wait for every ticket; returns ``{qid: QueryResult}``.

    Raises ``TimeoutError`` if any admitted query fails to resolve in
    time — the never-hangs property this helper exists to assert.
    """
    deadline = _time.monotonic() + timeout
    results: Dict[int, object] = {}
    for ticket in report.tickets:
        remaining = max(0.05, deadline - _time.monotonic())
        results[ticket.qid] = ticket.result(timeout=remaining)
    return results
