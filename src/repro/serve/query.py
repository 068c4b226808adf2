"""Query, ticket and structured-error primitives of the serving tier.

A :class:`Query` describes one user request against a resident graph —
a BFS reachability from a source batch, an influence live-edge sample,
or an embedding lookup.  Submitting one to the
:class:`~repro.serve.service.QueryService` yields a :class:`Ticket`,
a future the producer blocks on (with its own timeout) while the
batcher coalesces compatible queries into shared multiplies.

The exactly-once contract lives here: a ticket accepts **exactly one**
:class:`QueryResult` — a second delivery raises
:class:`DuplicateDelivery` at the offending call site instead of
silently overwriting the answer a producer may already have read — and
every accepted query terminates in one of the four result statuses
(``ok`` / ``expired`` / ``shed`` / ``failed``), so a producer waiting on
a ticket never hangs on an admitted query.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

#: The workload kinds the batcher understands.
QUERY_KINDS = ("bfs", "influence", "embedding")

#: Terminal ticket statuses.  Every admitted query reaches exactly one.
STATUS_OK = "ok"
STATUS_EXPIRED = "expired"  # deadline passed before execution
STATUS_SHED = "shed"  # evicted by priority-aware load shedding
STATUS_FAILED = "failed"  # non-recoverable execution error


class OverloadError(RuntimeError):
    """Structured admission-control rejection (queue saturated).

    Raised synchronously by ``submit`` — the query was **not** accepted
    and will never get a ticket result.  Producers read ``queue_depth``
    / ``capacity`` and back off for ``retry_after`` seconds.
    """

    def __init__(self, queue_depth: int, capacity: int, retry_after: float):
        self.queue_depth = queue_depth
        self.capacity = capacity
        self.retry_after = retry_after
        super().__init__(
            f"admission queue saturated ({queue_depth}/{capacity} queued); "
            f"retry after {retry_after:.3f}s"
        )


class DeadlineExpired(RuntimeError):
    """Recorded as the error of a ticket whose deadline passed in queue."""


class ShedError(RuntimeError):
    """Recorded as the error of a ticket evicted by load shedding."""


class DuplicateDelivery(RuntimeError):
    """A second result was delivered to an already-resolved ticket —
    an exactly-once violation (a bug in the service, never expected)."""


@dataclass(frozen=True)
class Query:
    """One user request.  Build with the module's constructor helpers."""

    kind: str
    #: BFS / influence: starting vertices (one user may ask for several).
    sources: Optional[np.ndarray] = None
    #: Embedding: vertex ids to look up.
    vertices: Optional[np.ndarray] = None
    #: Influence: Monte-Carlo base seed + sample index.  The live-edge
    #: mask is a pure function of these (``sample_rng(seed, sample)``),
    #: so any batching of influence queries is bit-identical.
    sample_seed: int = 0
    sample: int = 0
    probability: float = 0.1
    #: Larger = more urgent.  Aging in the queue lifts old low-priority
    #: queries past fresh high-priority ones, so nothing starves.
    priority: float = 0.0
    #: Seconds (relative to admission) before the answer is worthless;
    #: ``None`` = no deadline.
    deadline: Optional[float] = None

    @property
    def batch_key(self) -> Tuple:
        """Queries with equal keys may share one multiply.

        BFS traversals batch unconditionally (independent frontier
        columns); influence queries batch only within one live-edge
        sample (same masked graph); embedding lookups batch freely.
        """
        if self.kind == "influence":
            return (
                "influence",
                self.sample_seed,
                self.sample,
                self.probability,
            )
        return (self.kind,)


def bfs_query(
    sources,
    *,
    priority: float = 0.0,
    deadline: Optional[float] = None,
) -> Query:
    """Reachability from ``sources`` (an int or a batch of ints)."""
    arr = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    return Query(
        kind="bfs", sources=arr, priority=priority, deadline=deadline
    )


def influence_query(
    sources,
    *,
    sample_seed: int = 0,
    sample: int = 0,
    probability: float = 0.1,
    priority: float = 0.0,
    deadline: Optional[float] = None,
) -> Query:
    """Reached-set sizes of ``sources`` in live-edge sample
    ``(sample_seed, sample)`` with edge probability ``probability``."""
    arr = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    return Query(
        kind="influence",
        sources=arr,
        sample_seed=int(sample_seed),
        sample=int(sample),
        probability=float(probability),
        priority=priority,
        deadline=deadline,
    )


def embedding_query(
    vertices,
    *,
    priority: float = 0.0,
    deadline: Optional[float] = None,
) -> Query:
    """Dense embedding vectors of ``vertices``."""
    arr = np.atleast_1d(np.asarray(vertices, dtype=np.int64))
    return Query(
        kind="embedding", vertices=arr, priority=priority, deadline=deadline
    )


@dataclass
class QueryResult:
    """Terminal outcome of one admitted query."""

    qid: int
    kind: str
    status: str
    #: ``ok`` payload — per-query answer (see ``service._execute_*``).
    value: Any = None
    #: ``expired`` / ``shed`` / ``failed`` diagnosis.
    error: Optional[BaseException] = None
    #: Seconds from admission to delivery (wall clock).
    latency: float = 0.0
    #: Seconds spent queued before execution started (0 if never ran).
    queue_wait: float = 0.0
    #: How many queries shared this result's multiply (1 = served alone).
    batch_size: int = 0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class Ticket:
    """Future handed back by ``submit``; resolves to a :class:`QueryResult`.

    Thread-safe; ``_deliver`` enforces the exactly-once contract.
    """

    def __init__(self, qid: int, query: Query, accepted_at: float):
        self.qid = qid
        self.query = query
        self.accepted_at = accepted_at
        self._event = threading.Event()
        self._result: Optional[QueryResult] = None
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block for the outcome; raises ``TimeoutError`` (the ticket
        stays valid — the answer can still arrive later)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query {self.qid} not resolved within {timeout}s"
            )
        assert self._result is not None
        return self._result

    def _deliver(self, result: QueryResult) -> None:
        with self._lock:
            if self._result is not None:
                raise DuplicateDelivery(
                    f"query {self.qid} already resolved "
                    f"({self._result.status}); refusing second delivery "
                    f"({result.status})"
                )
            self._result = result
        self._event.set()
