"""The multi-tenant query service: batcher, dispatcher, fault boundary.

:class:`QueryService` ties the serving tier together.  Producers call
:meth:`~QueryService.submit` and get a :class:`~repro.serve.query.Ticket`
(or a structured :class:`~repro.serve.query.OverloadError`); dispatcher
threads — one per :class:`~repro.serve.pool.SessionPool` slot — pull
batches of compatible queries from the
:class:`~repro.serve.queue.AdmissionQueue` and execute them as *shared*
distributed multiplies:

* **BFS** queries concatenate their source batches into one MS-BFS
  frontier matrix (the paper's Alg 3 is built for this) and split the
  visited matrix back into per-query answers.  The (∧,∨) semiring never
  mixes frontier columns, so each answer is bit-identical to a
  one-query-at-a-time run — batching is pure throughput.
* **Influence** queries batch per live-edge sample: the sample's edge
  mask is a pure function of ``(sample_seed, sample)``
  (:func:`~repro.apps.influence.sample_rng`), the masked graph is
  derived on-rank from the resident session
  (:meth:`~repro.core.driver.TsSession.derive_edge_subset`), and one
  MS-BFS answers every query of the sample.
* **Embedding** lookups are driver-side row extractions of the trained
  embedding held by the service.

**Fault boundary.**  In-task faults are absorbed by PR 7's
checkpoint/recovery inside the session (surfacing only as ``retries`` /
``recoveries`` diagnostics).  Anything the session cannot heal — retry
budget exhausted, watchdog kill, dead executor — makes the dispatcher
*respawn* the slot from the driver-held graph and re-execute the whole
batch on the fresh session.  Re-execution is safe precisely because
query answers are deterministic functions of the query (per-query
seeds, column-independent BFS): the re-run returns bit-identical
values, and the ticket's exactly-once guard means the client still
sees exactly one result.  While healing, the service degrades batch
width for a window instead of going dark.
"""

from __future__ import annotations

import threading
import time as _time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..apps.embedding import embedding_rows
from ..apps.influence import sample_keep_mask, sample_rng
from ..apps.msbfs import msbfs_on_session
from ..core.config import DEFAULT_CONFIG, TsConfig
from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.errors import (
    DeadlockError,
    DeadSessionError,
    RankError,
    ShrinkRefusedError,
)
from ..sparse.csr import CsrMatrix
from .metrics import ServiceMetrics
from .pool import SessionPool
from .query import (
    QUERY_KINDS,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    DeadlineExpired,
    DuplicateDelivery,
    OverloadError,
    Query,
    QueryResult,
    ShedError,
    Ticket,
)
from .queue import AdmissionQueue

#: After a recovery or respawn, the next ``DEGRADED_WINDOW`` batches are
#: taken at ``batch_width // DEGRADED_FACTOR`` (at least 1).
DEGRADED_WINDOW = 4
DEGRADED_FACTOR = 4
#: Slot respawns one batch may use before its tickets fail.
MAX_RESPAWNS = 2
#: A dispatcher's longest wait on an empty queue before it checks for stop.
TAKE_WAIT_S = 0.02
#: The longest a draining ``stop()`` waits for admitted queries.
STOP_DRAIN_S = 60.0


class ServiceStopped(RuntimeError):
    """Recorded on tickets the service could not serve before shutdown,
    and raised by ``submit`` after ``stop()`` — a closed service fails
    fast instead of hanging producers."""


def split_visited_columns(visited: CsrMatrix) -> List[np.ndarray]:
    """Per-column sorted row ids of a visited matrix (one BFS answer per
    column).  Vectorized: one stable sort of the (row-major) nonzeros by
    column id, then column boundary slicing — no per-query passes."""
    cols = visited.indices
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    sorted_rows = visited.row_ids()[order]
    bounds = np.searchsorted(
        sorted_cols, np.arange(visited.ncols + 1)
    )
    return [
        sorted_rows[bounds[j] : bounds[j + 1]].astype(np.int64)
        for j in range(visited.ncols)
    ]


class QueryService:
    """Admission-controlled, fault-tolerant serving of resident graphs."""

    def __init__(
        self,
        A: CsrMatrix,
        p: int,
        *,
        config: Optional[TsConfig] = None,
        machine: MachineProfile = PERLMUTTER,
        slots: int = 1,
        capacity: int = 1024,
        batch_width: int = 64,
        aging_rate: float = 1.0,
        shed_watermark: Optional[float] = None,
        max_levels: Optional[int] = None,
        embedding=None,
        start: bool = True,
    ):
        if batch_width < 1:
            raise ValueError(f"batch_width must be >= 1, got {batch_width}")
        base = DEFAULT_CONFIG if config is None else config
        if not base.recoverable:
            # Serving is resilient by default: a one-shot driver may opt
            # out of recovery, a long-lived service must not.
            from dataclasses import replace

            base = replace(base, recoverable=True)
        self.config = base
        self.pool = SessionPool(
            A, p, slots=slots, config=base, machine=machine
        )
        self.queue = AdmissionQueue(capacity, aging_rate=aging_rate)
        self.metrics = ServiceMetrics()
        self.batch_width = batch_width
        self.capacity = capacity
        self.shed_watermark = shed_watermark
        self.max_levels = max_levels
        self._a_bool = self.pool._a_bool
        self._embedding = embedding
        self._n = A.nrows
        self._qid = 0
        self._qid_lock = threading.Lock()
        self._outstanding = 0
        self._outstanding_cond = threading.Condition()
        self._degraded_left = 0
        self._degraded_lock = threading.Lock()
        self._accepting = False
        self._stop_event = threading.Event()
        self._workers: List[threading.Thread] = []
        self._started = False
        if start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._accepting = True
        self.metrics.start()
        for i in range(self.pool.size):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"serve-dispatch-{i}",
                daemon=True,
            )
            t.start()
            self._workers.append(t)

    def stop(self, *, drain: bool = True) -> None:
        """Shut down.  ``drain=True`` serves everything already admitted
        first (bounded by ``STOP_DRAIN_S``); anything still unserved — and
        everything on a no-drain stop — resolves as ``failed`` with
        :class:`ServiceStopped`, so no admitted ticket ever hangs."""
        if not self._started:
            return
        self._accepting = False
        if drain:
            self.drain(timeout=STOP_DRAIN_S)
        self.queue.close()
        leftovers = self.queue.drain_all()
        self._stop_event.set()
        for ticket in leftovers:
            self._resolve(
                ticket,
                STATUS_FAILED,
                error=ServiceStopped("service stopped before execution"),
            )
        for t in self._workers:
            t.join(timeout=30.0)
        self.pool.close()
        self.metrics.stop()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted query has a result (or timeout)."""
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._outstanding_cond:
            while self._outstanding > 0:
                remaining = (
                    None if deadline is None else deadline - _time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._outstanding_cond.wait(
                    0.5 if remaining is None else min(0.5, remaining)
                )
        return True

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def health_check(self, timeout: float = 30.0) -> int:
        """Ping idle pool slots (system tasks — fault plans unaffected)
        and regrow slots left at degraded width by an elastic shrink;
        returns how many sessions were respawned (dead + regrown)."""
        healed = self.pool.health_check(timeout)
        healed += self.pool.grow()
        if healed:
            self.metrics.note_respawn(healed)
            self._enter_degraded()
        return healed

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        *,
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> Ticket:
        """Admit one query.

        ``block=False``: admission control — raises
        :class:`OverloadError` when the queue is saturated.
        ``block=True``: backpressure — the producer parks (up to
        ``timeout``) for a slot.  Either way, a returned ticket is a
        promise of exactly one result.
        """
        if not self._accepting:
            raise ServiceStopped("service is not accepting queries")
        self._validate(query)
        with self._qid_lock:
            self._qid += 1
            qid = self._qid
        ticket = Ticket(qid, query, _time.monotonic())
        with self._outstanding_cond:
            self._outstanding += 1
        try:
            depth = self.queue.submit(ticket, block=block, timeout=timeout)
        except OverloadError:
            with self._outstanding_cond:
                self._outstanding -= 1
                self._outstanding_cond.notify_all()
            self.metrics.note_reject()
            raise
        except RuntimeError:  # queue closed under a racing stop()
            with self._outstanding_cond:
                self._outstanding -= 1
                self._outstanding_cond.notify_all()
            raise
        self.metrics.note_accept(depth)
        return ticket

    def _validate(self, query: Query) -> None:
        if query.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {query.kind!r}")
        if query.deadline is not None and query.deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if query.kind in ("bfs", "influence"):
            src = query.sources
            if src is None or src.size == 0:
                raise ValueError(f"{query.kind} query needs sources")
            if src.min() < 0 or src.max() >= self._n:
                raise ValueError(
                    f"sources must be in [0, {self._n}), got range "
                    f"[{src.min()}, {src.max()}]"
                )
        if query.kind == "influence" and not (
            0.0 <= query.probability <= 1.0
        ):
            raise ValueError("probability must be in [0, 1]")
        if query.kind == "embedding":
            if self._embedding is None:
                raise ValueError(
                    "service holds no embedding; construct with embedding="
                )
            v = query.vertices
            if v is None or v.size == 0:
                raise ValueError("embedding query needs vertices")
            if v.min() < 0 or v.max() >= self._n:
                raise ValueError(
                    f"vertices must be in [0, {self._n}), got range "
                    f"[{v.min()}, {v.max()}]"
                )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _current_width(self) -> Tuple[int, bool]:
        with self._degraded_lock:
            if self._degraded_left > 0:
                return (
                    max(1, self.batch_width // DEGRADED_FACTOR),
                    True,
                )
            return self.batch_width, False

    def _consume_degraded(self) -> None:
        with self._degraded_lock:
            if self._degraded_left > 0:
                self._degraded_left -= 1

    def _enter_degraded(self) -> None:
        with self._degraded_lock:
            self._degraded_left = DEGRADED_WINDOW

    def _worker_loop(self) -> None:
        while not self._stop_event.is_set():
            if self.shed_watermark is not None:
                target = int(self.shed_watermark * self.capacity)
                for ticket in self.queue.shed(target):
                    self._resolve(
                        ticket,
                        STATUS_SHED,
                        error=ShedError(
                            "evicted by load shedding (queue over "
                            f"{target}/{self.capacity} watermark)"
                        ),
                    )
            width, degraded = self._current_width()
            batch, expired = self.queue.take_batch(width, wait=TAKE_WAIT_S)
            for ticket in expired:
                self._resolve(
                    ticket,
                    STATUS_EXPIRED,
                    error=DeadlineExpired(
                        f"deadline of {ticket.query.deadline}s passed "
                        "while queued"
                    ),
                )
            if not batch:
                continue
            if degraded:
                self._consume_degraded()
            self._run_batch(batch, degraded)

    def _run_batch(self, batch: List[Ticket], degraded: bool) -> None:
        taken_at = _time.monotonic()
        last_error: Optional[BaseException] = None
        for _ in range(MAX_RESPAWNS + 1):
            try:
                slot = self.pool.checkout(timeout=30.0)
            except (RuntimeError, TimeoutError) as exc:
                last_error = exc
                break
            session = slot.session
            r0, v0, s0 = session.retries, session.recoveries, session.shrinks
            try:
                values, reports, extra_r, extra_v = self._execute(
                    session, [t.query for t in batch]
                )
            except (
                DeadSessionError,
                DeadlockError,
                RankError,
                ShrinkRefusedError,
            ) as exc:
                # A session-level death the in-task retry loop could not
                # heal — including a permanent rank loss the session
                # *could not* shrink around (checkpoint="off", derived
                # session, 1-rank world): the slot is replaced from the
                # driver-held graph either way.  A RankError *without* a
                # failure record is a program bug — re-running would
                # fail identically.
                recoverable = not (
                    isinstance(exc, RankError)
                    and getattr(exc, "failure", None) is None
                )
                if not recoverable:
                    self.pool.checkin(slot)
                    self._fail_batch(batch, exc)
                    return
                self.pool.respawn(slot)
                self.metrics.note_respawn()
                self.pool.checkin(slot)
                self._enter_degraded()
                last_error = exc
                continue
            except Exception as exc:  # driver-side bug: fail, don't loop
                self.pool.checkin(slot)
                self._fail_batch(batch, exc)
                return
            retries = (session.retries - r0) + extra_r
            recoveries = (session.recoveries - v0) + extra_v
            shrinks = session.shrinks - s0
            world_size = session.p
            self.pool.checkin(slot)
            if retries:
                # A rank died and recovered mid-batch: serve narrower for
                # a window so the healing session is not re-saturated.
                # (A shrink is a retry too, so a batch that survived a
                # permanent rank loss at p-1 also lands here.)
                self._enter_degraded()
            self.metrics.note_batch(
                len(batch),
                degraded=degraded,
                retries=retries,
                recoveries=recoveries,
                shrinks=shrinks,
                world_size=world_size,
                reports=reports,
            )
            for ticket, value in zip(batch, values):
                self._resolve(
                    ticket,
                    STATUS_OK,
                    value=value,
                    batch_size=len(batch),
                    exec_started=taken_at,
                )
            return
        self._fail_batch(
            batch,
            last_error
            if last_error is not None
            else RuntimeError("batch failed with no recorded error"),
        )

    def _fail_batch(
        self, batch: List[Ticket], error: BaseException
    ) -> None:
        for ticket in batch:
            self._resolve(ticket, STATUS_FAILED, error=error)

    def _resolve(
        self,
        ticket: Ticket,
        status: str,
        *,
        value=None,
        error: Optional[BaseException] = None,
        batch_size: int = 0,
        exec_started: Optional[float] = None,
    ) -> None:
        now = _time.monotonic()
        latency = now - ticket.accepted_at
        queue_wait = (
            max(0.0, exec_started - ticket.accepted_at)
            if exec_started is not None
            else latency
        )
        result = QueryResult(
            qid=ticket.qid,
            kind=ticket.query.kind,
            status=status,
            value=value,
            error=error,
            latency=latency,
            queue_wait=queue_wait,
            batch_size=batch_size,
        )
        try:
            ticket._deliver(result)
        except DuplicateDelivery:
            self.metrics.note_duplicate()
            return
        self.metrics.note_result(status, latency, queue_wait)
        with self._outstanding_cond:
            self._outstanding -= 1
            self._outstanding_cond.notify_all()

    # ------------------------------------------------------------------
    # execution (one shared multiply per batch)
    # ------------------------------------------------------------------
    def _execute(
        self, session, queries: Sequence[Query]
    ) -> Tuple[List[object], list, int, int]:
        kind = queries[0].kind
        if kind == "bfs":
            return self._execute_bfs(session, queries)
        if kind == "influence":
            return self._execute_influence(session, queries)
        return self._execute_embedding(queries)

    def _execute_bfs(self, session, queries):
        counts = [q.sources.size for q in queries]
        all_sources = np.concatenate([q.sources for q in queries])
        reports: list = []
        bfs = msbfs_on_session(
            session,
            all_sources,
            max_levels=self.max_levels,
            reports=reports,
        )
        per_col = split_visited_columns(bfs.visited)
        values, offset = [], 0
        for c in counts:
            values.append(per_col[offset : offset + c])
            offset += c
        return values, reports, 0, 0

    def _execute_influence(self, session, queries):
        q0 = queries[0]
        keep = sample_keep_mask(
            self._a_bool, q0.probability, sample_rng(q0.sample_seed, q0.sample)
        )
        derived = session.derive_edge_subset(keep)
        try:
            counts = [q.sources.size for q in queries]
            all_sources = np.concatenate([q.sources for q in queries])
            reports: list = []
            bfs = msbfs_on_session(
                derived,
                all_sources,
                max_levels=self.max_levels,
                reports=reports,
            )
            reached = bfs.reachable_counts()
            values, offset = [], 0
            for c in counts:
                values.append(reached[offset : offset + c].copy())
                offset += c
            return values, reports, derived.retries, derived.recoveries
        finally:
            derived.close()

    def _execute_embedding(self, queries):
        values = [
            embedding_rows(self._embedding, q.vertices) for q in queries
        ]
        return values, [], 0, 0
