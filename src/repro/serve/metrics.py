"""Thread-safe serving metrics: latency percentiles, depth, outcomes.

Every number a load test or an operator needs to judge the service is
collected here and rendered through
:func:`repro.analysis.reporting.service_summary_rows`: per-status
latency distributions (p50/p99 over wall-clock admission→delivery),
queue depth (max + mean of per-submit samples), the full outcome ledger
(accepted / served / rejected / expired / shed / failed / duplicates —
the exactly-once invariant is ``accepted == delivered`` and
``duplicates == 0``), batching effectiveness (batches, mean width),
and the resilience trail (in-task retries, rank recoveries, pool
respawns, degraded-width batches).

Modelled SPMD reports of every batch are folded with
:func:`~repro.mpi.stats.merge_reports` — order-stable and associative
since this PR, so the fold is deterministic no matter which worker
finished which batch first.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Dict, List, Optional

import numpy as np

from ..mpi.stats import RankStats, SpmdReport, merge_reports
from .query import STATUS_EXPIRED, STATUS_FAILED, STATUS_OK, STATUS_SHED


def _pad_report(report: SpmdReport, size: int) -> SpmdReport:
    """``report`` widened to ``size`` ranks with zero-charge padding."""
    if report.size == size:
        return report
    pad = size - report.size
    return SpmdReport(
        size=size,
        rank_stats=report.rank_stats
        + [RankStats(rank=report.size + i) for i in range(pad)],
        clocks=report.clocks + [0.0] * pad,
        comm_times=report.comm_times + [0.0] * pad,
        compute_times=report.compute_times + [0.0] * pad,
    )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q, method="nearest"))


class ServiceMetrics:
    """Mutable counters shared by the dispatcher and producers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "accepted": 0,
            "rejected": 0,  # OverloadError at admission
            "delivered": 0,  # terminal results handed to tickets
            STATUS_OK: 0,
            STATUS_EXPIRED: 0,
            STATUS_SHED: 0,
            STATUS_FAILED: 0,
            "duplicates": 0,  # exactly-once violations (must stay 0)
            "batches": 0,
            "degraded_batches": 0,  # batches formed at reduced width
            "retries": 0,  # in-task fault retries observed
            "recoveries": 0,  # rank recoveries those retries performed
            "respawns": 0,  # dead sessions replaced by the pool
            "shrinks": 0,  # elastic world shrinks survived mid-serve
        }
        #: Width of the narrowest session that executed a batch so far
        #: (``None`` before the first batch): the operator-facing gauge
        #: that a slot is serving in degraded p-1 mode after a permanent
        #: rank loss.
        self.world_size: Optional[int] = None
        self._latency: Dict[str, List[float]] = {
            STATUS_OK: [],
            STATUS_EXPIRED: [],
            STATUS_SHED: [],
            STATUS_FAILED: [],
        }
        self._queue_wait: List[float] = []
        self._depth_samples: List[int] = []
        self._batch_sizes: List[int] = []
        self._reports: List[SpmdReport] = []
        self._t_start: Optional[float] = None
        self._t_stop: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            self._t_start = _time.monotonic()

    def stop(self) -> None:
        with self._lock:
            self._t_stop = _time.monotonic()

    def note_accept(self, depth: int) -> None:
        with self._lock:
            self.counters["accepted"] += 1
            self._depth_samples.append(depth)

    def note_reject(self) -> None:
        with self._lock:
            self.counters["rejected"] += 1

    def note_duplicate(self) -> None:
        with self._lock:
            self.counters["duplicates"] += 1

    def note_result(
        self, status: str, latency: float, queue_wait: float
    ) -> None:
        with self._lock:
            self.counters["delivered"] += 1
            self.counters[status] += 1
            self._latency[status].append(latency)
            if status == STATUS_OK:
                self._queue_wait.append(queue_wait)

    def note_batch(
        self,
        size: int,
        *,
        degraded: bool,
        retries: int = 0,
        recoveries: int = 0,
        shrinks: int = 0,
        world_size: Optional[int] = None,
        reports: Optional[List[SpmdReport]] = None,
    ) -> None:
        with self._lock:
            self.counters["batches"] += 1
            self._batch_sizes.append(size)
            if degraded:
                self.counters["degraded_batches"] += 1
            self.counters["retries"] += retries
            self.counters["recoveries"] += recoveries
            self.counters["shrinks"] += shrinks
            if world_size is not None:
                self.world_size = (
                    world_size
                    if self.world_size is None
                    else min(self.world_size, world_size)
                )
            if reports:
                self._reports.extend(reports)

    def note_respawn(self, n: int = 1) -> None:
        with self._lock:
            self.counters["respawns"] += n

    # ------------------------------------------------------------------
    def modelled_report(self) -> Optional[SpmdReport]:
        """Fold of every batch's SPMD report (deterministic: the merge is
        order-stable), or ``None`` before the first batch.

        Batches executed after an elastic shrink report ``p-1`` ranks;
        their reports are padded with zero-charge ranks up to the widest
        size seen so the fold stays well-defined (rank identities across
        a shrink do not correspond anyway — the aggregate phase/byte/time
        totals are the meaningful quantities here).
        """
        with self._lock:
            reports = list(self._reports)
        if not reports:
            return None
        width = max(r.size for r in reports)
        return merge_reports([_pad_report(r, width) for r in reports])

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy of everything, for reporting/assertions."""
        with self._lock:
            served = self.counters[STATUS_OK]
            elapsed = None
            if self._t_start is not None:
                end = (
                    self._t_stop
                    if self._t_stop is not None
                    else _time.monotonic()
                )
                elapsed = max(end - self._t_start, 1e-9)
            snap: Dict[str, object] = dict(self.counters)
            snap["p50_latency"] = percentile(self._latency[STATUS_OK], 50)
            snap["p99_latency"] = percentile(self._latency[STATUS_OK], 99)
            snap["p50_queue_wait"] = percentile(self._queue_wait, 50)
            snap["max_queue_depth"] = (
                max(self._depth_samples) if self._depth_samples else 0
            )
            snap["mean_queue_depth"] = (
                float(np.mean(self._depth_samples))
                if self._depth_samples
                else 0.0
            )
            snap["mean_batch_size"] = (
                float(np.mean(self._batch_sizes))
                if self._batch_sizes
                else 0.0
            )
            snap["world_size"] = self.world_size
            snap["elapsed"] = elapsed
            snap["throughput"] = (
                served / elapsed if elapsed else 0.0
            )
            modelled = 0.0
            # runtime of each batch's levels, summed: the modelled serial
            # cost of everything this service executed.
            for r in self._reports:
                modelled += r.runtime
            snap["modelled_seconds"] = modelled
            return snap
