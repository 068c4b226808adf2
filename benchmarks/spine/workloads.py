"""The five workloads: inputs from a seed, one operation, its checks.

Every class builds its inputs from ``seed`` alone and hands the program
only those inputs.  ``setup`` is what ``setup_s`` times (input generation
plus whatever session or service the operation runs against), ``operate``
is one timed operation, ``check`` runs outside the timed region and
returns a list of problems (empty = correct).  Sizes are fixed; ``smoke``
swaps in toy sizes for the self-test only.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Optional

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

from repro.apps import msbfs_on_session, train_sparse_embedding
from repro.baselines.registry import make_session
from repro.baselines import summa2d
from repro.core import TsConfig, TsSession, ts_spgemm
from repro.data import bfs_frontier, erdos_renyi, load, tall_skinny
from repro.model import Workload as ModelWorkload, ts_spgemm_cost
from repro.mpi import MachineProfile
from repro.serve import OverloadError, QueryService, TrafficMix, make_queries
from repro.sparse import (
    BOOL_AND_OR,
    dispatch_spgemm,
    ewise_add,
    from_edges,
    pattern_difference,
)

from .trace import Recorder

#: The simulated machine, pinned as literals (the values of
#: ``SCALED_PERLMUTTER`` when the benchmark was defined) so modelled
#: seconds move only when the algorithm's charges move, never because a
#: profile default was retuned.
MACHINE = MachineProfile(
    name="spine-pinned",
    alpha=3.0e-6,
    gamma=2.0e-7,
    beta=1.0e-9,
    spgemm_flop_time=5.0e-10,
    hash_flop_penalty=2.5,
    spa_cache_entries=1024,
    spa_spill_penalty=3.0,
    spmm_flop_time=1.0e-10,
    symbolic_discount=0.3,
    mem_time=1.0e-11,
    cache_bytes=4.0e7,
    threads=16,
    checkpoint_alpha=2.0e-5,
    checkpoint_beta=1.0e-10,
    recover_alpha=5.0e-5,
    recover_beta=1.0e-10,
)


def digest(*arrays) -> str:
    """Bit-identity fingerprint of a result's arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def csr_digest(m) -> str:
    return digest(m.indptr, m.indices, m.data)


def component_labels(graph) -> np.ndarray:
    """Connected-component label of every vertex (scipy): the oracle
    behind every BFS check on the symmetric graphs used here."""
    return connected_components(graph.to_scipy(), directed=False)[1]


def reachability_keys(labels: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Reference visited set of a multi-source BFS: vertex ``v`` is
    visited from source ``j`` iff both carry the same component label.
    Returned as sorted ``v * d + j`` keys."""
    d = len(sources)
    keys = [
        np.flatnonzero(labels == labels[s]) * d + j for j, s in enumerate(sources)
    ]
    return np.sort(np.concatenate(keys))


def visited_keys(visited) -> np.ndarray:
    return np.sort(visited.row_ids() * visited.ncols + visited.indices)


class Workload:
    """Common shape of the four operation workloads."""

    name = ""
    p = 0

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        #: Seconds of ``setup`` spent on the harness's own work (input
        #: conditioning), which ``setup_s`` does not count.
        self.harness_s = 0.0
        self._first: Optional[str] = None

    def setup(self, rec: Recorder, config: TsConfig) -> None:
        raise NotImplementedError

    def operate(self) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> List[str]:
        raise NotImplementedError

    def facts(self, out: Any) -> Dict[str, float]:
        """Exact, program-reported numbers of one operation."""
        raise NotImplementedError

    def fingerprint(self, out: Any) -> str:
        raise NotImplementedError

    def probe(self, rec: Recorder):
        """(session, operand, owned) for the resident-handle probe, or
        ``None`` when the workload has no session of its own to probe."""
        return None

    def reference(self):
        """(seconds, semiring products) of a plain single-threaded run of
        the whole problem, or ``None``."""
        return None

    def side_by_side(self, e2e: Dict[str, float], layer: Dict[str, float]):
        """Workload-specific per-layer metrics derived from the others."""
        return {}

    def close(self) -> None:
        pass

    def _same_as_first(self, out: Any) -> List[str]:
        fp = self.fingerprint(out)
        if self._first is None:
            self._first = fp
        return [] if fp == self._first else ["output differs between repeats"]


def report_facts(reports) -> Dict[str, float]:
    """Exact communication counts of a list of ``SpmdReport``s."""
    return {
        "mpi.alltoall_rounds": sum(r.alltoall_rounds() for r in reports),
        "mpi.collectives": sum(
            max(rs.totals().collectives for rs in r.rank_stats) for r in reports
        ),
        "mpi.messages": sum(r.total_messages() for r in reports),
        "mpi.comm_bytes": sum(r.total_bytes() for r in reports),
        "mpi.modelled_comm_s": sum(r.comm_time for r in reports),
        "mpi.modelled_compute_s": sum(r.compute_time for r in reports),
    }


class MultiplyOneshot(Workload):
    name = "multiply_oneshot"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.scale, self.d, self.p = (0.0625, 16, 4) if smoke else (4, 128, 16)
        self._expected = None

    def setup(self, rec, config):
        self.config = config
        with rec.span("generate", "data"):
            self.A = load("uk", scale=self.scale, seed=self.seed)
            self.B = tall_skinny(self.A.nrows, self.d, 0.8, seed=self.seed + 1)

    def operate(self):
        return ts_spgemm(
            self.A, self.B, self.p, config=self.config, machine=MACHINE
        )

    def check(self, out):
        if self._expected is None:
            expected = (self.A.to_scipy() @ self.B.to_scipy()).tocsr()
            expected.sum_duplicates()
            expected.sort_indices()
            self._expected = expected
        e, c = self._expected, out.C
        if c.shape != e.shape or not (
            np.array_equal(c.indptr, e.indptr) and np.array_equal(c.indices, e.indices)
        ):
            return ["C pattern differs from scipy A@B"]
        if not np.allclose(c.data, e.data, rtol=1e-10, atol=1e-10):
            return ["C values differ from scipy A@B by more than 1e-10"]
        return self._same_as_first(out)

    def facts(self, out):
        facts = report_facts([out.report])
        facts.update({
            "modelled_s": out.multiply_time,
            "core.multiply_calls": 1,
            "core.local_tiles": out.diagnostics.get("local_tiles", 0),
            "core.remote_tiles": out.diagnostics.get("remote_tiles", 0),
        })
        return facts

    def fingerprint(self, out):
        return csr_digest(out.C)

    def probe(self, rec):
        with rec.span("session_setup", "core"):
            session = TsSession(self.A, self.p, machine=MACHINE)
        return session, self.B, True

    def reference(self):
        t0 = time.perf_counter()
        _, products = dispatch_spgemm(self.A, self.B)
        return time.perf_counter() - t0, products

    def side_by_side(self, e2e, layer):
        """What the one-shot path pays over a resident multiply, and the
        closed form, the executed charges and the SUMMA baseline together."""
        modelled = e2e["modelled_s"]
        stats = ModelWorkload(
            n=self.A.nrows, kA=self.A.nnz / self.A.nrows, d=self.d, b_sparsity=0.8
        )
        closed = ts_spgemm_cost(stats, self.p, machine=MACHINE).runtime
        summa = summa2d(self.A, self.B, self.p, machine=MACHINE).multiply_time
        return {
            "core.oneshot_overhead_s": e2e["wall_s"] - layer["core.resident_multiply_s"],
            "model.closed_form_s": closed,
            "model.closed_form_error_pct": 100.0 * (closed - modelled) / modelled,
            "baselines.summa2d_modelled_s": summa,
            "baselines.modelled_speedup_vs_summa2d": summa / modelled,
        }


class _Msbfs(Workload):
    """Fig 12: MS-BFS on a resident boolean session."""

    def graph(self):
        raise NotImplementedError

    def sources(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def setup(self, rec, config):
        self.config = config
        with rec.span("generate", "data"):
            self.A = self.graph().astype(np.bool_)
            self.src = self.sources(self.A.nrows)
        with rec.span("session_setup", "core"):
            self.session = make_session(
                "TS-SpGEMM", self.A, self.p, semiring=BOOL_AND_OR,
                machine=MACHINE, config=config,
            )
        self._expected = None
        self._levels = None

    def operate(self):
        reports: list = []
        bfs = msbfs_on_session(self.session, self.src, reports=reports)
        return bfs, reports

    def check(self, out):
        bfs, _ = out
        if self._expected is None:
            self._expected = reachability_keys(component_labels(self.A), self.src)
            self._levels = bfs.levels
        problems = []
        if not np.array_equal(visited_keys(bfs.visited), self._expected):
            problems.append("visited set differs from scipy reachability")
        if bfs.levels != self._levels:
            problems.append("level count differs between repeats")
        return problems + self._same_as_first(out)

    def facts(self, out):
        bfs, reports = out
        facts = report_facts(reports)
        facts.update({
            "modelled_s": bfs.total_runtime,
            "core.multiply_calls": bfs.levels,
            "core.driver_bytes": sum(
                it.driver_scatter_bytes + it.driver_gather_bytes
                for it in bfs.iterations
            ),
            "apps.steps": bfs.levels,
        })
        return facts

    def fingerprint(self, out):
        return csr_digest(out[0].visited)

    def probe(self, rec):
        return self.session, bfs_frontier(self.A.nrows, self.src), False

    def reference(self):
        t0 = time.perf_counter()
        frontier = visited = bfs_frontier(self.A.nrows, self.src)
        products = 0
        while frontier.nnz:
            reached, flops = dispatch_spgemm(self.A, frontier, BOOL_AND_OR)
            products += flops
            frontier = pattern_difference(reached, visited)
            visited = ewise_add(visited, reached, BOOL_AND_OR)
        return time.perf_counter() - t0, products

    def close(self):
        self.session.close()


class MsbfsUk(_Msbfs):
    name = "msbfs_uk"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.scale, self.n_sources, self.p = (0.0625, 8, 4) if smoke else (1, 64, 16)
        #: Level count every seed's source set is redrawn to (None = any).
        self.levels = None if smoke else 7

    def graph(self):
        return load("uk", scale=self.scale, seed=self.seed)

    def sources(self, n):
        # A traversal costs one rank program per level, and on this graph
        # family a seeded draw of 64 sources needs 6, 7 or 8 of them — a
        # 15 % swing in wall_s that says nothing about the program.  So
        # the draw is repeated (same generator, so still a function of
        # the seed) until the traversal has the commonest depth.
        rng = np.random.default_rng(self.seed + 2)
        src = rng.choice(n, size=self.n_sources, replace=False)
        if self.levels is not None:
            t0 = time.perf_counter()
            graph = self.A.to_scipy()
            for _ in range(64):
                hops = shortest_path(graph, unweighted=True, indices=src)
                if hops[np.isfinite(hops)].max() + 1 == self.levels:
                    break
                src = rng.choice(n, size=self.n_sources, replace=False)
            self.harness_s = time.perf_counter() - t0
        return src


class MsbfsDeep(_Msbfs):
    name = "msbfs_deep"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.side, self.n_sources, self.p = (8, 3, 4) if smoke else (40, 8, 16)

    def graph(self):
        idx = np.arange(self.side * self.side).reshape(self.side, self.side)
        src = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        dst = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        return from_edges(src, dst, self.side * self.side, symmetric=True)

    def sources(self, n):
        # Vertex 0 (a corner) is always a source, so every seed runs the
        # grid's full 2*(side-1) levels; the other sources are seeded.
        # Without the pin the level count — and with it wall_s — would
        # swing between side and 2*side with the seed.
        rng = np.random.default_rng(self.seed + 2)
        rest = 1 + rng.choice(n - 1, size=self.n_sources - 1, replace=False)
        return np.concatenate([[0], rest])


class EmbedCora(Workload):
    name = "embed_cora"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        self.scale, self.epochs, self.p = (0.2, 2, 4) if smoke else (1.0, 10, 8)

    def setup(self, rec, config):
        self.config = config
        with rec.span("generate", "data"):
            self.adj = load("cora", scale=self.scale, seed=self.seed)

    def operate(self):
        return train_sparse_embedding(
            self.adj, self.p, d=16, sparsity=0.8, epochs=self.epochs,
            config=self.config, machine=MACHINE, seed=self.seed,
        )

    def check(self, out):
        problems = []
        if not np.isfinite(out.Z.data).all():
            problems.append("embedding has non-finite entries")
        if any(e.driver_scatter_bytes or e.driver_gather_bytes for e in out.epochs):
            problems.append("an epoch moved bytes through the driver")
        return problems + self._same_as_first(out)

    def facts(self, out):
        return {
            "modelled_s": out.total_runtime,
            "mpi.alltoall_rounds": sum(e.rounds for e in out.epochs),
            "mpi.comm_bytes": out.total_comm_bytes,
            "core.multiply_calls": len(out.epochs),
            "core.local_tiles": sum(e.local_tiles for e in out.epochs),
            "core.remote_tiles": sum(e.remote_tiles for e in out.epochs),
            "core.driver_bytes": sum(
                e.driver_scatter_bytes + e.driver_gather_bytes for e in out.epochs
            ),
            "apps.steps": len(out.epochs),
            "apps.link_accuracy": out.accuracy,
        }

    def fingerprint(self, out):
        return csr_digest(out.Z)

    def reference(self):
        t0 = time.perf_counter()
        train_sparse_embedding(
            self.adj, 1, d=16, sparsity=0.8, epochs=self.epochs,
            machine=MACHINE, seed=self.seed,
        )
        return time.perf_counter() - t0, 0


OPERATION_WORKLOADS = {
    w.name: w for w in (MultiplyOneshot, MsbfsUk, MsbfsDeep, EmbedCora)
}


class ServeMixed:
    """``QueryService`` under a seeded 0.7/0.2/0.1 BFS/influence/embedding
    mix: a closed loop (one producer, bursts) for throughput and an open
    loop (fixed rate, latency from the due time) for latency."""

    name = "serve_mixed"
    MIX = TrafficMix(bfs=0.7, influence=0.2, embedding=0.1)

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.n, self.p = (60, 2) if smoke else (300, 4)
        self.warmup, self.burst = (10, 40) if smoke else (200, 800)
        # Light load, on purpose.  One BFS batch takes ~22 ms and one
        # influence batch ~45 ms however few queries it holds, so above
        # ~40 queries/s the service is busy most of the time, latency is
        # mostly queueing, and the median of consecutive 9 s windows of one
        # process swings by 17-22 % (measured at 50, 60 and 120 queries/s;
        # 2-3 % at 25 and 30).  At 25/s a query usually finds the service
        # idle - latencies are flat from the 20th to the 70th percentile -
        # and stays so until the service is ~1.8x slower.
        self.rate = 25.0
        self.harness_s = 0.0
        self._first: Optional[str] = None
        self._labels: Optional[np.ndarray] = None

    def setup(self, rec, config):
        with rec.span("generate", "data"):
            self.graph = erdos_renyi(self.n, 6.0, seed=self.seed)
            self.embedding = np.random.default_rng(self.seed + 5).standard_normal(
                (self.n, 8)
            )
            self.burst_queries = self.queries(self.burst, 3)
        with rec.span("session_setup", "core"):
            self.service = QueryService(
                self.graph, self.p, config=config, machine=MACHINE, slots=1,
                batch_width=64, embedding=self.embedding,
            )

    def queries(self, count: int, stream: int):
        """``count`` seeded queries holding the mix exactly (to rounding):
        a longer ``make_queries`` stream, in order, minus the queries of a
        kind whose share is already full.  A plain draw gives 148-177
        influence queries per burst of 800, and they cost the most."""
        drawn = make_queries(
            4 * count + 50, self.n, mix=self.MIX, seed=self.seed + stream,
            sample_pool=4, probability=0.3, priorities=3,
        )
        bfs, influence, _ = self.MIX.normalized()
        room = {"bfs": round(count * bfs), "influence": round(count * influence)}
        room["embedding"] = count - sum(room.values())
        kept = []
        for q in drawn:
            if room[q.kind] > 0:
                room[q.kind] -= 1
                kept.append(q)
        if len(kept) != count:
            raise RuntimeError(f"query stream too short for the mix: {room}")
        return kept

    def closed_loop(self, queries, rec: Recorder, op: Any = None):
        """One producer: submit every query with ``block=True`` (it parks
        if the queue fills; the default 1024-entry queue holds a whole
        burst), then wait for every answer.  Returns the results in
        submit order."""
        submit = self.service.submit
        clock = time.perf_counter
        tickets, stamps = [], [clock()]
        for q in queries:
            tickets.append(submit(q, block=True, timeout=120.0))
            stamps.append(clock())
        results = [t.result(timeout=120.0) for t in tickets]
        for ticket, res, a, b in zip(tickets, results, stamps, stamps[1:]):
            rec.add(
                "query", "serve", a, a + res.latency, op=op,
                qid=ticket.qid, kind=res.kind, submit_s=b - a,
                queue_wait_s=res.queue_wait,
                execute_s=res.latency - res.queue_wait, batch=res.batch_size,
            )
        return results

    def open_loop(self, queries, rec: Recorder):
        """Send at ``self.rate`` regardless of completions.  Each latency
        runs from the instant the query was *due*, so a stalled generator
        or a stalled service both count against later queries.  Returns
        (accepted queries, their results, latencies, generator lateness,
        per-submit seconds, drain seconds after the last send)."""
        submit = self.service.submit
        clock = time.monotonic  # the service stamps accepted_at with it
        gap = 1.0 / self.rate
        t0 = clock() + gap
        sent, tickets, dues, late, submits = [], [], [], [], []
        for i, q in enumerate(queries):
            due = t0 + i * gap
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            began = clock()
            try:
                ticket = submit(q, block=False)
            except OverloadError:
                continue  # refused: missing from ``sent``, counted failed
            submits.append(clock() - began)
            late.append(max(0.0, began - due))
            sent.append(q)
            tickets.append(ticket)
            dues.append(due)
        last = clock()
        results = [t.result(timeout=120.0) for t in tickets]
        drain = clock() - last
        latency = [
            t.accepted_at + r.latency - due
            for t, r, due in zip(tickets, results, dues)
        ]
        shift = time.perf_counter() - clock()
        for ticket, res, due, lat in zip(tickets, results, dues, latency):
            rec.add(
                "query", "serve", due + shift, due + shift + lat, op="open",
                qid=ticket.qid, kind=res.kind, queue_wait_s=res.queue_wait,
                execute_s=res.latency - res.queue_wait, batch=res.batch_size,
            )
        return sent, results, latency, late, submits, drain

    def check(self, queries, results, *, burst: bool = False) -> List[str]:
        """Statuses, a 50-query BFS sample against scipy reachability,
        and bit-identical burst answers between repeats."""
        problems = []
        bad = sum(1 for r in results if not r.ok)
        if bad:
            problems.append(f"{bad} queries not ok")
        sample = [
            (q, r) for q, r in zip(queries, results) if q.kind == "bfs" and r.ok
        ][:50]
        if self._labels is None:
            self._labels = component_labels(self.graph)
        for q, r in sample:
            want = reachability_keys(self._labels, q.sources)
            d = len(q.sources)
            got = np.sort(np.concatenate(
                [rows * d + j for j, rows in enumerate(r.value)]
            ))
            if not np.array_equal(got, want):
                problems.append(f"BFS answer {r.qid} differs from scipy")
                break
        if burst:
            fp = digest(*[
                np.concatenate([np.ravel(v) for v in r.value])
                if isinstance(r.value, list) else np.asarray(r.value)
                for r in results if r.ok
            ])
            if self._first is None:
                self._first = fp
            elif fp != self._first:
                problems.append("burst answers differ between repeats")
        return problems

    def close(self):
        self.service.stop()
