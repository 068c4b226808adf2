#!/usr/bin/env python3
"""The measurement spine: one command, five wall-clock workloads.

Two ways to call it (both from the repository root):

``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  Prints every metric by name
    with its unit and, as the last line of stdout, one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python3 benchmarks/spine/run.py [--seed N] [--repeats K] [--trace 0|1] [--out FILE]``
    Every workload, each run in its own fresh child process: ``K``
    untraced runs per workload (seeds ``N .. N+K-1``) and one traced run,
    then a table, a per-layer tree per workload and one result JSON that
    ``compare.py`` reads.

See README.md beside this file for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"spine: no program to measure: {ROOT / 'src' / 'repro'} is missing")
# Replace the script directory with its parent so siblings import as
# ``spine.<module>`` (see __init__.py), and measure this checkout's src.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.core import TsConfig  # noqa: E402
from repro.mpi import SpmdSession, payload_nbytes  # noqa: E402

from spine.compare import spread  # noqa: E402
from spine.trace import (  # noqa: E402
    KERNEL_NAME,
    WAIT,
    Recorder,
    StackSampler,
    format_tree,
    install_kernel_timer,
)
from spine.workloads import (  # noqa: E402
    MACHINE,
    OPERATION_WORKLOADS,
    ServeMixed,
    report_facts,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OUT_DIR = HERE / "out"
LAYERS = ("partition", "sparse", "core", "mpi", "apps", "serve")
ALL_CPUS = os.sched_getaffinity(0)


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; with fewer than ``1/(1-q)`` samples this is
    the maximum."""
    return float(np.percentile(np.asarray(values, dtype=float), q * 100, method="higher"))


def summary(values) -> dict:
    """median, min, max, quartiles and n of one run's samples."""
    v = [float(x) for x in values]
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return {"median": median(v), "min": min(v), "max": max(v), "q1": q1, "q3": q3, "n": len(v)}


def confine(cpus) -> None:
    """Restrict every thread of this process — and so every thread and
    child it starts later — to ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:  # the thread ended since the listing
            pass


def all_cores_seconds(operate) -> float:
    """One operation with every thread free to use every allowed core
    (a measured run is confined to one; see README, "One core")."""
    mine = os.sched_getaffinity(0)
    confine(ALL_CPUS)
    try:
        t0 = time.perf_counter()
        operate()
        return time.perf_counter() - t0
    finally:
        confine(mine)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(ALL_CPUS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


class Tally:
    """Operations attempted and failed; a failed check is a failed
    operation, never a crash."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, attempted: int, problems, failed: int = None) -> None:
        """``failed`` defaults to one when there are problems."""
        self.attempted += attempted
        self.failed += (1 if problems else 0) if failed is None else failed
        self.problems.extend(problems)


def repeat_setup(factory, rec: Recorder, smoke: bool):
    """Set up at least seven times (and, while set-up is cheap, up to
    sixty times within two seconds) and keep the last one alive."""
    seconds, workload = [], None
    began = time.perf_counter()
    floor, cap = (2, 2) if smoke else (7, 60)
    while len(seconds) < floor or (
        len(seconds) < cap and time.perf_counter() - began < 2.0
    ):
        if workload is not None:
            workload.close()
        workload = factory()
        t0 = time.perf_counter()
        workload.setup(rec, TsConfig())
        seconds.append(time.perf_counter() - t0 - workload.harness_s)
    return workload, seconds


def timed_operation(w, tally: Tally, rec: Recorder, label: str, op):
    """One operation: timed, then checked outside the timed region.
    Returns ``(span, output)`` — the span also carries the process CPU
    seconds of the operation — or ``None`` if it raised."""
    try:
        cpu0 = time.process_time()
        with rec.span(label, "operation", op=op) as span:
            out = w.operate()
        span.args["cpu_s"] = time.process_time() - cpu0
    except Exception as exc:  # an operation that raises is a failed operation
        tally.record(1, [f"{label} raised {exc!r}"])
        return None
    tally.record(1, w.check(out))
    return span, out


# ----------------------------------------------------------------------
# per-layer probes (traced pass only)
# ----------------------------------------------------------------------
def mpi_probes(p: int, smoke: bool) -> dict:
    """Fixed costs of the simulated runtime at width ``p``, on an idle
    ``SpmdSession``: a no-op task, one all-to-all rendezvous, one barrier,
    and one ``payload_nbytes`` walk of an all-to-all-shaped payload."""
    tasks, inner = (3, 5) if smoke else (15, 20)

    def noop(comm):
        return None

    def alltoalls(comm):
        for _ in range(inner):
            comm.alltoall([comm.rank] * comm.size)

    def barriers(comm):
        for _ in range(inner):
            comm.barrier()

    def task_ms(session, fn) -> float:
        samples = []
        for _ in range(tasks):
            t0 = time.perf_counter()
            session.run(fn)
            samples.append(time.perf_counter() - t0)
        return median(samples) * 1e3

    session = SpmdSession(p, machine=MACHINE)
    try:
        task_ms(session, noop)  # thread warm-up
        noop_ms = task_ms(session, noop)
        round_ms = max(0.0, task_ms(session, alltoalls) - noop_ms) / inner
        barrier_ms = max(0.0, task_ms(session, barriers) - noop_ms) / inner
    finally:
        session.close()
    payload = [
        (np.zeros(9, dtype=np.int64), np.zeros(32, dtype=np.int64), np.zeros(32))
        for _ in range(p)
    ]
    walks = 200 if smoke else 2000
    t0 = time.perf_counter()
    for _ in range(walks):
        payload_nbytes(payload)
    return {
        "mpi.noop_task_ms": noop_ms,
        "mpi.alltoall_round_ms": round_ms,
        "mpi.barrier_ms": barrier_ms,
        "mpi.payload_nbytes_us": (time.perf_counter() - t0) / walks * 1e6,
    }


def resident_probe(w, rec: Recorder) -> dict:
    """scatter → one resident handle multiply → gather, through the
    session's public calls, three times."""
    probe = w.probe(rec)
    if probe is None:
        return {}
    session, operand, owned = probe
    try:
        for _ in range(3):
            with rec.span("scatter", "partition"):
                handle = session.scatter(operand)
            with rec.span("resident_multiply", "core"):
                result = session.multiply(handle, gather=False)
            with rec.span("gather", "partition"):
                result.C.gather()
    finally:
        if owned:
            session.close()
    diag = result.diagnostics
    return {
        "partition.scatter_s": median(rec.layer_seconds("partition", "scatter")),
        "partition.gather_s": median(rec.layer_seconds("partition", "gather")),
        "core.resident_multiply_s": median(rec.layer_seconds("core", "resident_multiply")),
        "core.local_tiles": diag.get("local_tiles", 0),
        "core.remote_tiles": diag.get("remote_tiles", 0),
        "core.driver_bytes": diag["driver_scatter_bytes"] + diag["driver_gather_bytes"],
    }


def kernel_metrics(calls, ops: int, cpu_s: float) -> dict:
    """Per-operation kernel counts and CPU from the timing kernel."""
    n = len(calls)
    products = sum(c[1] for c in calls)
    kernel_cpu = sum(c[0] for c in calls)
    return {
        "sparse.kernel_calls": n / ops,
        "sparse.kernel_empty_calls": sum(1 for c in calls if c[1] == 0) / ops,
        "sparse.kernel_products": products / ops,
        "sparse.products_per_call": products / n if n else 0.0,
        "sparse.kernel_cpu_s": kernel_cpu / ops,
        "sparse.kernel_us_per_call": kernel_cpu / n * 1e6 if n else 0.0,
        "sparse.kernel_cpu_share": kernel_cpu / cpu_s if cpu_s else 0.0,
    }


def sampler_metrics(sampler: StackSampler) -> dict:
    shares = sampler.shares()
    out = {f"{layer}.thread_share": shares.get(layer, 0.0) for layer in LAYERS}
    out["mpi.wait_share"] = shares.get(WAIT, 0.0)
    out["trace.samples"] = sum(sampler.counts.values())
    return out


def record_kernel_spans(rec: Recorder, calls, parent) -> None:
    for cpu, products, start, end, tid in calls:
        rec.add("kernel", "sparse", start, end, parent=parent, tid=tid,
                cpu_s=cpu, products=products)


# ----------------------------------------------------------------------
# the four operation workloads
# ----------------------------------------------------------------------
def run_operations(cls, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    rec = Recorder(enabled=trace)
    tally = Tally()
    w, setups = repeat_setup(lambda: cls(seed, smoke), rec, smoke)
    layer: dict = {}
    try:
        timed_operation(w, tally, rec, "warm-up", -1)
        budget = seconds / 3 if trace else seconds
        floor = 1 if smoke or trace else 3
        spans, out = [], None
        while len(spans) < floor or sum(s.seconds for s in spans) < budget:
            done = timed_operation(w, tally, rec, "operation", len(spans))
            if done is None:
                if tally.failed >= 3:
                    break
                continue
            spans.append(done[0])
            out = done[1]
        if out is None:
            raise RuntimeError(f"{w.name}: no operation succeeded: {tally.problems}")
        walls = [s.seconds for s in spans]
        facts = w.facts(out)
        e2e = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "modelled_s": facts.pop("modelled_s"),
            "served_qps": 1.0 / median(walls),
            "latency_p50_s": median(walls),
        }
        if trace:
            layer, traced_wall = trace_operations(
                w, cls, seed, smoke, rec, tally, budget, out
            )
            layer.update(facts)
            cpu_s = sum(s.args["cpu_s"] for s in spans)
            layer["proc.cpu_s"] = cpu_s / len(walls)
            layer["proc.cpu_per_wall"] = cpu_s / sum(walls)
            layer["trace.overhead_x"] = traced_wall / e2e["wall_s"]
            layer["proc.all_cores_x"] = layer["proc.all_cores_wall_s"] / e2e["wall_s"]
            steps = layer.get("apps.steps", 0)
            layer["apps.step_ms"] = e2e["wall_s"] / steps * 1e3 if steps else 0.0
            layer.update(w.side_by_side(e2e, layer))
            ref = layer.get("sparse.reference_s", 0.0)
            layer["core.sim_overhead_x"] = e2e["wall_s"] / ref if ref else 0.0
            layer["mpi.est_rendezvous_share"] = (
                layer.get("mpi.alltoall_rounds", 0)
                * layer["mpi.alltoall_round_ms"] / 1e3 / e2e["wall_s"]
            )
    finally:
        w.close()
    return finish(w.name, seed, seconds, trace, e2e, layer, tally, rec,
                  {"wall_s": summary(walls), "setup_s": summary(setups)})


def trace_operations(w, cls, seed, smoke, rec, tally, budget, base_out):
    """The instrumented part of a traced run: operations under the timing
    kernel and the stack sampler, then the probes.  Returns the per-layer
    metrics and the median traced operation time."""
    timer = install_kernel_timer()
    traced = cls(seed, smoke)
    traced.setup(rec, TsConfig(kernel=KERNEL_NAME))
    layer: dict = {}
    try:
        timer.drain()
        calls, walls = [], []
        cpu0 = time.process_time()
        with StackSampler() as sampler:
            while not walls or (len(walls) < 2 and sum(walls) < budget):
                done = timed_operation(traced, tally, rec, "traced-operation", len(walls))
                if done is None:
                    break
                span, out = done
                walls.append(span.seconds)
                mine = timer.drain()
                record_kernel_spans(rec, mine, span)
                calls.extend(mine)
                if traced.fingerprint(out) != w.fingerprint(base_out):
                    tally.record(0, ["timing kernel changed the output"], failed=1)
        cpu_s = time.process_time() - cpu0
        if walls:
            layer.update(kernel_metrics(calls, len(walls), cpu_s))
            layer.update(sampler_metrics(sampler))
    finally:
        traced.close()
    layer.update(resident_probe(w, rec))
    reference = w.reference()
    if reference is not None:
        ref_s, products = reference
        layer["sparse.reference_s"] = ref_s
        layer["sparse.reference_products_per_s"] = products / ref_s
    layer.update(mpi_probes(w.p, smoke))
    layer["proc.all_cores_wall_s"] = all_cores_seconds(w.operate)
    return layer, median(walls) if walls else 0.0


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    rec = Recorder(enabled=trace)
    tally = Tally()
    w, setups = repeat_setup(lambda: ServeMixed(seed, smoke), rec, smoke)
    layer: dict = {}
    try:
        warm, _ = serve_burst(w, w.queries(w.warmup, 7), rec, tally, "warm-up", burst=False)
        # Closed loop: bursts for a quarter of the window (a third when traced).
        budget = seconds / 3 if trace else 0.25 * seconds
        floor = 1 if trace else 2
        walls, rates, modelled = [], [], []
        while len(walls) < floor or sum(walls) < budget:
            before = w.service.metrics.snapshot()["modelled_seconds"]
            span, answered = serve_burst(w, w.burst_queries, rec, tally, len(walls))
            walls.append(span.seconds)
            rates.append(answered / span.seconds)
            modelled.append(w.service.metrics.snapshot()["modelled_seconds"] - before)
        e2e = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "modelled_s": median(modelled),
            "served_qps": median(rates),
        }
        detail = {"wall_s": summary(walls), "setup_s": summary(setups),
                  "served_qps": summary(rates)}
        if trace:
            layer, detail["open_loop"] = trace_serve(
                w, seed, smoke, rec, tally, seconds, e2e["wall_s"]
            )
            layer["mpi.est_rendezvous_share"] = (
                layer["mpi.alltoall_rounds"] * layer["mpi.alltoall_round_ms"] / 1e3
                / (warm.seconds + sum(walls))
            )
            layer["proc.all_cores_wall_s"] = all_cores_seconds(
                lambda: w.closed_loop(w.burst_queries, rec)
            )
            layer["proc.all_cores_x"] = layer["proc.all_cores_wall_s"] / e2e["wall_s"]
        else:
            # Open loop for the rest of the window: fixed rate, latency
            # from the due time.
            n_open = max(20 if smoke else 120, int(w.rate * (seconds - sum(walls))))
            detail["open_loop"] = serve_open(w, n_open, rec, tally)
        e2e["latency_p50_s"] = detail["open_loop"]["latency"]["median"]
        ledger(w.service, tally)
    finally:
        w.close()
    return finish(w.name, seed, seconds, trace, e2e, layer, tally, rec, detail)


def serve_burst(w, queries, rec, tally, op, burst=True):
    """One closed-loop burst, checked; returns (span, queries answered)."""
    with rec.span("burst", "operation", op=op) as span:
        results = w.closed_loop(queries, rec, op)
    problems = w.check(queries, results, burst=burst)
    answered = sum(1 for r in results if r.ok)
    tally.record(len(queries), problems,
                 failed=(len(queries) - answered) or (1 if problems else 0))
    return span, answered


def serve_open(w, count: int, rec, tally) -> dict:
    """One open-loop segment of ``count`` queries at ``w.rate``."""
    queries = w.queries(count, 4)
    with rec.span("open-loop", "operation", op="open"):
        sent, results, latency, late, submits, drain = w.open_loop(queries, rec)
    problems = w.check(sent, results)
    refused = count - len(sent)
    if refused:
        problems.append(f"open loop: {refused} queries refused")
    not_ok = sum(1 for r in results if not r.ok)
    tally.record(count, problems, failed=(refused + not_ok) or (1 if problems else 0))
    return {
        "rate_qps": w.rate,
        "latency": summary(latency),
        "p95_s": quantile(latency, 0.95),
        "generator_late_p99_s": quantile(late, 0.99),
        "drain_s": drain,
        "queue_wait_p50_s": median([r.queue_wait for r in results]),
        "execute_p50_s": median([r.latency - r.queue_wait for r in results]),
        "submit_us": median(submits) * 1e6,
    }


def ledger(service, tally: Tally) -> None:
    """Exactly-once: everything accepted was delivered, nothing twice."""
    service.drain(timeout=60.0)
    snap = service.metrics.snapshot()
    lost = abs(snap["accepted"] - snap["delivered"])
    if lost or snap["duplicates"]:
        tally.record(0, [f"accepted {snap['accepted']}, delivered "
                         f"{snap['delivered']}, duplicates {snap['duplicates']}"],
                     failed=lost + snap["duplicates"])


def trace_serve(w, seed, smoke, rec, tally, seconds, base_wall):
    """A second service on the timing kernel, under the sampler: one
    burst and a short open loop, every query a span.  Returns the
    per-layer metrics and the open loop's statistics."""
    timer = install_kernel_timer()
    traced = ServeMixed(seed, smoke)
    traced.setup(rec, TsConfig(kernel=KERNEL_NAME))
    try:
        serve_burst(traced, traced.queries(traced.warmup, 7), rec, tally, "warm-up",
                    burst=False)
        timer.drain()
        cpu0 = time.process_time()
        with StackSampler() as sampler:
            span, _ = serve_burst(traced, traced.burst_queries, rec, tally, "traced")
            calls = timer.drain()
            cpu_s = time.process_time() - cpu0
            n_open = max(20 if smoke else 120, int(traced.rate * seconds / 4))
            open_stats = serve_open(traced, n_open, rec, tally)
        record_kernel_spans(rec, calls, span)
        record_kernel_spans(rec, timer.drain(), None)
        ledger(traced.service, tally)
        snap = traced.service.metrics.snapshot()
    finally:
        traced.close()
    layer = kernel_metrics(calls, 1, cpu_s)
    layer.update(sampler_metrics(sampler))
    layer.update(mpi_probes(w.p, smoke))
    # Exact communication counts come from the default-config service
    # (its whole life so far: warm-up plus the bursts above).
    layer.update(report_facts([w.service.metrics.modelled_report()]))
    for key in ("batches", "mean_batch_size", "max_queue_depth", "rejected",
                "shed", "expired", "failed", "duplicates"):
        layer[f"serve.{key}"] = snap[key]
    for key in ("submit_us", "queue_wait_p50_s", "execute_p50_s", "generator_late_p99_s"):
        layer[f"serve.{key}"] = open_stats[key]
    layer["serve.latency_p95_s"] = open_stats["p95_s"]
    layer["serve.open_drain_s"] = open_stats["drain_s"]
    layer["proc.cpu_s"] = cpu_s
    layer["proc.cpu_per_wall"] = cpu_s / span.seconds
    layer["trace.overhead_x"] = span.seconds / base_wall
    return layer, open_stats


# ----------------------------------------------------------------------
# one run → one record
# ----------------------------------------------------------------------
def finish(name, seed, seconds, trace, e2e, layer, tally, rec, detail) -> dict:
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unknown = [k for k in layer if k not in PER_LAYER]
    if set(e2e) != set(E2E) or unknown:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {set(e2e) ^ set(E2E)} {unknown}"
        )
    if trace:
        layer["data.generate_s"] = median(rec.layer_seconds("data", "generate"))
        sessions = rec.layer_seconds("core", "session_setup")
        layer["core.session_setup_s"] = median(sessions) if sessions else 0.0
    # Every registered per-layer metric is emitted; 0 = does not apply here.
    layer = {k: float(layer.get(k, 0.0)) for k in PER_LAYER}
    trace_file = None
    if trace and rec.spans:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
        rec.write_chrome_trace(trace_file)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "end_to_end": e2e,
        "per_layer": layer if trace else {},
        "samples": detail,
        "chrome_trace": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "environment": dict(ENVIRONMENT, cpus_used=sorted(os.sched_getaffinity(0))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if name == ServeMixed.name:
        return run_serve(seed, seconds, trace, smoke)
    return run_operations(OPERATION_WORKLOADS[name], seed, seconds, trace, smoke)


def emitted(record: dict):
    """(registry, values) of the metric set a run emits: per-layer when
    traced, end-to-end otherwise."""
    if record["trace"]:
        return PER_LAYER, record["per_layer"]
    return E2E, record["end_to_end"]


def contract_line(record: dict) -> str:
    """The last line of stdout: exactly the keys the driver reads."""
    spec, values = emitted(record)
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": spec[k]["unit"]} for k in spec},
    })


def print_record(record: dict) -> None:
    spec, values = emitted(record)
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops_attempted={record['attempted']} ops_failed={record['failed']}")
    for k in spec:
        print(f"{k:<40}{values[k]:>16.6g} {spec[k]['unit']}")
    open_loop = record["samples"].get("open_loop")
    if open_loop:
        print(f"# open loop at {open_loop['rate_qps']:.0f} q/s, n={open_loop['latency']['n']}: "
              f"p95 {open_loop['p95_s']:.4f} s, generator p99 lateness "
              f"{open_loop['generator_late_p99_s']:.4f} s, drained in {open_loop['drain_s']:.2f} s")
    for problem in record["problems"]:
        print(f"! {problem}")
    if record["trace"]:
        print(format_tree(record["workload"], record["end_to_end"], record["per_layer"]))
        print(f"chrome trace: {record['chrome_trace']}")


# ----------------------------------------------------------------------
# every workload, each in a fresh child process
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"run-{name}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(out.read_text())["runs"][0]


def print_summary(runs) -> None:
    for name in WORKLOADS:
        untraced = [r for r in runs if r["workload"] == name and not r["trace"]]
        if untraced:
            print(f"\n== {name}: {len(untraced)} untraced run(s), "
                  f"{sum(r['failed'] for r in untraced)} of "
                  f"{sum(r['attempted'] for r in untraced)} operations failed")
            for k, m in E2E.items():
                values = [r["end_to_end"][k] for r in untraced]
                line = f"{k:<16}{statistics.median(values):>14.6g} {m['unit']:<4}"
                if len(values) > 1:
                    s = spread(values)
                    flag = "  <- wider than a third of the bound" if s > m["bound"] / 3 else ""
                    line += (f" min {min(values):.6g} max {max(values):.6g} "
                             f"spread {s * 100:.2f} % of bound {m['bound'] * 100:.0f} %{flag}")
                print(line)
        for r in runs:
            if r["workload"] == name and r["trace"]:
                print()
                print_record(r)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (all-workloads mode)")
    parser.add_argument("--out", type=Path, help="write the run record(s) as JSON")
    parser.add_argument("--smoke", action="store_true", help="toy sizes (self-test)")
    args = parser.parse_args(argv)

    single = args.workload is not None and args.trace is not None
    if single:
        # One core for the whole run: on this program cross-core GIL
        # hand-offs cost 2-3x and make the host's mood the largest term
        # (README, "One core").  The traced pass measures the difference.
        confine({min(ALL_CPUS)})
        runs = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)]
        print_record(runs[0])
    else:
        runs = []
        for name in [args.workload] if args.workload else WORKLOADS:
            if args.trace in (None, 0):
                for k in range(args.repeats):
                    runs.append(run_child(name, args.seed + k, args.seconds, 0, args.smoke))
            if args.trace in (None, 1):
                runs.append(run_child(name, args.seed, args.seconds, 1, args.smoke))
        print_summary(runs)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"schema": 1, "environment": ENVIRONMENT, "runs": runs}, indent=1))
    if single:
        print(contract_line(runs[0]))
    return 0


ENVIRONMENT = environment()

if __name__ == "__main__":
    sys.exit(main())
