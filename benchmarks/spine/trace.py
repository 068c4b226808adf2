"""Outside instruments of the traced pass: spans, a stack sampler and a
timing kernel.  Nothing here touches ``src/``: every hook goes through a
public function (``register_kernel``, ``resolve_spgemm``) or through the
interpreter (``sys._current_frames``).

Three instruments, all in-memory until the run ends:

``Recorder`` / ``Span``
    Context managers the benchmark wraps around each public call into a
    layer.  A span carries name, layer, start, end, parent and the
    operation (or query) id.  A disabled recorder still times its spans —
    the untraced pass uses them as stopwatches — but keeps none.

``KernelTimer``
    A local-SpGEMM kernel registered as ``"bench-traced"``.  It resolves
    ``"auto"`` exactly as ``dispatch_spgemm`` would and times the real
    kernel with ``time.thread_time`` (CPU seconds of the calling rank
    thread, so time spent waiting for the GIL is not charged to the
    kernel).  Selected with ``TsConfig(kernel="bench-traced")``; the
    product is the real kernel's, bit for bit.  *Thread-safety:* every
    rank thread calls the same instance; the only shared mutation is one
    ``list.append`` of an immutable tuple per call, which is atomic under
    the GIL, and readers (``drain``) run only while no task is in flight.
    The cost model knows no scale for this kernel name, so *modelled*
    compute seconds differ under it — exact modelled numbers are always
    taken from default-config operations, never from traced ones.

``StackSampler``
    A daemon thread that wakes every ``interval`` seconds (default 5 ms,
    nominally 200 Hz; about 120 Hz achieved, because the sampler needs
    the GIL to look) and bins every other thread by the rule:

    * walk the thread's stack from the innermost frame outwards; the
      first frame whose module is ``repro.<package>.…`` names the layer
      ``<package>``;
    * a thread with no ``repro`` frame (the load generator between
      submits, the sampler itself) is not counted;
    * if the innermost Python frame is in ``threading.py`` or
      ``queue.py`` the thread is parked in a lock/condition wait: under
      ``mpi`` that is a rank waiting at a rendezvous, a driver waiting
      for its task, or an idle worker — counted as ``mpi.wait``; under
      any other layer it is an idle client or dispatcher and is left out
      of the shares altogether.

    Shares are over (thread, tick) pairs, so sixteen rank threads weigh
    sixteen times one driver thread.  A sample says where a thread *is*,
    not that it holds the GIL: a thread shown in ``sparse`` may be inside
    numpy or queued for the interpreter, and a "parked" thread may be
    executing the pure-Python ``Barrier``/``Condition`` code on its way
    in or out of a wait rather than blocked in it.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sparse import (
    PLUS_TIMES,
    available_kernels,
    get_kernel,
    register_kernel,
    resolve_spgemm,
)

KERNEL_NAME = "bench-traced"
WAIT = "mpi.wait"
_WAIT_FILES = (threading.__file__, queue.__file__)


class Span:
    """One timed interval; ``seconds`` is valid after the block exits."""

    __slots__ = ("name", "layer", "start", "end", "parent", "op", "tid", "args")

    def __init__(self, name, layer, start, parent, op, tid, args):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.args = args

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store.  ``enabled=False`` times spans but keeps none."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, op: Any = None, **args) -> Iterator[Span]:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(
            name, layer, time.perf_counter(), parent, op,
            threading.get_ident(), args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if self.enabled:
                self.spans.append(span)

    def add(self, name, layer, start, end, *, parent=None, op=None, tid=None, **args):
        """Record an interval measured elsewhere (kernel calls, queries)."""
        if not self.enabled:
            return
        if op is None and parent is not None:
            op = parent.op
        span = Span(
            name, layer, start, parent, op,
            threading.get_ident() if tid is None else tid, args,
        )
        span.end = end
        self.spans.append(span)

    def layer_seconds(self, layer: str, name: Optional[str] = None) -> List[float]:
        return [
            s.seconds for s in self.spans
            if s.layer == layer and (name is None or s.name == name)
        ]

    def write_chrome_trace(self, path) -> None:
        """Dump the spans as Chrome-trace JSON (chrome://tracing, Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        index = {id(s): i for i, s in enumerate(self.spans)}
        tids: Dict[int, int] = {}
        events = []
        for i, s in enumerate(self.spans):
            tid = tids.setdefault(s.tid, len(tids))
            args = dict(s.args, span=i, op=s.op)
            if s.parent is not None:
                args["parent"] = index.get(id(s.parent))
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
                "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class KernelTimer:
    """The ``bench-traced`` kernel: the real ``auto`` kernel, timed."""

    def __init__(self) -> None:
        #: (cpu seconds, semiring products, wall start, wall end, thread id)
        self.calls: List[Tuple[float, int, float, float, int]] = []

    def __call__(self, a, b, semiring=PLUS_TIMES):
        spec = resolve_spgemm("auto", semiring, a, d=b.ncols)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        out = spec.fn(a, b, semiring)
        c1 = time.thread_time()
        self.calls.append(
            (c1 - c0, out[1], w0, time.perf_counter(), threading.get_ident())
        )
        return out

    def drain(self) -> List[Tuple[float, int, float, float, int]]:
        calls, self.calls = self.calls, []
        return calls


def install_kernel_timer() -> KernelTimer:
    """Register the timing kernel once per process and return it (the
    kernel registry is process-wide and refuses duplicates)."""
    if KERNEL_NAME in available_kernels():
        return get_kernel(KERNEL_NAME).fn
    timer = KernelTimer()
    register_kernel(
        KERNEL_NAME, vectorized=True,
        description="benchmark wrapper: resolves 'auto', times the real kernel",
    )(timer)
    return timer


def classify(frame) -> Optional[str]:
    """Layer label of one thread's stack (see the module docstring)."""
    waiting = frame.f_code.co_filename in _WAIT_FILES
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            layer = module.split(".")[1]
            if not waiting:
                return layer
            return WAIT if layer == "mpi" else None
        frame = frame.f_back
    return None


class StackSampler:
    """Periodic ``sys._current_frames()`` sampler (see module docstring)."""

    def __init__(self, interval: float = 0.005):
        self.interval = interval
        self.counts: Counter = Counter()
        self.ticks = 0
        self.seconds = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="spine-sampler", daemon=True
        )

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            for tid, frame in sys._current_frames().items():
                if tid != me:
                    label = classify(frame)
                    if label is not None:
                        self.counts[label] += 1
            self.ticks += 1

    def __enter__(self) -> "StackSampler":
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.seconds = time.perf_counter() - self._t0

    def shares(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {k: v / total for k, v in self.counts.items()} if total else {}


def format_tree(name: str, e2e: Dict[str, float], layer: Dict[str, float]) -> str:
    """Snippet-1-style attribution: total → layers → share of thread
    samples, the largest busy layer flagged, the modelled number beside
    the measured one."""
    get = layer.get
    head = (
        f"{name}: {e2e['wall_s']:.3f} s/op measured, "
        f"{e2e['modelled_s'] * 1e3:.3f} ms modelled"
    )
    if get("core.sim_overhead_x"):
        head += f", {get('core.sim_overhead_x'):.1f}x a plain single-threaded run"
    if get("proc.all_cores_x"):
        head += f", {get('proc.all_cores_x'):.2f}x as long with every core allowed"
    lines = [f"{head} ({get('trace.samples', 0):.0f} thread samples)"]
    shares = {
        k.split(".")[0]: v for k, v in layer.items() if k.endswith(".thread_share")
    }
    busy = sum(shares.values()) or 1.0
    busiest = max(shares, key=shares.get)
    notes = {
        "sparse": (
            f"{get('sparse.kernel_calls', 0):.0f} kernel calls x "
            f"{get('sparse.kernel_us_per_call', 0):.0f} us CPU, "
            f"{get('sparse.products_per_call', 0):.0f} products/call; kernels are "
            f"{get('sparse.kernel_cpu_share', 0) * 100:.1f} % of process CPU"
        ),
        "mpi": (
            f"{get('mpi.alltoall_rounds', 0):.0f} rounds x "
            f"{get('mpi.alltoall_round_ms', 0):.2f} ms = "
            f"{get('mpi.est_rendezvous_share', 0) * 100:.1f} % of wall"
        ),
        "core": f"{get('core.multiply_calls', 0):.0f} session multiplies"
                if get("core.multiply_calls") else "",
        "apps": f"{get('apps.steps', 0):.0f} steps x {get('apps.step_ms', 0):.1f} ms"
                if get("apps.steps") else "",
        "serve": f"{get('serve.batches', 0):.0f} batches of "
                 f"{get('serve.mean_batch_size', 0):.1f}" if get("serve.batches") else "",
    }
    for pkg, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        flag = "  <- BOTTLENECK" if pkg == busiest and share > 0 else ""
        note = f"  ({notes[pkg]})" if notes.get(pkg) else ""
        lines.append(
            f"├─ {pkg:<10}{share * 100:5.1f} % = {share / busy * 100:5.1f} % of busy"
            f"{note}{flag}"
        )
    lines.append(
        f"└─ {'(parked)':<10}{get('mpi.wait_share', 0) * 100:5.1f} %  (in threading.py "
        "under mpi: rank at a rendezvous, driver waiting for its task, idle worker)"
    )
    return "\n".join(lines)
