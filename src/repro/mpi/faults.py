"""Deterministic, seeded fault injection for the simulated-MPI runtime.

A :class:`FaultPlan` is an ordered set of :class:`FaultSpec` records, each
naming a failure *kind* and the exact point where it strikes: a rank, and
optionally a task index, a phase name and a sequence number counting the
fault-probe points that rank has passed within the task.  The executor
threads a :class:`FaultInjector` built from the plan into every
:class:`~repro.mpi.comm.SimComm`, which probes it at the entry of every
collective (``crash``/``transient``/``slow``) and before every all-to-all
payload leaves the rank (``corrupt``).  Because the probe points are the
collectives of a deterministic program and the plan is data, every failure
mode is exactly reproducible — the foundation of the recovery test matrix
(``tests/mpi/test_faults.py``, ``tests/core/test_recovery.py``).

Spec grammar (CLI ``--faults``, ``TsConfig(faults=...)``)::

    plan   := spec (';' spec)*
    spec   := kind '@' rank (',' key '=' value)*
    kind   := 'crash' | 'transient' | 'slow' | 'corrupt' | 'permfail'
    key    := 'task' | 'phase' | 'seq' | 'delay'

e.g. ``"crash@1,task=2,seq=3"`` — rank 1's worker dies at its 4th fault
probe of session task 2; ``"slow@0,delay=0.5"`` — rank 0 charges an extra
0.5 modelled seconds at its first probe; ``"corrupt@2,phase=fetch-B"`` —
rank 2's next all-to-all payload in the ``fetch-B`` phase is flipped on
the wire (caught by the opt-in checksums, ``checksum=True``).

Task indices count *every* task the session runs — setup, multiplies,
checkpoints — in submission order; recovery/checkpoint tasks launched by
the driver's retry loop run with injection :meth:`FaultInjector.suspend`\\ ed
so a recovery cannot be re-killed by the fault that triggered it.  Each
spec fires at most once.
"""

from __future__ import annotations

import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .errors import (
    InjectedCrashFault,
    InjectedFault,
    InjectedPermanentFault,
    InjectedTransientFault,
    PayloadCorruptionError,
)

#: Recognized failure kinds.
FAULT_KINDS = ("crash", "transient", "slow", "corrupt", "permfail")

#: Environment variable overriding the executor watchdog timeout (seconds).
TIMEOUT_ENV = "REPRO_SPMD_TIMEOUT"

#: Modelled extra seconds a ``slow`` fault charges when no delay is given.
DEFAULT_SLOW_DELAY = 0.005


def default_timeout() -> float:
    """The watchdog timeout: ``REPRO_SPMD_TIMEOUT``, else 600 s."""
    raw = os.environ.get(TIMEOUT_ENV, "").strip()
    if not raw:
        return 600.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"{TIMEOUT_ENV} must be positive, got {value}")
    return value


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultSpec:
    """One injected failure at a precise (rank, task, phase, seq) point.

    ``None`` constraints are wildcards: the spec fires at the first probe
    matching every non-``None`` field.  ``seq`` counts the fault probes
    the rank has passed within the matching task (collective entries for
    ``crash``/``transient``/``slow``; outgoing all-to-all payloads for
    ``corrupt``), starting at 0.
    """

    kind: str
    rank: int
    task: Optional[int] = None
    phase: Optional[str] = None
    seq: Optional[int] = None
    delay: float = DEFAULT_SLOW_DELAY

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay}")

    def render(self) -> str:
        out = f"{self.kind}@{self.rank}"
        if self.task is not None:
            out += f",task={self.task}"
        if self.phase is not None:
            out += f",phase={self.phase}"
        if self.seq is not None:
            out += f",seq={self.seq}"
        if self.kind == "slow" and self.delay != DEFAULT_SLOW_DELAY:
            out += f",delay={self.delay:g}"
        return out

    def matches(self, rank: int, task: int, phase: str, seq: int) -> bool:
        return (
            self.rank == rank
            and (self.task is None or self.task == task)
            and (self.phase is None or self.phase == phase)
            and (self.seq is None or self.seq == seq)
        )


def _parse_spec(text: str) -> FaultSpec:
    head, _, tail = text.partition(",")
    kind, at, rank_s = head.partition("@")
    if at != "@" or not rank_s:
        raise ValueError(
            f"bad fault spec {text!r}: expected kind@rank[,key=value...]"
        )
    kwargs: Dict[str, object] = {}
    if tail:
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if eq != "=" or key not in ("task", "phase", "seq", "delay"):
                raise ValueError(
                    f"bad fault spec {text!r}: unknown constraint {part!r}"
                )
            if key == "phase":
                kwargs[key] = value.strip()
            elif key == "delay":
                kwargs[key] = float(value)
            else:
                kwargs[key] = int(value)
    return FaultSpec(kind=kind.strip(), rank=int(rank_s), **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of :class:`FaultSpec`."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the semicolon-separated spec grammar (see module doc)."""
        specs = tuple(
            _parse_spec(part.strip())
            for part in (text or "").split(";")
            if part.strip()
        )
        return cls(specs)

    def render(self) -> str:
        return ";".join(s.render() for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


# ----------------------------------------------------------------------
# injector
# ----------------------------------------------------------------------
#: Probe points: collective entry vs outgoing all-to-all payload.
_COLLECTIVE_KINDS = frozenset({"crash", "transient", "slow", "permfail"})
_PAYLOAD_KINDS = frozenset({"corrupt"})


class FaultInjector:
    """Thread-safe runtime half of the plan: counts probes, fires specs.

    One injector is shared by all ranks of a session for its lifetime;
    :meth:`begin_task` advances the task index (called once per
    :meth:`~repro.mpi.executor.SpmdSession.run`), :meth:`fire` is the
    probe.  Every spec fires at most once, ever.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._task = -1
        self._seq: Dict[Tuple[int, str], int] = {}
        self._fired: set = set()
        self._suspended = 0

    @property
    def task(self) -> int:
        return self._task

    def begin_task(self) -> int:
        """Advance to the next task; resets the per-rank probe counters."""
        with self._lock:
            self._task += 1
            self._seq.clear()
            return self._task

    @contextmanager
    def suspend(self):
        """Disable firing (probes still count) — wraps recovery tasks."""
        with self._lock:
            self._suspended += 1
        try:
            yield
        finally:
            with self._lock:
                self._suspended -= 1

    def fire(
        self, rank: int, phase: str, point: str = "collective"
    ) -> Optional[FaultSpec]:
        """Probe: the matching not-yet-fired spec for this point, if any.

        ``point`` selects the eligible kinds: ``"collective"`` probes
        match crash/transient/slow specs, ``"payload"`` probes match
        corrupt specs.  Counters advance regardless of suspension so a
        suspended window does not shift later sequence numbers.
        """
        kinds = _PAYLOAD_KINDS if point == "payload" else _COLLECTIVE_KINDS
        with self._lock:
            key = (rank, point)
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            if self._suspended:
                return None
            for idx, spec in enumerate(self.plan.specs):
                if idx in self._fired or spec.kind not in kinds:
                    continue
                if spec.matches(rank, self._task, phase, seq):
                    self._fired.add(idx)
                    return spec
        return None

    def raise_for(self, spec: FaultSpec, rank: int) -> None:
        """Raise the error a fired crash/transient spec stands for."""
        where = f"(task {self._task}, rank {rank}, spec {spec.render()!r})"
        if spec.kind == "permfail":
            raise InjectedPermanentFault(
                f"injected permanent rank loss {where}", ranks=(rank,), spec=spec
            )
        if spec.kind == "crash":
            raise InjectedCrashFault(
                f"injected rank crash {where}", ranks=(rank,), spec=spec
            )
        if spec.kind == "transient":
            raise InjectedTransientFault(
                f"injected transient collective failure {where}",
                ranks=(rank,),
                spec=spec,
            )
        raise AssertionError(f"spec kind {spec.kind!r} does not raise")


# ----------------------------------------------------------------------
# failure records / classification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RankFailure:
    """Structured record of one recoverable task failure.

    Surfaced on :attr:`repro.mpi.executor.SpmdSession.failures` and on the
    ``failure`` attribute of the :class:`~repro.mpi.errors.RankError` the
    failing :meth:`run` call raises.
    """

    task: int
    rank: int
    kind: str
    error: BaseException = field(compare=False)
    phase: Optional[str] = None
    #: The failed rank will not come back: its worker was not respawned
    #: (permanent fault, or the session's respawn budget is exhausted).
    #: The driver must either shrink the world or declare the session dead.
    shrinkable: bool = False

    def describe(self) -> str:
        where = f" in phase {self.phase!r}" if self.phase else ""
        tail = " [shrinkable]" if self.shrinkable else ""
        return f"task {self.task}: rank {self.rank} {self.kind}{where}{tail}"


def is_recoverable_failure(exc: BaseException) -> bool:
    """True for environment faults a recoverable session survives.

    Injected faults and checksum-detected payload corruption are
    recoverable (resident state is restorable from checkpoints);
    program bugs, sanitizer findings and deadlocks are not.
    """
    return isinstance(exc, (InjectedFault, PayloadCorruptionError))


def failure_kind(exc: BaseException) -> str:
    # permfail first: InjectedPermanentFault subclasses InjectedCrashFault.
    if isinstance(exc, InjectedPermanentFault):
        return "permfail"
    if isinstance(exc, InjectedCrashFault):
        return "crash"
    if isinstance(exc, InjectedTransientFault):
        return "transient"
    if isinstance(exc, PayloadCorruptionError):
        return "corrupt"
    return type(exc).__name__


# ----------------------------------------------------------------------
# payload checksums / corruption
# ----------------------------------------------------------------------
def _iter_leaves(obj) -> Iterable:
    if obj is None:
        return
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            for leaf in _iter_leaves(item):
                yield leaf
        return
    if isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            for leaf in _iter_leaves(obj[key]):
                yield leaf
        return
    # CSR-shaped objects (CsrMatrix and friends) without importing them.
    if hasattr(obj, "indptr") and hasattr(obj, "indices") and hasattr(obj, "data"):
        yield obj.indptr
        yield obj.indices
        yield obj.data
        return
    yield obj


def payload_checksum(obj) -> int:
    """CRC-32 over every array/scalar leaf of a nested payload."""
    crc = 0
    for leaf in _iter_leaves(obj):
        if isinstance(leaf, np.ndarray):
            crc = zlib.crc32(np.ascontiguousarray(leaf).tobytes(), crc)
        else:
            crc = zlib.crc32(repr(leaf).encode("utf-8"), crc)
    return crc


def _corrupt_array(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    flat = out.reshape(-1)
    if np.issubdtype(out.dtype, np.bool_):
        flat[0] = not flat[0]
    else:
        flat[0] = -flat[0] - 1
    return out


def corrupt_payload(obj):
    """``(copy, True)`` with one numeric leaf flipped, else ``(obj, False)``.

    Containers on the path to the corrupted leaf are shallow-copied so
    the sender's resident data is untouched — this models corruption *on
    the wire*, after any checksum was computed.
    """
    import copy as _copy

    if isinstance(obj, np.ndarray):
        if obj.size == 0:
            return obj, False
        return _corrupt_array(obj), True
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        for i, item in enumerate(items):
            new, done = corrupt_payload(item)
            if done:
                items[i] = new
                return (type(obj)(items) if isinstance(obj, tuple) else items), True
        return obj, False
    if isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            new, done = corrupt_payload(obj[key])
            if done:
                out = dict(obj)
                out[key] = new
                return out, True
        return obj, False
    if hasattr(obj, "indptr") and hasattr(obj, "indices") and hasattr(obj, "data"):
        data = np.asarray(obj.data)
        if data.size:
            clone = _copy.copy(obj)
            clone.data = _corrupt_array(data)
            return clone, True
        return obj, False
    return obj, False
