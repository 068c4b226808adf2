"""High-level drivers: run a whole distributed multiply from global inputs.

Library users, examples and benchmarks can write::

    from repro import ts_spgemm
    result = ts_spgemm(A, B, p=64)
    result.C          # the global product (CsrMatrix)
    result.runtime    # modelled seconds (max virtual clock)
    result.report     # per-phase traffic / time decomposition

A one-shot call is one multiply on a fresh :class:`TsSession`: *setup*
(input distribution, building the Ac column copy, preparing the plan) is
the session's own task, and the result reports the multiply task alone —
the paper's timing scope, the same one SUMMA's one-shots report.
"""

from __future__ import annotations

import time as _time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..mpi.costmodel import PERLMUTTER, MachineProfile
from ..mpi.errors import RankError, ShrinkRefusedError
from ..mpi.executor import ResidentSession, SpmdResult
from ..mpi.faults import FaultInjector, FaultPlan, RankFailure
from ..mpi.payload import payload_nbytes
from ..mpi.stats import SpmdReport, merge_reports, project_report
from ..partition.block1d import Block1D, shrunk_partition
from ..partition.distmat import (
    DistDenseMatrix,
    DistHandle,
    DistSparseMatrix,
    RowBlock,
    _hstack_blocks,
    _vstack_tagged,
    row_block,
    stack_blocks,
)
from ..sparse.csr import CsrMatrix
from ..sparse.ops import extract_row_range, mask_entries, mask_pattern
from ..sparse.semiring import PLUS_TIMES, Semiring
from ..sparse.tile import ColumnStrips
from .config import DEFAULT_CONFIG, TsConfig
from .plan import prepare_multiply
from .spmm import spmm_multiply
from .tiled import exchange_sections, tiled_multiply

#: Phase names whose wire bytes the fused communication layer
#: (``TsConfig.fuse_comm``) conserves exactly: the tiled multiply's fused
#: sections (modes, coalesced fetch-B/send-C), the SDDMM prologue's fetch
#: and the values-only refresh round.  The fused-comm test suite and the
#: CI benchmark assert byte equality over exactly this set — a new fused
#: section name belongs here so both gates keep covering it.
FUSED_SECTION_PHASES = (
    "fetch-B",
    "send-C",
    "symbolic",
    "sddmm-fetch",
    "refresh-values",
)

#: Task retry budget per session call in recoverable mode: a task is
#: re-submitted after at most this many recoverable faults.
MAX_RETRIES = 2

@dataclass
class MultiplyResult:
    """Outcome of one distributed multiply.

    ``C`` is the global product (a :class:`CsrMatrix`) or, for
    ``gather=False`` session multiplies, the rank-resident
    :class:`~repro.partition.distmat.DistHandle`; ``report`` carries the
    modelled clocks and per-phase traffic; ``diagnostics`` merges the
    per-rank algorithm counters (tile modes, flops, peak received-B
    bytes).  ``extra`` holds the handles produced by a session
    multiply's rank-local ``epilogue``, if one ran.
    """

    C: Any
    report: SpmdReport
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    extra: Any = None

    @property
    def runtime(self) -> float:
        """Modelled end-to-end seconds (max per-rank virtual clock)."""
        return self.report.runtime

    @property
    def multiply_time(self) -> float:
        """Modelled seconds of the multiply (the paper's timing scope:
        setup ran as its own task and is not in this report)."""
        return self.report.runtime

    @property
    def comm_time(self) -> float:
        """Modelled communication seconds (max per rank)."""
        return self.report.comm_time

    def comm_bytes(self) -> int:
        """Bytes moved by the multiply, all ranks."""
        return self.report.total_bytes()

    @property
    def rounds(self) -> int:
        """All-to-all exchanges this multiply performed (the α·rounds
        term the fused communication layer collapses; a fused
        multi-section exchange counts once)."""
        return self.report.alltoall_rounds()


def _resident_state(dist_a: DistSparseMatrix, config: TsConfig) -> tuple:
    """One rank's resident state for its rows, local block and ``Ac``
    column copy: ``(rows, local, col_copy, prepared, aux)``, the plan
    prepared and the consumer strips taken — the one way setup,
    edge-subset derivation and shrink build it.  ``aux`` is the per-rank
    scratch for pattern-derived caches that prologues build lazily (SDDMM
    send lists); it starts empty, since those caches follow the pattern
    and the partition, and survives same-pattern value refreshes."""
    prepared = prepare_multiply(dist_a, config)
    prepared.ensure_strips(dist_a)
    return dist_a.rows, dist_a.local, dist_a.col_copy, prepared, {}


def _merge_diag(dicts) -> Dict[str, Any]:
    """Sum per-rank diagnostic counters; max for peak quantities."""
    out: Dict[str, Any] = {}
    for dd in dicts:
        for k, v in dd.items():
            if k.startswith("peak_"):
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    return out


# ----------------------------------------------------------------------
def ts_spgemm(
    A: CsrMatrix,
    B: CsrMatrix,
    p: int,
    *,
    semiring: Semiring = PLUS_TIMES,
    config: TsConfig = DEFAULT_CONFIG,
    machine: MachineProfile = PERLMUTTER,
) -> MultiplyResult:
    """Distributed TS-SpGEMM ``C = A · B`` over ``semiring`` on ``p`` ranks
    (Alg 2, the paper's contribution).

    Alg 1, the naive baseline, is
    :func:`repro.baselines.petsc1d.petsc1d` (registry name ``PETSc-1D``).
    The call is one multiply on a fresh :class:`TsSession`.
    """
    with TsSession(A, p, semiring=semiring, config=config, machine=machine) as s:
        return s.multiply(B)


class ResidentOperand:
    """One rank's view of a session's resident ``A`` inside a rank program.

    Handed to :meth:`TsSession.multiply`'s ``prologue`` so rank-local code
    can *read* the resident operand (``local``, ``col_copy``, ``dist``)
    and *refresh its values in place* before the multiply runs — the
    distributed-SDDMM pattern, where each epoch's coefficients are
    computed on the row owners and only then flow into the multiply.
    ``aux`` is a per-rank scratch dict for pattern-derived caches (SDDMM
    send lists); it survives value refreshes and is reset whenever the
    session's pattern changes.
    """

    __slots__ = ("dist", "prepared", "aux")

    def __init__(self, dist: DistSparseMatrix, prepared, aux: Dict[str, Any]):
        self.dist = dist
        self.prepared = prepared
        self.aux = aux

    @property
    def local(self) -> CsrMatrix:
        return self.dist.local

    @property
    def rows(self) -> Block1D:
        return self.dist.rows

    def cache(self, key: str, value: Any) -> Any:
        """Register a pattern-derived cache entry on the per-rank scratch.

        The registered write is the one sanctioned way (spmdlint S7) for
        rank programs to stash derived state on the resident operand:
        entries registered here are part of the checkpointed resident
        state, so a recovered rank sees the same caches it would have
        rebuilt.  Returns ``value`` for call-site chaining.
        """
        self.aux[key] = value
        return value

    def refresh_values(self, new_data: np.ndarray) -> None:
        """Replace the resident block's values; pattern must be unchanged.

        The rank-resident analogue of :meth:`TsSession.update_operand`:
        the local row block takes ``new_data`` directly, and the ``Ac``
        column copy is refreshed through a genuine *values-only* strip
        all-to-all — the pattern already lives on every consumer, so only
        the ``nnz`` new values travel, charged under ``refresh-values``
        (multiply time, not setup: iterative drivers pay this every refresh).
        Replacing the column copy is the whole refresh of the subtiles —
        they are read off it; the prepared plan reloads its strip values
        and everything pattern-derived survives untouched.  Which of my
        values go to which peer is read off the split the plan keeps
        (:attr:`~repro.sparse.tile.ColumnStrips.selections`, in the data
        order of the strips ``build_column_copy`` shipped).
        """
        comm = self.dist.comm
        local = self.dist.local
        new_data = np.asarray(new_data)
        if new_data.shape != local.data.shape:
            raise ValueError(
                f"refresh_values needs {local.data.shape} values, "
                f"got {new_data.shape}"
            )
        self.dist.local = CsrMatrix(
            local.shape, local.indptr, local.indices, new_data, check=False
        )
        with comm.phase("refresh-values"):
            received = comm.alltoall(
                [new_data[sel] for sel in self.prepared.strips.selections]
            )
            cc = self.dist.col_copy
            new_col = (
                np.concatenate(received)
                if received
                else np.zeros(0, dtype=new_data.dtype)
            )
            if len(new_col) != cc.nnz:
                raise ValueError("refresh_values requires an identical A pattern")
            # Received chunks arrive in sender-rank order — the same
            # order _vstack_tagged stacked the original strips — so
            # the concatenation is aligned with col_copy's data.
            self.dist.col_copy = CsrMatrix(
                cc.shape, cc.indptr, cc.indices, new_col, check=False
            )
            comm.charge_touch(new_data.nbytes + new_col.nbytes)
        self.prepared.refresh_values(self.dist)


class FusedPrologue:
    """A multiply prologue whose fetch round can fuse into the multiply's
    combined all-to-all (``TsConfig.fuse_comm``).

    A plain callable prologue runs *before* the multiply and pays its own
    exchange rounds.  Subclasses of this class instead split the work:

    * :meth:`sections` returns the prologue's send payloads as tagged
      sections ``[(phase_name, sendlist), ...]`` — shipped inside the
      multiply's single fused exchange (the FusedMM fusion of the SDDMM
      row fetch with ``fetch-B``);
    * :meth:`finish` receives the per-section results and completes the
      prologue — e.g. computes coefficients and refreshes the resident
      operand's values in place — before any value-dependent multiply
      compute runs.

    Instances are shared by all rank threads: keep per-rank state in
    ``operand.aux``, never on ``self``.  :meth:`__call__` provides the
    unfused fallback (each section as its own exchange, then ``finish``),
    so the same object works with ``fuse_comm`` on or off — the ablation
    contract's bit-identity hinges on ``sections``/``finish`` not caring
    which transport delivered the payloads.
    """

    def sections(self, comm, operand: ResidentOperand, *operand_blocks):
        """Return ``[(name, sendlist), ...]`` for the fused exchange."""
        raise NotImplementedError

    def finish(self, comm, operand: ResidentOperand, received, *operand_blocks):
        """Complete the prologue from ``received[name][src_rank]`` payloads."""
        raise NotImplementedError

    def __call__(self, comm, operand: ResidentOperand, *operand_blocks) -> None:
        received, _ = exchange_sections(
            comm, self.sections(comm, operand, *operand_blocks), fuse=False
        )
        self.finish(comm, operand, received, *operand_blocks)


class _FusedPrologueShim:
    """Adapter binding a :class:`FusedPrologue` to one rank's operand and
    blocks, matching the two-method hook ``tiled_multiply`` expects."""

    __slots__ = ("prologue", "operand", "blocks")

    def __init__(self, prologue: FusedPrologue, operand: ResidentOperand, blocks):
        self.prologue = prologue
        self.operand = operand
        self.blocks = blocks

    def sections(self, comm):
        return self.prologue.sections(comm, self.operand, *self.blocks)

    def finish(self, comm, received):
        self.prologue.finish(comm, self.operand, received, *self.blocks)


class TsSession(ResidentSession):
    """A resident distributed-multiply session: setup paid once, reused.

    ``ts_spgemm`` is one multiply on a fresh session — every call
    re-scatters ``A``, rebuilds the ``Ac`` column copy and re-prepares
    from scratch.  Iterative applications (one multiply per BFS level /
    training epoch against the *same* ``A``) instead create one session:

    >>> session = TsSession(A, p=16)
    >>> c1 = session.multiply(B1).C
    >>> c2 = session.multiply(B2).C   # replan only; no re-scatter/re-prepare

    The session owns a resident :class:`~repro.mpi.executor.SpmdSession`
    — ``p`` worker threads started once and fed one task per multiply,
    instead of spawning ``p`` fresh threads per level.  Each task gets
    fresh clocks and statistics, so every :class:`MultiplyResult` reports
    only that multiply's incremental cost — the accounting the
    per-iteration traces of Fig 12/13 need.  The constructor's task
    distributes ``A``, builds ``Ac`` and the per-rank
    :class:`~repro.core.plan.PreparedA`; its modelled cost is recorded in
    ``setup_report``.

    **Distributed handles.**  ``multiply`` accepts *and* produces
    rank-resident operands (:class:`~repro.partition.distmat.DistHandle`):

    >>> h = session.scatter(B0)                    # scatter once
    >>> h = session.multiply(h, gather=False).C    # stays on-rank
    >>> h = session.multiply(h, gather=False).C    # chains, zero driver I/O
    >>> C = h.gather()                             # explicit exit point

    One handle type carries either kind of row block: ``scatter`` of an
    ndarray mints a dense handle, and a dense ``B`` — driver-resident or
    on-rank — runs the §V-C SpMM comparator on the same 1-D pattern.

    With ``multiply(..., charge_driver=True)`` a driver-resident ``B``
    is charged as a root scatter (phase ``scatter-B``) and
    ``gather=True`` charges the root gather of ``C`` (``gather-C``):
    the real per-multiply driver round-trip the handle path eliminates,
    surfaced as ``diagnostics['driver_scatter_bytes']`` /
    ``['driver_gather_bytes']`` (both zero on a pure handle chain).  By
    default the distribution stays free, matching :func:`ts_spgemm`'s
    pre-distributed-input convention.

    :meth:`update_operand` supports operands whose *values* drift while
    the pattern is stable (the embedding's coefficient matrix);
    :meth:`derive_edge_subset` mints a child session for an edge
    subsample of the resident graph (influence maximization's live-edge
    samples) without re-scattering or re-preparing from scratch.

    Sessions hold OS threads: :meth:`close` them when done (``with``
    blocks work too); a failed task kills the session, which then refuses
    further multiplies — like a communicator after ``MPI_Abort``.
    """

    def __init__(
        self,
        A: CsrMatrix,
        p: int,
        *,
        semiring: Semiring = PLUS_TIMES,
        config: TsConfig = DEFAULT_CONFIG,
        machine: MachineProfile = PERLMUTTER,
        row_bounds: Optional[Tuple[int, ...]] = None,
    ):
        if A.nrows != A.ncols:
            raise ValueError(f"need a square A, got {A.shape}")
        injector = (
            FaultInjector(FaultPlan.parse(config.faults))
            if config.faults
            else None
        )
        # config.sanitize=False defers to the REPRO_SANITIZE env switch.
        super().__init__(
            p,
            machine,
            sanitize=config.sanitize or None,
            recoverable=config.recoverable,
            injector=injector,
            checksum=config.checksum,
            respawn_budget=config.respawn_budget,
        )
        # ``row_bounds`` pins an explicit (possibly unbalanced) contiguous
        # partition — the shape a shrink leaves behind.  Tests use it to
        # build a fresh reference session at a shrunken session's exact
        # layout, where float outputs are bit-comparable.
        self._init_fields(
            semiring, config, injector, A.ncols,
            Block1D(A.nrows, p, bounds=row_bounds),
            A if config.recoverable else None,
        )
        self.setup_report = self._setup(A)

    def _init_fields(
        self,
        semiring: Semiring,
        config: TsConfig,
        injector: Optional[FaultInjector],
        ncols: int,
        rows: Block1D,
        driver_input: Optional[CsrMatrix],
    ) -> None:
        """Set every per-session field past the executor's — the one field
        list of a session, fresh or derived (:meth:`derive_edge_subset`),
        with no resident state yet."""
        self.semiring = semiring
        self.config = config
        self.ncols = ncols
        self._rows = rows
        self.multiplies = 0
        self.setup_report: Optional[SpmdReport] = None
        self._state: Optional[list] = None
        self._pattern: Optional[tuple] = None
        self._edge_ids: Optional[list] = None
        # Resilience bookkeeping (docs/resilience.md).  ``_input`` keeps
        # the driver's copy of the operand alive only in recoverable mode:
        # it is the rebuild source of the checkpoint="off" ablation.  A
        # derived session has none, so its recovery needs checkpoint != "off".
        self._recoverable = config.recoverable
        self._injector = injector
        self._input = driver_input
        self._ckpt: Optional[list] = None
        self.retries = 0
        self.recoveries = 0
        self.checkpoint_bytes = 0
        self.recover_bytes = 0
        self.recovery_events: List[RankFailure] = []
        # Elastic degraded-mode bookkeeping (docs/resilience.md):
        # ``shrinks`` counts completed world shrinks, ``shrink_bytes`` the
        # replica + handle bytes they migrated, ``shrink_events`` the
        # shrinkable failures that triggered them.  ``_handles`` tracks
        # every live rank-resident handle this session minted, so a
        # shrink can remap them in place (weakly: a handle the caller
        # dropped needs no migration).  A derived session cannot shrink
        # (shrink() refuses a shared executor), but reporting reads the
        # fields uniformly.
        self.shrinks = 0
        self.shrink_bytes = 0
        self.shrink_events: List[RankFailure] = []
        self._handles: "weakref.WeakSet" = weakref.WeakSet()

    #: Registry session-contract capability: this session accepts and
    #: mints rank-resident DistHandles (scatter / gather=False /
    #: epilogue / charge_driver) — iterative drivers dispatch on this,
    #: not on the concrete class.
    supports_handles = True

    # ------------------------------------------------------------------
    def _setup(self, A: CsrMatrix) -> SpmdReport:
        """Distribute ``A`` and prepare it; commit and checkpoint the new
        pattern's state."""

        def program(comm):
            # Slice by the session's partition, not the balanced default:
            # after a shrink (or under the ``row_bounds`` hook) the blocks
            # are contiguous but unbalanced.
            dist_a = DistSparseMatrix.scatter_rows(comm, A, rows=self._rows)
            dist_a.build_column_copy()
            return _resident_state(dist_a, self.config)

        result = self._run_resilient(program)
        self._pattern = (A.indptr, A.indices)
        self._edge_ids = None
        self._release_ckpt()  # replicas of any previous pattern are stale
        return self._commit(result)

    def _commit(self, result: SpmdResult, values: Optional[list] = None) -> SpmdReport:
        """Store a state-changing task's per-rank state — ``values``, by
        default the task's own return values — and checkpoint it: the one
        path new resident state takes.  Returns the task's report merged
        with the checkpoint's."""
        self._state = list(result.values if values is None else values)
        ckpt_report = self._checkpoint()
        if ckpt_report is None:
            return result.report
        return merge_reports([result.report, ckpt_report])

    # ------------------------------------------------------------------
    # resilience: retry, checkpoint, recover (docs/resilience.md)
    # ------------------------------------------------------------------
    def _run_resilient(self, program: Callable) -> SpmdResult:
        """Run one session task, retrying recoverable environment faults.

        Non-recoverable sessions pass straight through.  In recoverable
        mode an injected fault (or checksum-detected corruption) degrades
        the session instead of killing it; this loop restores the lost
        rank's resident state from the last checkpoint
        (:meth:`_recover`), sleeps a bounded exponential backoff, and
        re-submits — up to :data:`MAX_RETRIES` times.  Reports of
        failed attempts and recovery tasks are merged into the returned
        result so aborted work is charged honestly.
        """
        if not self._recoverable:
            return self._exec.run(program)
        attempt = 0
        extra_reports: List[SpmdReport] = []
        while True:
            try:
                result = self._exec.run(program)
            except RankError as err:
                failure = getattr(err, "failure", None)
                if failure is None:
                    raise  # a program bug, not an environment fault
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise
                self.retries += 1
                self.recovery_events.append(failure)
                failed_report = getattr(err, "report", None)
                if failed_report is not None:
                    extra_reports.append(failed_report)
                if failure.shrinkable:
                    # The rank is gone for good (permfail, or a crash
                    # past the respawn budget): migrate its state to a
                    # survivor and retry on the p-1 world.  The program
                    # closure reads per-rank state through self._state
                    # and handle blocks through the (remapped) handles,
                    # so the very same closure re-executes unchanged.
                    # Reports charged on the old world are projected to
                    # the survivors' view so they keep merging.
                    self.shrink_events.append(failure)
                    recover_report = self.shrink(failure.rank)
                    extra_reports = [
                        project_report(r, failure.rank)
                        for r in extra_reports
                    ]
                else:
                    recover_report = self._recover(failure)
                if recover_report is not None:
                    extra_reports.append(recover_report)
                _time.sleep(
                    min(self.config.retry_backoff * 2 ** (attempt - 1), 1.0)
                )
                continue
            if extra_reports:
                result = SpmdResult(
                    result.values,
                    merge_reports(extra_reports + [result.report]),
                )
            return result

    def _suspended_run(
        self, program: Callable, *, timeout: Optional[float] = None
    ) -> SpmdResult:
        """Run a checkpoint/recovery task with fault injection suspended,
        so a recovery cannot be re-killed by the fault it is healing.
        ``timeout`` overrides the executor's watchdog for this task."""
        if self._injector is not None:
            with self._injector.suspend():
                return self._exec.run(program, timeout=timeout)
        return self._exec.run(program, timeout=timeout)

    def _resilience_timeout(self, nbytes: int) -> float:
        """Watchdog budget for a recover/shrink task moving ``nbytes`` of
        checkpoint state.

        The default watchdog assumes multiply-sized tasks; a restore of a
        huge replica blob (or a shrink merging one) is dominated by real
        serialization work that scales with the blob, so the timeout gets
        headroom proportional to the bytes on the wire instead of firing
        a spurious ``DeadlockError`` halfway through a legitimate
        recovery."""
        return self._exec.timeout + nbytes / 50e6

    def _snapshot_state(self, state: tuple, *, full: bool) -> Dict[str, Any]:
        """Copy the values of one rank's resident state: its local block,
        its column copy, and ``aux``.

        Pattern arrays (``indptr``/``indices``) are immutable for the
        session's lifetime — a pattern change forces a full re-setup,
        which drops the replicas — so only the value arrays need copying.
        Nothing else holds values a restore could not re-derive: subtiles
        are read off the column copy and the consumer strips are a
        permutation of the local block, so the
        :class:`~repro.core.plan.PreparedA` is shared by reference.
        ``wire`` is what the checkpoint collective actually ships:
        values-only for incremental checkpoints, plus the pattern arrays
        on the first (``full``) one.
        """
        rows, local, col_copy, prepared, aux = state
        wire: List[np.ndarray] = []

        def _copy_csr(mat: CsrMatrix) -> CsrMatrix:
            data = mat.data.copy()
            wire.append(data)
            if full:
                wire.append(mat.indptr)
                wire.append(mat.indices)
            return CsrMatrix(
                mat.shape, mat.indptr, mat.indices, data, check=False
            )

        return {
            "rows": rows,
            "local": _copy_csr(local),
            "col": _copy_csr(col_copy),
            "prepared": prepared,
            "aux": dict(aux),
            "wire": wire,
            "nbytes": int(sum(a.nbytes for a in wire)),
        }

    def _checkpoint(self) -> Optional[SpmdReport]:
        """Replicate every rank's resident blocks per the checkpoint policy.

        Called by :meth:`_commit`, after every state-changing task (setup,
        prologue multiplies, operand updates, shrinks, derivations).  The
        replica traffic rides a real collective under the ``checkpoint``
        phase — a ring neighbor exchange (``"neighbor"``) or a root gather
        (``"driver"``) — plus the profile's ``checkpoint_time``
        serialization charge, so the overhead shows up in reports like any
        other phase.  The first
        checkpoint of a pattern ships pattern + values; later ones are
        values-only (the pattern already sits on the replica holder).
        """
        if not self._recoverable or self.config.checkpoint == "off":
            return None
        full = self._ckpt is None
        blobs = [self._snapshot_state(s, full=full) for s in self._state]
        policy = self.config.checkpoint
        machine = self.machine

        def program(comm):
            blob = blobs[comm.rank]
            with comm.phase("checkpoint"):
                if policy == "neighbor":
                    comm.send(blob["wire"], (comm.rank + 1) % comm.size, tag=78)
                    comm.recv(source=(comm.rank - 1) % comm.size, tag=78)
                else:  # driver shadow: every blob lands on the root
                    comm.gather(blob["wire"], root=0)
                comm.charge_seconds(machine.checkpoint_time(blob["nbytes"]))
            return blob["nbytes"]

        result = self._suspended_run(program)
        superseded = self._ckpt
        self._ckpt = blobs
        self.checkpoint_bytes += sum(b["nbytes"] for b in blobs)
        if superseded is not None:
            # Bound resident memory for long-lived (serving) sessions:
            # once the new replica set is committed, the previous one can
            # never be restored from again, so drop its value copies now
            # instead of leaving two generations alive until the next GC.
            for blob in superseded:
                blob.clear()
        return result.report

    def _release_ckpt(self) -> None:
        """Drop checkpoint replicas eagerly (pattern change / teardown)."""
        if self._ckpt is not None:
            for blob in self._ckpt:
                blob.clear()
        self._ckpt = None

    @property
    def checkpoint_resident_bytes(self) -> int:
        """Wire bytes of checkpoint state *currently held alive* by this
        session — exactly one replica generation (the restorable one), or
        zero with ``checkpoint="off"``.  Unlike the cumulative
        ``checkpoint_bytes`` traffic counter, this gauge must stay flat
        as a long-lived session checkpoints round after round
        (asserted by ``bench_recovery.py``)."""
        if not self._ckpt:
            return 0
        return sum(int(b.get("nbytes", 0)) for b in self._ckpt)

    def close(self) -> None:
        """Release checkpoint replicas before shutting the workers down —
        a closed session can never restore, so holding a generation of
        value copies alive would leak for as long as the driver keeps the
        (dead) session object around."""
        self._release_ckpt()
        super().close()

    def _recover(self, failure: RankFailure) -> Optional[SpmdReport]:
        """Restore the failed rank's resident state before a retry.

        A ``crash`` lost the simulated process, so its entry in
        ``_state`` is clobbered first — recovery must genuinely rebuild
        it, there is no silent survival.  Transient faults take the same
        restore path: a failed task may have refreshed the prepared
        strips in place before aborting, and the checkpoint copy rolls
        that back.  With replicas the rebuild is
        :meth:`_restore_from_checkpoint`; under the ``"off"`` ablation it
        is a full re-setup from the driver-held input.
        """
        self.recoveries += 1
        if failure.kind == "crash" and self._state is not None:
            self._state[failure.rank] = None
        if self._ckpt is not None:
            return self._restore_from_checkpoint(failure.rank)
        if self._state is None:
            # The failing task was the setup itself: nothing was ever
            # committed, so the retry rebuilds everything from scratch.
            return None
        if self._input is None:
            raise RuntimeError(
                "cannot recover: no checkpoint replicas and no driver-held "
                "input (derived sessions need checkpoint != 'off')"
            )
        if self._injector is not None:
            with self._injector.suspend():
                return self._setup(self._input)
        return self._setup(self._input)

    def _replica_holder(self, rank: int) -> int:
        """The rank holding ``rank``'s checkpoint replica: the driver root
        under the ``"driver"`` policy, else its ring neighbor."""
        return 0 if self.config.checkpoint == "driver" else (rank + 1) % self.p

    def _restore_from_checkpoint(self, rank: int) -> SpmdReport:
        """Rebuild one rank's blocks from its replica (``recover`` phase).

        The replica holder — ring neighbor or driver root, by policy —
        ships the blob to the recovering rank, which is charged the
        profile's ``recover_time`` deserialization on top of the wire
        cost; the other ranks only synchronize.  The driver then rebinds
        the rank's state tuple to the snapshot copies; subtiles follow
        with the column copy, and the shared
        :class:`~repro.core.plan.PreparedA`'s strips are re-derived from
        the restored local block.
        """
        blob = self._ckpt[rank]
        holder = self._replica_holder(rank)
        nbytes = blob["nbytes"]
        machine = self.machine

        def program(comm):
            with comm.phase("recover"):
                if comm.rank == holder and holder != rank:
                    comm.send(blob["wire"], rank, tag=77)
                if comm.rank == rank:
                    if holder != rank:
                        comm.recv(source=holder, tag=77)
                    comm.charge_seconds(machine.recover_time(nbytes))
                comm.barrier()
            return None

        result = self._suspended_run(
            program, timeout=self._resilience_timeout(nbytes)
        )
        prepared = blob["prepared"]
        prepared.strips.refresh_values(blob["local"])
        self._state[rank] = (
            blob["rows"],
            blob["local"],
            blob["col"],
            prepared,
            dict(blob["aux"]),
        )
        self.recover_bytes += nbytes
        return result.report

    # ------------------------------------------------------------------
    # elastic degraded-mode recovery: shrink the world (docs/resilience.md)
    # ------------------------------------------------------------------
    def shrink(self, dead_rank: int) -> SpmdReport:
        """Survive the permanent loss of ``dead_rank`` at width ``p-1``.

        The driver half of elastic degraded-mode recovery: the dead
        rank's row block and ``Ac`` column strip are rebuilt from its
        checkpoint replica and *adopted* by a surviving neighbor (the
        ``dead+1`` rank, or ``dead-1`` when the last rank died — either
        way the merged block stays contiguous), and the row partition is
        remapped to an explicit-``bounds`` :class:`Block1D`.  The replica
        transfer from its holder to the adopter and the migration of
        every live handle's dead block are charged under the ``shrink``
        phase.  Then every survivor prepares its blocks as :meth:`_setup`
        does (``prepare`` / ``tiling``), so the plan at ``p-1`` is the one
        a fresh session at the merged layout builds.  Survivors keep their
        blocks, exactly like :meth:`_recover`; every rank-resident handle
        this session minted is remapped in place, so in-flight iterative
        loops (MS-BFS, embedding epochs, serve batches) retry
        transparently on the shrunken world.

        Refused — killing the session, like any unrecoverable failure —
        when the session is not recoverable, holds no checkpoint replicas
        (``checkpoint="off"`` or nothing committed yet), is a derived
        session (it shares its parent's executor: shrinking underneath
        the parent would desync it — the serving tier respawns the slot
        instead), or is already down to one rank.
        """
        if not 0 <= dead_rank < self.p:
            raise ValueError(
                f"dead_rank must be in [0, {self.p}), got {dead_rank}"
            )
        refusal = None
        if not self._recoverable:
            refusal = "session is not recoverable"
        elif not self._owns_exec:
            refusal = (
                "derived sessions share their parent's executor; "
                "respawn the session instead"
            )
        elif self.p < 2:
            refusal = "cannot shrink a 1-rank session"
        elif self._ckpt is None:
            refusal = (
                "no checkpoint replicas to migrate from "
                "(checkpoint='off', or nothing committed yet)"
            )
        if refusal is not None:
            self._exec._kill(f"shrink refused: {refusal}")
            raise ShrinkRefusedError(f"cannot shrink: {refusal}")

        old_p = self.p
        new_rows, adopter_new = shrunk_partition(self._rows, dead_rank)
        adopter_old = dead_rank + 1 if dead_rank < old_p - 1 else dead_rank - 1
        holder_old = self._replica_holder(dead_rank)
        holder_new = holder_old - (1 if holder_old > dead_rank else 0)

        # What actually migrates: the dead rank's row block and column
        # strip (values + pattern — the adopter never held either) — all
        # a replica holds.  No plan migrates: every survivor prepares its
        # blocks afresh at p-1.
        dead_blob = self._ckpt[dead_rank]
        dead_local: CsrMatrix = dead_blob["local"]
        dead_col: CsrMatrix = dead_blob["col"]
        migrate = [dead_local, dead_col]
        migrate_nbytes = payload_nbytes(migrate)

        # Merge in global row/column order: the dead block precedes the
        # adopter's when the adopter is the higher neighbor.  Byte-for-
        # byte this equals slicing the merged range from the global
        # matrix, which is what makes the re-prepare bit-identical to a
        # fresh session at the merged layout.
        def in_order(dead, adopted):
            return [dead, adopted] if adopter_old > dead_rank else [adopted, dead]

        _, a_local, a_col, _, _ = self._state[adopter_old]
        merged_local = stack_blocks(in_order(dead_local, a_local), self.ncols)
        merged_col = _hstack_blocks(*in_order(dead_col, a_col))
        merge_touch = merged_local.nbytes_estimate() + merged_col.nbytes_estimate()

        # Live rank-resident handles: their dead blocks move to the
        # adopter too (tag-80, from the driver root's shadow) so handle
        # chains survive the remap.
        live_handles = list(self._handles)
        handle_wire = [h.blocks[dead_rank] for h in live_handles]
        handle_nbytes = payload_nbytes(handle_wire)

        blocks = [
            (merged_local, merged_col) if r == adopter_old else self._state[r][1:3]
            for r in range(old_p)
            if r != dead_rank
        ]

        self._exec.shrink(dead_rank)
        self.p = self._exec.size

        def program(comm):
            r = comm.rank
            local, col = blocks[r]
            with comm.phase("shrink"):
                if holder_new != adopter_new:
                    if r == holder_new:
                        comm.send(migrate, adopter_new, tag=79)
                    if r == adopter_new:
                        comm.recv(source=holder_new, tag=79)
                if handle_nbytes and adopter_new != 0:
                    if r == 0:
                        comm.send(handle_wire, adopter_new, tag=80)
                    if r == adopter_new:
                        comm.recv(source=0, tag=80)
                if r == adopter_new:
                    comm.charge_seconds(self.machine.recover_time(migrate_nbytes))
                    comm.charge_touch(merge_touch)
                    if handle_nbytes and adopter_new == 0:
                        comm.charge_touch(handle_nbytes)
                comm.barrier()
            dist_a = DistSparseMatrix(comm, new_rows, local, self.ncols, col)
            return _resident_state(dist_a, self.config)

        result = self._suspended_run(
            program,
            timeout=self._resilience_timeout(migrate_nbytes + handle_nbytes),
        )
        self._rows = new_rows
        self._edge_ids = None

        for h in live_handles:
            merged = stack_blocks(
                in_order(h.blocks[dead_rank], h.blocks[adopter_old]), h.ncols
            )
            h.blocks = [
                merged if r == adopter_old else b
                for r, b in enumerate(h.blocks)
                if r != dead_rank
            ]
            h.rows = new_rows

        self.shrinks += 1
        self.shrink_bytes += migrate_nbytes + handle_nbytes
        # The old replica set indexes a world that no longer exists:
        # re-checkpoint the shrunken state from scratch.
        self._release_ckpt()
        return self._commit(result)

    # ------------------------------------------------------------------
    def scatter(self, B: RowBlock) -> DistHandle:
        """Slice a driver-resident matrix — a :class:`CsrMatrix`, or an
        ndarray for SpMM operands and dense iterative state (the
        embedding's ``Z`` twin) — into a rank-resident handle.

        The *entry point* of the handle lifecycle.  Like
        ``DistSparseMatrix.scatter_rows``, the initial distribution is
        free on the virtual clocks (pre-distributed input, the paper's
        timing scope); it is the *per-multiply* re-scatter that
        ``multiply(charge_driver=True)`` charges and the handle chain
        avoids.
        """
        B = self._driver_operand(B)
        return self._mint([row_block(B, lo, hi) for lo, hi in self._rows.ranges])

    def _driver_operand(self, B: RowBlock) -> RowBlock:
        """``B`` as a CSR or 2-D ndarray operand with A's row count."""
        if not isinstance(B, CsrMatrix):
            B = np.asarray(B)
        if len(B.shape) != 2 or B.shape[0] != self.ncols:
            raise ValueError(
                f"matrix must have {self.ncols} rows to match A, got {B.shape}"
            )
        return B

    def _mint(self, blocks: List[RowBlock]) -> DistHandle:
        """Wrap per-rank row blocks in a rank-resident handle and track it
        for elastic remapping: :meth:`shrink` rewrites every live handle's
        partition and blocks in place, so handle chains keep working at
        ``p-1``.  Weak membership — a dropped handle needs no migration."""
        h = DistHandle(
            owner=self, rows=self._rows, ncols=blocks[0].shape[1], blocks=blocks
        )
        self._handles.add(h)
        return h

    def _check_handle(self, h: DistHandle) -> None:
        if h.owner is not self:
            raise ValueError(
                "handle belongs to a different session; handles follow "
                "their session's row partition and cannot be mixed"
            )

    # ------------------------------------------------------------------
    def multiply(
        self,
        B: Union[RowBlock, DistHandle],
        *,
        gather: bool = True,
        charge_driver: bool = False,
        prologue: Optional[Callable] = None,
        prologue_operands: Tuple = (),
        epilogue: Optional[Callable] = None,
        epilogue_operands: Tuple = (),
    ) -> MultiplyResult:
        """One distributed ``C = A · B`` against the resident ``A``.

        ``B`` may be driver-resident (a :class:`CsrMatrix` or ndarray) or
        a rank-resident :class:`~repro.partition.distmat.DistHandle`
        minted by this session (zero driver traffic).  With
        ``gather=True`` (default) ``result.C`` is the global product;
        with ``gather=False`` it is a :class:`DistHandle` that chains into
        the next multiply.  A *dense* ``B`` (an ndarray, or a handle whose
        :attr:`~repro.partition.distmat.DistHandle.dense` is set) runs the
        SpMM codec (:func:`repro.core.spmm.spmm_multiply`, §V-C) on the
        same 1-D pattern, and its product is dense; it requires the
        arithmetic semiring.

        ``prologue`` fuses a rank-local *pre*-processing step into the
        same rank program: ``prologue(comm, operand, *operand_blocks)``
        runs right before each rank's multiply with a
        :class:`ResidentOperand` view of the resident ``A``, and may
        refresh its values in place
        (:meth:`ResidentOperand.refresh_values`).  This is the
        distributed-SDDMM hook: the embedding epoch computes its sigmoid
        coefficients from fetched ``Z`` rows and feeds them straight into
        the multiply, one SPMD task per epoch, nothing through the
        driver.  State mutated by the prologue stays resident for later
        multiplies.

        ``charge_driver=True`` charges the per-multiply driver
        round-trip on the virtual clocks — the root scatter of a
        driver-resident ``B`` (``scatter-B`` phase) and, with
        ``gather=True``, the C root gather (``gather-C``) — and surfaces
        the moved bytes as ``diagnostics['driver_scatter_bytes'] /
        ['driver_gather_bytes']``.  This is the explicit ablation knob
        behind the embedding's ``driver_gather=True``: it models the
        O(n·d) per-iteration traffic a loop pays when it round-trips
        operands through the driver instead of chaining handles.  The
        default ``False`` keeps the paper's pre-distributed-input
        convention: each rank slices its block of a driver-resident
        ``B`` for free.

        ``epilogue`` fuses a rank-local post-processing step into the
        same rank program — ``epilogue(comm, c_local, *operand_blocks)``
        runs right after each rank's multiply (MS-BFS's frontier update
        lives here, as in the paper's Alg 3) and returns a row block or
        tuple of them, surfaced as matching handles in ``result.extra``.
        Its charges land in this multiply's report.
        """
        b_handle: Optional[DistHandle] = None
        if isinstance(B, DistHandle):
            self._check_handle(B)
            b_handle, dense_b = B, B.dense
        else:
            B = self._driver_operand(B)
            dense_b = isinstance(B, np.ndarray)
        b_ncols = B.shape[1]
        if dense_b and self.semiring is not PLUS_TIMES:
            raise ValueError(
                "dense SpMM is arithmetic-only; use a sparse operand "
                f"for semiring {self.semiring.name!r}"
            )
        for h in prologue_operands:
            self._check_handle(h)
        for h in epilogue_operands:
            self._check_handle(h)
        # A FusedPrologue rides the tiled multiply's combined all-to-all
        # (sparse operands only: the SpMM path has no refresh hook); any
        # other prologue — or the SpMM path — runs the classic way,
        # paying its own rounds before the multiply.
        fuse_prologue = (
            self.config.fuse_comm
            and isinstance(prologue, FusedPrologue)
            and not dense_b
        )

        def program(comm):
            rows, local, col_copy, prepared, aux = self._state[comm.rank]
            dist_a = DistSparseMatrix(comm, rows, local, self.ncols, col_copy)
            fused_shim = None
            if prologue is not None:
                operand = ResidentOperand(dist_a, prepared, aux)
                blocks_here = [h.blocks[comm.rank] for h in prologue_operands]
                if fuse_prologue:
                    fused_shim = _FusedPrologueShim(prologue, operand, blocks_here)
                else:
                    prologue(comm, operand, *blocks_here)
            # This attempt's row map: a retry after an elastic shrink
            # slices a driver-resident B by the shrunken partition.
            if b_handle is not None:
                b_local = b_handle.blocks[comm.rank]
            elif charge_driver:
                # The ablation's driver round-trip: the root slices and
                # scatters B, and the α–β cost lands on the clocks — the
                # per-level traffic the paper's resident loop never pays.
                with comm.phase("scatter-B"):
                    b_local = comm.scatter(
                        [row_block(B, lo, hi) for lo, hi in rows.ranges]
                        if comm.rank == 0
                        else None
                    )
            else:
                b_local = row_block(B, *rows.range_of(comm.rank))
            if dense_b:
                dist_b = DistDenseMatrix(comm, rows, b_local, b_ncols)
                dist_c, diag = spmm_multiply(dist_a, dist_b, prepared=prepared)
            else:
                dist_b = DistSparseMatrix(comm, rows, b_local, b_ncols)
                dist_c, diag = tiled_multiply(
                    dist_a,
                    dist_b,
                    self.semiring,
                    prepared=prepared,
                    fused_prologue=fused_shim,
                )
            extra = None
            if epilogue is not None:
                extra = epilogue(
                    comm,
                    dist_c.local,
                    *[h.blocks[comm.rank] for h in epilogue_operands],
                )
            if gather and charge_driver:
                with comm.phase("gather-C"):
                    comm.gather(dist_c.local, root=0)
            new_state = None
            if prologue is not None:
                # The prologue may have refreshed the resident values;
                # persist whatever it left behind for later multiplies.
                new_state = (
                    dist_a.rows, dist_a.local, dist_a.col_copy, prepared, aux
                )
            return dist_c.local, diag.as_dict(), extra, new_state

        retries_before, recoveries_before = self.retries, self.recoveries
        shrinks_before = self.shrinks
        result = self._run_resilient(program)
        self.multiplies += 1
        report = result.report
        if prologue is not None:
            # The prologue may have refreshed resident values: commit the
            # new state, re-checkpointed so replicas track the commit.
            report = self._commit(result, [v[3] for v in result.values])
        diagnostics = _merge_diag(v[1] for v in result.values)
        if self._recoverable:
            diagnostics["retries"] = self.retries - retries_before
            diagnostics["recoveries"] = self.recoveries - recoveries_before
            diagnostics["shrinks"] = self.shrinks - shrinks_before
        per_phase = report.phase_bytes()
        diagnostics["driver_scatter_bytes"] = per_phase.get("scatter-B", 0)
        diagnostics["driver_gather_bytes"] = per_phase.get("gather-C", 0)
        blocks = [v[0] for v in result.values]
        c_out = stack_blocks(blocks, b_ncols) if gather else self._mint(blocks)
        extra_out = None
        if epilogue is not None:
            extra_out = self._wrap_local_outputs([v[2] for v in result.values])
        return MultiplyResult(
            C=c_out,
            report=report,
            diagnostics=diagnostics,
            extra=extra_out,
        )

    def _wrap_local_outputs(self, per_rank: List[Any]) -> Any:
        """Wrap per-rank blocks (or tuples of them) into handles
        (:meth:`_mint`) — a rank-local epilogue may return either kind
        (the embedding's returns both: the re-sparsified ``Z`` and its
        dense twin).
        """
        if isinstance(per_rank[0], tuple):
            return tuple(self._mint(list(col)) for col in zip(*per_rank))
        return self._mint(per_rank)

    # ------------------------------------------------------------------
    def update_operand(self, A: CsrMatrix) -> SpmdReport:
        """Refresh the resident ``A`` in place; returns the update report.

        Same pattern: a genuine *values-only* refresh — each rank takes
        its new value slice directly and the ``Ac`` column copy is
        refreshed through the same values-only strip all-to-all as
        :meth:`ResidentOperand.refresh_values` (charged under
        ``refresh-values``: only the ``nnz`` new values travel, the
        pattern already lives on every consumer), with the prepared
        strip values reloaded and every pattern-derived artifact —
        subtile structure, ``needed_b_rows``, strip selections, mode
        tables, aux caches — surviving untouched.  Changed pattern: full
        re-setup, equivalent to a new session.
        """
        if A.shape != (self.ncols, self.ncols):
            raise ValueError(f"operand shape changed: {A.shape}")
        same_pattern = self._pattern is not None and np.array_equal(
            self._pattern[0], A.indptr
        ) and np.array_equal(self._pattern[1], A.indices)
        if self._recoverable:
            self._input = A  # the checkpoint="off" rebuild source
        if not same_pattern:
            return self._setup(A)

        def program(comm):
            rows, local, col_copy, prepared, aux = self._state[comm.rank]
            dist_a = DistSparseMatrix(comm, rows, local, self.ncols, col_copy)
            lo, hi = rows.range_of(comm.rank)
            operand = ResidentOperand(dist_a, prepared, aux)
            operand.refresh_values(A.data[A.indptr[lo] : A.indptr[hi]])
            # aux holds only pattern-derived caches, still valid here.
            return dist_a.rows, dist_a.local, dist_a.col_copy, prepared, aux

        return self._commit(self._run_resilient(program))

    # ------------------------------------------------------------------
    # edge-subset derivation (influence maximization's live-edge samples)
    # ------------------------------------------------------------------
    def _ensure_edge_ids(self) -> None:
        """Per-rank edge-id companions ``(local ids, column-copy ids)``.

        For the local row block and the ``Ac`` column copy, record the
        *global edge index* (position in ``A``'s CSR data) of every
        stored entry, aligned with the block's data order.  Built by
        replaying the deterministic distribution transforms (row slicing,
        the column-copy strip exchange) on an id-valued twin of ``A``.
        Pure bookkeeping, charged nothing: on the real system every rank
        derives its own keep flags locally from the shared sample seed —
        no ids ever travel.
        """
        if self._edge_ids is not None:
            return
        indptr, indices = self._pattern
        n = self.ncols
        nnz = len(indices)
        ids_global = CsrMatrix(
            (n, n), indptr, indices, np.arange(nnz, dtype=np.int64), check=False
        )
        ranges = self._rows.ranges
        local_ids = [extract_row_range(ids_global, lo, hi) for lo, hi in ranges]
        # Replay build_column_copy through its own split: rank i ships
        # strip j of its block, tagged with its row offset, to rank j,
        # which stacks what it receives in offset order.
        id_strips = [ColumnStrips(ids, ranges) for ids in local_ids]
        col_ids = []
        for j, (c0, c1) in enumerate(ranges):
            tagged = [(ranges[i][0], id_strips[i][j]) for i in range(self.p)]
            col_ids.append(
                _vstack_tagged(tagged, n, c1 - c0).data.astype(np.int64, copy=False)
            )
        self._edge_ids = [
            (ids.data.astype(np.int64, copy=False), col)
            for ids, col in zip(local_ids, col_ids)
        ]

    def derive_edge_subset(self, keep: np.ndarray) -> "TsSession":
        """A child session for the edge subset flagged by ``keep``.

        ``keep`` is a boolean mask over the resident ``A``'s stored
        entries (global CSR order) — exactly what one live-edge sample of
        the Independent Cascade model draws.  Instead of scattering the
        sampled matrix and re-preparing from scratch (a fresh session per
        sample), every rank *masks* its cached local block and ``Ac``
        column copy down to the kept edges in one streaming pass, then
        prepares them exactly as a fresh session does
        (:func:`~repro.core.plan.prepare_multiply` and the consumer
        strips): no scatter, no column-copy all-to-all, only the
        forced-policy mode table's binary all-to-all.  The derived state
        is bit-identical to what a fresh session on the masked matrix
        would build, and its ``setup_report`` charges that session's
        ``prepare`` and ``tiling`` phases plus the masking pass, so every
        multiply (and hence the sample's whole MS-BFS) is bit-identical
        too.

        The child shares this session's executor (close the parent last)
        and its row partition; handles are *not* interchangeable between
        parent and child.
        """
        keep = np.asarray(keep, dtype=bool)
        indptr, indices = self._pattern
        nnz = len(indices)
        if keep.shape != (nnz,):
            raise ValueError(
                f"keep must flag all {nnz} stored edges, got shape {keep.shape}"
            )
        self._ensure_edge_ids()

        def program(comm):
            rows, local, col_copy, _, _ = self._state[comm.rank]
            local_ids, col_ids = self._edge_ids[comm.rank]
            with comm.phase("prepare"):
                new_local = mask_entries(local, keep[local_ids])
                new_col = mask_entries(col_copy, keep[col_ids])
                # One streaming pass over the kept blocks.
                comm.charge_touch(
                    new_local.nbytes_estimate() + new_col.nbytes_estimate()
                )
            dist_a = DistSparseMatrix(comm, rows, new_local, self.ncols, new_col)
            return _resident_state(dist_a, self.config)

        result = self._run_resilient(program)
        # The child runs on this session's executor and leaves it running
        # when closed; every other field is set as a fresh session's.
        child = TsSession.__new__(TsSession)
        child.p, child.machine = self.p, self.machine
        child._exec, child._owns_exec = self._exec, False
        child._init_fields(
            self.semiring, self.config, self._injector, self.ncols, self._rows, None
        )
        child._pattern = mask_pattern(indptr, indices, keep)
        child.setup_report = child._commit(result)
        return child

