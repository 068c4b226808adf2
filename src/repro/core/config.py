"""Configuration of the TS-SpGEMM algorithm (Table IV defaults).

The paper's default parameters, "identified via extensive benchmarking"
(§V-A):

====================================  =============
Number of OpenMP threads per process  16
Number of processes per node          8
Dimension of B matrix (d)             128
Height of a tile (h)                  n/p
Width of a tile (w)                   16 × n/p
Default sparsity of B                 80 %
Embedding mini-batch size (b)         256
Embedding learning rate               0.02
====================================  =============

Threads-per-process lives in the machine profile (it rescales compute
constants) and the embedding's pair lives with the embedding
(:mod:`repro.apps.embedding`); everything tile- and policy-related lives
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sparse.kernels import available_kernels

#: Tile-mode policies: the paper's algorithm ("hybrid") picks local or
#: remote per tile; "local"/"remote" force one mode everywhere (Fig 6's
#: ablation compares hybrid against local-only).
MODE_POLICIES = ("hybrid", "local", "remote")

#: Checkpoint placement policies of the resilience layer
#: (docs/resilience.md): ``"neighbor"`` replicates each rank's blocks on
#: rank ``(r+1) mod p`` over the interconnect, ``"driver"`` shadows them
#: on the driver via a root gather, ``"off"`` keeps no replicas — a lost
#: rank forces a full re-prepare (the recovery-cost ablation baseline).
CHECKPOINT_POLICIES = ("neighbor", "driver", "off")


@dataclass(frozen=True)
class TsConfig:
    """Tuning knobs of the distributed TS-SpGEMM algorithm.

    Parameters
    ----------
    tile_width_factor:
        Tile width ``w`` expressed as a multiple of ``n/p`` column blocks
        processed per communication round.  Table IV default: 16.
    tile_height:
        Tile height ``h`` in rows; ``None`` means the full local block
        ``n/p`` (Table IV default).  The sparse-embedding application sets
        it to the mini-batch size (§IV-B).
    mode_policy:
        ``"hybrid"`` (paper's algorithm), ``"local"`` or ``"remote"``.
    kernel:
        Local SpGEMM kernel every distributed code path dispatches to —
        a name registered in :mod:`repro.sparse.kernels`
        (``esc-vectorized``, ``spa``, ``scipy``) or ``"auto"``
        (the default): scipy's C fast path for arithmetic float data, the
        batched ``spa`` for identity-safe semirings at
        ``d <= SPA_AUTO_MAX_D`` (boolean BFS frontiers, the planner's
        pattern products), the vectorized ESC kernel otherwise.
    fuse_comm:
        When ``True`` (default), the tiled multiply issues **one fused
        all-to-all** per multiply step instead of separate exchanges for
        the symbolic mode table and every tile round's ``fetch-B`` /
        ``send-C`` — and a fused-capable prologue (the embedding's
        distributed SDDMM) packs its row fetch into the same combined
        round (FusedMM-style).  Output is bit-identical and per-phase
        byte totals are conserved; only the α·rounds latency term drops.
        ``False`` keeps the paper's per-round exchanges — the ablation
        behind the CLI's ``--fuse-comm on|off`` (and the configuration
        under which the Fig 5 per-round memory/latency trade-off is
        observable).
    sanitize:
        When ``True``, sessions built from this config run with the
        collective sanitizer on (:mod:`repro.mpi.sanitize`): every
        collective is cross-validated across ranks at the call site and
        per-phase byte conservation is checked at task end.  ``False``
        (default) defers to the ``REPRO_SANITIZE`` environment variable,
        so CI can switch the whole suite without touching configs.
    recoverable:
        When ``True``, sessions built from this config run in recoverable
        mode (docs/resilience.md): an injected environment fault degrades
        the session instead of killing it, rank-block checkpoints are
        kept per ``checkpoint`` policy, and
        :meth:`~repro.core.driver.TsSession.multiply` retries with
        bounded exponential backoff after restoring the lost rank's
        state.  Implied by a non-empty ``faults`` spec on the CLI.
    checkpoint:
        Replica placement: ``"neighbor"`` (default), ``"driver"`` or
        ``"off"`` (no replicas; recovery re-runs the full setup — the
        ablation behind the CLI's ``--checkpoint off``).
    respawn_budget:
        How many crashed workers a recoverable session may respawn over
        its lifetime before further rank losses are treated as permanent.
        ``None`` (default) is unlimited — today's respawn-always
        behaviour.  With a finite budget, a crash past the budget (or an
        injected ``permfail``) is classified *shrinkable*: instead of
        respawning the rank, the session migrates its blocks to
        survivors and keeps running at width ``p-1``
        (docs/resilience.md, degraded-mode section).
    retry_backoff:
        Base of the bounded exponential backoff between retries, in real
        seconds (delay = ``retry_backoff · 2^(attempt-1)``, capped at 1 s).
    checksum:
        When ``True``, all-to-all payloads carry CRC-32 checksums
        verified on receipt — the opt-in detector for injected payload
        corruption.
    faults:
        Fault-injection spec string (see :mod:`repro.mpi.faults` for the
        grammar), threaded into every session built from this config.
        Empty (default) disables injection.
    """

    tile_width_factor: int = 16
    tile_height: Optional[int] = None
    mode_policy: str = "hybrid"
    kernel: str = "auto"
    fuse_comm: bool = True
    sanitize: bool = False
    recoverable: bool = False
    checkpoint: str = "neighbor"
    respawn_budget: Optional[int] = None
    retry_backoff: float = 0.01
    checksum: bool = False
    faults: str = ""

    def __post_init__(self) -> None:
        if self.tile_width_factor < 1:
            raise ValueError("tile_width_factor must be >= 1")
        if self.tile_height is not None and self.tile_height < 1:
            raise ValueError("tile_height must be >= 1 when given")
        if self.mode_policy not in MODE_POLICIES:
            raise ValueError(
                f"mode_policy must be one of {MODE_POLICIES}, got {self.mode_policy!r}"
            )
        valid_kernels = available_kernels() + ("auto",)
        if self.kernel not in valid_kernels:
            raise ValueError(
                f"kernel must be one of {sorted(valid_kernels)}, got {self.kernel!r}"
            )
        if self.checkpoint not in CHECKPOINT_POLICIES:
            raise ValueError(
                f"checkpoint must be one of {CHECKPOINT_POLICIES}, "
                f"got {self.checkpoint!r}"
            )
        if self.respawn_budget is not None and self.respawn_budget < 0:
            raise ValueError("respawn_budget must be >= 0 when given")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.faults:
            # Validate the spec grammar eagerly so a typo fails at config
            # construction, not mid-run.  faults.py only imports
            # repro.mpi.errors, so this import cannot cycle.
            from ..mpi.faults import FaultPlan

            FaultPlan.parse(self.faults)

    def effective_tile_height(self, local_rows: int) -> int:
        """Resolve ``h``: explicit value clamped to the block, else n/p."""
        if local_rows <= 0:
            return 1
        if self.tile_height is None:
            return local_rows
        return min(self.tile_height, local_rows)


#: The paper's defaults (Table IV).
DEFAULT_CONFIG = TsConfig()
