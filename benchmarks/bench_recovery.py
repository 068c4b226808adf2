"""Benchmark: what fault tolerance costs, and what recovery saves.

Two questions about the resilience layer (docs/resilience.md), measured
on a cora-sized embedding run and a mid-sized session:

1. **Checkpoint overhead** — a recoverable session with the default
   ``checkpoint="neighbor"`` policy must train an embedding to a
   **bit-identical** result at (wall-clock) parity with a plain session:
   the replica traffic rides the existing collectives and the per-epoch
   snapshot is values-only, so the gate enforces "within a 10% jitter
   margin", matching ``bench_resident_embedding.py``.
2. **Recovery cost vs full re-prepare** — when a rank crashes, the ring
   replica restores exactly one rank's blocks.  The gates pin the
   traffic economics: the recovery blob is strictly smaller than the
   full-session checkpoint (one rank's ~1/p share) and well under the
   bytes a from-scratch re-prepare reshuffles (the whole matrix), and an
   ``update_operand`` refresh re-checkpoints values-only — cheaper than
   the first full (pattern + values) snapshot.

Results land in ``benchmarks/results/recovery.txt``.
"""

import numpy as np
from _timing import median_pair_ratio

from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.apps import train_sparse_embedding
from repro.core import TsConfig
from repro.core.driver import TsSession
from repro.data import erdos_renyi, get_dataset
from repro.sparse import CsrMatrix

P = 4
D = 32
SPARSITY = 0.8
EPOCHS = 6
# Same reasoning as bench_resident_embedding.py: checkpoint work is a
# few percent of a multiply-dominated total; CI load jitter isn't a
# regression signal below 10%.  Judged on the median of per-pair ratios:
# the median reads ~1.06 on a 2-vCPU host, and 16 pairs keep its spread
# inside the margin where 8 did not (1 run in 10 read 1.12).
MAX_WALL_RATIO = 1.10
WALL_PAIRS = 16

# Session-level workload for the recovery-economics gates.
N = 200
DEGREE = 8


def _session_inputs():
    A = erdos_renyi(N, DEGREE, seed=3)
    rng = np.random.default_rng(7)
    dense = np.where(rng.random((N, 16)) < 0.3, rng.random((N, 16)), 0.0)
    return A, CsrMatrix.from_dense(dense)


def bench_recovery(benchmark, sink):
    """Checkpoint overhead + crash-recovery economics, gated."""
    adj, _ = get_dataset("cora").generate_with_labels(scale=1.0, seed=4)
    kwargs = dict(d=D, sparsity=SPARSITY, epochs=EPOCHS, seed=1)
    recoverable = TsConfig(recoverable=True, checkpoint="neighbor")

    # Untimed warm-up so neither path pays cold-start costs.
    train_sparse_embedding(adj, P, d=D, epochs=1)

    wall_ratio, (wall_rec, wall_plain), (rec, plain) = median_pair_ratio(
        lambda: train_sparse_embedding(adj, P, config=recoverable, **kwargs),
        lambda: train_sparse_embedding(adj, P, **kwargs),
        pairs=WALL_PAIRS,
    )

    print_table(
        f"Checkpoint overhead, fault-free training (cora stand-in "
        f"n={adj.nrows}, d={D}, p={P}, {EPOCHS} epochs)",
        ["path", "median wall-clock", "modelled runtime"],
        [
            ["plain session", fmt_seconds(wall_plain),
             fmt_seconds(plain.total_runtime)],
            ["recoverable + neighbor checkpoint", fmt_seconds(wall_rec),
             fmt_seconds(rec.total_runtime)],
        ],
        file=sink,
    )
    print(
        f"recoverable / plain wall clock, median of {WALL_PAIRS} pairs: "
        f"{wall_ratio:.3f}x",
        file=sink,
    )

    # ---- acceptance gates -------------------------------------------
    # 1. recoverable mode changes no numbers: bit-identical embedding
    assert (
        np.array_equal(plain.Z.indptr, rec.Z.indptr)
        and np.array_equal(plain.Z.indices, rec.Z.indices)
        and np.array_equal(plain.Z.data, rec.Z.data)
    ), "recoverable session produced a different embedding"
    assert plain.accuracy == rec.accuracy
    assert sum(e.retries for e in rec.epochs) == 0, (
        "fault-free run reported retries"
    )

    # 2. checkpoint overhead within the jitter margin
    assert wall_ratio < MAX_WALL_RATIO, (
        f"checkpoint overhead beyond the {MAX_WALL_RATIO:.2f}x margin: "
        f"median pair ratio {wall_ratio:.3f}x (plain={wall_plain:.3f}s "
        f"recoverable={wall_rec:.3f}s)"
    )

    # ---- recovery economics: crash at the second multiply -----------
    A, B = _session_inputs()
    A2 = CsrMatrix(A.shape, A.indptr, A.indices, A.data * 2.0, check=False)

    ref = TsSession(A, P, config=TsConfig())
    # Task indexing (docs/resilience.md): 0 = setup, 1 = setup
    # checkpoint, 2 = first multiply, 3 = second multiply (multiplies
    # mutate no resident state, so they add no checkpoint tasks).
    faulted = TsSession(
        A, P,
        config=TsConfig(
            recoverable=True, checkpoint="neighbor", retry_backoff=0.0,
            faults="crash@1,task=3,seq=0",
        ),
    )
    try:
        want = ref.multiply(B).C
        full_ck = faulted.checkpoint_bytes
        faulted.multiply(B)
        got = faulted.multiply(B)  # crashes, recovers, retries
        recover = faulted.recover_bytes
        setup_bytes = faulted.setup_report.total_bytes()
        faulted.update_operand(A2)  # values-only incremental snapshot
        incremental = faulted.checkpoint_bytes - full_ck

        print_table(
            f"Crash recovery vs full re-prepare (n={N}, avg degree "
            f"{DEGREE}, p={P}, crash@rank 1 in the second multiply)",
            ["quantity", "bytes"],
            [
                ["full setup (re-prepare reshuffles this)",
                 fmt_bytes(setup_bytes)],
                ["first checkpoint, full pattern + values",
                 fmt_bytes(full_ck)],
                ["incremental checkpoint, values-only",
                 fmt_bytes(incremental)],
                ["recovery blob (one rank's blocks)", fmt_bytes(recover)],
            ],
            file=sink,
        )

        # 3. the crash actually fired and the retry healed it
        assert got.diagnostics["retries"] == 1
        assert got.diagnostics["recoveries"] == 1
        assert (
            np.array_equal(want.indptr, got.C.indptr)
            and np.array_equal(want.indices, got.C.indices)
            and np.array_equal(want.data, got.C.data)
        ), "post-recovery product differs from the fault-free run"

        # 4. recovery ships one rank's share, not the session's state —
        # and far less than the full-matrix reshuffle a re-prepare does
        assert 0 < recover < full_ck, (
            f"recovery blob ({recover}) not below the full checkpoint "
            f"({full_ck})"
        )
        assert recover * 2 < setup_bytes, (
            f"recovery ({recover}B) not well under a full re-prepare "
            f"({setup_bytes}B reshuffled)"
        )

        # 5. value refreshes re-checkpoint incrementally
        assert 0 < incremental < full_ck, (
            f"values-only checkpoint ({incremental}) not below the full "
            f"snapshot ({full_ck})"
        )

        # 6. resident checkpoint memory is bounded: committing a new
        # replica generation drops the superseded one, so the gauge
        # stays flat round after round while the cumulative traffic
        # counter keeps growing — a long-lived serving session never
        # accumulates checkpoint generations.
        resident = faulted.checkpoint_resident_bytes
        assert 0 < resident <= faulted.checkpoint_bytes
        for step in range(3):
            scaled = CsrMatrix(
                A.shape, A.indptr, A.indices, A.data * (3.0 + step),
                check=False,
            )
            before_traffic = faulted.checkpoint_bytes
            faulted.update_operand(scaled)
            assert faulted.checkpoint_bytes > before_traffic
            assert faulted.checkpoint_resident_bytes == resident, (
                f"resident checkpoint memory grew on refresh {step}: "
                f"{faulted.checkpoint_resident_bytes} != {resident} "
                "(superseded replica generation not dropped)"
            )
        assert faulted.checkpoint_resident_bytes < faulted.checkpoint_bytes
    finally:
        ref.close()
        faulted.close()

    def _recovery_cycle():
        s = TsSession(
            A, P,
            config=TsConfig(
                recoverable=True, checkpoint="neighbor", retry_backoff=0.0,
                faults="crash@1,task=2,seq=0",
            ),
        )
        try:
            return s.multiply(B)
        finally:
            s.close()

    benchmark(_recovery_cycle)
