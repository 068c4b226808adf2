"""Figure 13: sparse embedding — accuracy, runtime, communication, remote
tiles vs embedding sparsity.

Paper setup: 8 nodes, citeseer/cora/flicker/pubmed, mini-batch SpGEMM with
b = 0.5·n/p (tile height = batch size).  Expected shapes: (a) accuracy
degrades only a few points up to ~80 % sparsity; (b) runtime falls with
sparsity; (c) communicated volume falls with sparsity; (d) remote tiles
carry a substantial share in the mini-batch setting.

The shape checks (dense accuracy, communication falling with sparsity,
accuracy at 50 % sparsity) run in tier-1 at this configuration:
``tests/apps/test_fig13_claims.py``.
"""

import pytest

from repro.analysis import fmt_bytes, fmt_seconds, print_table
from repro.apps import train_sparse_embedding
from repro.core import TsConfig
from repro.data import get_dataset
from repro.mpi import SCALED_PERLMUTTER

P = 4
D = 32
EPOCHS = 25
SPARSITIES = [0.0, 0.25, 0.5, 0.75, 0.875]
DATASETS = ["cora", "citeseer"]


def bench_fig13_embedding(benchmark, sink):
    for alias in DATASETS:
        adj, _ = get_dataset(alias).generate_with_labels(scale=0.5, seed=4)
        n = adj.nrows
        batch = max(n // P // 2, 1)  # b = 0.5 n/p (Table IV / §V-G)
        cfg = TsConfig(tile_height=batch)
        rows = []
        for sparsity in SPARSITIES:
            result = train_sparse_embedding(
                adj,
                P,
                d=D,
                sparsity=sparsity,
                epochs=EPOCHS,
                seed=1,
                learning_rate=0.05,
                config=cfg,
                machine=SCALED_PERLMUTTER,
            )
            remote = sum(e.remote_tiles for e in result.epochs)
            total = remote + sum(e.local_tiles for e in result.epochs)
            rows.append(
                [
                    f"{sparsity:.1%}",
                    f"{result.accuracy:.3f}",
                    fmt_seconds(result.total_runtime),
                    fmt_bytes(result.total_comm_bytes),
                    f"{remote / total:.0%}" if total else "-",
                ]
            )
        print_table(
            f"Fig 13: sparse embedding vs sparsity "
            f"[{alias} stand-in, d={D}, {EPOCHS} epochs, b=0.5n/p, p={P}]",
            ["sparsity", "accuracy (a)", "runtime (b)", "comm volume (c)", "remote tiles (d)"],
            rows,
            file=sink,
        )
    adj, _ = get_dataset("cora").generate_with_labels(scale=0.5, seed=4)
    benchmark(
        lambda: train_sparse_embedding(
            adj, P, d=D, sparsity=0.5, epochs=2, seed=1, machine=SCALED_PERLMUTTER
        )
    )
