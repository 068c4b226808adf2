"""Ablation: tile-mode policies (hybrid vs forced local vs forced remote).

Isolates the symbolic mode-selection step (§III-D) on a skewed (RMAT) and
a uniform (ER) graph at ``_configs.MODE_POLICY``'s ``bench_scale``.  The
claims (one product under every policy, and hybrid moving no more bytes
than the better forced policy) are asserted, at its ``claims_scale``, by
``tests/paper/test_ablation_mode_policy_claims.py``.  This bench prints
the table and times a forced-remote multiply.
"""

from _configs import MODE_POLICY, moved_bytes
from repro.analysis import fmt_bytes, print_table
from repro.core import TsConfig, ts_spgemm
from repro.data import load, tall_skinny
from repro.mpi import SCALED_PERLMUTTER


def bench_ablation_mode_policy(benchmark, sink):
    P, policies = MODE_POLICY["p"], MODE_POLICY["policies"]
    d, sparsity = MODE_POLICY["d"], MODE_POLICY["sparsity"]
    scale = MODE_POLICY["bench_scale"]
    rows = []
    for alias in MODE_POLICY["datasets"]:
        A = load(alias, scale=scale, seed=0)
        B = tall_skinny(A.nrows, d, sparsity, seed=1)
        runs = {
            policy: moved_bytes(
                A, B, P, TsConfig(mode_policy=policy), SCALED_PERLMUTTER
            )
            for policy in policies
        }
        rows.append(
            [alias]
            + [fmt_bytes(runs[policy][1]) for policy in policies]
            + [runs["hybrid"][0].diagnostics["remote_tiles"]]
        )
    print_table(
        f"Ablation: mode policy vs communicated bytes, mode table included "
        f"[scale={scale}, p={P}, d={d}, {sparsity:.0%} sparse]",
        ["dataset", "hybrid", "local-only", "remote-only", "remote tiles chosen"],
        rows,
        file=sink,
    )

    A = load("uk", scale=scale, seed=0)
    B = tall_skinny(A.nrows, d, sparsity, seed=1)
    benchmark(
        lambda: ts_spgemm(
            A, B, P, config=TsConfig(mode_policy="remote"), machine=SCALED_PERLMUTTER
        )
    )
