"""Shared configurations for the paper-figure benchmark reproductions.

Importable as a plain module (``from _configs import UNFUSED``) because
pytest puts each non-package bench module's directory on ``sys.path``
during collection.
"""

from repro.core import TsConfig, TsSession
from repro.model import Workload
from repro.mpi import PERLMUTTER

#: The paper's per-round schedule.  The figure sweeps that measure
#: communication scaling (Fig 8-11) anchor to the
#: ``alpha*(1 + 2*ceil(p/w))`` latency term that the fused communication
#: layer (a post-paper optimization, ``TsConfig.fuse_comm``) collapses,
#: while the SUMMA/PETSc baselines and the closed-form cost models keep
#: their unfused charging — so those measured sweeps pin ``fuse_comm``
#: off to stay like-for-like reproductions.  ``bench_fusedmm.py`` is
#: where the fused-vs-unfused comparison itself is measured and gated.
UNFUSED = TsConfig(fuse_comm=False)


#: Fig 7 (TS-SpGEMM vs SpMM over B's sparsity), read by
#: ``bench_fig07_spgemm_vs_spmm.py`` and ``tests/paper/test_fig07_claims.py``
#: alike.  The smallest size at which every claim of §V-C the test states
#: holds; the paper ran p = 256 and d = 128.
FIG07 = dict(
    dataset="uk", scale=0.25, p=8, d=64,
    sparsities=(0.0, 0.25, 0.50, 0.625, 0.75, 0.875, 0.95),
)


#: The naive-vs-tiled ablation (Alg 1 against Alg 2 at w = 2·n/p, fused
#: communication off so "peak B per round" is a per-round footprint), read
#: by ``bench_ablation_naive_vs_tiled.py`` and
#: ``tests/paper/test_ablation_naive_vs_tiled_claims.py`` alike.
NAIVE_VS_TILED = dict(
    dataset="uk", scale=0.25, p=8,
    config=TsConfig(tile_width_factor=2, fuse_comm=False),
    cases=((128, 0.80), (512, 0.80), (128, 0.99)),
)


#: Fig 11 (strong-scaling communication, 80 % sparse B), read by
#: ``bench_fig11_comm_scaling.py`` and ``tests/paper/test_fig11_claims.py``
#: alike.  The measured sweep keeps the bench's own size: at scale 0.25
#: TS-SpGEMM moves more bytes than SUMMA-2D at p = 4.  The closed form runs
#: the paper's gap graph (n = 50.6 M, kA = 38.1) with 16 SUMMA-3D layers.
FIG11 = dict(
    dataset="gap", scale=1.0, d=128, sparsity=0.80, ps=(4, 8, 16, 32),
    config=UNFUSED,
    model=Workload(n=50_636_151, kA=38.1, d=128, b_sparsity=0.80),
    model_ps=(8, 32, 128, 512, 1024, 4096), layers=16,
)


#: Fig 9 (strong-scaling runtime, 80 % sparse B), read by
#: ``bench_fig09_strong_scaling_80.py`` and ``tests/paper/test_fig09_claims.py``
#: alike.  The bench prints the strong-scaling shape under the standard
#: profile at ``scaling_scale`` and the algorithm ordering under the scaled
#: profile at ``ordering_scale``; every claim the test states already holds
#: at ``smoke_scale``, where it runs.  The closed form runs the paper's uk
#: and gap graphs (n, kA).
FIG09 = dict(
    datasets=("uk", "gap"), d=128, sparsity=0.80, ps=(1, 2, 4, 8, 16, 32),
    config=UNFUSED, scaling_scale=4.0, ordering_scale=1.0, smoke_scale=0.25,
    model_ps=(8, 32, 128, 512, 1024, 4096),
    paper_stats={"uk": (18_520_486, 16.0), "gap": (50_636_151, 38.1)},
)


#: The mode-policy ablation (§III-D: hybrid against forced local and forced
#: remote tiles), read by ``bench_ablation_mode_policy.py`` and
#: ``tests/paper/test_ablation_mode_policy_claims.py`` alike.  A skewed
#: (uk) and a uniform (ER) graph; the bench prints and times them at
#: ``bench_scale``, and the test asserts both claims, which hold exactly,
#: at ``claims_scale``.
MODE_POLICY = dict(
    datasets=("uk", "ER"), bench_scale=1.0, claims_scale=0.25, p=16, d=128,
    sparsity=0.80, policies=("hybrid", "local", "remote"),
)


def moved_bytes(A, B, p, config, machine=PERLMUTTER):
    """``(result, bytes)`` of one multiply on a fresh session: every byte
    the multiply moves plus its mode table, which a forced policy ships
    once at set-up (the ``symbolic`` phase) and the hybrid one with the
    multiply.  Fig 6 and the mode-policy ablation compare policies on it."""
    with TsSession(A, p, config=config, machine=machine) as session:
        result = session.multiply(B)
        mode_table = session.setup_report.phase_bytes().get("symbolic", 0)
    return result, result.comm_bytes() + mode_table
