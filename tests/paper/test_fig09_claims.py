"""Fig 9's claims (§V-D: strong-scaling runtime at 80 % sparse B,
d = 128), on ``benchmarks/_configs.FIG09``, which
``bench_fig09_strong_scaling_80.py`` runs and prints.

The measured claims run at ``FIG09["smoke_scale"]`` (the Table V
stand-ins at a quarter of the bench's smaller scale), where each already
holds; the model claim runs the paper's full graphs in the closed form.
Every claim is on modelled seconds, so the tests are deterministic.
"""

import pytest

from _configs import FIG09
from repro.baselines import ALGORITHMS
from repro.data import load, tall_skinny
from repro.model import COST_MODELS, Workload
from repro.mpi import PERLMUTTER, SCALED_PERLMUTTER


def _operands(alias):
    A = load(alias, scale=FIG09["smoke_scale"], seed=0)
    return A, tall_skinny(A.nrows, FIG09["d"], FIG09["sparsity"], seed=1)


def _multiply_time(name, A, B, p, machine):
    return ALGORITHMS[name](A, B, p, machine=machine, config=FIG09["config"]).multiply_time


def test_ts_spgemm_scales_strongly():
    """§V-D (Fig 9): all algorithms scale — TS-SpGEMM on eight ranks
    multiplies faster than on one, under the standard profile where the
    stand-in is compute-bound."""
    A, B = _operands("uk")
    one, eight = (_multiply_time("TS-SpGEMM", A, B, p, PERLMUTTER) for p in (1, 8))
    assert eight < one


@pytest.mark.parametrize("alias", FIG09["datasets"])
def test_ts_spgemm_beats_summa2d_at_16_ranks(alias):
    """§V-D (Fig 9): TS-SpGEMM holds the lowest curve through the
    mid-range — at p = 16, under the profile with the paper's
    volume-to-compute ratio, it multiplies faster than SUMMA-2D."""
    A, B = _operands(alias)
    ts, summa = (
        _multiply_time(name, A, B, 16, SCALED_PERLMUTTER)
        for name in ("TS-SpGEMM", "SUMMA-2D")
    )
    assert ts < summa


@pytest.mark.parametrize("alias", FIG09["datasets"])
def test_closed_form_ts_spgemm_fastest_up_to_1024_ranks(alias):
    """§V-D (Fig 9): on the paper's full graphs TS-SpGEMM is the fastest
    algorithm up to 1 024 ranks (128 nodes) — in the closed form it costs
    no more than SUMMA-2D or SUMMA-3D at every p ≤ 1 024."""
    n, ka = FIG09["paper_stats"][alias]
    w = Workload(n=n, kA=ka, d=FIG09["d"], b_sparsity=FIG09["sparsity"])
    for p in FIG09["model_ps"]:
        if p <= 1024:
            ts = COST_MODELS["TS-SpGEMM"](w, p).runtime
            summa = min(COST_MODELS[name](w, p).runtime for name in ("SUMMA-2D", "SUMMA-3D"))
            assert ts <= summa, f"p={p}"
