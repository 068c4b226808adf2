"""Fig 11's claims (§V-E: strong-scaling communication time, 80 % sparse
B), at the size of ``benchmarks/_configs.FIG11``, which
``bench_fig11_comm_scaling.py`` runs and prints.

The measured claim is on communicated bytes and the model claim on
closed-form seconds, so the tests are deterministic.  The measured sweep
runs at the bench's own size (gap at scale 1, d = 128): at scale 0.25
the claim fails at p = 4.
"""

import pytest

from _configs import FIG11
from repro.baselines import ALGORITHMS
from repro.data import load, tall_skinny
from repro.model import COST_MODELS
from repro.mpi import SCALED_PERLMUTTER


@pytest.fixture(scope="module")
def fig11_bytes():
    A = load(FIG11["dataset"], scale=FIG11["scale"], seed=0)
    B = tall_skinny(A.nrows, FIG11["d"], FIG11["sparsity"], seed=1)
    return {
        (name, p): ALGORITHMS[name](
            A, B, p, machine=SCALED_PERLMUTTER, config=FIG11["config"]
        ).comm_bytes()
        for p in FIG11["ps"]
        for name in ("TS-SpGEMM", "SUMMA-2D")
    }


@pytest.mark.parametrize("p", FIG11["ps"])
def test_ts_spgemm_moves_fewer_bytes_than_summa2d(fig11_bytes, p):
    """§V-E (Fig 11): TS-SpGEMM's communication beats SUMMA's, because
    the SUMMA algorithms "involve communication for both A and B" (§V-D)
    while TS-SpGEMM never moves A — so it moves fewer bytes than SUMMA-2D
    at every p ≥ 4."""
    assert fig11_bytes["TS-SpGEMM", p] < fig11_bytes["SUMMA-2D", p]


def test_summa3d_communication_beats_summa2d_at_512_nodes():
    """§V-E: "SUMMA3D communication can even beat TS-SpGEMM at 512
    nodes" — the communication-avoiding layers pay off at scale: at
    p = 4 096 (512 nodes), SUMMA-3D on 16 layers communicates less than
    SUMMA-2D in the closed form."""
    w, p = FIG11["model"], max(FIG11["model_ps"])
    summa3d = COST_MODELS["SUMMA-3D"](w, p, layers=FIG11["layers"])
    assert summa3d.comm_time < COST_MODELS["SUMMA-2D"](w, p).comm_time
