"""Figure 11: strong-scaling *communication time*, 80 % sparse B.

Paper setup: same sweep as Fig 9, communication time only (PETSc omitted
— "it does not report the communication time separately"; we include it
anyway since the simulator measures everything).  Expected shape:
TS-SpGEMM's communication scales to ~1024 ranks and then latency
dominates; SUMMA-3D — the communication-avoiding algorithm — keeps
scaling and eventually beats TS-SpGEMM's communication (§V-E).

Runs at ``benchmarks/_configs.FIG11`` and only prints; the figure's
claims are asserted by ``tests/paper/test_fig11_claims.py``.
"""

from _configs import FIG11

from repro.analysis import fmt_bytes, print_series
from repro.baselines import ALGORITHMS
from repro.data import load, tall_skinny
from repro.model import COST_MODELS
from repro.mpi import SCALED_PERLMUTTER

SPARSITY = FIG11["sparsity"]
D = FIG11["d"]
SIM_PS = list(FIG11["ps"])
MODEL_PS = list(FIG11["model_ps"])
ALGOS = ["TS-SpGEMM", "SUMMA-2D", "SUMMA-3D", "PETSc-1D"]


def bench_fig11_comm_scaling(benchmark, sink):
    A = load(FIG11["dataset"], scale=FIG11["scale"], seed=0)
    B = tall_skinny(A.nrows, D, SPARSITY, seed=1)
    series = {name: [] for name in ALGOS}
    volumes = {name: [] for name in ALGOS}
    for p in SIM_PS:
        for name in ALGOS:
            result = ALGORITHMS[name](
                A, B, p, machine=SCALED_PERLMUTTER, config=FIG11["config"]
            )
            series[name].append(result.comm_time)
            volumes[name].append(result.comm_bytes())
    print_series(
        f"Fig 11 (measured): communication time vs p "
        f"[gap stand-in, d={D}, {SPARSITY:.0%} sparse B]",
        "p",
        SIM_PS,
        series,
        file=sink,
    )
    print_series(
        "Fig 11 supplement (measured): total communicated bytes vs p",
        "p",
        SIM_PS,
        volumes,
        formatter=fmt_bytes,
        file=sink,
    )
    # Model at full scale: the SUMMA-3D crossover.
    w = FIG11["model"]
    model = {
        name: [COST_MODELS[name](w, p, layers=FIG11["layers"]).comm_time for p in MODEL_PS]
        if name == "SUMMA-3D"
        else [COST_MODELS[name](w, p).comm_time for p in MODEL_PS]
        for name in ALGOS
    }
    print_series(
        "Fig 11 (model, full gap scale): communication time vs p",
        "p",
        MODEL_PS,
        model,
        file=sink,
    )

    benchmark(lambda: ALGORITHMS["TS-SpGEMM"](A, B, 16, machine=SCALED_PERLMUTTER))
