"""Figure 9: strong-scaling runtime at 80 % sparse B, d = 128.

Paper setup: 1 → 512 nodes (p = 8 → 4096) on gap/it/arabic/uk.  We sweep
simulated ranks on two Table V stand-ins and extend with the closed-form
model at full scale.  Expected shape: all algorithms scale; TS-SpGEMM
holds the lowest curve through the mid-range; scaling flattens once the
per-rank workload shrinks ("past this point, performance scaling has been
reduced due to workload reduction").

Two measured sweeps are printed: under the *standard* Perlmutter profile
the toy workload is compute-bound, which exposes the strong-scaling shape;
under the *scaled* profile (paper-like volume-to-compute ratio, see
``SCALED_PERLMUTTER``) the algorithm ordering matches the paper.  One
profile cannot show both at 1/1000th of the paper's problem size — the
closed-form model at full scale shows them together.

Runs at ``benchmarks/_configs.FIG09`` and only prints; the figure's
claims are asserted by ``tests/paper/test_fig09_claims.py``.
"""

from _configs import FIG09

from repro.analysis import parallel_efficiency, print_series
from repro.analysis.metrics import RunRecord
from repro.baselines import ALGORITHMS
from repro.data import load, tall_skinny
from repro.model import COST_MODELS, Workload
from repro.mpi import PERLMUTTER, SCALED_PERLMUTTER

SPARSITY = FIG09["sparsity"]
D = FIG09["d"]
SIM_PS = list(FIG09["ps"])
MODEL_PS = list(FIG09["model_ps"])
ALGOS = ["TS-SpGEMM", "SUMMA-2D", "SUMMA-3D", "PETSc-1D"]
DATASETS = list(FIG09["datasets"])


def _measured(alias, machine, scale):
    A = load(alias, scale=scale, seed=0)
    B = tall_skinny(A.nrows, D, SPARSITY, seed=1)
    series = {name: [] for name in ALGOS}
    records = []
    for p in SIM_PS:
        for name in ALGOS:
            result = ALGORITHMS[name](A, B, p, machine=machine,
                                       config=FIG09["config"])
            series[name].append(result.multiply_time)
            records.append(
                RunRecord(name, alias, p, D, SPARSITY, result.multiply_time)
            )
    return series, records


def bench_fig09_strong_scaling_80(benchmark, sink):
    # --- scaling shape: standard profile, compute-bound start ----------
    series, records = _measured("uk", PERLMUTTER, scale=FIG09["scaling_scale"])
    print_series(
        f"Fig 9 (measured, standard profile): strong scaling runtime "
        f"[uk stand-in x{FIG09['scaling_scale']:g}, d={D}, {SPARSITY:.0%} sparse B]",
        "p",
        SIM_PS,
        series,
        file=sink,
    )
    ts_records = [r for r in records if r.algorithm == "TS-SpGEMM"]
    eff = parallel_efficiency(ts_records)
    print(
        "TS-SpGEMM parallel efficiency: "
        + ", ".join(f"p={p}: {e:.2f}" for p, e in eff.items()),
        file=sink,
    )

    # --- algorithm ordering: scaled profile -----------------------------
    for alias in DATASETS:
        series, _ = _measured(alias, SCALED_PERLMUTTER, scale=FIG09["ordering_scale"])
        print_series(
            f"Fig 9 (measured, scaled profile): runtime ordering "
            f"[{alias} stand-in, d={D}, {SPARSITY:.0%} sparse B]",
            "p",
            SIM_PS,
            series,
            file=sink,
        )

    # Model extension to the paper's full range.
    for alias in DATASETS:
        n, ka = FIG09["paper_stats"][alias]
        w = Workload(n=n, kA=ka, d=D, b_sparsity=SPARSITY)
        model = {
            name: [COST_MODELS[name](w, p).runtime for p in MODEL_PS]
            for name in ALGOS
        }
        print_series(
            f"Fig 9 (model, full {alias} scale): runtime vs p",
            "p",
            MODEL_PS,
            model,
            file=sink,
        )

    A = load("uk", scale=FIG09["ordering_scale"], seed=0)
    B = tall_skinny(A.nrows, D, SPARSITY, seed=1)
    benchmark.pedantic(
        lambda: ALGORITHMS["TS-SpGEMM"](A, B, 16, machine=SCALED_PERLMUTTER),
        rounds=3,
        iterations=1,
    )
