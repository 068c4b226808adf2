"""repro — reproduction of "Distributed-Memory Parallel Algorithms for
Sparse Matrix and Sparse Tall-and-Skinny Matrix Multiplication" (SC '24).

Quick start::

    import repro
    from repro.data import rmat, tall_skinny

    A = rmat(2048, 16, seed=0)                 # scale-free square matrix
    B = tall_skinny(2048, 128, 0.8, seed=1)    # n x 128, 80% sparse

    result = repro.ts_spgemm(A, B, p=16)       # 16 simulated ranks
    result.C               # the product (CsrMatrix)
    result.multiply_time   # modelled seconds of the multiply, setup excluded
    result.comm_bytes()    # bytes on the simulated interconnect

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.mpi` — simulated message-passing runtime + α–β cost model
- :mod:`repro.sparse` — CSR, semirings, local SpGEMM kernels, tiling
- :mod:`repro.partition` — 1-D/2-D/3-D data distribution
- :mod:`repro.core` — TS-SpGEMM (naive + tiled) and the SpMM variant
- :mod:`repro.baselines` — 2-D/3-D sparse SUMMA, PETSc-style 1-D
- :mod:`repro.apps` — multi-source BFS, sparse Force2Vec embedding
- :mod:`repro.data` — workload generators, Table V dataset registry
- :mod:`repro.model` — closed-form §III-E cost models
- :mod:`repro.analysis` — metrics aggregation, paper-style reporting
"""

from .apps import msbfs, train_sparse_embedding
from .baselines import ALGORITHMS, petsc1d, summa2d, summa3d
from .core import DEFAULT_CONFIG, MultiplyResult, TsConfig, ts_spgemm
from .mpi import PERLMUTTER, MachineProfile, run_spmd
from .sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix, Semiring

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BOOL_AND_OR",
    "CsrMatrix",
    "DEFAULT_CONFIG",
    "MachineProfile",
    "MultiplyResult",
    "PERLMUTTER",
    "PLUS_TIMES",
    "Semiring",
    "TsConfig",
    "__version__",
    "msbfs",
    "petsc1d",
    "run_spmd",
    "summa2d",
    "summa3d",
    "train_sparse_embedding",
    "ts_spgemm",
]
