"""Closed-form α–β cost models and large-p extrapolation (§III-E)."""

from .analytic import (
    BYTES_PER_DENSE,
    BYTES_PER_NNZ,
    COST_MODELS,
    CostBreakdown,
    Workload,
    petsc1d_cost,
    predict,
    spmm_cost,
    summa3d_cost,
    ts_spgemm_cost,
)

__all__ = [
    "BYTES_PER_DENSE",
    "BYTES_PER_NNZ",
    "COST_MODELS",
    "CostBreakdown",
    "Workload",
    "petsc1d_cost",
    "predict",
    "spmm_cost",
    "summa3d_cost",
    "ts_spgemm_cost",
]
