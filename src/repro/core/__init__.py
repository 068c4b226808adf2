"""The paper's contribution: distributed TS-SpGEMM (naive, tiled) and SpMM."""

from .config import DEFAULT_CONFIG, MODE_POLICIES, TsConfig
from .driver import (
    FUSED_SECTION_PHASES,
    FusedPrologue,
    MultiplyResult,
    TsSession,
    ts_spgemm,
)
from .naive import naive_multiply
from .plan import PreparedA, PreparedSubtile, prepare_multiply, replan
from .spmm import SpmmDiagnostics, spmm_multiply
from .symbolic import (
    DIAGONAL,
    EMPTY,
    LOCAL,
    REMOTE,
    SubtileInfo,
    SymbolicPlan,
    row_tile_ranges,
)
from .tiled import TileDiagnostics, tiled_multiply

__all__ = [
    "DEFAULT_CONFIG",
    "DIAGONAL",
    "EMPTY",
    "FUSED_SECTION_PHASES",
    "FusedPrologue",
    "LOCAL",
    "MODE_POLICIES",
    "MultiplyResult",
    "PreparedA",
    "PreparedSubtile",
    "REMOTE",
    "SpmmDiagnostics",
    "SubtileInfo",
    "SymbolicPlan",
    "TileDiagnostics",
    "TsConfig",
    "TsSession",
    "naive_multiply",
    "prepare_multiply",
    "replan",
    "row_tile_ranges",
    "spmm_multiply",
    "tiled_multiply",
    "ts_spgemm",
]
