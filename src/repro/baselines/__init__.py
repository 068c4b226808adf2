"""Distributed SpGEMM baselines: 2-D/3-D sparse SUMMA and PETSc-style 1-D."""

from .petsc1d import petsc1d
from .registry import ALGORITHMS, SESSIONS, get_algorithm, make_session
from .result import assemble_2d_blocks
from .shift15d import shift15d_spmm
from .summa import SummaSession, summa2d, summa3d

__all__ = [
    "ALGORITHMS",
    "SESSIONS",
    "SummaSession",
    "assemble_2d_blocks",
    "get_algorithm",
    "make_session",
    "petsc1d",
    "shift15d_spmm",
    "summa2d",
    "summa3d",
]
