"""Uniform algorithm registry used by benchmarks and examples.

Every entry is a callable ``fn(A, B, p, semiring=..., machine=...)``
returning a :class:`~repro.core.driver.MultiplyResult` — so the benchmark
harness can sweep algorithms exactly the way Figs 8-11 do.  ``TS-SpGEMM``
is the paper's Alg 2; ``PETSc-1D`` is Alg 1, the naive baseline
(§III-A); the SUMMA entries are the 2-D / 3-D baselines, one SUMMA on
one layer and on (up to) four.

Algorithms whose setup is amortizable also register a *resident session*
variant (``SESSIONS`` / :func:`make_session`): a session object created
once per ``A`` whose ``.multiply(B)`` returns the same result type, but
pays scatter / ``Ac`` / plan preparation a single time.  Iterative
drivers (:func:`repro.apps.msbfs.msbfs`) use a session when the selected
algorithm offers one, so MS-BFS stops re-scattering ``A`` every level;
baselines without one keep the per-call path.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

from ..core.config import DEFAULT_CONFIG, TsConfig
from ..core.driver import TsSession, ts_spgemm
from ..mpi.costmodel import PERLMUTTER
from ..sparse.semiring import PLUS_TIMES
from .petsc1d import petsc1d
from .summa import SummaSession, summa3d


def _ts(A, B, p, *, semiring=PLUS_TIMES, machine=PERLMUTTER, config=DEFAULT_CONFIG):
    return ts_spgemm(A, B, p, semiring=semiring, machine=machine, config=config)


def _summa(A, B, p, *, layers, semiring=PLUS_TIMES, machine=PERLMUTTER, config=None):
    kernel = (config or DEFAULT_CONFIG).kernel
    return summa3d(
        A, B, p, layers=layers, semiring=semiring, machine=machine, kernel=kernel
    )


def _petsc(A, B, p, *, semiring=PLUS_TIMES, machine=PERLMUTTER, config=None):
    return petsc1d(
        A, B, p, semiring=semiring, machine=machine, config=config or DEFAULT_CONFIG
    )


#: name → driver; the names match the legends of Figs 8-11.
ALGORITHMS: Dict[str, Callable] = {
    "TS-SpGEMM": _ts,
    "SUMMA-2D": partial(_summa, layers=1),
    "SUMMA-3D": partial(_summa, layers=4),
    "PETSc-1D": _petsc,
}


def get_algorithm(name: str) -> Callable:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None


def _ts_session(A, p, *, semiring, machine, config):
    return TsSession(A, p, semiring=semiring, machine=machine, config=config)


def _summa_session(A, p, *, layers, semiring, machine, config):
    cfg = config or DEFAULT_CONFIG
    return SummaSession(
        A,
        p,
        layers=layers,
        semiring=semiring,
        machine=machine,
        kernel=cfg.kernel,
    )


#: name → resident-session factory (algorithms with amortizable setup).
#: The SUMMA baselines hold their grid-distributed ``A`` blocks resident
#: so Fig 12(d)'s comparison loop amortizes setup on both sides
#: (like-for-like); only PETSc-1D keeps the per-call path.
SESSIONS: Dict[str, Callable] = {
    "TS-SpGEMM": _ts_session,
    "SUMMA-2D": partial(_summa_session, layers=1),
    "SUMMA-3D": partial(_summa_session, layers=4),
}


def make_session(
    name: str,
    A,
    p: int,
    *,
    semiring=PLUS_TIMES,
    machine=PERLMUTTER,
    config: TsConfig = DEFAULT_CONFIG,
):
    """A resident session for ``name``, or ``None`` if it has no variant.

    ``None`` is a contract, not an error: callers fall back to the
    per-call registry entry, which every algorithm has.  Every session
    exposes ``.multiply(B)``, ``.close()`` and ``.closed``; the TS
    session additionally accepts and mints rank-resident
    :class:`~repro.partition.distmat.DistHandle` operands.
    """
    factory = SESSIONS.get(name)
    if factory is None:
        return None
    return factory(A, p, semiring=semiring, machine=machine, config=config)
