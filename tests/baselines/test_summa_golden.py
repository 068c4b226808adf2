"""Full-report golden digests of the SUMMA baselines.

Each entry runs SUMMA on the arithmetic operands of
``tests/core/test_report_golden.py`` and hashes the product plus the whole
per-rank, per-phase :class:`~repro.mpi.stats.SpmdReport`, with that
module's digest helpers: a change to a charge, its order or a payload
byte changes a digest.  Session entries also hash the session's
``setup_report`` and run two multiplies (``d`` = 8, then ``d`` = 5).

Matrix, each over ``plus_times`` and ``bool_and_or``:

* SUMMA-2D (one layer), per call and via its session, at p ∈ {1, 2, 4, 6, 9};
* SUMMA-3D at ``layers`` ∈ {2, 4}, per call and via its session, at
  p ∈ {2, 4, 6, 8, 16} — every world here gets ``l > 1`` layers.

``summa_golden.json`` was generated before SUMMA-2D became SUMMA-3D's
one-layer case.  Regenerate — only when a change to the accounting is
intended and explained in CHANGES.md — from the repository root with::

    PYTHONPATH=src python -m tests.baselines.test_summa_golden
"""

import json
from itertools import product
from pathlib import Path

import pytest

from repro.baselines import SummaSession, summa2d, summa3d
from repro.mpi.cartesian import layered_grid_dims
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix

from ..core.test_report_golden import (
    _csr_parts,
    _hash,
    arith_square,
    arith_tall,
    report_rows,
)

GOLDEN = Path(__file__).with_name("summa_golden.json")
SEMIRINGS = {"plus_times": PLUS_TIMES, "bool_and_or": BOOL_AND_OR}


def cases():
    """``(name, p, layers, path, semiring name)``; one layer is SUMMA-2D."""
    runs = [(p, 1) for p in (1, 2, 4, 6, 9)]
    runs += list(product((2, 4, 6, 8, 16), (2, 4)))
    for (p, layers), path, sr in product(runs, ("call", "session"), SEMIRINGS):
        algo = "summa2d" if layers == 1 else f"summa3d-l{layers}"
        yield f"{algo}-{path}-p{p}-{sr}", p, layers, path, sr


def operands(semiring: str):
    a, bs = arith_square(), [arith_tall(), arith_tall(d=5)]
    if semiring == "bool_and_or":
        a, bs = a != 0, [b != 0 for b in bs]
    return CsrMatrix.from_dense(a), [CsrMatrix.from_dense(b) for b in bs]


def _result_parts(res):
    return (*_csr_parts(res.C), report_rows(res.report))


def digest(p: int, layers: int, path: str, semiring: str) -> str:
    A, (B, B5) = operands(semiring)
    sr = SEMIRINGS[semiring]
    if path == "call":
        if layers == 1 and sr is PLUS_TIMES:
            res = summa2d(A, B, p)  # summa2d multiplies over plus_times only
        else:
            res = summa3d(A, B, p, layers=layers, semiring=sr)
        return _hash(*_result_parts(res))
    with SummaSession(A, p, layers=layers, semiring=sr) as session:
        first, second = session.multiply(B), session.multiply(B5)
        return _hash(
            report_rows(session.setup_report),
            *_result_parts(first),
            *_result_parts(second),
        )


CASES = list(cases())


@pytest.mark.parametrize("name,p,layers,path,sr", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, p, layers, path, sr):
    golden = json.loads(GOLDEN.read_text())
    assert digest(p, layers, path, sr) == golden[name]


def test_golden_covers_the_matrix():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(c[0] for c in CASES)
    # every SUMMA-3D entry really runs more than one layer
    for _, p, layers, _, _ in CASES:
        if layers > 1:
            assert layered_grid_dims(p, layers)[2] > 1, (p, layers)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({c[0]: digest(*c[1:]) for c in CASES}, indent=0) + "\n"
    )
    print(f"wrote {GOLDEN}")
