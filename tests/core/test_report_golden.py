"""Full-report golden digests: the multiply's accounting, pinned.

Every entry runs one small multiply and hashes *everything* it reports:
the product, the merged diagnostics and the whole per-rank per-phase
:class:`~repro.mpi.stats.SpmdReport` (bytes, messages, collectives,
all-to-all rounds, ``comm_time.hex()``, ``compute_time.hex()``, clocks).
A refactor of the rank programs that changes a charge, its order (virtual
clocks add in float) or a payload by one byte changes a digest.

Matrix: ``fuse_comm`` {on, off} × mode policy {hybrid, local, remote} ×
tile width {1, 16} × tile height {None, 5} at p = 4, over a float
``ts_spgemm``, a boolean one, a dense-``B`` ``ts_spgemm`` and one embedding epoch
(SDDMM prologue → multiply → SGD epilogue on a resident session).

Operands are built arithmetically with small integer values — no RNG, and
every float sum is exact — so the digests depend neither on numpy's bit
generator nor on its summation order.  The embedding entry's values pass
through ``exp``, whose last bit may differ between numpy builds, so it
hashes the report, the diagnostics and the new embedding's *pattern
sizes* only.

``report_golden.json`` was generated at the commit *before* the round
schedule was unified (PR 16).  Regenerate — only when a change to the
accounting is intended and explained in CHANGES.md — with::

    PYTHONPATH=src python tests/core/test_report_golden.py

The sparse, boolean and dense entries were regenerated once, when a
one-shot call became one multiply on a fresh session: each equals what
the commit before that computed for ``TsSession(A, P, ...).multiply(B)``.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from repro.apps.embedding import _make_sgd_epilogue, _sddmm_prologue
from repro.core import TsConfig, TsSession, ts_spgemm
from repro.sparse import BOOL_AND_OR, PLUS_TIMES, CsrMatrix

GOLDEN = Path(__file__).with_name("report_golden.json")
N, D, P = 48, 8, 4
KINDS = ("sparse", "boolean", "dense", "embed")


def arith_square(n=N):
    """Square operand: two entries per row plus *hub* rows touching every
    third column — few output rows against many needed ``B`` rows, so the
    hybrid policy picks both modes."""
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, (3 * i + 1) % n] = 1 + i % 4
        dense[i, (5 * i + 2) % n] = 1 + (i + 1) % 3
        if i % 7 == 0:
            dense[i, i % 3 :: 3] = 1 + i % 2
    return dense


def arith_tall(n=N, d=D):
    """Tall-and-skinny operand, ~40 % filled, values in 1..3."""
    i, j = np.indices((n, d))
    return np.where((2 * i + 3 * j) % 5 < 2, 1 + (i + j) % 3, 0).astype(float)


def cases():
    for kind, fuse, policy, width, height in product(
        KINDS, (True, False), ("hybrid", "local", "remote"), (1, 16), (None, 5)
    ):
        name = f"{kind}-fuse{int(fuse)}-{policy}-w{width}-h{height}"
        yield name, kind, TsConfig(
            fuse_comm=fuse,
            mode_policy=policy,
            tile_width_factor=width,
            tile_height=height,
        )


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def report_rows(report):
    """The whole report as plain comparable rows (floats as hex)."""
    rows = [
        ("clocks", [c.hex() for c in report.clocks]),
        ("comm", [c.hex() for c in report.comm_times]),
        ("compute", [c.hex() for c in report.compute_times]),
    ]
    for rs in report.rank_stats:
        for name in sorted(rs.phases):
            ps = rs.phases[name]
            rows.append(
                (
                    rs.rank, name, ps.bytes_sent, ps.bytes_recv,
                    ps.messages_sent, ps.messages_recv, ps.collectives,
                    ps.alltoall_rounds, ps.comm_time.hex(),
                    ps.compute_time.hex(),
                )
            )
    return rows


def _counters(diagnostics):
    return sorted((k, int(v)) for k, v in diagnostics.items())


def _csr_parts(m: CsrMatrix):
    return m.shape, m.indptr, m.indices, m.data


def digest(kind: str, config: TsConfig) -> str:
    a = arith_square()
    b = arith_tall()
    if kind == "dense":
        res = ts_spgemm(CsrMatrix.from_dense(a), b, P, config=config)
        return _hash(res.C, _counters(res.diagnostics), report_rows(res.report))
    if kind in ("sparse", "boolean"):
        if kind == "boolean":
            a, b, semiring = a != 0, b != 0, BOOL_AND_OR
        else:
            semiring = PLUS_TIMES
        res = ts_spgemm(
            CsrMatrix.from_dense(a), CsrMatrix.from_dense(b), P,
            semiring=semiring, config=config,
        )
        return _hash(
            *_csr_parts(res.C), _counters(res.diagnostics),
            report_rows(res.report),
        )
    # One embedding epoch: ±1-labelled pattern, Z from the same lattice.
    sign = np.where(np.indices(a.shape).sum(0) % 3 == 0, -1.0, 1.0)
    labels = np.where(a != 0, sign, 0.0)
    pattern = CsrMatrix.from_dense(labels)
    z = CsrMatrix.from_dense(b / 8.0)
    with TsSession(pattern, P, config=config) as session:
        z_sp = session.scatter(z)
        z_dn = session.scatter(z.to_dense())
        res = session.multiply(
            z_sp,
            gather=False,
            prologue=_sddmm_prologue,
            prologue_operands=(z_sp, z_dn, session.scatter(pattern)),
            epilogue=_make_sgd_epilogue(0.02, 3),
            epilogue_operands=(z_dn,),
        )
        new_sp, new_dn = res.extra
        return _hash(
            report_rows(session.setup_report),
            res.C.gather().indptr,
            new_sp.gather().indptr,
            new_dn.gather().shape,
            _counters(res.diagnostics),
            report_rows(res.report),
        )


CASES = list(cases())


@pytest.mark.parametrize("name,kind,config", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, kind, config):
    golden = json.loads(GOLDEN.read_text())
    assert digest(kind, config) == golden[name]


def test_golden_covers_the_matrix_and_both_modes():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(c[0] for c in CASES)
    # the hybrid operand really exercises both modes (else the matrix
    # would pin only half the schedule)
    res = ts_spgemm(
        CsrMatrix.from_dense(arith_square()), CsrMatrix.from_dense(arith_tall()), P
    )
    assert res.diagnostics["local_tiles"] and res.diagnostics["remote_tiles"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(kind, cfg) for name, kind, cfg in CASES}, indent=0)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
