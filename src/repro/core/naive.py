"""Algorithm 1: the naive distributed TS-SpGEMM.

The baseline distributed Gustavson formulation ("variants of this
algorithm are implemented in popular libraries such as PETSc and
Trilinos", §III-A): every process

1. collects the nonzero-column ids of its local ``A`` block (the ``nzc``
   vector of Fig 1),
2. sends row *requests* to the owners of those columns (first all-to-all,
   Alg 1 line 3),
3. receives the requested ``B`` rows (second all-to-all, line 4), and
4. runs one local SpGEMM against the assembled ``B`` subset (line 5).

Its two weaknesses motivate the tiled algorithm: the request round is pure
overhead (eliminated by the ``Ac`` column copy) and the received ``B``
subset can approach the whole matrix (bounded by tiling).
:func:`repro.baselines.petsc1d.petsc1d` runs it as a per-call baseline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..mpi.marker import rank_program
from ..partition.distmat import DistSparseMatrix, stack_blocks
from ..sparse.csr import INDEX_DTYPE
from ..sparse.kernels import dispatch_spgemm, resolve_spgemm
from ..sparse.ops import extract_rows
from ..sparse.semiring import PLUS_TIMES, Semiring
from .config import DEFAULT_CONFIG, TsConfig
from .gather_rows import pack_rows, place_rows


@rank_program
def naive_multiply(
    A: DistSparseMatrix,
    B: DistSparseMatrix,
    semiring: Semiring = PLUS_TIMES,
    config: TsConfig = DEFAULT_CONFIG,
) -> Tuple[DistSparseMatrix, dict]:
    """One Alg 1 multiply; returns ``(C, diagnostics)``.

    ``A`` is the square operand (1-D row partitioned), ``B`` the
    tall-and-skinny one on the same communicator and row partition.
    Diagnostics report the request/fetch volumes that the tiled algorithm
    eliminates or bounds.
    """
    comm = A.comm
    if B.comm is not comm:
        raise ValueError("A and B must live on the same communicator")
    d = B.ncols
    rows = B.rows

    # Line 2-3: nonzero columns of Ai, requested from their owners.
    with comm.phase("request-indices"):
        nzc = A.local.nonzero_columns()
        owners = rows.owners(nzc) if len(nzc) else np.zeros(0, dtype=INDEX_DTYPE)
        requests = []
        for j in range(comm.size):
            requests.append(nzc[owners == j] if len(nzc) else None)
        incoming = comm.alltoall(
            [r if r is not None and len(r) else None for r in requests]
        )
        incoming_local_ids = [
            rows.to_local(comm.rank, req)
            if req is not None and len(req)
            else None
            for req in incoming
        ]

    # Line 4: answer requests with packed B rows (global ids travel along).
    with comm.phase("fetch-B"):
        replies = []
        pack_bytes = 0
        for i, req in enumerate(incoming):
            if req is None or len(req) == 0:
                replies.append(None)
                continue
            local_ids = incoming_local_ids[i]
            packed = pack_rows(B.local, local_ids)
            if packed is None:
                replies.append(None)
            else:
                _, extracted = packed
                replies.append((np.asarray(req, dtype=INDEX_DTYPE), extracted))
                pack_bytes += extracted.nbytes_estimate()
        comm.charge_touch(pack_bytes)
        received = comm.alltoall(replies)

    # Assemble the needed B subset at full height n (the naive memory
    # bottleneck the paper points out), then multiply locally (line 5).
    with comm.phase("local-multiply"):
        parts_rows = [r[0] for r in received if r is not None]
        parts_mats = [r[1] for r in received if r is not None]
        if parts_rows:
            all_ids = np.concatenate(parts_rows)
            order = np.argsort(all_ids, kind="stable")
            stacked = stack_blocks(parts_mats, d)
            payload = (all_ids[order], extract_rows(stacked, order))
        else:
            payload = None
        b_needed = place_rows(rows.n, payload, d, semiring.dtype)
        kname = resolve_spgemm(config.kernel, semiring, A.local, d=d).name
        c_local, flops = dispatch_spgemm(A.local, b_needed, semiring, kname)
        comm.charge_spgemm(flops, d=d, kernel=kname)

    diagnostics = {
        "fetched_b_nnz": int(sum(m.nnz for m in parts_mats)),
        "requested_rows": int(sum(len(r) for r in parts_rows)),
        "flops": int(flops),
    }
    return DistSparseMatrix(comm, A.rows, c_local, d), diagnostics
