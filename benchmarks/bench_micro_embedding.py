"""Microbenchmark: the embedding epoch's rank-local steps, on the rows a
rank already holds.

Every epoch of the resident embedding (Fig 13, the spine's ``embed_cora``)
runs on each rank the distributed SDDMM's ``Z``-row fetch and the SGD
epilogue's top-k re-sparsification, on row blocks of d = 16 columns
(100 rows each for the n = 800 cora stand-in at p = 8).  ``src/`` ran
them as per-peer and per-format numpy calls; it now runs

* ``row_topk`` on the dense block, returning the kept CSR with its dense
  twin — gated >= 3x the CSR-input version (``_oracles.csr_row_topk``)
  applied to ``from_dense(z)`` plus the ``.to_dense()`` of its result, at
  340 x 16 with k = 3;
* ``_sddmm_send``: one ``extract_rows`` cut into every peer's payload —
  >= 1.2x one ``extract_rows`` per peer (``_oracles.per_peer_sddmm_send``,
  seven at p = 8; measured 1.65-1.72x);
* ``_sddmm_rows``: every received entry placed by one scatter through
  the plan's slot table — >= 1.2x a ``searchsorted`` and one
  ``to_dense`` per payload (``_oracles.per_payload_sddmm_rows``;
  measured 1.82-1.94x);
* ``compact_pattern`` (the SDDMM plan's re-indexing, rebuilt at every
  negative redraw): one gather from a slot table — >= 3x a
  ``searchsorted`` of the per-row sorted column ids
  (``_oracles.searched_compact_pattern``).

The fetch inputs are the ones each of the 8 ranks is handed in the first
epoch at the spine's configuration (cora stand-in, d = 16, sparsity 0.8),
captured from a real run.  Every comparison is bit-identical.  Results
land in ``benchmarks/results/micro_embedding.txt``.
"""

import numpy as np

from repro.analysis import print_table
from repro.apps import embedding, train_sparse_embedding
from repro.data import load
from repro.sparse import CsrMatrix, row_topk
from repro.sparse.sddmm import compact_pattern

from _oracles import (
    assert_bit_identical,
    csr_row_topk,
    per_payload_sddmm_rows,
    per_peer_sddmm_send,
    searched_compact_pattern,
)
from _timing import best_of_interleaved

P, D, SPARSITY, K = 8, 16, 0.8, 3


class _Capture(embedding._SddmmPrologue):
    """The SDDMM prologue, keeping each rank's fetch inputs."""

    def __init__(self):
        self.send_args, self.rows_args, self.plan_args = {}, {}, {}

    def sections(self, comm, operand, z_sp, z_dn, labels):
        send_rows, _, _, _ = self._plan(comm, operand)
        my_lo, _ = operand.dist.local_range
        self.send_args[comm.rank] = (z_sp, send_rows, comm.rank, my_lo)
        return super().sections(comm, operand, z_sp, z_dn, labels)

    def finish(self, comm, operand, received, z_sp, z_dn, labels):
        _, needed, slot, _ = operand.aux["sddmm_plan"]
        self.rows_args[comm.rank] = (
            needed, slot, received[self.PHASE], z_dn, operand.dist.local_range
        )
        self.plan_args[comm.rank] = (operand.local, needed)
        super().finish(comm, operand, received, z_sp, z_dn, labels)


def _race(case, new, old, floor):
    """Time both over every rank's input, gate the speedup (unless
    ``floor`` is None)."""
    (t_new, t_old), (got, want) = best_of_interleaved([new, old], repeats=40)
    assert floor is None or t_old >= floor * t_new, (
        f"{case}: must be >= {floor}x the reference, got "
        f"{t_new * 1e6:.0f} us vs {t_old * 1e6:.0f} us"
    )
    speedup = f"{t_old / t_new:.1f}x" + ("" if floor is None else f" (>= {floor}x)")
    return [case, f"{t_old * 1e6:.0f} us", f"{t_new * 1e6:.0f} us", speedup], got, want


def bench_micro_embedding(benchmark, sink, monkeypatch):
    capture = _Capture()
    monkeypatch.setattr(embedding, "_sddmm_prologue", capture)
    adj = load("cora", scale=1.0, seed=0)
    train_sparse_embedding(adj, P, d=D, sparsity=SPARSITY, epochs=1)
    assert sorted(capture.send_args) == sorted(capture.rows_args) == list(range(P))
    table = []

    rng = np.random.default_rng(32)
    # gated at 340 x 16; printed at embed_cora's own 100 x 16
    for nrows, floor in ((340, 3.0), (adj.nrows // P, None)):
        blocks = [rng.standard_normal((nrows, D)) for _ in range(P)]
        row, got, want = _race(
            f"top-k, {P} blocks of {nrows} x {D}, k = {K}",
            lambda: [row_topk(z, K) for z in blocks],
            lambda: [
                (kept, kept.to_dense())
                for kept in (csr_row_topk(CsrMatrix.from_dense(z), K) for z in blocks)
            ],
            floor,
        )
        table.append(row)
        for (kept, twin), (want_kept, want_twin) in zip(got, want):
            assert_bit_identical(kept, want_kept)
            assert twin.dtype == want_twin.dtype
            assert twin.tobytes() == want_twin.tobytes()

    send_args = [capture.send_args[r] for r in range(P)]
    row, got, want = _race(
        f"Z-row pack, {P} ranks x {P - 1} peers",
        lambda: [embedding._sddmm_send(*args) for args in send_args],
        lambda: [per_peer_sddmm_send(*args) for args in send_args],
        1.2,
    )
    table.append(row)
    for (send, packed), want_send in zip(got, want):
        assert packed == sum(x[1].nbytes_estimate() for x in want_send if x is not None)
        for g, w in zip(send, want_send):
            assert (g is None) == (w is None)
            if g is not None:
                assert g[0].dtype == w[0].dtype and np.array_equal(g[0], w[0])
                assert_bit_identical(g[1], w[1])
                assert g[1].shape == w[1].shape
                assert g[1].nbytes_estimate() == w[1].nbytes_estimate()

    rows_args = [capture.rows_args[r] for r in range(P)]
    row, got, want = _race(
        f"Z-row placement, {P} ranks",
        lambda: [embedding._sddmm_rows(*args) for args in rows_args],
        lambda: [
            per_payload_sddmm_rows(needed, *rest) for needed, _, *rest in rows_args
        ],
        1.2,
    )
    table.append(row)
    for (y, _), want_y in zip(got, want):
        assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()

    plan_args = [capture.plan_args[r] for r in range(P)]
    row, got, want = _race(
        f"compact pattern, {P} ranks",
        lambda: [compact_pattern(*args) for args in plan_args],
        lambda: [searched_compact_pattern(*args) for args in plan_args],
        3.0,
    )
    table.append(row)
    for (compact, slot), want_compact, (_, needed) in zip(got, want, plan_args):
        assert np.array_equal(slot[needed], np.arange(len(needed)))
        assert compact.shape == want_compact.shape
        assert_bit_identical(compact, want_compact)

    print_table(
        "Embedding epoch, rank-local steps: reference vs src (best of 40, all ranks)",
        ["step", "reference", "src", "speedup"],
        table,
        file=sink,
    )
    benchmark(lambda: [row_topk(z, K) for z in blocks])
