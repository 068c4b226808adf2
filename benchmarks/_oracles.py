"""Reference implementations the micro gates and the tests compare
``src/`` against.

Importable as a plain module (``from _oracles import lexsort_merge``):
pytest puts each non-package bench module's directory on ``sys.path``
during collection, and ``tests/conftest.py`` adds it for the tests.
"""

import numpy as np

from repro.apps.msbfs import BfsIteration, BfsResult, _frontier_update, _msbfs_driver_loop
from repro.baselines.registry import make_session
from repro.core import DEFAULT_CONFIG, prepare_multiply, tiled_multiply
from repro.core.symbolic import DIAGONAL, EMPTY, LOCAL, REMOTE, SubtileInfo, SymbolicPlan
from repro.data import bfs_frontier
from repro.mpi import PERLMUTTER, run_spmd
from repro.partition.distmat import DistSparseMatrix, _vstack_blocks, _vstack_tagged
from repro.sparse import (
    BOOL_AND_OR,
    CsrMatrix,
    dispatch_spgemm,
    extract_col_range,
    extract_row_range,
    extract_rows,
    resolve_spgemm,
    spgemm_flops,
)
from repro.sparse.kernels import row_flops_before, symbolic_size
from repro.sparse.build import csr_from_triples
from repro.sparse.csr import INDEX_DTYPE


def assert_bit_identical(got: CsrMatrix, want: CsrMatrix) -> None:
    """Same pattern, same value dtype, same value bits."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


def shuffled_rows(mat, rng) -> CsrMatrix:
    """``mat`` with each row's entries in a random order, values moved
    along — a part as a compiled product hands it to the merge, rows in an
    accumulator order of their own.  What the merge's arrays must not
    depend on."""
    perm = np.lexsort((rng.random(mat.nnz), mat.row_ids()))
    return CsrMatrix(mat.shape, mat.indptr, mat.indices[perm], mat.data[perm], check=False)


def lexsort_merge(parts, semiring) -> CsrMatrix:
    """The seed's k-way merge, spelled out: concatenate, literal two-key
    ``np.lexsort``, segmented reduce.  ``src/`` orders the same triples
    with one stable sort of a fused key (``row_major_order``); this is
    what that must stay bit-identical to, and faster than."""
    rows = np.concatenate([p.row_ids() for p in parts])
    cols = np.concatenate([p.indices for p in parts])
    vals = np.concatenate([semiring.coerce(p.data) for p in parts])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    change = np.ones(len(rows), dtype=bool)
    change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(change)
    counts = np.bincount(rows[starts], minlength=parts[0].nrows)
    return CsrMatrix(
        parts[0].shape,
        np.concatenate([[0], np.cumsum(counts)]),
        cols[starts],
        semiring.reduce_segments(vals, starts),
        check=False,
    )


def sorted_float_merge(parts, semiring) -> CsrMatrix:
    """The order-bound merge as it stood before the counting sort, and as
    it still runs outside the dense bound: concatenate, one stable sort of
    the fused key (``row_major_order``), segmented reduce.  What the
    counting-sort branch of ``merge_csrs`` must stay bit-identical to, and
    faster than."""
    rows = np.concatenate([p.row_ids() for p in parts])
    cols = np.concatenate([p.indices for p in parts])
    vals = np.concatenate([semiring.coerce(p.data) for p in parts])
    return csr_from_triples(rows, cols, vals, parts[0].shape, semiring)


def scipy_objects_product(a, b):
    """The ``scipy`` kernel as it stood before it called the compiled
    routines on the raw arrays: wrap both operands in ``scipy.sparse``
    objects (validated, indices down-cast), multiply, canonicalize, unwrap.
    What ``spgemm_scipy_kernel`` must stay bit-identical to, and faster than."""
    flops = spgemm_flops(a, b)
    product = a.to_scipy() @ b.to_scipy()
    product.sum_duplicates()
    product.sort_indices()
    c = CsrMatrix(product.shape, product.indptr, product.indices, product.data, check=False)
    return c, flops


def value_free_spa(a, b):
    """The ``spa`` kernel's branch for all-True boolean operands as it stood
    before it called scipy's compiled product: expand every product once to
    its fused ``row * d + col`` key, mark the keys in a dense ``rows x d``
    mask, read the mask back in row-major order — no value is built, every
    output is ``True``.  (Operands inside the scratch bound: one block.)
    What the compiled route must stay bit-identical to, and not slower
    than; run per row block, it is what ``replan`` did per subtile."""
    empty = CsrMatrix.empty((a.nrows, b.ncols), dtype=np.bool_), 0
    if a.nnz == 0 or b.nnz == 0:
        return empty
    starts = b.indptr[a.indices]
    counts = b.indptr[1:][a.indices] - starts
    offsets = np.zeros(a.nnz + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return empty
    src = np.repeat(starts - offsets[:-1], counts) + np.arange(total, dtype=np.int64)
    d = b.ncols
    row_base = np.arange(0, (a.nrows + 1) * d, d, dtype=np.int64)
    flat = np.repeat(row_base[:-1], np.diff(offsets[a.indptr])) + b.indices[src]
    mask = np.zeros(a.nrows * d, dtype=bool)
    mask[flat] = True
    keys = np.flatnonzero(mask)
    indptr = np.searchsorted(keys, row_base)
    cols = keys - np.repeat(row_base[:-1], np.diff(indptr))
    result = CsrMatrix(
        (a.nrows, d), indptr, cols, np.ones(len(keys), dtype=bool), check=False
    )
    return result, total


def three_pass_spa(a, b, semiring):
    """The ``spa`` kernel as it stood before the shared accumulator:
    expand to a ``(rows, cols, vals)`` triple, then per row block
    ``searchsorted`` → fused key → ``add.at`` into an identity-filled
    scratch + pattern mask → read back → concatenate.  What
    ``spgemm_spa_vectorized`` must stay bit-identical to, and faster than."""
    if a.nnz == 0 or b.nnz == 0:
        return CsrMatrix.empty((a.nrows, b.ncols), dtype=semiring.dtype), 0
    counts = b.row_nnz()[a.indices]
    total = int(counts.sum())
    if total == 0:
        return CsrMatrix.empty((a.nrows, b.ncols), dtype=semiring.dtype), 0
    out_rows = np.repeat(a.row_ids(), counts)
    seg_offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(counts[:-1])]).astype(np.int64), counts
    )
    src = np.repeat(b.indptr[a.indices], counts) + seg_offsets
    out_cols = b.indices[src]
    out_vals = semiring.multiply(np.repeat(a.data, counts), b.data[src])

    d = b.ncols
    rows_per_block = max(1, (1 << 22) // max(d, 1))  # the scratch bound
    parts_keys, parts_vals = [], []
    for r0 in range(0, a.nrows, rows_per_block):
        r1 = min(r0 + rows_per_block, a.nrows)
        lo = np.searchsorted(out_rows, r0, side="left")
        hi = np.searchsorted(out_rows, r1, side="left")
        if lo == hi:
            continue
        flat = (out_rows[lo:hi] - r0) * d + out_cols[lo:hi]
        scratch = np.full((r1 - r0) * d, semiring.zero, dtype=semiring.dtype)
        semiring.add.at(scratch, flat, out_vals[lo:hi])
        mask = np.zeros((r1 - r0) * d, dtype=bool)
        mask[flat] = True
        keys = np.flatnonzero(mask)
        parts_keys.append(keys + r0 * d)
        parts_vals.append(scratch[keys])
    keys = np.concatenate(parts_keys)
    row_counts = np.bincount(keys // d, minlength=a.nrows)
    indptr = np.concatenate([[0], np.cumsum(row_counts)])
    result = CsrMatrix(
        (a.nrows, d), indptr, keys % d, np.concatenate(parts_vals), check=False
    )
    return result, total


def masked_column_split(mat, col_ranges):
    """The split of a row block by the column partition as it stood before
    ``ColumnStrips`` cut it in one pass: one ``extract_col_range`` per range,
    each masking all ``nnz`` column ids — what ``build_column_copy`` and
    ``ColumnStrips`` each ran, and (as ``flatnonzero`` of the same masks)
    both value-refresh selections.  What the one-pass split must stay
    array-for-array equal to, and faster than."""
    return [extract_col_range(mat, c0, c1, reindex=True) for c0, c1 in col_ranges]


def unique_per_row_range(mat, bounds):
    """``nzc`` per row range as it stood before ``nonzero_columns_by_rows``:
    one ``np.unique`` (a sort) per range — what ``prepare_multiply``,
    ``derive_edge_subset``, the SpMM mode table and the SDDMM plan ran per
    (peer, row tile).  What the one pass must stay equal to, and faster than."""
    return [
        np.unique(extract_row_range(mat, r0, r1).indices)
        for r0, r1 in zip(bounds[:-1], bounds[1:])
    ]


def per_subtile_plan(prepared, A, B):
    """The hybrid boolean symbolic step as it stood before the one product
    per column block: one kernel call per stored subtile of ``A.col_copy``.
    ``(peer, row tile, mode, needed_b_nnz, output_nnz, kept)`` per slot,
    charged like ``replan`` — what its plan must stay equal to, field for
    field and charge for charge.  Each product's rows are in the order
    ``replan``'s one product leaves them: accumulator order, unless the
    column block stores a ``False``, which sends that product through the
    fold, whose rows are sorted — even for a subtile that stores none."""
    comm, config = A.comm, prepared.config
    ordered = not A.col_copy.data.all()

    def product(peer, ps):
        lo, _ = A.rows.range_of(peer)
        block = extract_row_range(A.col_copy, lo + ps.row_range[0], lo + ps.row_range[1])
        return dispatch_spgemm(
            block, B.local, BOOL_AND_OR, config.kernel, strict=False, ordered=ordered
        )

    slots = []
    with comm.phase("symbolic"):
        b_row_nnz = B.local.row_nnz()
        sym_kernel = resolve_spgemm(
            config.kernel, BOOL_AND_OR, d=B.ncols, strict=False
        ).name
        for peer in range(comm.size):
            for ps in prepared.subtiles[peer]:
                if not ps.stored:
                    slots.append((peer, ps.row_tile, EMPTY, 0, 0, None))
                    continue
                if peer == comm.rank:
                    slots.append((peer, ps.row_tile, DIAGONAL, 0, 0, product(peer, ps)))
                    continue
                nzc = ps.needed_b_rows
                needed_nnz = int(b_row_nnz[nzc].sum())
                pattern, flops = product(peer, ps)
                comm.charge_symbolic(flops, kernel=sym_kernel)
                out_rows = int(np.count_nonzero(pattern.row_nnz()))
                remote = 16 * pattern.nnz + 16 * out_rows < 16 * needed_nnz + 16 * len(nzc)
                slots.append(
                    (
                        peer, ps.row_tile, REMOTE if remote else LOCAL, needed_nnz,
                        pattern.nnz, (pattern, flops) if remote else None,
                    )
                )
    return slots


class _WholeBlockProduct:
    """``_ColumnBlockProduct`` as it stood before it multiplied the stored
    row span only: all ``n`` rows of ``col_copy``, both prefix arrays built
    whatever the product holds; dispatched unordered, as it is."""

    def __init__(self, col_copy, b_local, kernel):
        self._product, _ = dispatch_spgemm(
            col_copy, b_local, BOOL_AND_OR, kernel, strict=False, ordered=False
        )
        self._flops_before = row_flops_before(col_copy, b_local)
        self._rows_before = np.zeros(col_copy.nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(self._product.row_nnz() != 0, out=self._rows_before[1:])

    def size(self, g0, g1):
        indptr = self._product.indptr
        return (
            int(indptr[g1] - indptr[g0]),
            int(self._rows_before[g1] - self._rows_before[g0]),
            int(self._flops_before[g1] - self._flops_before[g0]),
        )

    def kept(self, g0, g1):
        flops = int(self._flops_before[g1] - self._flops_before[g0])
        return extract_row_range(self._product, g0, g1), flops


def per_slot_replan(prepared, A, B) -> SymbolicPlan:
    """``replan`` as it stood before it walked an index of the stored
    slots, statement for statement: every (peer, row tile) slot of
    ``prepared.subtiles`` visited and given a fresh ``SubtileInfo``, EMPTY
    ones included, and on boolean operands the whole column block
    multiplied (``_WholeBlockProduct``).  Charged like ``replan`` — what
    its plan must stay equal to (``assert_same_plan``; the by-mode groups
    are ``replan``'s own addition and stay unfilled here), and faster than
    wherever slots are empty."""
    comm = A.comm
    config = prepared.config
    plan = SymbolicPlan(row_tile_ranges=prepared.row_tile_ranges)
    hybrid = config.mode_policy == "hybrid"
    forced = LOCAL if config.mode_policy == "local" else REMOTE

    with comm.phase("symbolic"):
        product = None
        if hybrid:
            b_row_nnz = B.local.row_nnz()
            sym_kernel = resolve_spgemm(
                config.kernel, BOOL_AND_OR, d=B.ncols, strict=False
            ).name
            if B.local.dtype == np.bool_ and A.col_copy.dtype == np.bool_:
                product = _WholeBlockProduct(A.col_copy, B.local, config.kernel)
        for peer, (peer_lo, _) in enumerate(A.rows.ranges):
            infos = []
            for ps in prepared.subtiles[peer]:
                r0r1 = ps.row_range
                if not ps.stored:
                    infos.append(
                        SubtileInfo(peer, ps.row_tile, r0r1, EMPTY, None, 0, 0)
                    )
                    continue
                g0, g1 = peer_lo + r0r1[0], peer_lo + r0r1[1]
                if peer == comm.rank:
                    kept = None if product is None else product.kept(g0, g1)
                    infos.append(
                        SubtileInfo(peer, ps.row_tile, r0r1, DIAGONAL, None, 0, 0, kept)
                    )
                    continue
                nzc = ps.needed_b_rows
                if not hybrid:
                    infos.append(
                        SubtileInfo(peer, ps.row_tile, r0r1, forced, nzc, 0, 0)
                    )
                    continue
                needed_nnz = int(b_row_nnz[nzc].sum())
                if product is None:
                    out_nnz, out_rows, sym_flops = symbolic_size(
                        extract_row_range(A.col_copy, g0, g1), B.local
                    )
                else:
                    out_nnz, out_rows, sym_flops = product.size(g0, g1)
                comm.charge_symbolic(sym_flops, kernel=sym_kernel)
                plan.pattern_products += 1
                local_bytes = 16 * needed_nnz + 16 * len(nzc)
                remote_bytes = 16 * out_nnz + 16 * out_rows
                mode = REMOTE if remote_bytes < local_bytes else LOCAL
                keep = product is not None and mode == REMOTE
                infos.append(
                    SubtileInfo(
                        peer,
                        ps.row_tile,
                        r0r1,
                        mode,
                        nzc,
                        needed_nnz,
                        out_nnz,
                        product.kept(g0, g1) if keep else None,
                    )
                )
            plan.produced[peer] = infos

        if hybrid:
            plan.outgoing_modes = [
                [s.mode for s in plan.produced[peer]] for peer in range(comm.size)
            ]
    return plan


def assert_same_plan(got: SymbolicPlan, want: SymbolicPlan) -> None:
    """Two symbolic plans equal field for field — every slot's info (arrays
    by content, kept slices bit for bit), the mode lists still to ship, the
    counters — and ``got``'s by-mode groups name exactly its stored infos."""
    assert got.row_tile_ranges == want.row_tile_ranges
    assert got.pattern_products == want.pattern_products
    assert got.outgoing_modes == want.outgoing_modes
    assert list(got.produced) == list(want.produced)
    for peer, infos in got.produced.items():
        assert len(infos) == len(want.produced[peer])
        for g, w in zip(infos, want.produced[peer]):
            assert (g.peer, g.row_tile, g.row_range, g.mode) == (
                w.peer, w.row_tile, w.row_range, w.mode
            )
            assert (g.needed_b_nnz, g.output_nnz) == (w.needed_b_nnz, w.output_nnz)
            assert (g.needed_b_rows is None) == (w.needed_b_rows is None)
            if g.needed_b_rows is not None:
                assert np.array_equal(g.needed_b_rows, w.needed_b_rows)
            assert (g.symbolic is None) == (w.symbolic is None)
            if g.symbolic is not None:
                assert g.symbolic[0].shape == w.symbolic[0].shape
                assert_bit_identical(g.symbolic[0], w.symbolic[0])
                assert g.symbolic[1] == w.symbolic[1] and type(g.symbolic[1]) is int
    stored = [s for infos in got.produced.values() for s in infos if s.mode != EMPTY]
    grouped = [
        s for mode in (LOCAL, REMOTE, DIAGONAL)
        for infos in got.by_mode[mode].values() for s in infos
    ]
    assert sorted(map(id, stored)) == sorted(map(id, grouped))
    assert all(
        s.mode == mode for mode in got.by_mode
        for infos in got.by_mode[mode].values() for s in infos
    )
    assert got.count(EMPTY) == sum(len(infos) for infos in got.produced.values()) - len(stored)


def masked_replay_edge_ids(session):
    """``TsSession._ensure_edge_ids`` as it stood before it replayed the
    one-pass split: one masked ``extract_col_range`` pass per (sender,
    receiver) pair.  ``(local ids, column-copy ids)`` per rank — what the
    companions must stay equal to."""
    indptr, indices = session._pattern
    n = session.ncols
    ids = CsrMatrix(
        (n, n), indptr, indices, np.arange(len(indices), dtype=np.int64), check=False
    )
    ranges = session._rows.ranges
    local_ids = [extract_row_range(ids, lo, hi) for lo, hi in ranges]
    per_rank = []
    for j, (c0, c1) in enumerate(ranges):
        tagged = [
            (ranges[i][0], extract_col_range(local_ids[i], c0, c1, reindex=True))
            for i in range(session.p)
        ]
        per_rank.append((local_ids[j].data, _vstack_tagged(tagged, n, c1 - c0).data))
    return per_rank


def single_program_msbfs(
    A, sources, p, *, config=DEFAULT_CONFIG, machine=PERLMUTTER, max_levels=None,
    prepare=True,
):
    """Multi-source BFS as one resident SPMD program — the removed
    ``msbfs_spmd``, statement for statement.  The ``Ac`` column copy and
    (with ``prepare``) the multiply plan are built once; the frontier
    update and the termination allreduce run rank-locally between
    multiplies; per-level ``comm_bytes`` / ``comm_time`` / ``rounds`` are
    deltas of each rank's counters around the level (bytes summed over
    ranks, times max).  What the handle path's per-level trace must equal
    byte for byte (Fig 12); ``prepare=False`` re-plans every level, the
    plan-reuse ablation."""
    if A.nrows != A.ncols:
        raise ValueError("adjacency matrix must be square")
    sources = np.asarray(sources, dtype=np.int64)
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    f_global = bfs_frontier(A.nrows, sources)

    def program(comm):
        dist_a = DistSparseMatrix.scatter_rows(comm, a_bool)
        dist_a.build_column_copy()
        prepared = prepare_multiply(dist_a, config) if prepare else None
        dist_f = DistSparseMatrix.scatter_rows(comm, f_global)
        visited = dist_f.local
        frontier = dist_f.local
        trace = []
        level = 0
        while True:
            with comm.phase("frontier-sync"):
                frontier_nnz = comm.allreduce(frontier.nnz)
            if frontier_nnz == 0:
                break
            if max_levels is not None and level >= max_levels:
                break
            t0 = comm.time
            totals0 = comm.stats.totals()
            bytes0, comm_t0 = totals0.bytes_sent, totals0.comm_time
            dist_f = DistSparseMatrix(comm, dist_a.rows, frontier, f_global.ncols)
            dist_n, diag = tiled_multiply(
                dist_a, dist_f, BOOL_AND_OR, config, prepared=prepared
            )
            frontier, visited = _frontier_update(comm, dist_n.local, visited)
            totals1 = comm.stats.totals()
            trace.append(
                (
                    level,
                    frontier_nnz,
                    frontier.nnz,
                    diag.sent_b_nnz + diag.sent_c_nnz,
                    comm.time - t0,
                    totals1.bytes_sent - bytes0,
                    totals1.comm_time - comm_t0,
                    totals1.alltoall_rounds - totals0.alltoall_rounds,
                )
            )
            level += 1
        return visited, trace

    result = run_spmd(p, program, machine=machine, sanitize=config.sanitize or None)
    visited = _vstack_blocks([v[0] for v in result.values], f_global.ncols)
    out = BfsResult(visited=visited)
    # Aggregate per-level traces across ranks (sum counters, max times).
    n_levels = max(len(v[1]) for v in result.values)
    for lvl in range(n_levels):
        entries = [v[1][lvl] for v in result.values if lvl < len(v[1])]
        out.iterations.append(
            BfsIteration(
                iteration=lvl,
                frontier_nnz=entries[0][1],
                discovered_nnz=sum(e[2] for e in entries),
                comm_bytes=sum(e[5] for e in entries),
                comm_nnz=sum(e[3] for e in entries),
                runtime=max(e[4] for e in entries),
                comm_time=max(e[6] for e in entries),
                rounds=max(e[7] for e in entries),
            )
        )
    return out


def driver_round_trip_msbfs(
    A, sources, p, *, algorithm="TS-SpGEMM", config=DEFAULT_CONFIG,
    machine=PERLMUTTER, max_levels=None,
):
    """MS-BFS with every level's frontier and product round-tripping
    through the driver — the removed ``msbfs(driver_gather=True)``: a TS
    session multiplies the driver-held frontier with
    ``charge_driver=True`` (root scatter of ``B`` and gather of ``C`` on
    the clocks) and the driver runs ``difference_and_union``.  What the
    handle path must match bit for bit in ``visited`` and beat on
    modelled time by exactly the round trip."""
    a_bool = A if A.dtype == np.bool_ else A.astype(np.bool_)
    with make_session(
        algorithm, a_bool, p, semiring=BOOL_AND_OR, machine=machine, config=config
    ) as session:
        return _msbfs_driver_loop(
            A.nrows, np.asarray(sources, dtype=np.int64), max_levels,
            lambda frontier: session.multiply(frontier, charge_driver=True),
        )


def csr_row_topk(mat, k) -> CsrMatrix:
    """The CSR-input ``row_topk`` the dense one replaced: every row ranked
    by one global ``lexsort((-|value|, rows))`` over the stored entries,
    ``mat`` itself returned when no row has more than ``k``.  Applied to
    ``CsrMatrix.from_dense(z)`` it is what ``row_topk(z, k)`` must return
    array for array, dtypes included."""
    if k < 0:
        raise ValueError("k must be non-negative")
    counts = mat.row_nnz()
    if (counts <= k).all():
        return mat
    rows = mat.row_ids()
    mag = np.abs(mat.data.astype(np.float64, copy=False))
    order = np.lexsort((-mag, rows))
    ranks = np.arange(mat.nnz) - np.repeat(mat.indptr[:-1], counts)
    keep = np.zeros(mat.nnz, dtype=bool)
    keep[order] = ranks < k
    csum = np.concatenate([[0], np.cumsum(keep)])
    return CsrMatrix(
        mat.shape,
        csum[mat.indptr].astype(INDEX_DTYPE),
        mat.indices[keep],
        mat.data[keep],
        check=False,
    )


def per_peer_sddmm_send(z_sp_local, send_rows, rank, my_lo):
    """The SDDMM prologue's send list as it was built before the one
    gather: one ``extract_rows`` per peer that references any of this
    rank's ``Z`` rows, ``None`` for the rank itself and for the others."""
    send = [None] * len(send_rows)
    for i, rows in enumerate(send_rows):
        if i != rank and len(rows):
            send[i] = (my_lo + rows, extract_rows(z_sp_local, rows))
    return send


def per_payload_sddmm_rows(needed, received, z_dn_local, local_range):
    """The SDDMM prologue's compact ``Z`` operand as it was assembled
    before the one scatter: the rank's own rows copied from its dense
    block, then one ``to_dense`` per received payload written to the
    payload's slots."""
    my_lo, my_hi = local_range
    y = np.zeros((len(needed), z_dn_local.shape[1]))
    mine = (needed >= my_lo) & (needed < my_hi)
    y[mine] = z_dn_local[needed[mine] - my_lo]
    for payload in received:
        if payload is not None:
            gids, block = payload
            y[np.searchsorted(needed, gids)] = block.to_dense()
    return y


def searched_compact_pattern(local, needed) -> CsrMatrix:
    """``compact_pattern`` as it was before its slot table: one
    ``searchsorted`` of every column id in ``needed``."""
    return CsrMatrix(
        (local.nrows, len(needed)),
        local.indptr,
        np.searchsorted(needed, local.indices),
        local.data,
        check=False,
    )
