"""Micro-benchmark: the kernel dispatch registry, vectorized vs rowwise.

Runs every registered SpGEMM kernel on the ``bench_micro_accumulators``
workload (A: 400×400 @ 8 nnz/row, B: 400×64 @ 12 nnz/row — ~38K semiring
products) and prints wall-clock times plus each kernel's speedup over the
seed's scalar per-row SPA path (``spgemm_spa_rowwise`` in ``_oracles.py``).  The tentpole target — the vectorized
default ≥5× faster than the seed path — is asserted here from *measured*
numbers, and ``tests/sparse/test_kernel_perf.py`` re-checks it on every
test run.  A second, BFS-shaped case (a 256x256 boolean block times a
256x64 frontier, ~1.5K products — the size of one ``msbfs_uk`` tile
product, where per-call fixed cost dominates) holds the ``spa`` kernel to
>=1.5x its former three-pass body, kept in ``_oracles.py``, bit for bit,
and its all-True route — scipy's compiled product on ``bool`` arrays — to
the numpy fold it replaced (``value_free_spa``); a column-block row (a
4096x256 boolean ``Ac_j`` times the same frontier) holds one call on the
block to >=1.5x that fold on its 16 row blocks, which is what ``replan``
ran per subtile, every row slice bit-identical.
A third holds the arithmetic path to what it replaced: the ``scipy``
kernel >=2x the ``scipy.sparse``-object product on an embedding-shaped
tile (340x340 block times 340x16, ~750 products), bit for bit, and
``symbolic_size`` >=2x the pattern product on a one-shot-shaped subtile.
A fourth holds a product only a merge reads — ``dispatch_spgemm`` with
``ordered`` false, no ``csr_sort_indices`` — to >=1.5x the ordered one on
that one-shot tile and on the column block, equal to it once each row is
sorted.  The kernels are called through ``dispatch_spgemm``, so every
product compared with an oracle is the ordered one.
A fifth captures the consumer rounds of a 64-source MS-BFS traversal of
the ``msbfs_uk`` graph (p = 16, ``spa`` on booleans, d = 64) and holds the
tiled consumer's one product per round (``multiply_round``) bit-identical
to one product per tile (``_oracles.per_strip_round``) in fewer kernel
calls, over all of them and on the round with the most tiles; its time
ratios are printed, not gated.
``docs/kernels.md`` quotes the tables this bench writes to
``benchmarks/results/micro_kernels.txt``.
"""

import contextlib
import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import fmt_seconds, print_table
from repro.apps import msbfs_on_session
from repro.core import TsSession, tiled
from repro.core.tiled import TileDiagnostics
from repro.data import load
from repro.mpi import SCALED_PERLMUTTER
from repro.sparse import kernels
from repro.sparse import (
    BOOL_AND_OR,
    MIN_PLUS,
    PLUS_TIMES,
    available_kernels,
    dispatch_spgemm,
    get_kernel,
    random_csr,
)

from repro.sparse.build import order_rows
from repro.sparse.kernels import symbolic_size
from repro.sparse.ops import extract_row_range

from _oracles import (
    assert_bit_identical,
    per_strip_round,
    scipy_objects_product,
    spgemm_hash_rowwise,
    spgemm_spa_rowwise,
    three_pass_spa,
    value_free_spa,
)
from _timing import best_of_interleaved

RNG = np.random.default_rng(0)
A = random_csr(400, 400, nnz_per_row=8, rng=RNG)
B = random_csr(400, 64, nnz_per_row=12, rng=RNG)

SEED_PATH = "spa-rowwise"  # the seed's production kernel
#: The seed's scalar row loops, by the registry names they once had.
SEED_KERNELS = {"spa-rowwise": spgemm_spa_rowwise, "hash-rowwise": spgemm_hash_rowwise}
MIN_SPEEDUP = 5.0


def _kernel(name):
    """The registry kernel ``name``, through dispatch: rows sorted."""
    return lambda a, b, semiring: dispatch_spgemm(a, b, semiring, name)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _candidates():
    """Every registry kernel, through dispatch, and the seed's kernels."""
    return {**{name: _kernel(name) for name in available_kernels()}, **SEED_KERNELS}


def _check_agreement():
    reference, _ = dispatch_spgemm(A, B, PLUS_TIMES, "esc-vectorized")
    for kernel, multiply in _candidates().items():
        got, _ = multiply(A, B, PLUS_TIMES)
        if kernel == "scipy":
            assert got.prune_zeros().equal(reference.prune_zeros())
        else:
            assert got.equal(reference)


def _gate_bfs_shaped(sink):
    """One MS-BFS tile product: all-True, and with stored ``False``."""
    rng = np.random.default_rng(12)
    block = random_csr(256, 256, nnz_per_row=2, rng=rng, dtype=np.bool_)
    frontier = random_csr(256, 64, nnz_per_row=3, rng=rng, dtype=np.bool_)
    falsy = frontier.copy()
    falsy.data[::5] = False
    spa = _kernel("spa")

    rows = []
    # (operands, B, required speedup): the all-True case is every SPA call
    # of the BFS workloads; with a stored False the values are built and
    # folded, so that case must only not be slower than the oracle.
    for label, b, floor in [("all True", frontier, 1.5), ("stored False", falsy, 1.0)]:
        (t_new, t_old), ((got, flops), (want, want_flops)) = best_of_interleaved(
            [
                lambda b=b: [spa(block, b, BOOL_AND_OR) for _ in range(200)][-1],
                lambda b=b: [three_pass_spa(block, b, BOOL_AND_OR) for _ in range(200)][-1],
            ],
            repeats=5,
        )
        assert flops == want_flops
        assert_bit_identical(got, want)
        assert got.data.dtype == np.bool_
        assert got.data.all() == (label == "all True")
        rows.append([label, flops, f"{t_old / 200 * 1e6:.1f} us",
                     f"{t_new / 200 * 1e6:.1f} us", f"{t_old / t_new:.2f}x"])
        assert t_old >= floor * t_new, (
            f"spa ({label}) must be >= {floor}x its three-pass oracle: "
            f"{t_new / 200 * 1e6:.1f} us vs {t_old / 200 * 1e6:.1f} us per call"
        )
    print_table(
        "spa on a BFS-shaped tile product (256x256 boolean block times "
        "256x64 frontier, bool_and_or, best of 5 x 200 calls)",
        ["operands", "products", "three-pass oracle", "spa", "speedup"],
        rows,
        file=sink,
    )
    _gate_compiled_boolean_route(sink, spa, block, frontier)


def _gate_compiled_boolean_route(sink, spa, block, frontier):
    """All-True boolean operands run scipy's compiled product: against the
    numpy fold it replaced on one tile, and — what ``replan`` now does —
    one call on a whole column block against a call per row block."""
    rng = np.random.default_rng(13)
    column_block = random_csr(4096, 256, nnz_per_row=2, rng=rng, dtype=np.bool_)
    edges = range(0, 4096 + 1, 256)
    row_blocks = [extract_row_range(column_block, r0, r0 + 256) for r0 in edges[:-1]]

    def per_block(kernel):
        return [kernel(blk, frontier) for blk in row_blocks]

    def compiled(a, b):
        return spa(a, b, BOOL_AND_OR)

    (t_new, t_old), ((got, flops), (want, want_flops)) = best_of_interleaved(
        [
            lambda: [compiled(block, frontier) for _ in range(200)][-1],
            lambda: [value_free_spa(block, frontier) for _ in range(200)][-1],
        ],
        repeats=5,
    )
    assert flops == want_flops
    assert_bit_identical(got, want)
    rows = [["one tile: compiled vs numpy fold", flops, f"{t_old / 200 * 1e6:.1f} us",
             f"{t_new / 200 * 1e6:.1f} us", f"{t_old / t_new:.2f}x"]]
    assert t_old >= t_new, (
        f"the compiled all-True route must not be slower than the numpy fold it "
        f"replaced: {t_new / 200 * 1e6:.1f} us vs {t_old / 200 * 1e6:.1f} us per call"
    )

    calls = 10
    (t_one, t_fold, t_blocks), ((stacked, flops), folded, blocked) = best_of_interleaved(
        [
            lambda: [compiled(column_block, frontier) for _ in range(calls)][-1],
            lambda: [per_block(value_free_spa) for _ in range(calls)][-1],
            lambda: [per_block(compiled) for _ in range(calls)][-1],
        ],
        repeats=5,
    )
    assert flops == sum(f for _, f in folded) == sum(f for _, f in blocked)
    for r0, (want, _), (also, _) in zip(edges, folded, blocked):
        assert_bit_identical(extract_row_range(stacked, r0, r0 + 256), want)
        assert_bit_identical(also, want)
    for label, t_before, floor in [
        ("column block: one call vs numpy fold per row block", t_fold, 1.5),
        ("column block: one call vs compiled call per row block", t_blocks, 1.0),
    ]:
        rows.append([label, flops, f"{t_before / calls * 1e6:.1f} us",
                     f"{t_one / calls * 1e6:.1f} us", f"{t_before / t_one:.2f}x"])
        assert t_before >= floor * t_one, (
            f"{label}: must be >= {floor}x, got {t_one / calls * 1e6:.1f} us vs "
            f"{t_before / calls * 1e6:.1f} us"
        )
    print_table(
        "spa on all-True boolean operands: scipy's compiled product (256x256 "
        "tile and 4096x256 column block = 16 row blocks, times a 256x64 frontier)",
        ["comparison", "products", "before", "now", "speedup"],
        rows,
        file=sink,
    )
    _gate_unordered(sink, column_block, frontier)


def _gate_unordered(sink, column_block, frontier):
    """The product a merge alone reads — a tile's, a column block's —
    against the ordered product the parent returned to it: the compiled
    routes without ``csr_sort_indices``, equal to it once each row is sorted."""
    rng = np.random.default_rng(19)
    rows = []
    for label, a, b, semiring, calls in [
        ("1024x1024 block x 1024x128 (one-shot tile, plus_times)",
         random_csr(1024, 1024, nnz_per_row=1, rng=rng),
         random_csr(1024, 128, nnz_per_row=26, rng=rng), PLUS_TIMES, 20),
        ("4096x256 boolean column block x 256x64 frontier (bool_and_or)",
         column_block, frontier, BOOL_AND_OR, 10),
    ]:
        (t_new, t_old), ((got, flops), (want, want_flops)) = best_of_interleaved(
            [
                lambda: [dispatch_spgemm(a, b, semiring, ordered=False)
                         for _ in range(calls)][-1],
                lambda: [dispatch_spgemm(a, b, semiring) for _ in range(calls)][-1],
            ],
            repeats=5,
        )
        assert flops == want_flops
        assert_bit_identical(order_rows(got, copy=True), want)
        rows.append([label, flops, f"{t_old / calls * 1e6:.1f} us",
                     f"{t_new / calls * 1e6:.1f} us", f"{t_old / t_new:.2f}x"])
        assert t_old >= 1.5 * t_new, (
            f"the unordered product ({label}) must be >= 1.5x the ordered one: "
            f"{t_new / calls * 1e6:.1f} us vs {t_old / calls * 1e6:.1f} us per call"
        )
    print_table(
        "A product only a merge reads: rows left in accumulator order vs sorted "
        "(dispatch_spgemm, auto kernel, best of 5 batches)",
        ["operands", "products", "ordered", "unordered", "speedup"],
        rows,
        file=sink,
    )


def _gate_float_path(sink):
    """The arithmetic path's two per-subtile calls, against what they
    replaced: the ``scipy`` kernel on an embedding-shaped product (one
    ``embed_cora`` tile: per-call cost, not throughput) and on a
    ``multiply_oneshot``-shaped one, and ``symbolic_size`` against the
    boolean pattern product ``replan`` used to run on the same subtile."""
    rng = np.random.default_rng(17)
    scipy_kernel = _kernel("scipy")
    rows = []
    for label, a, b, calls, floor in [
        ("340x340 block x 340x16 (embedding tile)",
         random_csr(340, 340, nnz_per_row=1.1, rng=rng),
         random_csr(340, 16, nnz_per_row=2, rng=rng), 200, 2.0),
        ("1024x1024 block x 1024x128 (one-shot tile)",
         random_csr(1024, 1024, nnz_per_row=1, rng=rng),
         random_csr(1024, 128, nnz_per_row=26, rng=rng), 20, 1.0),
    ]:
        (t_new, t_old), ((got, flops), (want, want_flops)) = best_of_interleaved(
            [
                lambda: [scipy_kernel(a, b, PLUS_TIMES) for _ in range(calls)][-1],
                lambda: [scipy_objects_product(a, b) for _ in range(calls)][-1],
            ],
            repeats=5,
        )
        assert flops == want_flops
        assert_bit_identical(got, want)
        rows.append([f"scipy kernel, {label}", flops, f"{t_old / calls * 1e6:.1f} us",
                     f"{t_new / calls * 1e6:.1f} us", f"{t_old / t_new:.2f}x"])
        assert t_old >= floor * t_new, (
            f"scipy kernel ({label}) must be >= {floor}x the scipy.sparse-object "
            f"product: {t_new / calls * 1e6:.1f} us vs {t_old / calls * 1e6:.1f} us per call"
        )

    # the last operands are a one-shot subtile: size it vs multiply its pattern
    spa, a_bool, b_bool = _kernel("spa"), a.astype(np.bool_), b.astype(np.bool_)

    def pattern_size():
        pattern, sym_flops = spa(a_bool, b_bool, BOOL_AND_OR)
        return pattern.nnz, int(np.count_nonzero(pattern.row_nnz())), sym_flops

    (t_new, t_old), (got, want) = best_of_interleaved(
        [
            lambda: [symbolic_size(a, b) for _ in range(20)][-1],
            lambda: [pattern_size() for _ in range(20)][-1],
        ],
        repeats=5,
    )
    assert got == want
    rows.append(["symbolic_size vs spa pattern product, one-shot tile", got[2],
                 f"{t_old / 20 * 1e6:.1f} us", f"{t_new / 20 * 1e6:.1f} us",
                 f"{t_old / t_new:.2f}x"])
    assert t_old >= 2.0 * t_new, (
        f"symbolic_size must be >= 2x the pattern product it replaced: "
        f"{t_new / 20 * 1e6:.1f} us vs {t_old / 20 * 1e6:.1f} us per call"
    )
    print_table(
        "The float path per subtile (plus_times; best of 5 batches)",
        ["call, operands", "products", "before", "now", "speedup"],
        rows,
        file=sink,
    )


def _captured_rounds(monkeypatch):
    """Every consumer round of one 64-source MS-BFS traversal of the
    ``msbfs_uk`` graph, as ``(strips, tiles, n)``."""
    graph = load("uk", scale=1, seed=0).astype(np.bool_)
    sources = np.random.default_rng(0).choice(graph.nrows, 64, replace=False)
    rounds = []

    def capture(comm, strips, tiles, n, semiring, kernel, diag):
        rounds.append((strips, tiles, n))
        return multiply_round(comm, strips, tiles, n, semiring, kernel, diag)

    multiply_round = tiled.multiply_round
    session = TsSession(graph, 16, semiring=BOOL_AND_OR, machine=SCALED_PERLMUTTER)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(tiled, "multiply_round", capture)
            msbfs_on_session(session, sources)
    finally:
        session.close()
    return rounds


def _gate_round_product(sink, monkeypatch):
    """One kernel call per consumer round against one per LOCAL tile, on
    the captured rounds of a traversal and on its round with the most
    tiles: parts bit-identical, flops and charges equal."""
    rounds = _captured_rounds(monkeypatch)
    # rank threads record in no fixed order: ties go to the most B entries
    widest = max(rounds, key=lambda r: (len(r[1]), sum(t[4].nnz for t in r[1])))
    charged = {"round": [], "tile": []}

    def run(multiply, key, captured, repeats):
        comm = SimpleNamespace(
            charge_seconds=charged[key].append,
            machine=SCALED_PERLMUTTER,
            phase=lambda name: contextlib.nullcontext(),
        )
        for _ in range(repeats):
            charged[key].clear()
            diag = TileDiagnostics()
            parts = [
                multiply(comm, strips, tiles, n, BOOL_AND_OR, "spa", diag)
                for strips, tiles, n in captured
            ]
        return parts, diag.flops

    calls = {"n": 0}
    spa = get_kernel("spa")

    def counting(a, b, semiring):
        calls["n"] += 1
        return spa.fn(a, b, semiring)

    rows = []
    for label, captured, batch in [
        (f"the traversal's {len(rounds)} rounds", rounds, 2),
        (f"its widest round ({len(widest[1])} strips)", [widest], 50),
    ]:
        counted = []
        with monkeypatch.context() as patch:
            patch.setitem(kernels._REGISTRY, "spa", dataclasses.replace(spa, fn=counting))
            for multiply, key in [(tiled.multiply_round, "round"), (per_strip_round, "tile")]:
                calls["n"] = 0
                run(multiply, key, captured, 1)
                counted.append(calls["n"])
        assert counted == [len(captured), sum(len(tiles) for _, tiles, _ in captured)]
        assert counted[0] < counted[1]
        (t_round, t_tile), ((parts, flops), (want, want_flops)) = best_of_interleaved(
            [
                lambda: run(tiled.multiply_round, "round", captured, batch),
                lambda: run(per_strip_round, "tile", captured, batch),
            ],
            repeats=5,
        )
        assert flops == want_flops and charged["round"] == charged["tile"]
        for got_round, want_round in zip(parts, want):
            for got, expected in zip(got_round, want_round):
                assert_bit_identical(got, expected)
        rows.append([label, f"{counted[1]} -> {counted[0]}", flops,
                     f"{t_tile / batch * 1e3:.2f} ms", f"{t_round / batch * 1e3:.2f} ms",
                     f"{t_tile / t_round:.2f}x"])
    print_table(
        "One product per consumer round vs one per LOCAL tile, on the rounds "
        "captured from an msbfs_uk traversal (spa, d = 64, best of 5; printed, "
        "not gated)",
        ["rounds", "kernel calls", "products", "per tile", "per round", "ratio"],
        rows,
        file=sink,
    )


def bench_micro_kernel_table(benchmark, sink, monkeypatch):
    """One table over all kernels, plus the measured tentpole assertion;
    then the BFS-shaped ``spa`` gates (tile and column block), the
    float-path gates and the captured consumer round (same results file)."""
    _check_agreement()
    times = {
        kernel: _best_of(
            lambda multiply=multiply: multiply(A, B, PLUS_TIMES),
            repeats=2 if kernel in SEED_KERNELS else 5,
        )
        for kernel, multiply in _candidates().items()
    }
    baseline = times[SEED_PATH]
    rows = [
        [
            kernel,
            "no" if kernel in SEED_KERNELS or not get_kernel(kernel).vectorized
            else "yes",
            fmt_seconds(t),
            f"{baseline / t:.1f}x",
        ]
        for kernel, t in sorted(times.items(), key=lambda kv: kv[1])
    ]
    print_table(
        "SpGEMM kernel registry on the micro workload "
        "(400x400 @8/row times 400x64 @12/row, plus_times)",
        ["kernel", "vectorized", "best wall-clock", f"speedup vs {SEED_PATH}"],
        rows,
        file=sink,
    )
    speedup = baseline / times["esc-vectorized"]
    assert speedup >= MIN_SPEEDUP, (
        f"esc-vectorized only {speedup:.1f}x faster than {SEED_PATH}"
    )
    _gate_bfs_shaped(sink)
    _gate_float_path(sink)
    _gate_round_product(sink, monkeypatch)
    benchmark(lambda: dispatch_spgemm(A, B, PLUS_TIMES, "esc-vectorized"))


@pytest.mark.parametrize("kernel", ["esc-vectorized", "spa", "scipy"])
def bench_micro_kernel_registry(benchmark, kernel):
    """Per-kernel pytest-benchmark entries (vectorized production set)."""
    benchmark(lambda: dispatch_spgemm(A, B, PLUS_TIMES, kernel))


def bench_micro_kernel_semiring_sweep(benchmark):
    """The default kernel on a non-arithmetic semiring (no scipy escape)."""
    benchmark(lambda: dispatch_spgemm(A, B, MIN_PLUS, "esc-vectorized"))
