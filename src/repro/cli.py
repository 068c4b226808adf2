"""Command-line interface: ``python -m repro <command> ...``.

Four subcommands cover the workflows a downstream user reaches for first:

``multiply``
    One distributed multiply on a generated (or MatrixMarket) workload
    with any registered algorithm; prints the modelled cost breakdown.
``bfs``
    Multi-source BFS on a Table V stand-in; prints the per-level trace.
``embed``
    Sparse-embedding training; prints the per-epoch trace and accuracy.
``model``
    Evaluate the closed-form §III-E cost models over a rank sweep.

Examples::

    python -m repro multiply --dataset uk --d 128 --sparsity 0.8 -p 16
    python -m repro multiply --algorithm SUMMA-2D --dataset ER -p 16
    python -m repro bfs --dataset arabic --sources 64 -p 8
    python -m repro embed --dataset cora --sparsity 0.8 --epochs 20
    python -m repro model --n 18520486 --ka 16 --d 128 --ps 8,64,512,4096
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (
    fmt_bytes,
    fmt_seconds,
    multiply_summary_rows,
    print_series,
    print_table,
)
from .apps import influence_maximization, msbfs, train_sparse_embedding
from .apps.embedding import LEARNING_RATE
from .baselines import ALGORITHMS
from .core import TsConfig
from .data import DATASETS, load, random_sources, tall_skinny
from .model import COST_MODELS, Workload
from .mpi import PROFILES, SCALED_PERLMUTTER, DeadSessionError, get_profile
from .sparse import (
    BOOL_AND_OR,
    DEFAULT_KERNEL,
    available_kernels,
    get_kernel,
    read_matrix_market,
    resolve_spgemm,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset",
        default="uk",
        help=f"Table V stand-in alias ({', '.join(sorted(DATASETS))}) "
        "or a path to a MatrixMarket file",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("-p", "--ranks", type=_positive_int, default=16, help="simulated ranks")
    parser.add_argument(
        "--machine",
        default=SCALED_PERLMUTTER.name,
        choices=sorted(PROFILES),
        help="machine cost profile",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fuse-comm",
        default="on",
        choices=("on", "off"),
        help="pack the symbolic modes, every tile round's fetch-B/send-C "
        "and a fused-capable prologue's fetch (the embedding's SDDMM) "
        "into one combined all-to-all per multiply step (off = the "
        "paper's separate per-round exchanges, for ablation; output is "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run with the collective sanitizer on: cross-validate every "
        "collective call site across ranks and check per-phase byte "
        "conservation (same switch as REPRO_SANITIZE=1)",
    )
    parser.add_argument(
        "--faults",
        default="",
        metavar="SPEC",
        help="deterministic fault-injection spec, e.g. "
        "'crash@2,task=2,seq=0;transient@1,task=4;permfail@1,task=3' "
        "(grammar in docs/resilience.md; permfail is a *permanent* rank "
        "loss — the session shrinks to p-1 instead of respawning); a "
        "non-empty spec turns on recoverable sessions with "
        "checkpoint/recovery and retry-with-backoff",
    )
    parser.add_argument(
        "--checkpoint",
        default="neighbor",
        choices=("neighbor", "driver", "off"),
        help="replica placement for recoverable sessions: neighbor "
        "(ring-shift to rank r+1), driver (root gather), or off "
        "(no replicas; a lost rank forces a full re-prepare — the "
        "recovery-cost ablation — and elastic shrink is refused)",
    )
    parser.add_argument(
        "--respawn-budget",
        type=int,
        default=None,
        metavar="N",
        help="how many crashed workers a recoverable session may respawn "
        "before further rank losses are treated as permanent and the "
        "session *shrinks* to p-1 instead (docs/resilience.md, "
        "degraded-mode section; default: unlimited respawns)",
    )


def _add_kernel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        default="auto",
        choices=sorted(available_kernels() + ("auto",)),
        help="local SpGEMM kernel from the dispatch registry "
        "(auto = scipy for arithmetic float data, batched spa for "
        f"small-d identity-safe semirings, else {DEFAULT_KERNEL})",
    )


def _check_kernel(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a ``--kernel`` that cannot multiply over the command's
    semiring (``bfs`` and ``serve`` run boolean products) before any
    session is built; argparse's usage error exits 2."""
    semiring = getattr(args, "semiring", None)
    if semiring is None:
        return
    try:
        resolve_spgemm(args.kernel, semiring)
    except ValueError:
        able = [k for k in available_kernels() if get_kernel(k).supports(semiring)]
        parser.error(
            f"argument --kernel: {args.kernel!r} cannot run the {semiring.name} "
            f"products {args.command} multiplies; choose from "
            f"{', '.join(sorted(able + ['auto']))}"
        )


def _check_faults(parser: argparse.ArgumentParser, args) -> None:
    """Refuse ``--faults`` with an ``--algorithm`` that would run
    fault-free: only TS-SpGEMM sessions inject faults and recover."""
    algorithm = getattr(args, "algorithm", "TS-SpGEMM")
    if getattr(args, "faults", "") and algorithm != "TS-SpGEMM":
        parser.error(
            f"argument --faults: only TS-SpGEMM sessions inject and recover "
            f"from faults; --algorithm {algorithm} would ignore them"
        )


def _config(args, **overrides) -> TsConfig:
    faults = getattr(args, "faults", "")
    fields = dict(
        kernel=getattr(args, "kernel", "auto"),
        fuse_comm=getattr(args, "fuse_comm", "on") == "on",
        sanitize=getattr(args, "sanitize", False),
        faults=faults,
        checkpoint=getattr(args, "checkpoint", "neighbor"),
        respawn_budget=getattr(args, "respawn_budget", None),
        # A non-empty fault spec implies recoverable sessions — injecting
        # faults into a non-recoverable session just kills it.  The serve
        # subcommand overrides recoverable=True unconditionally: a
        # long-lived service is always resilient.
        recoverable=bool(faults),
    )
    fields.update(overrides)
    return TsConfig(**fields)


def _print_resilience_summary(steps, args) -> None:
    """One line of fault-recovery totals after a per-step table.

    Silent unless fault injection was on — the common path's output is
    unchanged.  ``steps`` are the per-level/per-epoch records, which
    carry ``retries``/``recoveries`` on recoverable sessions.
    """
    if not getattr(args, "faults", ""):
        return
    retries = sum(getattr(s, "retries", 0) for s in steps)
    recoveries = sum(getattr(s, "recoveries", 0) for s in steps)
    shrinks = sum(getattr(s, "shrinks", 0) for s in steps)
    shrank = f", {shrinks} elastic shrinks (now serving at p-1)" if shrinks else ""
    print(
        f"faults injected ({args.faults!r}): {retries} retries, "
        f"{recoveries} rank recoveries{shrank}, "
        f"checkpoint={args.checkpoint}; "
        "output is bit-identical to the fault-free run"
    )


def _load_matrix(args):
    if args.dataset in DATASETS:
        return load(args.dataset, scale=args.scale, seed=args.seed)
    return read_matrix_market(args.dataset)


def _cmd_multiply(args) -> int:
    A = _load_matrix(args)
    B = tall_skinny(A.nrows, args.d, args.sparsity, seed=args.seed + 1)
    machine = get_profile(args.machine)
    config = _config(args, tile_width_factor=args.tile_width)
    result = ALGORITHMS[args.algorithm](A, B, args.ranks, machine=machine, config=config)
    rows = [
        ["algorithm", args.algorithm],
        ["kernel", args.kernel],
        ["A", f"{A.shape}, nnz={A.nnz:,}"],
        ["B", f"{B.shape}, nnz={B.nnz:,} ({args.sparsity:.0%} sparse)"],
        ["C", f"{result.C.shape}, nnz={result.C.nnz:,}"],
    ] + multiply_summary_rows(result)
    for key in ("local_tiles", "remote_tiles", "peak_recv_b_bytes"):
        if key in result.diagnostics:
            value = result.diagnostics[key]
            rows.append([key, fmt_bytes(value) if "bytes" in key else value])
    print_table(f"Distributed multiply on p={args.ranks}", ["metric", "value"], rows)
    return 0


def _cmd_bfs(args) -> int:
    A = _load_matrix(args)
    sources = random_sources(A.nrows, args.sources, seed=args.seed)
    machine = get_profile(args.machine)
    try:
        result = msbfs(
            A,
            sources,
            args.ranks,
            algorithm=args.algorithm,
            config=_config(args),
            machine=machine,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = [
        [
            it.iteration,
            it.frontier_nnz,
            it.comm_nnz,
            it.rounds,
            fmt_seconds(it.runtime),
        ]
        for it in result.iterations
    ]
    print_table(
        f"MSBFS: {len(sources)} sources on {args.dataset} (p={args.ranks}, "
        f"{result.levels} levels, total {fmt_seconds(result.total_runtime)})",
        ["level", "frontier nnz", "comm nnz", "rounds", "runtime"],
        rows,
    )
    counts = result.reachable_counts()
    print(f"\nmean vertices reached per source: {counts.mean():.1f}")
    _print_resilience_summary(result.iterations, args)
    return 0


def _cmd_embed(args) -> int:
    A = _load_matrix(args)
    machine = get_profile(args.machine)
    result = train_sparse_embedding(
        A,
        args.ranks,
        d=args.d,
        sparsity=args.sparsity,
        epochs=args.epochs,
        seed=args.seed,
        learning_rate=args.lr,
        config=_config(args),
        negative_refresh=args.negative_refresh,
        machine=machine,
        driver_gather=args.driver_gather == "on",
    )
    rows = [
        [
            e.epoch,
            fmt_seconds(e.runtime),
            fmt_bytes(e.comm_bytes),
            e.rounds,
            fmt_bytes(e.driver_scatter_bytes + e.driver_gather_bytes),
            f"{e.remote_fraction:.0%}",
        ]
        for e in result.epochs
    ]
    print_table(
        f"Sparse embedding on {args.dataset} (d={args.d}, "
        f"{args.sparsity:.0%} sparse Z)",
        ["epoch", "runtime", "comm", "rounds", "driver bytes", "remote tiles"],
        rows,
    )
    print(f"\nlink-prediction accuracy: {result.accuracy:.3f}")
    _print_resilience_summary(result.epochs, args)
    return 0


def _cmd_influence(args) -> int:
    A = _load_matrix(args)
    machine = get_profile(args.machine)
    result = influence_maximization(
        A,
        args.k,
        args.ranks,
        probability=args.probability,
        samples=args.samples,
        seed=args.seed,
        config=_config(args),
        machine=machine,
    )
    rows = [
        [i + 1, seed_v, f"{spread:.1f}"]
        for i, (seed_v, spread) in enumerate(
            zip(result.seeds, result.spread_estimates)
        )
    ]
    print_table(
        f"IC influence maximization on {args.dataset} "
        f"(k={args.k}, q={args.probability}, {args.samples} samples)",
        ["#", "seed vertex", "cumulative E[spread]"],
        rows,
    )
    print(f"\nMSBFS time across samples: {fmt_seconds(result.total_runtime)}")
    return 0


def _cmd_serve(args) -> int:
    from .analysis import service_summary_rows
    from .apps import train_sparse_embedding
    from .serve import (
        QueryService,
        TrafficMix,
        collect_results,
        make_queries,
        run_traffic,
    )

    A = _load_matrix(args)
    machine = get_profile(args.machine)
    try:
        mix = TrafficMix(
            *(float(x) for x in args.mix.split(","))
        )
    except (TypeError, ValueError):
        print(
            f"bad --mix {args.mix!r}; expected three comma-separated "
            "fractions bfs,influence,embedding",
            file=sys.stderr,
        )
        return 2
    embedding = None
    if mix.embedding > 0:
        # The service answers lookup queries against a trained embedding;
        # a short training run keeps the subcommand self-contained.
        embedding = train_sparse_embedding(
            A,
            args.ranks,
            d=args.embed_d,
            sparsity=0.8,
            epochs=args.embed_epochs,
            seed=args.seed,
            config=_config(args, recoverable=True),
            machine=machine,
        ).Z
    service = QueryService(
        A,
        args.ranks,
        config=_config(args, recoverable=True),
        machine=machine,
        slots=args.slots,
        capacity=args.capacity,
        batch_width=args.batch_width,
        aging_rate=args.aging_rate,
        shed_watermark=args.shed_watermark,
        embedding=embedding,
        max_levels=args.max_levels,
    )
    queries = make_queries(
        args.queries,
        A.nrows,
        mix=mix,
        seed=args.seed,
        sources_per_query=args.sources_per_query,
        probability=args.probability,
        priorities=args.priorities,
        deadline=args.deadline,
        deadline_fraction=args.deadline_fraction,
    )
    traffic = run_traffic(
        service,
        queries,
        backpressure=args.backpressure == "on",
        arrival_rate=args.arrival_rate,
    )
    try:
        collect_results(traffic, timeout=args.collect_timeout)
    except TimeoutError as exc:
        print(f"collection timed out: {exc}", file=sys.stderr)
        return 4
    finally:
        service.stop()
    snapshot = service.metrics.snapshot()
    print_table(
        f"Query service on {args.dataset} (p={args.ranks}, "
        f"{args.slots} session slot(s), width {args.batch_width}, "
        f"capacity {args.capacity})",
        ["metric", "value"],
        service_summary_rows(snapshot),
    )
    if args.faults:
        print(
            f"\nfaults injected ({args.faults!r}): every accepted query "
            "was answered exactly once, bit-identically to a fault-free "
            "run (docs/serving.md)"
        )
    return 0


def _cmd_model(args) -> int:
    ps = [int(x) for x in args.ps.split(",")]
    w = Workload(n=args.n, kA=args.ka, d=args.d, b_sparsity=args.sparsity)
    series = {
        name: [COST_MODELS[name](w, p).runtime for p in ps]
        for name in sorted(COST_MODELS)
    }
    print_series(
        f"§III-E model: runtime vs p (n={args.n:,}, kA={args.ka}, d={args.d}, "
        f"{args.sparsity:.0%} sparse B)",
        "p",
        ps,
        series,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TS-SpGEMM reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mult = sub.add_parser("multiply", help="one distributed multiply")
    _add_common(p_mult)
    p_mult.add_argument("--algorithm", default="TS-SpGEMM", choices=sorted(ALGORITHMS))
    p_mult.add_argument("--d", type=int, default=128)
    p_mult.add_argument("--sparsity", type=float, default=0.8)
    p_mult.add_argument("--tile-width", type=int, default=16)
    _add_kernel(p_mult)
    p_mult.set_defaults(func=_cmd_multiply)

    p_bfs = sub.add_parser("bfs", help="multi-source BFS")
    _add_common(p_bfs)
    _add_kernel(p_bfs)
    p_bfs.add_argument("--sources", type=_positive_int, default=64)
    p_bfs.add_argument("--algorithm", default="TS-SpGEMM", choices=sorted(ALGORITHMS))
    p_bfs.set_defaults(func=_cmd_bfs, semiring=BOOL_AND_OR)

    p_emb = sub.add_parser("embed", help="sparse embedding training")
    _add_common(p_emb)
    _add_kernel(p_emb)
    p_emb.add_argument("--d", type=int, default=16)
    p_emb.add_argument("--sparsity", type=float, default=0.8)
    p_emb.add_argument("--epochs", type=int, default=10)
    p_emb.add_argument("--lr", type=float, default=LEARNING_RATE)
    p_emb.add_argument(
        "--negative-refresh",
        type=int,
        default=1,
        help="epochs each negative-sample draw is kept; >1 freezes the "
        "coefficient pattern between draws so the resident session "
        "reuses its prepared plan (values still update every epoch)",
    )
    p_emb.add_argument(
        "--driver-gather",
        default="off",
        choices=("on", "off"),
        help="round-trip every epoch's Z and gradient through the driver "
        "(charged scatter + gather, SDDMM computed driver-side) instead "
        "of the rank-resident SDDMM chain; ablation of the "
        "zero-driver-traffic default",
    )
    p_emb.set_defaults(func=_cmd_embed)

    p_inf = sub.add_parser("influence", help="IC influence maximization")
    _add_common(p_inf)
    p_inf.add_argument("--k", type=int, default=3, help="number of seeds")
    p_inf.add_argument("--probability", type=float, default=0.1)
    p_inf.add_argument("--samples", type=int, default=4)
    p_inf.set_defaults(func=_cmd_influence)

    p_srv = sub.add_parser(
        "serve",
        help="multi-tenant query service under generated traffic",
        description="Stand up the resident query service (docs/serving.md) "
        "on one graph, push a seeded mixed workload through it, and print "
        "the serving report: latency percentiles, queue pressure, "
        "admission/shedding counters and the resilience trail.",
    )
    _add_common(p_srv)
    _add_kernel(p_srv)
    p_srv.add_argument("--queries", type=int, default=400, help="workload size")
    p_srv.add_argument(
        "--mix",
        default="0.7,0.2,0.1",
        help="traffic fractions bfs,influence,embedding (normalized)",
    )
    p_srv.add_argument("--slots", type=int, default=1, help="session pool slots")
    p_srv.add_argument(
        "--capacity", type=int, default=512, help="admission queue bound"
    )
    p_srv.add_argument(
        "--batch-width", type=int, default=64,
        help="max queries coalesced into one shared multiply",
    )
    p_srv.add_argument(
        "--aging-rate", type=float, default=1.0,
        help="priority units gained per second queued (starvation guard)",
    )
    p_srv.add_argument(
        "--shed-watermark", type=float, default=None,
        help="shed lowest-priority queries above this fraction of "
        "capacity (default: no shedding, admission control only)",
    )
    p_srv.add_argument(
        "--backpressure",
        default="off",
        choices=("on", "off"),
        help="on = block the producer when the queue is full; off = "
        "reject with a structured OverloadError (admission control)",
    )
    p_srv.add_argument(
        "--arrival-rate", type=float, default=None,
        help="producer pacing in queries/second (default: flat out)",
    )
    p_srv.add_argument(
        "--deadline", type=float, default=None,
        help="per-query deadline seconds for --deadline-fraction of queries",
    )
    p_srv.add_argument(
        "--deadline-fraction", type=float, default=0.0,
        help="fraction of queries carrying --deadline",
    )
    p_srv.add_argument("--priorities", type=int, default=3)
    p_srv.add_argument("--sources-per-query", type=int, default=1)
    p_srv.add_argument(
        "--probability", type=float, default=0.3,
        help="influence live-edge keep probability",
    )
    p_srv.add_argument(
        "--max-levels", type=int, default=None,
        help="BFS level cap (default: run to frontier exhaustion)",
    )
    p_srv.add_argument("--embed-d", type=int, default=8)
    p_srv.add_argument("--embed-epochs", type=int, default=2)
    p_srv.add_argument("--collect-timeout", type=float, default=300.0)
    p_srv.set_defaults(func=_cmd_serve, semiring=BOOL_AND_OR)

    p_model = sub.add_parser("model", help="closed-form cost model sweep")
    p_model.add_argument("--n", type=int, default=18_520_486)
    p_model.add_argument("--ka", type=float, default=16.0)
    p_model.add_argument("--d", type=int, default=128)
    p_model.add_argument("--sparsity", type=float, default=0.8)
    p_model.add_argument("--ps", default="8,64,256,1024,4096")
    p_model.set_defaults(func=_cmd_model)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_kernel(parser, args)
    _check_faults(parser, args)
    try:
        return args.func(args)
    except DeadSessionError as exc:
        # A fault exhausted the retry budget (or hit a non-recoverable
        # session): surface the original abort reason instead of a
        # traceback, with a distinct exit code for scripting.
        print(f"session died: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
