"""Shared wall-clock measurement helpers for the benchmark harness.

Importable as a plain module (``from _timing import median_pair_ratio``)
because pytest puts each non-package bench module's directory on
``sys.path`` during collection.
"""

import os
import statistics
import time


def best_of_interleaved(fns, repeats=3):
    """Best-of wall clock per candidate, with the candidates' runs
    *interleaved* so background-load drift hits both sides equally.

    Returns ``(best_seconds, last_results)``, one entry per candidate.
    """
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, results


def median_pair_ratio(fn, ref, pairs=8):
    """Median over ``pairs`` interleaved pairs of ``fn``'s wall clock
    divided by ``ref``'s in the same pair; the order inside a pair
    alternates, so neither side always runs second.

    A wall-ratio gate on one best-of per side is decided by whichever
    side drew the luckiest slot; the median of paired ratios judges the
    typical pair, and host noise slower than one pair hits both its
    sides.  The pairs run on one core, as the spine's runs do: rank
    threads handing the GIL to each other across cores cost an amount
    that follows the host's load rather than the code measured (on a
    2-vCPU host it moved a checkpointed run's ratio between 1.0 and 1.16).
    Returns ``(ratio, (fn_median_s, ref_median_s), (fn_result,
    ref_result))``, the results from the last pair.
    """
    fns = (fn, ref)
    seconds = ([], [])
    results = [None, None]
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        for k in range(pairs):
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                results[i] = fns[i]()
                seconds[i].append(time.perf_counter() - t0)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    ratio = statistics.median(a / b for a, b in zip(*seconds))
    return ratio, tuple(statistics.median(s) for s in seconds), tuple(results)
