"""Run records and cross-run aggregation for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence


@dataclass
class RunRecord:
    """One measured multiply (or application run) in a sweep."""

    algorithm: str
    dataset: str
    p: int
    d: int
    sparsity: float
    runtime: float


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's "on average 5×" aggregates speedups)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def speedups(
    records: Iterable[RunRecord],
    baseline: str,
    target: str,
) -> List[float]:
    """Pairwise speedup of ``target`` over ``baseline`` at matching
    (dataset, p, d, sparsity) points."""
    base: Dict[Any, float] = {}
    tgt: Dict[Any, float] = {}
    for r in records:
        point = (r.dataset, r.p, r.d, r.sparsity)
        if r.algorithm == baseline:
            base[point] = r.runtime
        elif r.algorithm == target:
            tgt[point] = r.runtime
    out = []
    for k, t in tgt.items():
        if k in base and t > 0:
            out.append(base[k] / t)
    return out


def parallel_efficiency(records: Sequence[RunRecord]) -> Dict[int, float]:
    """Strong-scaling efficiency relative to the smallest ``p`` in the set."""
    by_p = {r.p: r.runtime for r in records}
    if not by_p:
        return {}
    p0 = min(by_p)
    t0 = by_p[p0]
    return {
        p: (t0 * p0) / (t * p) if t > 0 else 0.0
        for p, t in sorted(by_p.items())
    }
