#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate.  For every
(workload, end-to-end metric) pair the verdict is one of

``better`` / ``worse``
    ``B``'s median moved by more than the metric's bound from
    ``BENCHMARK.json`` — or, when the spread is too wide to resolve the
    bound, every run of ``B`` beats (loses to) every run of ``A``.
``same``
    the medians are within the bound and the spread resolves it.
``unresolved``
    the run-to-run spread (distance between the quartiles over the
    median, the wider of the two sides) exceeds the bound, so a change of
    the bound's size could not have been seen.  Not the same as ``same``.

A file with one run per workload has no spread; its verdicts rest on the
single values and say so.  Every ratio is printed with its base.  Exit
status is non-zero when any pair is ``worse`` or when ``B`` failed a
larger share of its operations than ``A``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def load(path) -> dict:
    """``{workload: {"metrics": {name: [values]}, "attempted", "failed"}}``
    over the untraced runs of one result file."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        w = out.setdefault(run["workload"], {"metrics": {}, "attempted": 0, "failed": 0})
        w["attempted"] += run["attempted"]
        w["failed"] += run["failed"]
        for name, value in run["end_to_end"].items():
            w["metrics"].setdefault(name, []).append(value)
    return out


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a, b, bound: float, higher_is_better: bool):
    """(verdict, relative worsening of the median, wider spread)."""
    base, cand = statistics.median(a), statistics.median(b)
    worsening = (base - cand) / base if higher_is_better else (cand - base) / base
    wide = max(spread(a), spread(b))
    sign = -1.0 if higher_is_better else 1.0
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    if wide > bound:
        if all_better:
            return "better", worsening, wide
        if all_worse and worsening > bound:
            return "worse", worsening, wide
        return "unresolved", worsening, wide
    if worsening > bound:
        return "worse", worsening, wide
    if worsening < -bound:
        return "better", worsening, wide
    return "same", worsening, wide


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the table; return the number of regressions."""
    regressions = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in a or workload not in b:
            continue
        wa, wb = a[workload], b[workload]
        print(f"\n== {workload}", file=out)
        for m in SPEC["end_to_end"]:
            va, vb = wa["metrics"].get(m["name"]), wb["metrics"].get(m["name"])
            if not va or not vb:
                continue
            v, worsening, wide = verdict(va, vb, m["bound"], m["better"] == "higher")
            regressions += v == "worse"
            base, cand = statistics.median(va), statistics.median(vb)
            note = "" if min(len(va), len(vb)) > 1 else "  (single runs: no spread)"
            print(
                f"{m['name']:<16}{v:<11} {cand:.6g} / {base:.6g} {m['unit']} = "
                f"{cand / base:.4f} of base (n={len(vb)}/{len(va)}, "
                f"{worsening * 100:+.2f} % worse, spread {wide * 100:.2f} %, "
                f"bound {m['bound'] * 100:.0f} %){note}",
                file=out,
            )
        share_a = wa["failed"] / max(wa["attempted"], 1)
        share_b = wb["failed"] / max(wb["attempted"], 1)
        failed = "worse" if share_b > share_a else "same"
        regressions += failed == "worse"
        print(
            f"{'ops_failed':<16}{failed:<11} {wb['failed']} of {wb['attempted']} / "
            f"{wa['failed']} of {wa['attempted']}",
            file=out,
        )
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    regressions = compare(load(argv[0]), load(argv[1]))
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
