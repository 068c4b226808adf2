"""Self-test of the measurement spine at toy (``--smoke``) sizes.

Checks the contract between ``BENCHMARK.json`` and ``run.py`` — every
registered name is well-formed and emitted — that the exact metrics
(modelled seconds, every count) repeat exactly, and that ``compare.py``
tells a regression from an identical pair.  No timing is asserted.
"""

import copy
import io
import json
import re

import pytest

from spine import compare, run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
OPERATION_WORKLOADS = [w for w in run.WORKLOADS if w != "serve_mixed"]
#: Per-layer metrics that are counts made by the program (or pure
#: functions of them): they must repeat exactly between two runs.
EXACT = (
    "sparse.kernel_calls", "sparse.kernel_empty_calls", "sparse.kernel_products",
    "sparse.products_per_call", "core.multiply_calls", "core.local_tiles",
    "core.remote_tiles", "core.driver_bytes", "mpi.alltoall_rounds",
    "mpi.collectives", "mpi.messages", "mpi.comm_bytes", "mpi.modelled_comm_s",
    "mpi.modelled_compute_s", "apps.steps", "apps.link_accuracy",
    "baselines.summa2d_modelled_s", "model.closed_form_s",
)


def test_benchmark_json_is_within_the_contract():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = run.E2E["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/spine"]


def check_record(record, trace):
    assert record["correct"] and record["failed"] == 0, record["problems"]
    assert record["attempted"] >= 1
    assert set(record["end_to_end"]) == set(run.E2E)
    line = json.loads(run.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.PER_LAYER if trace else run.E2E)
    for name, entry in line["metrics"].items():
        spec = (run.PER_LAYER if trace else run.E2E)[name]
        assert entry["unit"] == spec["unit"] and isinstance(entry["value"], float)


@pytest.mark.parametrize("name", OPERATION_WORKLOADS)
def test_operation_workload_emits_every_metric_and_counts_repeat(name):
    first = run.run_workload(name, 0, 0.0, True, smoke=True)
    second = run.run_workload(name, 0, 0.0, True, smoke=True)
    for record in (first, second):
        check_record(record, trace=True)
        assert all(v > 0 for v in record["end_to_end"].values())
        loaded = json.loads((run.ROOT / record["chrome_trace"]).read_text())
        assert loaded["traceEvents"]
    assert first["end_to_end"]["modelled_s"] == second["end_to_end"]["modelled_s"]
    for metric in EXACT:
        assert first["per_layer"][metric] == second["per_layer"][metric], metric
    assert first["per_layer"]["sparse.kernel_calls"] > 0
    assert first["per_layer"]["mpi.alltoall_rounds"] > 0


def test_serve_mixed_emits_every_metric():
    untraced = run.run_workload("serve_mixed", 0, 0.0, False, smoke=True)
    check_record(untraced, trace=False)
    assert all(v > 0 for v in untraced["end_to_end"].values())
    assert untraced["samples"]["open_loop"]["drain_s"] < 2.0
    traced = run.run_workload("serve_mixed", 0, 0.0, True, smoke=True)
    check_record(traced, trace=True)
    assert traced["per_layer"]["serve.batches"] > 0
    assert traced["per_layer"]["serve.duplicates"] == 0


def test_a_seed_changes_the_inputs():
    a = run.run_workload("msbfs_uk", 0, 0.0, False, smoke=True)
    b = run.run_workload("msbfs_uk", 1, 0.0, False, smoke=True)
    assert a["end_to_end"]["modelled_s"] != b["end_to_end"]["modelled_s"]


def test_compare_flags_a_regression_and_passes_an_identical_pair(tmp_path):
    runs = [
        {
            "workload": w, "seed": seed, "trace": 0, "attempted": 5, "failed": 0,
            "end_to_end": {m: 1.0 + 0.001 * seed for m in run.E2E},
        }
        for w in run.WORKLOADS for seed in range(4)
    ]
    base = tmp_path / "a.json"
    base.write_text(json.dumps({"runs": runs}))
    assert compare.main([str(base), str(base)]) == 0

    slower = copy.deepcopy(runs)
    for r in slower:
        if r["workload"] == "msbfs_deep":
            r["end_to_end"]["wall_s"] *= 1.0 + run.E2E["wall_s"]["bound"] + 0.05
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps({"runs": slower}))
    out = io.StringIO()
    assert compare.compare(compare.load(base), compare.load(worse), out) == 1
    assert re.search(r"wall_s\s+worse", out.getvalue())
    assert compare.main([str(base), str(worse)]) == 1

    failing = copy.deepcopy(runs)
    failing[0]["failed"] = 1
    worse.write_text(json.dumps({"runs": failing}))
    assert compare.main([str(base), str(worse)]) == 1
