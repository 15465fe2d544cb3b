"""``benchmarks/bench_record.py`` summarizes alternating runs per side: the
end-to-end metrics with the raw op-time details of each run, and with
``--layers`` the median of the layer rows' run medians and their range."""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "benchmarks" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def _run(tmp_path, name, medians):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"benchmarks": [
        {"name": row, "stats": {"median": m}} for row, m in medians.items()]}))
    return path


def test_layer_rows_split_alternating_runs(tmp_path):
    runs = [_run(tmp_path, "p1", {"a": 1.0, "b": 5.0}), _run(tmp_path, "c1", {"a": 2.0}),
            _run(tmp_path, "p2", {"a": 3.0, "b": 5.0}), _run(tmp_path, "c2", {"a": 4.0}),
            _run(tmp_path, "p3", {"a": 1.5}), _run(tmp_path, "c3", {"a": 9.0})]
    rows = bench_record.layer_rows(runs)
    assert list(rows) == ["a"]  # "b" was not timed in every run
    assert rows["a"]["parent"] == {"median": 1.5, "range": [1.0, 3.0], "runs": 3}
    assert rows["a"]["change"] == {"median": 4.0, "range": [2.0, 9.0], "runs": 3}


def test_layer_rows_need_pairs(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.layer_rows([_run(tmp_path, "p1", {"a": 1.0})])


def _record(workload, seed, value, p50, ops, tail):
    spec = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": value} for m in spec["end_to_end"]}
    return {"workload": workload, "seconds": 30,
            "conditions": {"seed": seed, "loadavg_start": [0.5], "loadavg_end": [0.5]},
            "result": {"failed": 0, "metrics": metrics},
            "details": {"op_p50_s": p50, "as_measured": {"ops_per_s": ops, "op_tail_s": tail}}}


def test_build_records_the_raw_details_per_side():
    parent = {("w", s): _record("w", s, 1.0, p50, 10.0 + s, 0.1 * s)
              for s, p50 in [(1, 0.03), (2, 0.05), (3, 0.04)]}
    change = {("w", s): _record("w", s, 2.0, 0.02, 20.0 + s, 0.2) for s in (1, 2, 3)}
    entry = bench_record.build(parent, change, 7)["workloads"]["w"]
    assert entry["metrics"]["ops_per_s"]["change_better_on"] == "3/3"
    assert entry["details"] == {
        "op_p50_s": {"parent": 0.04, "change": 0.02},
        "as_measured.ops_per_s": {"parent": 12.0, "change": 22.0},
        "as_measured.op_tail_s": {"parent": 0.2, "change": 0.2},
    }
