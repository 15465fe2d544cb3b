"""``benchmarks/bench_record.py --layers`` summarizes several alternating
runs per side: the median of the run medians and their range."""

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
