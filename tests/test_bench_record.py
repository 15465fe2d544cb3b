"""``benchmarks/bench_record.py`` summarizes alternating runs per side: the
end-to-end metrics with the raw op-time details of each run, and, when both
sides hold traced runs, the median and quartiles of each per-layer metric."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "benchmarks" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


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


def _traced(workload, seed, metrics):
    return {"workload": workload, "conditions": {"seed": seed},
            "result": {"metrics": {m: {"value": v} for m, v in metrics.items()}}}


def test_layer_block_summarizes_each_side_of_the_traced_seeds():
    parent = {("w", s): _traced("w", s, {"a.self_ms": s, "b.calls": 2.0}) for s in (1, 2, 3)}
    change = {("w", s): _traced("w", s, {"a.self_ms": 10.0 * s}) for s in (1, 2, 3, 4)}
    parent["v", 5] = _traced("v", 5, {"a.self_ms": 1.0})  # traced on one side only
    out = bench_record.layers(parent, change)
    assert list(out) == ["w"]
    assert out["w"]["seeds"] == [1, 2, 3]
    # "b.calls" is missing from the change's records, so it is left out
    assert out["w"]["metrics"] == {"a.self_ms": {
        "parent": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "change": {"median": 20.0, "q1": 15.0, "q3": 25.0}}}


def test_main_writes_layers_only_when_both_sides_hold_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    parent, change = tmp_path / "parent", tmp_path / "change"

    def put(side, rec, trace):
        side.mkdir(exist_ok=True)
        (side / f"w-seed{rec['conditions']['seed']}-trace{trace}.json").write_text(json.dumps(rec))

    def run():
        assert bench_record.main([str(parent), str(change), "--pr", "7"]) == 0
        return (tmp_path / "BENCH_7.json").read_text()

    for seed in (1, 2):
        put(parent, _record("w", seed, 1.0, 0.03, 10.0, 0.1), 0)
        put(change, _record("w", seed, 1.0, 0.03, 11.0, 0.1), 0)
    untraced = bench_record.build(bench_record.load_records(parent),
                                  bench_record.load_records(change), 7)
    # trace-0 records alone give the untraced document, byte for byte
    assert run() == json.dumps(untraced, indent=1) + "\n"
    put(parent, _traced("w", 1, {"a.self_ms": 1.0}), 1)
    assert "layers" not in json.loads(run())  # traced on one side only
    put(change, _traced("w", 1, {"a.self_ms": 3.0}), 1)
    doc = json.loads(run())
    assert doc.pop("layers")["w"]["seeds"] == [1]
    assert doc == untraced
