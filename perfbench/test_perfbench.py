"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "blind_id": lambda: workloads.BlindId(pool=2),
    "dense_als": lambda: workloads.DenseAls(dims=(12, 16)),
    "norm_certify": lambda: workloads.NormCertify(groups=1, shape=(2, 2, 2)),
}


@pytest.fixture
def blas_env(monkeypatch):
    # main() caps the BLAS thread variables; monkeypatch restores them
    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_unit(name, trace, tmp_path, monkeypatch, capsys,
                                        blas_env):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    for value in last["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace:
        assert list(tmp_path.glob(f"{name}-seed3-spans.jsonl"))


def _perturb_json(path: str, edit) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


class PerturbedBlind(workloads.BlindId):
    def op(self, item):
        out = super().op(item)
        model = workloads.core.CPModel(weights=out.model.weights + 0.1,
                                       factors=out.model.factors)
        return dataclasses.replace(out, model=model)


class PerturbedDense(workloads.DenseAls):
    def op(self, item):
        code = super().op(item)
        _perturb_json(item.out, lambda doc: doc["weights"].__setitem__(
            0, doc["weights"][0] + 0.1))
        return code


class PerturbedNorms(workloads.NormCertify):
    def op(self, item):
        out = super().op(item)
        if item.tensor is None:
            _perturb_json(item.out, lambda doc: doc.update(nuclear_upper=9.0))
            return out
        return dataclasses.replace(out, nuclear_lower=out.nuclear_upper * 1.01)


@pytest.mark.parametrize("workload", [
    PerturbedBlind(pool=2),
    PerturbedDense(dims=(12, 16)),
    PerturbedNorms(groups=1, shape=(2, 2, 2)),
], ids=lambda w: w.name)
def test_perturbed_output_counts_as_failure(workload, tmp_path):
    record = run.execute(workload, 5, 0.01, False, tmp_path, nproc=1)
    result = record["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def _solver_output(workload, item, out):
    """The solver's output as comparable plain data."""
    if isinstance(workload, workloads.BlindId):
        return ([out.model.weights, *out.model.factors],
                [e.direction for e in out.estimates], out.report)
    if isinstance(workload, workloads.DenseAls) or item.tensor is None:
        with open(item.out) as fh:
            doc = json.load(fh)
        doc.pop("timestamp")
        return (out, doc)
    return ([out.spectral, out.nuclear_lower, out.nuclear_upper, *out.spectral_witness,
             out.upper_witness.weights, *out.upper_witness.factors], out.certified)


def _identical(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_outputs_bit_identical(name, tmp_path):
    workload = TINY[name]()
    pool = workload.setup(7, tmp_path)
    core = importlib.import_module("cohcp.core")
    original = core.evaluate_terms
    for item in pool:
        plain = _solver_output(workload, item, workload.op(item))
        with Tracer(run.TRACED, run.PROBES) as tracer:
            tracer.active = True
            traced = _solver_output(workload, item, workload.op(item))
            tracer.active = False
        assert tracer.spans, "the tracer recorded nothing"
        assert _identical(plain, traced)
    assert core.evaluate_terms is original


def test_self_time_excludes_children():
    tracer = Tracer(["core.canonicalize", "core.evaluate_terms"])
    spans = [(None, "core.canonicalize", 0, 100), (0, "core.evaluate_terms", 10, 40),
             (0, "core.evaluate_terms", 50, 60)]
    tracer.spans = [Span(i, p, 0, n, s, e) for i, (p, n, s, e) in enumerate(spans)]
    stats = tracer.layer_stats()
    assert stats["core.canonicalize"].self_ns == 60
    assert stats["core.evaluate_terms"].self_ns == 40
    assert stats["core.evaluate_terms"].calls == 2


def test_host_speed_cancels_from_end_to_end_times():
    # the same ops on a host twice as slow: op and kernel times both double
    fast = [run.OpRecord(0, 0.2, 0.005, True, 0.1), run.OpRecord(1, 0.4, 0.006, True, 0.2)]
    slow = [dataclasses.replace(r, seconds=2 * r.seconds, ref_s=2 * r.ref_s) for r in fast]
    assert run.ops_per_second(slow) == pytest.approx(run.ops_per_second(fast))
    assert run.ops_per_second(slow, nominal=False) == pytest.approx(
        run.ops_per_second(fast, nominal=False) / 2)
    assert run.ops_per_second(fast) == pytest.approx(
        2 / (run.at_nominal(0.2, 0.005) + run.at_nominal(0.4, 0.006)))


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "blind_id", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
