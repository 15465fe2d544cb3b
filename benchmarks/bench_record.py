"""Build a ``BENCH_<pr>.json`` trajectory file from benchmark run records.

Run the benchmark with the same seeds in a checkout of the parent commit and
in one of the change, alternating which side runs first::

    python3 perfbench/run.py --workload dense_als --seed 691 --seconds 30 --trace 0

Each run writes ``.perfbench/<workload>-seed<n>-trace0.json`` in its
checkout.  Then, from the repository root::

    python3 benchmarks/bench_record.py PARENT/.perfbench CHANGE/.perfbench --pr 6

For every workload run on both sides, the output holds the seeds, the
median and quartiles of each end-to-end metric of ``BENCHMARK.json`` on
each side, the number of seeds on which the change is better, and one
block of machine conditions.  Under ``details`` it also holds, per side,
the median over the runs of the raw median op time (``op_p50_s``) and of
the throughput and tail as measured, before the scaling to the nominal
host speed (``as_measured``): a shift of the whole host moves these with
the metrics, while a change of the code moves the metrics alone.

With ``--layers P1.json C1.json P2.json C2.json ...`` it also holds the
layer rows, from several runs of the same ``benchmarks/test_layers.py``
against each side's sources, passed as (parent, change) pairs; run the
sides in alternating order, as for the workloads::

    PYTHONPATH=PARENT/src python -m pytest benchmarks -q --benchmark-json=p1.json
    PYTHONPATH=CHANGE/src python -m pytest benchmarks -q --benchmark-json=c1.json

For every row timed in all runs, each side gets the median of its run
medians and their range.  One run per side cannot tell a layer change
from host drift: rows of unchanged code have moved by 30% between two
single runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path) -> dict:
    """Untraced run records keyed by (workload, seed)."""
    records = {}
    for path in sorted(directory.glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        records[rec["workload"], rec["conditions"]["seed"]] = rec
    return records


# run-record details, as paths into a record's "details"
DETAILS = ("op_p50_s", "as_measured.ops_per_s", "as_measured.op_tail_s")


def detail(record: dict, path: str) -> float:
    value = record["details"]
    for key in path.split("."):
        value = value[key]
    return value


def summary(values: list) -> dict:
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3}


def build(parent: dict, change: dict, pr: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no (workload, seed) record on both sides")
    runs = [parent[k] for k in keys] + [change[k] for k in keys]
    conditions = {k: v for k, v in runs[0]["conditions"].items()
                  if k not in ("seed", "loadavg_start", "loadavg_end")}
    loads = [r["conditions"]["loadavg_start"][0] for r in runs]
    conditions["loadavg_1min_at_start"] = [min(loads), max(loads)]
    workloads = {}
    for name in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == name]
        entry = {"seeds": seeds,
                 "seconds": sorted({parent[name, s]["seconds"] for s in seeds}),
                 "failed_ops": {"parent": sum(parent[name, s]["result"]["failed"]
                                              for s in seeds),
                                "change": sum(change[name, s]["result"]["failed"]
                                              for s in seeds)},
                 "metrics": {}}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            before = [parent[name, s]["result"]["metrics"][m]["value"] for s in seeds]
            after = [change[name, s]["result"]["metrics"][m]["value"] for s in seeds]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
            entry["metrics"][m] = {"unit": metric["unit"], "better": metric["better"],
                                   "parent": summary(before), "change": summary(after),
                                   "change_better_on": f"{wins}/{len(seeds)}"}
        entry["details"] = {path: {side: statistics.median(detail(recs[name, s], path)
                                                           for s in seeds)
                                   for side, recs in (("parent", parent), ("change", change))}
                            for path in DETAILS}
        workloads[name] = entry
    return {"pr": pr, "conditions": conditions, "workloads": workloads}


def layer_rows(runs: list) -> dict:
    """Seconds per call of each pytest-benchmark row timed in every run;
    ``runs`` are (parent, change) pairs: P1, C1, P2, C2, ..."""
    if len(runs) < 2 or len(runs) % 2:
        raise SystemExit("--layers needs parent and change runs in pairs")
    medians = [{b["name"]: b["stats"]["median"] for b in json.loads(p.read_text())["benchmarks"]}
               for p in runs]
    names = sorted(set.intersection(*(set(m) for m in medians)))
    sides = {"parent": medians[0::2], "change": medians[1::2]}
    return {name: {side: {"median": statistics.median(m[name] for m in ms),
                          "range": [min(m[name] for m in ms), max(m[name] for m in ms)],
                          "runs": len(ms)}
                   for side, ms in sides.items()}
            for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="records of the parent commit")
    ap.add_argument("change", type=Path, help="records of the change")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--layers", type=Path, nargs="+", metavar="JSON",
                    help="pytest-benchmark JSON of the layer rows as (parent, change) "
                         "pairs: P1 C1 P2 C2 ...")
    args = ap.parse_args(argv)
    doc = build(load_records(args.parent), load_records(args.change), args.pr)
    if args.layers:
        doc["layers_s"] = layer_rows(args.layers)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
