"""cohcp benchmark: one workload, one process, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload blind_id --seed 1 --seconds 30 --trace 0

The inputs are made from ``--seed``; each operation starts when the previous
one has finished and its output is checked outside the timed region.  The
end-to-end times are scaled to a nominal host speed, measured by a
reference kernel run before each op (see ``ReferenceKernel``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced
and a traced half and the last line carries the per-layer metrics.  The
line before it holds the machine conditions and details of the run.  The
run record and, for traced runs, the spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 2      # before the timed loop, and again after it in untraced runs
TAIL_BEYOND = 10      # samples the reported tail percentile must leave above it
# median time of the reference kernel on the host the bounds were set on; end-to-end
# times are scaled to a host that runs the kernel in exactly this time
REF_NOMINAL_S = 0.006
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TRACED = (
    "core.evaluate_terms",
    "core.canonicalize",
    "coherence.coherence",
    "coherence.kruskal_rank_bruteforce",
    "conditions.condition_report",
    "norms.nuclear_norm_bounds",
    "decompose.constrained_als",
    "decompose.best_rank1",
    "decompose.oga_continuous",
    "simulate.simulate_array",
    "simulate.doa_estimate",
    "simulate.steering_vectors",
    "htns.read_htns",
    "cli.main",
    "cli.render_report",
)

# constrained_als flags that mark a fallback path or a random reseed
FALLBACK_FLAGS = frozenset({
    "greedy_init_failed_fallback_random",
    "greedy_init_degenerate_fallback_random",
    "greedy_init_padded",
    "dead_component_reseeded",
    "singular_gram_pseudoinverse",
})


def cap_blas_threads(nproc: int) -> int:
    """Cap the BLAS thread count at ``nproc``; must run before numpy loads."""
    threads = nproc
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = min(threads, int(value))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def blas_runtime() -> dict:
    """Name, build and live thread count of the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in os.path.basename(ln.split()[-1]).lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["threads"] = threads()
                    info["config"] = config().decode(errors="replace")
                    return info
        return info
    return {"library": "unknown"}


def machine_conditions(seed: int, nproc: int) -> dict:
    import numpy as np  # not at module level: the thread cap must come first

    return {
        "seed": seed,
        "nproc": nproc,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": blas_runtime(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


class ReferenceKernel:
    """A fixed kernel that measures the host's speed of the moment.

    The kernel is small numpy calls and interpreter work, like the ops, and
    calls nothing of cohcp.  It runs right before every timed op and every
    set-up, outside the timed region; each of those times is scaled by
    REF_NOMINAL_S over the kernel's time before it.  The host's slow and fast
    phases slow the kernel and the op alike and cancel; a change in cohcp's
    own speed does not."""

    def __init__(self):
        import numpy as np  # not at module level: the thread cap must come first

        rng = np.random.default_rng(0)
        self.np = np
        self.a = [rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
                  for _ in range(8)]
        self.b = rng.standard_normal(9) + 0j
        self.m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(120):
            x = np.linalg.lstsq(self.a[k % 8], self.b, rcond=None)[0]
            acc += float(abs(np.einsum("i,i->", x, x.conj())))
            for j in range(40):
                acc += j * 0.5 % 3
        for _ in range(3):
            acc += float(abs(self.m @ self.m).sum())
        return time.perf_counter() - t0


def at_nominal(seconds: float, ref_s: float) -> float:
    """``seconds`` on a host that runs the reference kernel in REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


@dataclass
class OpRecord:
    item: int
    seconds: float | None   # None: run after the timed loop, not timed
    ref_s: float | None     # the reference kernel's time right before the op
    ok: bool
    rel_error: float | None
    reason: str = ""


def run_op(workload, pool, k: int, ref=None, tracer=None) -> OpRecord:
    """Run and check operation ``k`` on pool item ``k mod len(pool)``; time it,
    after a run of the reference kernel ``ref``, if one is given."""
    index = k % len(pool)
    item = pool[index]
    ref_s = ref.seconds() if ref is not None else None
    if tracer is not None:
        tracer.op, tracer.active = k, True
    t0 = time.perf_counter()
    try:
        out = workload.op(item)
    except Exception:
        failure = traceback.format_exc(limit=4)
    else:
        failure = None
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - t0 if ref is not None else None
    if failure is None:
        try:
            check = workload.check(item, out)
        except Exception:
            failure = traceback.format_exc(limit=4)
    if failure is not None:
        return OpRecord(index, elapsed, ref_s, False, None, failure)
    return OpRecord(index, elapsed, ref_s, check.ok, check.rel_error, check.reason)


def closed_loop(workload, pool, seconds: float, ref, tracer=None) -> list:
    """Run operations back to back until ``seconds`` have passed (at least one)."""
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not records or time.perf_counter() < deadline:
        records.append(run_op(workload, pool, k, ref, tracer))
        k += 1
    return records


def timed_setup(workload, seed: int, workdir: Path, ref):
    """Build the input pool and run one warm-up op, SETUP_REPEATS times.

    Returns the last pool and a (seconds, reference seconds) pair per set-up."""
    times = []
    pool = None
    for _ in range(SETUP_REPEATS):
        ref_s = ref.seconds()
        t0 = time.perf_counter()
        pool = workload.setup(seed, workdir)
        workload.op(pool[0])
        times.append((time.perf_counter() - t0, ref_s))
    return pool, times


def tail(durations: list) -> tuple:
    """(value, percentile) of the highest percentile that leaves at least
    TAIL_BEYOND samples above it; the maximum if there are too few samples."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def ops_per_second(records: list, nominal: bool = True) -> float:
    """Passed timed ops per second of op time, at the nominal host speed
    unless ``nominal`` is false."""
    timed = [r for r in records if r.seconds is not None]
    busy = sum(at_nominal(r.seconds, r.ref_s) if nominal else r.seconds for r in timed)
    return sum(r.ok for r in timed) / busy


def end_to_end(workload, records: list, setups: list) -> tuple:
    timed = [r for r in records if r.seconds is not None]
    durations = [at_nominal(r.seconds, r.ref_s) for r in timed]
    tail_s, tail_pct = tail(durations)
    errors = {r.item: r.rel_error for r in records if r.rel_error is not None}
    metrics = {
        "setup_s": (statistics.median(at_nominal(s, ref) for s, ref in setups), "s"),
        "ops_per_s": (ops_per_second(timed), "1/s"),
        "op_tail_s": (tail_s, "s"),
        "success_ratio": (sum(r.ok for r in records) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rel_error_p50": (statistics.median(errors.values()), "ratio"),
    }
    # the median is reported but not gated: see "Host noise" in README.md
    details = {"timed_ops": len(timed), "op_p50_s": statistics.median(durations),
               "op_tail_percentile": tail_pct,
               "ref_median_s": statistics.median(r.ref_s for r in timed),
               "as_measured": {
                   "setup_s": statistics.median(s for s, _ in setups),
                   "ops_per_s": ops_per_second(timed, nominal=False),
                   "op_tail_s": tail([r.seconds for r in timed])[0]},
               "error_pool_items": len(errors),
               workload.error_name: metrics["rel_error_p50"][0] * workload.error_scale}
    return metrics, details


def per_layer(tracer, traced: list, untraced: list) -> dict:
    ops = len(traced)
    stats = tracer.layer_stats()
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_ms"] = (stats[name].self_ns / 1e6 / ops, "ms")
        metrics[f"{name}.calls"] = (stats[name].calls / ops, "count")

    als = stats["decompose.constrained_als"]
    sweeps = sum(a["sweeps"] for a in als.attrs)
    warm_ns = sum(s.duration_ns for s in tracer.spans
                  if s.name == "decompose.oga_continuous" and s.parent is not None
                  and tracer.spans[s.parent].name == "decompose.constrained_als")
    flagged = {s.op for s in tracer.spans if s.name == "decompose.constrained_als"
               and s.attrs and FALLBACK_FLAGS.intersection(s.attrs["flags"])}
    metrics["decompose.constrained_als.sweeps"] = (sweeps / ops, "count")
    metrics["decompose.constrained_als.sweep_ms"] = (
        (als.total_ns - warm_ns) / 1e6 / sweeps if sweeps else 0.0, "ms")
    metrics["decompose.constrained_als.flagged_ops"] = (len(flagged), "count")

    nuc = stats["norms.nuclear_norm_bounds"]
    metrics["norms.nuclear_norm_bounds.certified_ratio"] = (
        sum(a["certified"] for a in nuc.attrs) / nuc.calls if nuc.calls else 0.0, "ratio")
    read = stats["htns.read_htns"]
    read_bytes = sum(a["bytes"] for a in read.attrs)
    metrics["htns.read_htns.mb_per_s"] = (
        read_bytes / 1e6 / (read.total_ns / 1e9) if read.total_ns else 0.0, "MB/s")
    untraced_rate = ops_per_second(untraced)
    metrics["trace.overhead_ratio"] = (
        ops_per_second(traced) / untraced_rate if untraced_rate else 0.0, "ratio")
    return metrics


def _file_bytes(args, kwargs, result) -> dict:
    src = args[0] if args else kwargs.get("path_or_file")
    return {"bytes": os.path.getsize(src) if isinstance(src, (str, os.PathLike)) else 0}


PROBES = {
    "decompose.constrained_als":
        lambda args, kwargs, result: {"sweeps": result[1].n_iter,
                                      "flags": list(result[1].flags)},
    "norms.nuclear_norm_bounds":
        lambda args, kwargs, result: {"certified": bool(result.certified)},
    "htns.read_htns": _file_bytes,
}


def execute(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            nproc: int) -> dict:
    """Run one workload; return the run record, whose ``result`` is printed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    conditions = machine_conditions(seed, nproc)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    ref = ReferenceKernel()
    try:
        pool, setups = timed_setup(workload, seed, workdir, ref)
        if not trace:
            records = closed_loop(workload, pool, seconds, ref)
            seen = {r.item for r in records}
            # every pool item gets an error value, however fast the machine
            records += [run_op(workload, pool, i)
                        for i in range(len(pool)) if i not in seen]
            # host speed drifts over tens of seconds: sample set-up at both ends
            setups += timed_setup(workload, seed, workdir, ref)[1]
            metrics, details = end_to_end(workload, records, setups)
        else:
            untraced = closed_loop(workload, pool, seconds / 2, ref)
            with Tracer(TRACED, PROBES) as tracer:
                traced = closed_loop(workload, pool, seconds / 2, ref, tracer)
            records = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            details = {"untraced_ops": len(untraced), "traced_ops": len(traced),
                       "spans": len(tracer.spans)}
            spans_path = out_dir / f"{workload.name}-seed{seed}-spans.jsonl"
            tracer.write(spans_path)
            details["spans_file"] = str(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    conditions["loadavg_end"] = list(os.getloadavg())
    failed = [r for r in records if not r.ok]
    details["first_failure"] = failed[0].reason if failed else None
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload.name, "trace": int(trace), "seconds": seconds,
              "conditions": conditions, "details": details, "result": result,
              "ops": [[r.item, r.seconds, r.ref_s, r.ok] for r in records]}
    with open(out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("blind_id", "dense_als", "norm_certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohcp" / "__init__.py").is_file():
        print(f"error: cohcp sources not found in {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    record = execute(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, nproc)
    print(json.dumps({"conditions": record["conditions"], "details": record["details"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
