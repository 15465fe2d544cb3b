"""Print one digest line per deterministic output of cohcp, so that the
outputs of two checkouts can be compared with ``diff``.

Run from the repository root, with one checkout's sources on the path::

    PYTHONPATH=PARENT/src python3 benchmarks/digest.py > parent.txt
    PYTHONPATH=CHANGE/src python3 benchmarks/digest.py > change.txt
    diff parent.txt change.txt

Each line is a label and the first 16 hex digits of the sha256 of the
output's exact bytes (float bits, array bytes, report text); a CLI line
also carries the exit code, and its report is hashed without its
``timestamp`` field and with the scratch directory's path removed.  The
first line gives the thread count of numpy's OpenBLAS: some products
(``dense_als``'s among them) change bits with it, so compare two listings
only when their first lines agree (set ``OPENBLAS_NUM_THREADS`` to fix it).
The outputs are:

- the seed-611 ``blind_id`` items of the benchmark: the model, the
  direction estimates, the condition report, and the ALS loss trace,
  ``n_iter`` and flags; and, on one line, each item's
  ``essentially_equal`` verdict against its truth at tol 0.01, 0.05 and
  0.2;
- the seed-611 ``norm_certify`` pool: every ``NormCertificate`` field of
  the random tensors and the ``cohcp norms --fixture matmul:2`` reports;
- the seed-611 ``dense_als`` reports of a 40^3 and a 60^3 tensor;
- ``cohcp decompose`` with als (default, caps, Tychonoff, both
  orthogonality regimes, ``--tol 0``, ``--max-iter 3``), oga and woga;
- ``cohcp decompose`` with caps that the coherence projection does not
  reach on a 1x2x4 tensor at rank 3, so its report carries
  ``coherence_projection_incomplete``: on the mode of size 1 the
  projection breaks off (8 of 52 sweeps) or spends all
  ``PROJECTION_PASSES`` rotations, and on the other two it spends them;
- ``canonicalize`` of four terms, one with a zero weight and one with a
  zero factor column, so two are dropped;
- the atoms, Gram and coherence of a 40-atom 4x4x4
  ``random_incoherent_dictionary``, and its correlations with a fixed
  tensor;
- ``essentially_equal`` both ways on two pairs of rank-2 and rank-3
  models at tol 0.05 whose weights sit within tol across a gap: in the
  first the factors align only with the terms swapped; in the second they
  align only in pairs 0.07 apart in weight, joined by a chain of smaller
  gaps;
- ``cohcp decompose`` (als, oga, woga) and ``cohcp norms`` on tensors
  near the edges of the accepted norm range: a 4^3 tensor of norm 1.1e153
  and a 3^3 tensor of norm 4.5e-150;
- both demos, and ``cohcp simulate`` of a CDMA, a fluorescence and an
  array scene, each with the bytes of its ``--out-tensor`` file;
- ``doa_estimate`` on a mirror-symmetric 5-sensor line, whose near ties
  hold a rival maximum, so the rival's refinement is covered too;
- ``doa_estimate`` on the 17-sensor ``blind_id`` scene: at 0.5 degrees,
  whose 165,012 grid points fall in 5,496 cells, whose centres are scored
  in 5 full ``DOA_BLOCK`` blocks of 1,024 and one of 376; at 0.5 degrees
  again after a call at 1 degree (41,253 points, the same 5,496 cells),
  so the scene's grid cells are rebuilt; at 10 degrees (413 points in 377
  cells) and 30 degrees (46 points, a cell each), where the cells clamp
  to the grid spacing; and on random columns at 2 degrees (10,314 points
  in 5,496 cells), four at once and one alone, which is scored as a pair;
- ``cohcp coherence`` (within and over the brute-force budget) and
  ``cohcp check`` (from ``--mus`` and from ``--factors``);
- ``cohcp norms --input`` on a d = 1 vector and a d = 2 matrix whose
  imaginary parts include -0.0 (the one-mode witness keeps the signs);
- ``greedy_bound_check`` of each kind for r = 1..199 on a grid of
  coherences that holds 1/64, 1/96, 1/60 and 1/3 and one ulp either side
  of each, and the message with which it refuses malformed inputs;
- ``nuclear_norm_bounds`` of ``mat_mult_tensor(2)`` with its standard
  decomposition as a candidate and no search, at the default ``tol`` and
  at ``tol = 0``;
- the messages with which ``read_htns`` refuses a 40,000-entry file with a
  non-number at entry 20,000 (past the writer's first 16,384-line chunk),
  a 3-wide row, a non-finite entry, one entry too many, and a file whose
  entry block is empty.

It takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT))  # perfbench; cohcp comes from PYTHONPATH
sys.path.append(str(ROOT / "perfbench"))  # perfbench/run.py imports tracer as a top-level module

from cohcp import cli, decompose  # noqa: E402
from cohcp.conditions import GREEDY_BOUND_KINDS, greedy_bound_check  # noqa: E402
from cohcp.core import (canonicalize, essentially_equal, evaluate_terms,  # noqa: E402
                        random_unit_columns, stack_terms)
from cohcp.htns import read_htns, write_htns  # noqa: E402
from cohcp.norms import (NormConfig, mat_mult_decomposition,  # noqa: E402
                         mat_mult_tensor, nuclear_norm_bounds)
from cohcp.simulate import ArrayScene, doa_estimate, steering_vectors  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import blas_runtime  # noqa: E402

SEED = 611
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*", ')


def _feed(h, obj) -> None:
    """Hash the exact bytes of a (nested) output value."""
    if isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, (complex, np.complexfloating)):
        h.update(f"{complex(obj).real.hex()},{complex(obj).imag.hex()}".encode())
    elif isinstance(obj, dict):
        for key, value in obj.items():
            h.update(f"{key!r}:".encode())
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}(".encode())
        for value in obj:
            _feed(h, value)
        h.update(b")")
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def show(label: str, obj) -> None:
    print(f"{label} {digest(obj)}")


def show_cli(label: str, argv: list, out: Path) -> None:
    """Run ``cohcp argv --out out`` and hash its report without the
    timestamp and the path of the directory it is written in."""
    out.unlink(missing_ok=True)
    code = cli.main([*argv, "--out", str(out)])
    text = b""
    if out.exists():
        text = TIMESTAMP.sub(b"", out.read_bytes()).replace(str(out.parent).encode(), b"")
    print(f"{label} exit={code} {hashlib.sha256(text).hexdigest()[:16]}")


def blind_id(work: Path) -> None:
    workload = workloads.BlindId(pool=10)
    als, diags = decompose.constrained_als, []

    def capture(*args):
        model, diag = als(*args)
        diags.append(diag)
        return model, diag

    decompose.constrained_als = capture  # the workload calls it by module attribute
    verdicts = []
    try:
        for i, item in enumerate(workload.setup(SEED, work)):
            out = workload.op(item)
            diag = diags[-1]
            show(f"blind_id[{i}].model", out.model)
            show(f"blind_id[{i}].estimates", out.estimates)
            show(f"blind_id[{i}].report", out.report)
            show(f"blind_id[{i}].als", (diag.loss_trace, diag.n_iter, diag.flags))
            verdicts.append([essentially_equal(out.model, out.truth, tol)
                             for tol in (0.01, 0.05, 0.2)])
    finally:
        decompose.constrained_als = als
    show("blind_id.essentially_equal_truth", verdicts)


def norm_certify(work: Path) -> None:
    workload = workloads.NormCertify(groups=4)
    for i, item in enumerate(workload.setup(SEED, work)):
        if item.tensor is None:
            show_cli(f"norm_certify[{i}].matmul2",
                     ["norms", "--fixture", "matmul:2", "--seed", str(item.seed)],
                     Path(item.out))
        else:
            show(f"norm_certify[{i}].certificate", workload.op(item))


def dense_als(work: Path) -> None:
    workload = workloads.DenseAls(dims=(40, 60))
    for i, item in enumerate(workload.setup(SEED, work)):
        show_cli(f"dense_als[{i}]", ["decompose", "--input", item.path,
                                     "--rank", str(workload.rank), "--seed", str(item.seed)],
                 Path(item.out))


def decompose_cli(work: Path) -> None:
    rng = np.random.default_rng(SEED)
    dims = (6, 5, 4)
    t = evaluate_terms(np.array([3.0, 2.0, 1.0]),
                       [random_unit_columns(n, 3, rng) for n in dims])
    t = t + 0.01 * (rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    write_htns(work / "t.htns", t)
    base = ["decompose", "--input", str(work / "t.htns"), "--rank", "3"]
    runs = {
        "als": [],
        "als_caps": ["--caps", "0.3,0.4,0.5"],
        "als_tychonoff": ["--tychonoff", "0.1"],
        "als_per_mode": ["--ortho", "per-mode"],
        "als_separable": ["--ortho", "separable"],
        "als_tol0": ["--tol", "0"],
        "als_max_iter3": ["--max-iter", "3"],
        "oga": ["--method", "oga"],
    }
    for name, flags in runs.items():
        show_cli(f"decompose.{name}", [*base, *flags], work / "r.json")

    dictionary = decompose.random_incoherent_dictionary((4, 4, 4), 20, seed=SEED)
    (work / "atoms.json").write_text(json.dumps({"atoms": [
        [[[float(x.real), float(x.imag)] for x in v] for v in atom]
        for atom in dictionary.atoms]}))
    idx = [2, 7, 11]
    planted = evaluate_terms(np.array([1.5, 1.0 + 0.5j, 0.7]),
                             [s[:, idx] for s in stack_terms(
                                 dictionary.atoms, dictionary.dims)])
    write_htns(work / "w.htns", planted)
    show_cli("decompose.woga", ["decompose", "--input", str(work / "w.htns"), "--rank", "3",
                                "--method", "woga", "--dict", str(work / "atoms.json")],
             work / "r.json")

    # no cap below 1 holds on a mode of size 1, nor 0.3 on three columns in
    # C^2: the projections break off or spend every pass, and are flagged
    rng = np.random.default_rng(SEED)
    write_htns(work / "p.htns", rng.standard_normal((1, 2, 4))
               + 1j * rng.standard_normal((1, 2, 4)))
    show_cli("decompose.als_caps_unreachable", ["decompose", "--input", str(work / "p.htns"),
                                                "--rank", "3", "--caps", "0.5,0.3,0.5"],
             work / "r.json")


def canonical_form(work: Path) -> None:
    rng = np.random.default_rng(SEED)
    factors = [random_unit_columns(n, 4, rng) for n in (3, 2, 4)]
    factors[1][:, 2] = 0.0
    show("canonicalize.dropped_terms",
         canonicalize(np.array([1.5j, 0.0, 2.0, -0.5]), factors))


def dictionary_arrays(work: Path) -> None:
    d = decompose.random_incoherent_dictionary((4, 4, 4), 40, seed=SEED)
    rng = np.random.default_rng(SEED)
    t = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    show("dictionary.random_incoherent", (d.atoms, d.gram, d.mu, d.correlations(t)))


def essential_equality(work: Path) -> None:
    rng = np.random.default_rng(5)
    a, b, c = ([random_unit_columns(3, 1, rng) for _ in range(3)] for _ in range(3))

    def model(weights, *terms):
        return canonicalize(np.array(weights), [np.hstack([t[k] for t in terms])
                                                for k in range(3)])

    pairs = {"swapped": (model([1.0, 0.94], a, b), model([0.97, 0.97], b, a)),
             "chained": (model([1.0, 0.96, 0.92], a, b, c), model([0.99, 0.96, 0.93], c, b, a))}
    for name, (m1, m2) in pairs.items():
        show(f"essentially_equal.{name}",
             (essentially_equal(m1, m2, 0.05), essentially_equal(m2, m1, 0.05)))


def norm_range_edges(work: Path) -> None:
    rng = np.random.default_rng(0)
    big = (rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))) * 1e152
    small = np.random.default_rng(1).standard_normal((3, 3, 3)) * 1e-150
    for name, t in (("4^3x1e152", big), ("3^3x1e-150", small)):
        write_htns(work / "e.htns", t)
        e = np.eye(t.shape[0]).tolist()
        (work / "atoms.json").write_text(json.dumps(
            {"atoms": [[e[0], e[0], e[0]], [e[1], e[1], e[1]], [e[0], e[1], e[2]]]}))
        base = ["decompose", "--input", str(work / "e.htns"), "--rank", "2"]
        for method in ("als", "oga"):
            show_cli(f"edge.{name}.{method}", [*base, "--method", method], work / "r.json")
        show_cli(f"edge.{name}.woga", [*base, "--method", "woga",
                                        "--dict", str(work / "atoms.json")], work / "r.json")
        show_cli(f"edge.{name}.norms", ["norms", "--input", str(work / "e.htns")],
                 work / "r.json")


def demos_and_simulate(work: Path) -> None:
    show_cli("demo-nonexistence", ["demo-nonexistence", "--nmax", "64"], work / "r.json")
    show_cli("demo-recovery", ["demo-recovery", "--seed", "0"], work / "r.json")
    scenes = {
        "cdma": {"gains": [[1.0, 0.5], [0.2, 1.0]], "symbols": [[1.0, 0.0], [0.3, 1.0]],
                 "spreading": [[1.0, -1.0], [1.0, 1.0]], "impulse": [[1.0, 0.5], [0.2, 1.0]]},
        "fluorescence": {"concentrations": [[1.0, 0.2], [0.3, 1.0]],
                         "excitation": [[1.0, 0.9], [0.2, 0.3], [0.1, 0.2]],
                         "emission": [[0.5, 0.4], [0.5, 0.6]]},
        "array": {"positions": [[i * 0.12, j * 0.12, 0.0] for i in range(3) for j in range(3)]
                  + [[0.12, 0.12, 0.12]],
                  "translations": [[0.0, 0.0, 0.0], [0.12, 0.0, 0.0], [0.0, 0.12, 0.0]],
                  "pulsation": 2e9 * np.pi, "celerity": 3e8,
                  "directions": [[0.5, 0.5, 0.707], [-0.5, 0.5, 0.707]],
                  "signals": {"kind": "qpsk", "n_samples": 24}},
    }
    for kind, doc in scenes.items():
        (work / "scene.json").write_text(json.dumps(doc))
        show_cli(f"simulate.{kind}", ["simulate", "--kind", kind,
                                      "--scene", str(work / "scene.json"),
                                      "--noise-std", "0.1", "--seed", "3",
                                      "--out-tensor", str(work / "s.htns")],
                 work / "r.json")
        show(f"simulate.{kind}.tensor", (work / "s.htns").read_bytes())


def doa_rival(work: Path) -> None:
    wavelength, celerity = 0.3, 3.0e8
    line = ArrayScene(b=[[0.12 * i, 0.0, 0.0] for i in range(5)], delta=np.zeros((1, 3)),
                      pulsation=2.0 * np.pi * celerity / wavelength, celerity=celerity)
    dirs = [np.array(d) / np.linalg.norm(d) for d in ([0.5, 0.8, 0.0], [0.2, 0.4, 0.9])]
    u, _ = steering_vectors(line, np.stack(dirs))
    u = u + 0.01 * np.random.default_rng(9).standard_normal(u.shape)
    show("doa_estimate.line_rival", doa_estimate(u, line, grid_resolution_deg=3.0))


def doa_fine(work: Path) -> None:
    scene, dirs = workloads.array_scene()
    u, _ = steering_vectors(scene, dirs)
    u = u + 0.01 * np.random.default_rng(5).standard_normal(u.shape)
    show("doa_estimate.blind_id_half_degree", doa_estimate(u, scene, grid_resolution_deg=0.5))
    doa_estimate(u, scene, grid_resolution_deg=1.0)
    show("doa_estimate.blind_id_half_degree_after_one_degree",
         doa_estimate(u, scene, grid_resolution_deg=0.5))
    for resolution in (10.0, 30.0):
        show(f"doa_estimate.blind_id_{resolution:g}_degrees",
             doa_estimate(u, scene, grid_resolution_deg=resolution))
    rng = np.random.default_rng(SEED)
    random = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    show("doa_estimate.random_columns_2_degrees",
         doa_estimate(random, scene, grid_resolution_deg=2.0))
    show("doa_estimate.random_column_2_degrees",
         doa_estimate(random[:, 0], scene, grid_resolution_deg=2.0))


def factor_commands(work: Path) -> None:
    rng = np.random.default_rng(SEED)
    paths = []
    for k, (n, r) in enumerate(((3, 4), (4, 4), (5, 4))):
        paths.append(str(work / f"f{k}.htns"))
        write_htns(paths[-1], random_unit_columns(n, r, rng))
    for budget in ("14", "2"):
        show_cli(f"coherence.budget{budget}",
                 ["coherence", "--input", paths[0], "--budget", budget], work / "r.json")
    show_cli("check.mus", ["check", "--mus", "0.2,0.3,0.4", "--r", "2", "--kranks", "2,2,2"],
             work / "r.json")
    show_cli("check.factors", ["check", "--factors", *paths, "--r", "3"], work / "r.json")
    # imaginary parts of -0.0 beside +0.0, in the one-mode witness of a vector
    vector = np.array([complex(3.0, -0.0), complex(1.0, -0.0), complex(-2.0, 0.0),
                       complex(0.5, -0.0)])
    matrix = np.array([[complex(1.0, -0.0), complex(0.5, 0.25)],
                       [complex(-0.3, -0.0), complex(2.0, 0.0)]])
    for name, t in (("vector", vector), ("matrix", matrix)):
        write_htns(work / "n.htns", t)
        show_cli(f"norms.{name}", ["norms", "--input", str(work / "n.htns")], work / "r.json")


def _refusal(fn, *args) -> str:
    """The message of the ``ValueError`` that fn(*args) raises."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{fn.__name__}{args} was not refused")


def certificates(work: Path) -> None:
    mus = {k / 19.0 for k in range(1, 19)} | {10.0 ** -k for k in range(1, 17)}
    for edge in (1 / 64, 1 / 96, 1 / 60, 1 / 3):
        mus |= {edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1.0)}
    for kind in GREEDY_BOUND_KINDS:
        show(f"greedy_bound_check.{kind}", [greedy_bound_check(kind, r, mu)
                                            for r in range(1, 200) for mu in sorted(mus)])
    malformed = [("nope", 2, 0.1), ("gms", 0, 0.1), ("gms", 2, 0.0), ("gms", 2, 2.0),
                 ("gms", 2, math.nan), (["gms"], 2, 0.1)]
    show("greedy_bound_check.malformed",
         [_refusal(greedy_bound_check, *args) for args in malformed])
    matmul2 = mat_mult_tensor(2)
    cfg = NormConfig(search=False, candidates=(mat_mult_decomposition(2),))
    show("nuclear_norm_bounds.matmul2_candidate", nuclear_norm_bounds(matmul2, cfg))
    show("nuclear_norm_bounds.matmul2_candidate_tol0",
         nuclear_norm_bounds(matmul2, dataclasses.replace(cfg, tol=0.0)))


def htns_refusals(work: Path) -> None:
    entries = [f"{i} 0.5\n" for i in range(40_000)]
    files = {
        "non_number_at_20000": entries[:20_000] + ["1 x\n"] + entries[20_001:],
        "three_wide": entries[:3] + ["1 2 3\n"] + entries[4:],
        "non_finite": entries[:5] + ["0 inf\n"] + entries[6:],
        "too_many": entries + ["1 0\n"],
        "empty_block": ["\n", "  \n"],
    }
    for name, lines in files.items():
        path = work / f"{name}.htns"
        path.write_text("1\n40000\n" + "".join(lines))
        show(f"read_htns.{name}", _refusal(read_htns, path))


def main() -> int:
    print(f"blas_threads {blas_runtime().get('threads', 'unknown')}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for section in (blind_id, norm_certify, dense_als, decompose_cli, canonical_form,
                        dictionary_arrays, essential_equality, norm_range_edges, demos_and_simulate, doa_rival,
                        doa_fine, factor_commands, certificates, htns_refusals):
            section(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
