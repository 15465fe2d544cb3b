"""Command-line surface: reproducible, scriptable runs with JSON reports.

Every run is deterministic given its flags and seed; reports are versioned
JSON with numbers carrying 17 significant digits (excluding the timestamp
field, byte-identical across repeated runs).  Exit codes: 0 success,
2 validation error, 3 numerical non-convergence (the uncertified result is
still written).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .coherence import KRANK_BUDGET, coherence, krank_lower_bound, kruskal_rank_bruteforce
from .conditions import condition_report, temlyakov_condition
from .core import check_count, check_tol, evaluate_terms, frobenius, gram_mu, stack_terms
from .decompose import (
    ORTHO_NONE,
    ORTHO_PER_MODE,
    ORTHO_SEPARABLE,
    Dictionary,
    SolverConfig,
    constrained_als,
    divergence_witness,
    oga_continuous,
    random_incoherent_dictionary,
    woga,
)
from .htns import read_htns, write_htns
from .norms import NormConfig, mat_mult_tensor, nuclear_norm_bounds
from .simulate import (
    ArrayScene,
    CdmaScene,
    PathSet,
    effective_codes,
    has_resolvent_triad,
    simulate_array,
    simulate_cdma,
    simulate_fluorescence,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3

# cap on an array scene's signals.n_samples: 10^12 would ask for terabytes
MAX_SIGNAL_SAMPLES = 1 << 16


# ---------------------------------------------------------------- reports


def _num(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if float(x) == int(x) and abs(x) < 1e15:
        return format(x, ".1f")
    return format(x, ".17g")


def _serialize(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _num(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_num(obj.real)}, {_num(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_serialize(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_report(payload: dict) -> str:
    body = {"report_version": 1,
            "generator": f"cohcp {__version__}",
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    body.update(payload)
    return _serialize(body) + "\n"


def _numbers(value, what: str) -> np.ndarray:
    """A JSON value as a float array; anything but (nested lists of)
    numbers is a validation error that names ``what``."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must hold only numbers in equal-length lists") from None


def _complex(value, what: str, ndim: int) -> np.ndarray:
    """A JSON vector (``ndim`` 1) or matrix (``ndim`` 2) of numbers or
    [re, im] pairs as a complex array; any other shape is a validation
    error that names ``what``."""
    arr = _numbers(value, what)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim == ndim:
        return arr.astype(np.complex128)
    raise ValueError(f"{what}: expected a {('vector', 'matrix')[ndim - 1]} "
                     "of numbers or [re, im] pairs")


def _model_payload(model) -> dict:
    return {
        "r": model.rank,
        "dims": model.dims,
        "weights": model.weights,
        "factors": model.factors,
        "dropped_terms": model.dropped_terms,
    }


def _parse_float_list(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


# ---------------------------------------------------------------- commands
# Each command returns (report, exit code); main writes the report.


def _cmd_coherence(args) -> tuple:
    mat = read_htns(args.input)
    if mat.ndim != 2:
        raise ValueError("coherence expects an HTNS1 factor matrix (d = 2)")
    rep = coherence(mat)
    r = mat.shape[1]
    out = {
        "command": "coherence",
        "n": mat.shape[0],
        "r": r,
        "mu": rep.mu,
        "omega": rep.omega,
        "argpair": rep.argpair,
    }
    if rep.mu > 0:
        # ceil(1/mu) bounds krank only for a dependent set; an independent
        # set has krank = r
        out["krank_lower_bound"] = min(krank_lower_bound(rep), r)
    else:
        out["krank_lower_bound"] = r
        out["note"] = "orthonormal set: krank = r, coherence bound not applicable"
    if r <= check_count(args.budget, 0, f"budget must be >= 0, got {args.budget}"):
        out["krank_bruteforce"] = kruskal_rank_bruteforce(mat, budget=args.budget)
        out["spark"] = out["krank_bruteforce"] + 1
    else:
        out["krank_bruteforce"] = None
        out["note_krank"] = f"r={r} exceeds brute-force budget {args.budget}"
    return out, EXIT_OK


def _cmd_check(args) -> tuple:
    if args.mus:
        mus = _parse_float_list(args.mus)
    elif args.factors:
        mus = [coherence(read_htns(p)).mu for p in args.factors]
    else:
        raise ValueError("check needs --mus or --factors")
    if args.d is not None and args.d != len(mus):
        raise ValueError(f"--d {args.d} does not match {len(mus)} coherences")
    kranks = _parse_float_list(args.kranks) if args.kranks else None
    report = condition_report(mus, args.r, kranks=kranks)
    report["command"] = "check"
    return report, EXIT_OK


def _parse_fixture(text: str):
    kind, _, arg = text.partition(":")
    if kind != "matmul":
        raise ValueError(f"unknown fixture {text!r}; expected matmul:n")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad fixture size in {text!r}")
    return mat_mult_tensor(n)


def _cmd_norms(args) -> tuple:
    if args.fixture:
        tensor = _parse_fixture(args.fixture)
    elif args.input:
        tensor = read_htns(args.input)
    else:
        raise ValueError("norms needs --input or --fixture")
    cfg = NormConfig(
        tol=args.tol,
        size_cap=args.size_cap,
        restarts=args.restarts,
        seed=args.seed,
        search=not args.no_search,
    )
    cert = nuclear_norm_bounds(tensor, cfg)
    out = {
        "command": "norms",
        "dims": tensor.shape,
        "spectral": cert.spectral,
        "spectral_witness": cert.spectral_witness,
        "nuclear_lower": cert.nuclear_lower,
        "nuclear_upper": cert.nuclear_upper,
        "certified": cert.certified,
        "upper_witness": _model_payload(cert.upper_witness),
    }
    return out, EXIT_OK if cert.certified else EXIT_NOT_CONVERGED


def _load_dictionary(path: str) -> Dictionary:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "atoms" not in doc:
        raise ValueError("dictionary JSON must contain an 'atoms' list")
    if not (isinstance(doc["atoms"], list) and all(isinstance(a, list) for a in doc["atoms"])):
        raise ValueError("dictionary field 'atoms' must be a list of lists of vectors")
    return Dictionary([tuple(_complex(vec, "dictionary atom vectors", 1) for vec in atom)
                       for atom in doc["atoms"]])


# decompose flags that only some methods read: flag -> (dest, default, methods).
# Their argparse default is None, so an explicitly given flag that the chosen
# method would ignore can be refused by name.
_METHOD_FLAGS = {
    "--caps": ("caps", None, ("als",)),
    "--tychonoff": ("tychonoff", SolverConfig.tychonoff_lambda, ("als",)),
    "--ortho": ("ortho", SolverConfig.orthogonality, ("als",)),
    "--max-iter": ("max_iter", SolverConfig.max_iter, ("als", "woga")),
    "--dict": ("dictionary", None, ("woga",)),
    "--t": ("t", 1.0, ("woga",)),
    "--seed": ("seed", SolverConfig.seed, ("als", "oga")),
}


def _cmd_decompose(args) -> tuple:
    check_count(args.rank, 1, f"--rank must be >= 1, got {args.rank}")
    check_tol(args.tol)  # read by every method, so checked before the method's flags
    stray = [flag for flag, (dest, _, methods) in _METHOD_FLAGS.items()
             if getattr(args, dest) is not None and args.method not in methods]
    if stray:
        raise ValueError(f"--method {args.method} does not read {', '.join(stray)}")
    for dest, default, _ in _METHOD_FLAGS.values():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    f = read_htns(args.input)
    out: dict = {"command": "decompose", "method": args.method,
                 "dims": f.shape, "seed": args.seed}
    if args.method == "als":
        caps = tuple(_parse_float_list(args.caps)) if args.caps else None
        cfg = SolverConfig(
            r=args.rank,
            coherence_caps=caps,
            tychonoff_lambda=args.tychonoff,
            orthogonality=args.ortho,
            max_iter=args.max_iter,
            tol=args.tol,
            seed=args.seed,
        )
        model, diag = constrained_als(f, cfg)
        out.update(_model_payload(model))
        out["residual"] = diag.final_residual
        out["relative_residual"] = diag.final_residual / max(frobenius(f), 1e-300)
        out["achieved_coherences"] = diag.achieved_mus
        out["converged"] = diag.converged
        out["n_iter"] = diag.n_iter
        out["flags"] = diag.flags
        out["conditions"] = condition_report(diag.achieved_mus, model.rank or 1)
    elif args.method == "oga":
        model, res = oga_continuous(f, args.rank, seed=args.seed, tol=args.tol)
        out.update(_model_payload(model))
        out["residuals"] = res.residuals
        out["residual"] = res.residuals[-1]
        out["converged"] = res.converged
        out["flags"] = res.flags
        mus = [gram_mu(fk.conj().T @ fk) for fk in model.factors]
        out["achieved_coherences"] = mus
        out["conditions"] = condition_report(mus, model.rank or 1)
    else:  # woga
        if not args.dictionary:
            raise ValueError("woga needs --dict with a dictionary JSON file")
        dictionary = _load_dictionary(args.dictionary)
        res = woga(f, dictionary, t=args.t, max_iter=args.max_iter, tol=args.tol)
        out["selected"] = res.selected
        out["coefficients"] = res.coefficients
        out["residuals"] = res.residuals
        out["converged"] = res.converged
        out["flags"] = res.flags
        out["dictionary_mu"] = dictionary.mu
        out["temlyakov_condition_r"] = temlyakov_condition(
            args.rank, dictionary.mu, args.t) if dictionary.mu < 1 else False
    return out, EXIT_OK if out["converged"] else EXIT_NOT_CONVERGED


def _signals_from_spec(doc, n3_default: int, r: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    spec = doc.get("signals", {})
    if isinstance(spec, dict):
        kind = spec.get("kind", "gaussian")
        n3 = check_count(spec.get("n_samples", n3_default), 1,
                         "signals field 'n_samples' must be a positive integer")
        if n3 > MAX_SIGNAL_SAMPLES:
            raise ValueError(f"signals field 'n_samples' must be at most "
                             f"{MAX_SIGNAL_SAMPLES}, got {n3}")
        if kind == "qpsk":
            sym = rng.integers(0, 4, size=(n3, r))
            sig = np.exp(1j * (math.pi / 4 + math.pi / 2 * sym))
        elif kind == "gaussian":
            sig = (rng.standard_normal((n3, r))
                   + 1j * rng.standard_normal((n3, r))) / math.sqrt(2)
        else:
            raise ValueError(f"unknown signal kind {kind!r}")
        norms = spec.get("norms")
        if norms is not None:
            norms = _numbers(norms, "signals field 'norms'")
            if norms.shape != (r,) or (norms < 0).any():  # NaN goes on to PathSet
                raise ValueError(f"signals field 'norms' must hold {r} numbers >= 0, "
                                 "one per direction")
            sig = sig / np.linalg.norm(sig, axis=0) * norms
        return sig
    return _scene_matrix(doc, "signals")


def _scene_array(doc, key: str) -> np.ndarray:
    try:
        value = doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"scene JSON is missing field {key!r}") from None
    return _numbers(value, f"scene field {key!r}")


def _scene_matrix(doc, key: str) -> np.ndarray:
    return _complex(_scene_array(doc, key), f"scene field {key!r}", 2)


def _scene_number(doc, key: str) -> float:
    value = _scene_array(doc, key)
    if value.ndim != 0 or not np.isfinite(value):
        raise ValueError(f"scene field {key!r} must be a finite number")
    return float(value)


def _cmd_simulate(args) -> tuple:
    with open(args.scene) as fh:
        doc = json.load(fh)
    out: dict = {"command": "simulate", "kind": args.kind, "seed": args.seed,
                 "noise_std": args.noise_std}
    if args.kind == "array":
        scene = ArrayScene(
            b=_scene_array(doc, "positions"),
            delta=_scene_array(doc, "translations"),
            pulsation=_scene_number(doc, "pulsation"),
            celerity=_scene_number(doc, "celerity"),
        )
        directions = _scene_array(doc, "directions")
        if directions.ndim != 2 or directions.shape[1] != 3:
            raise ValueError("scene field 'directions' must hold [x, y, z] vectors")
        with np.errstate(invalid="ignore"):  # PathSet rejects a zero or inf vector
            directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)
        signals = _signals_from_spec(doc, 64, directions.shape[0], args.seed + 1)
        paths = PathSet(directions=directions, signals=signals)
        tensor, truth = simulate_array(scene, paths, args.noise_std, args.seed)
        out["resolvent_triad"] = has_resolvent_triad(scene.b, scene.wavelength)
        out["wavelength"] = scene.wavelength
    elif args.kind == "cdma":
        gains = _scene_matrix(doc, "gains")
        symbols = _scene_matrix(doc, "symbols")
        if "codes" in doc:
            codes = _scene_matrix(doc, "codes")
        else:
            codes = effective_codes(_scene_matrix(doc, "spreading"),
                                    _scene_matrix(doc, "impulse"))
        scene = CdmaScene(gains=gains, symbols=symbols, codes=codes)
        tensor, truth = simulate_cdma(scene, args.noise_std, args.seed)
    else:  # fluorescence
        tensor, truth, likeness = simulate_fluorescence(
            _scene_array(doc, "concentrations"),
            _scene_array(doc, "excitation"),
            _scene_array(doc, "emission"),
            args.noise_std, args.seed)
        out["likeness"] = likeness
    mus = [gram_mu(fk.conj().T @ fk) for fk in truth.factors]
    out["dims"] = tensor.shape
    out["truth_coherences"] = mus
    out["conditions"] = condition_report(mus, truth.rank or 1)
    out["truth"] = _model_payload(truth)
    if args.out_tensor:
        write_htns(args.out_tensor, tensor)
        out["tensor_file"] = args.out_tensor
    return out, EXIT_OK


def _cmd_demo_nonexistence(args) -> tuple:
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    check_count(args.nmax, 1, f"--nmax must be >= 1, got {args.nmax}")
    ns = sorted({2 ** k for k in range(args.nmax.bit_length())} | {args.nmax})
    records = divergence_witness([e1] * 3, [e2] * 3, ns)
    out = {
        "command": "demo-nonexistence",
        "description": (
            "rank-2 approximants of a rank-3 target: the fit error decays "
            "as 1/n while the leading weight grows as n, so no best rank-2 "
            "approximation exists and all mode coherences approach 1"
        ),
        "table": records,
        "loss_times_n": [r["loss"] * r["n"] for r in records],
        "weight_over_n": [r["max_weight"] / r["n"] for r in records],
    }
    return out, EXIT_OK


def _cmd_demo_recovery(args) -> tuple:
    dictionary = random_incoherent_dictionary((4, 4, 4), 40, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    idx = rng.choice(len(dictionary), 5, replace=False)
    coef = (0.5 + rng.random(5)) * np.exp(2j * math.pi * rng.random(5))
    f = evaluate_terms(coef, stack_terms([dictionary.atoms[i] for i in idx], dictionary.dims))
    res = woga(f, dictionary, max_iter=5)
    out = {
        "command": "demo-recovery",
        "dictionary_mu": dictionary.mu,
        "planted_atoms": sorted(int(i) for i in idx),
        "temlyakov_condition": temlyakov_condition(5, dictionary.mu, 1.0),
        "selected": res.selected,
        "residuals": res.residuals,
        "relative_residual": res.residuals[-1] / frobenius(f),
        "exact_recovery": bool(res.residuals[-1] <= 1e-10 * frobenius(f)),
    }
    return out, EXIT_OK if out["exact_recovery"] else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------- parser


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cohcp",
        description="Coherence-bounded low-rank CP decomposition toolkit",
    )
    p.add_argument("--version", action="version", version=f"cohcp {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        c = sub.add_parser(name, help=help)
        c.set_defaults(func=func)
        return c

    c = command("coherence", _cmd_coherence, "coherence / Kruskal-rank report of a factor matrix")
    c.add_argument("--input", required=True, help="HTNS1 factor matrix (d = 2)")
    c.add_argument("--budget", type=int, default=KRANK_BUDGET)

    c = command("check", _cmd_check, "evaluate all condition checkers")
    c.add_argument("--mus", help="comma-separated per-mode coherences")
    c.add_argument("--factors", nargs="*", help="HTNS1 factor matrices to measure")
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--d", type=int)
    c.add_argument("--kranks", help="comma-separated per-mode Kruskal ranks")

    c = command("norms", _cmd_norms, "spectral norm and nuclear norm sandwich")
    c.add_argument("--input", help="HTNS1 tensor")
    c.add_argument("--fixture", help="matmul:n generates the matrix multiplication tensor")
    c.add_argument("--restarts", type=int, default=NormConfig.restarts)
    c.add_argument("--tol", type=float, default=NormConfig.tol)
    c.add_argument("--size-cap", type=int, default=NormConfig.size_cap)
    c.add_argument("--no-search", action="store_true")
    c.add_argument("--seed", type=_seed, default=NormConfig.seed)

    c = command("decompose", _cmd_decompose, "greedy or alternating decomposition")
    c.add_argument("--input", required=True, help="HTNS1 tensor")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--method", choices=["als", "oga", "woga"], default="als")
    c.add_argument("--caps", help="comma-separated per-mode coherence caps (als)")
    c.add_argument("--tychonoff", type=float, help="ridge weight (als)")
    c.add_argument("--ortho", choices=[ORTHO_NONE, ORTHO_PER_MODE, ORTHO_SEPARABLE],
                   help="orthogonality constraint (als)")
    c.add_argument("--dict", dest="dictionary", help="atoms JSON file (woga)")
    c.add_argument("--t", type=float, help="weakness parameter (woga)")
    c.add_argument("--max-iter", type=int, help="iteration cap (als, woga)")
    c.add_argument("--tol", type=float, default=SolverConfig.tol)
    c.add_argument("--seed", type=_seed, help="random seed (als, oga)")

    c = command("simulate", _cmd_simulate, "physical forward models")
    c.add_argument("--kind", choices=["array", "cdma", "fluorescence"], required=True)
    c.add_argument("--scene", required=True, help="scene description JSON")
    c.add_argument("--noise-std", type=float, default=0.0)
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--out-tensor", help="write the observation tensor (HTNS1)")

    c = command("demo-nonexistence", _cmd_demo_nonexistence, "divergence witness table")
    c.add_argument("--nmax", type=int, default=64)

    c = command("demo-recovery", _cmd_demo_recovery, "exact greedy recovery demo")
    c.add_argument("--seed", type=_seed, default=0)

    for c in sub.choices.values():
        c.add_argument("--out")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, matching the validation code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        report, code = args.func(args)
        text = render_report(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # run as a script only; tests call main()
    sys.exit(main())
