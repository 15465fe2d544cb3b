"""The benchmark's three workloads.

Each workload makes a pool of inputs from the seed (``setup``), runs one
operation on one pool item (``op``) and checks that operation's output
outside the timed region (``check``).  ``check`` returns whether the output
passed and the item's relative error, which is fixed once the seed is
fixed: the error of an item does not depend on timing.  The relative
error is the largest direction error over the 1 degree limit (blind_id),
the relative fit residual (dense_als) and the relative nuclear-norm gap
(upper - lower) / upper of the random tensors (norm_certify).

Every call into cohcp goes through a module attribute (``decompose.
constrained_als``, never a name imported from it), so the tracer's
wrappers see the benchmark's own calls as well as the package's.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the package re-exports functions under some module names (cohcp.coherence
# is the function), so the modules are taken from the import system
cli, coherence, conditions, core, decompose, htns, norms, simulate = (
    importlib.import_module(f"cohcp.{m}") for m in
    ("cli", "coherence", "conditions", "core", "decompose", "htns", "norms", "simulate"))


@dataclass(frozen=True)
class Check:
    ok: bool
    rel_error: float | None   # None: the item is not in the error pool
    reason: str = ""


def _circular_noise(rng, shape, std: float) -> np.ndarray:
    scale = std / math.sqrt(2.0)
    return rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)


def _noise_std(clean: np.ndarray, snr_db: float) -> float:
    return core.frobenius(clean) / math.sqrt(clean.size) * 10 ** (-snr_db / 20)


# ------------------------------------------------------------------ blind_id

WAVELENGTH = 0.3
CELERITY = 3.0e8
PULSATION = 2.0 * math.pi * CELERITY / WAVELENGTH
DOA_LIMIT_DEG = 1.0


def array_scene():
    """17-sensor reference subarray (a 4x4 grid at 0.45 wavelength plus one
    elevated sensor), 4 translations, and 4 directions 10+ degrees apart."""
    s = 0.45 * WAVELENGTH
    b = [[i * s, j * s, 0.0] for i in range(4) for j in range(4)]
    b.append([s, s, 0.4 * WAVELENGTH])
    t = 0.3 * WAVELENGTH
    delta = [[0, 0, 0], [t, 0, 0], [0, t, 0], [t, t, 0.25 * WAVELENGTH]]
    scene = simulate.ArrayScene(b=np.array(b), delta=np.array(delta),
                                pulsation=PULSATION, celerity=CELERITY)
    h = 1.0 / 0.9 / 2.0
    uz = math.sqrt(1.0 - 2.0 * h * h)
    dirs = np.array([[-h, -h, uz], [h, -h, uz], [-h, h, uz], [h, h, uz]])
    return scene, dirs


def correlated_signals(rng, n3: int, norm_scale: float) -> np.ndarray:
    """Four path signals; paths 0 and 1 have signal coherence 0.8."""
    z = rng.standard_normal((n3, 5)) + 1j * rng.standard_normal((n3, 5))
    q, _ = np.linalg.qr(z)
    sig = np.zeros((n3, 4), dtype=complex)
    sig[:, 0] = q[:, 0]
    sig[:, 1] = 0.8 * q[:, 0] + 0.6 * q[:, 1]
    sig[:, 2] = 0.3 * q[:, 0] + math.sqrt(1 - 0.09) * q[:, 2]
    sig[:, 3] = q[:, 3]
    scales = np.array([2.0, 1.6, 1.3, 1.0]) * norm_scale
    return sig / np.linalg.norm(sig, axis=0) * scales


@dataclass(frozen=True)
class BlindItem:
    paths: simulate.PathSet
    noise_std: float
    seed: int


@dataclass(frozen=True)
class BlindOutput:
    model: core.CPModel
    truth: core.CPModel
    estimates: list
    report: dict


class BlindId:
    """Acceptance criterion 9 as one operation: simulate, capped ALS,
    direction finding, and a coherence/Kruskal-rank certificate of the fit."""

    name = "blind_id"
    error_name, error_scale = "doa_err_deg_p50", DOA_LIMIT_DEG
    caps = (0.2, 0.7, 0.9)
    snapshots = 48
    snr_db = 30.0

    def __init__(self, pool: int = 250):
        self.pool = pool
        self.scene, self.dirs = array_scene()

    def setup(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 1])
        norm_scale = 1.0 / math.sqrt(self.scene.b.shape[0] * self.scene.delta.shape[0])
        items = []
        for i in range(self.pool):
            paths = simulate.PathSet(
                directions=self.dirs,
                signals=correlated_signals(rng, self.snapshots, norm_scale))
            clean, _ = simulate.simulate_array(self.scene, paths, 0.0)
            items.append(BlindItem(paths=paths,
                                   noise_std=_noise_std(clean, self.snr_db),
                                   seed=int(rng.integers(2**31))))
        return items

    def op(self, item: BlindItem) -> BlindOutput:
        noisy, truth = simulate.simulate_array(self.scene, item.paths,
                                               item.noise_std, item.seed)
        model, _ = decompose.constrained_als(
            noisy, decompose.SolverConfig(r=4, coherence_caps=self.caps,
                                          seed=item.seed, max_iter=1500))
        estimates = simulate.doa_estimate(np.asarray(model.factors[0]), self.scene,
                                          grid_resolution_deg=1.0)
        mus = [coherence.coherence(f).mu for f in model.factors]
        kranks = [coherence.kruskal_rank_bruteforce(f) for f in model.factors]
        report = conditions.condition_report(mus, model.rank, kranks=kranks)
        return BlindOutput(model=model, truth=truth, estimates=estimates,
                           report=report)

    def doa_errors_deg(self, out: BlindOutput) -> list:
        return [math.degrees(math.acos(np.clip(est.direction @ self.dirs[p], -1, 1)))
                for p, est in enumerate(out.estimates)]

    def check(self, item: BlindItem, out: BlindOutput) -> Check:
        if len(out.estimates) != len(self.dirs):
            return Check(False, None, "wrong number of directions")
        worst = max(self.doa_errors_deg(out))
        rel = worst / DOA_LIMIT_DEG
        if not core.essentially_equal(out.model, out.truth, 0.05):
            return Check(False, rel, "fit not essentially equal to truth at 0.05")
        if worst >= DOA_LIMIT_DEG:
            return Check(False, rel, f"direction error {worst:.3f} deg >= 1 deg")
        return Check(True, rel)


# ----------------------------------------------------------------- dense_als


@dataclass(frozen=True)
class DenseItem:
    path: str
    out: str
    truth: core.CPModel
    seed: int


def model_from_report(doc: dict) -> core.CPModel:
    """The CP model of a ``cohcp decompose`` JSON report."""
    factors = []
    for fac in doc["factors"]:
        arr = np.asarray(fac, dtype=np.float64)
        factors.append(arr[..., 0] + 1j * arr[..., 1])
    return core.canonicalize(np.asarray(doc["weights"], dtype=np.complex128), factors)


class DenseAls:
    """``cohcp decompose`` of planted rank-6 tensors read from HTNS1 files."""

    name = "dense_als"
    error_name, error_scale = "fit_rel_residual_p50", 1.0
    rank = 6
    snr_db = 40.0

    def __init__(self, dims=(40, 60, 40, 60, 40)):
        # three 40^3 and two 60^3 inputs: the sizes alternate, and the median
        # op time lies inside the 40^3 mode rather than in the gap between modes
        self.dims = tuple(dims)

    def setup(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 2])
        weights = np.linspace(2.0, 1.0, self.rank)
        items = []
        for i, n in enumerate(self.dims):
            factors = [core.random_unit_columns(n, self.rank, rng) for _ in range(3)]
            clean = core.evaluate_terms(weights, factors)
            noisy = clean + _circular_noise(rng, clean.shape,
                                            _noise_std(clean, self.snr_db))
            path = workdir / f"dense_{i}.htns"
            htns.write_htns(path, noisy)
            items.append(DenseItem(path=str(path), out=str(workdir / f"dense_{i}.json"),
                                   truth=core.canonicalize(weights, factors),
                                   seed=int(rng.integers(2**31))))
        return items

    def op(self, item: DenseItem) -> int:
        return cli.main(["decompose", "--input", item.path, "--rank", str(self.rank),
                         "--seed", str(item.seed), "--out", item.out])

    def check(self, item: DenseItem, exit_code: int) -> Check:
        if exit_code != 0:
            return Check(False, None, f"exit code {exit_code}")
        with open(item.out) as fh:
            doc = json.load(fh)
        rel = float(doc["relative_residual"])
        try:
            model = model_from_report(doc)
        except (KeyError, ValueError) as exc:
            return Check(False, rel, f"unreadable model: {exc}")
        if model.dims != item.truth.dims or not core.essentially_equal(
                model, item.truth, 0.05):
            return Check(False, rel, "fit not essentially equal to planted truth")
        return Check(True, rel)


# -------------------------------------------------------------- norm_certify

MATMUL_NUCLEAR = 8.0


@dataclass(frozen=True)
class NormItem:
    tensor: np.ndarray | None   # random 3x3x3 tensor, or None for the CLI call
    seed: int
    out: str


class NormCertify:
    """Groups of three library ``nuclear_norm_bounds`` calls on random
    complex 3x3x3 tensors and one ``cohcp norms --fixture matmul:2``."""

    name = "norm_certify"
    error_name, error_scale = "nuclear_rel_gap_p50", 1.0

    def __init__(self, groups: int = 16, shape=(3, 3, 3)):
        self.groups = groups
        self.shape = tuple(shape)

    def setup(self, seed: int, workdir: Path) -> list:
        rng = np.random.default_rng([seed, 3])
        out = str(workdir / "norms.json")
        items = []
        for _ in range(self.groups):
            for _ in range(3):
                t = rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)
                items.append(NormItem(tensor=t, seed=0, out=out))
            items.append(NormItem(tensor=None, seed=int(rng.integers(2**31)), out=out))
        return items

    def op(self, item: NormItem):
        if item.tensor is None:
            return cli.main(["norms", "--fixture", "matmul:2", "--seed", str(item.seed),
                             "--out", item.out])
        return norms.nuclear_norm_bounds(item.tensor, norms.NormConfig())

    def check(self, item: NormItem, out) -> Check:
        if item.tensor is None:
            return self._check_matmul(item, out)
        lower, upper, sigma = out.nuclear_lower, out.nuclear_upper, out.spectral
        rel = (upper - lower) / upper
        slack = 1e-9 * max(1.0, upper)
        fro = core.frobenius(item.tensor)
        witness = abs(core.inner_product(item.tensor, core.rank1_outer(out.spectral_witness)))
        if not lower <= upper:
            return Check(False, rel, "nuclear lower bound exceeds upper bound")
        if abs(witness - sigma) > slack:
            return Check(False, rel, "spectral witness does not reproduce the value")
        if not (sigma <= fro + slack and fro <= upper + slack):
            return Check(False, rel, "spectral <= Frobenius <= nuclear upper fails")
        return Check(True, rel)

    def _check_matmul(self, item: NormItem, exit_code: int) -> Check:
        if exit_code != 0:
            return Check(False, None, f"exit code {exit_code}")
        with open(item.out) as fh:
            doc = json.load(fh)
        lower, upper = doc["nuclear_lower"], doc["nuclear_upper"]
        if not doc["certified"]:
            return Check(False, None, "matmul:2 not certified")
        if not (MATMUL_NUCLEAR - 1e-6 <= lower <= upper <= MATMUL_NUCLEAR + 1e-3):
            return Check(False, None, f"matmul:2 bounds [{lower}, {upper}] miss 8")
        return Check(True, None)


WORKLOADS = {w.name: w for w in (BlindId, DenseAls, NormCertify)}
