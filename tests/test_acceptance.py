"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from cohcp.coherence import (
    coherence,
    krank_lower_bound,
    kruskal_rank_bruteforce,
    spark_bruteforce,
)
from cohcp.conditions import (
    coercivity_lower_bound,
    existence_condition,
    existence_uniqueness_condition,
    kruskal_simple_bound,
    sufficient_sum,
    sufficient_sumsq,
    temlyakov_condition,
    uniqueness_condition,
)
from cohcp.core import (
    essentially_equal,
    evaluate_terms,
    frobenius,
    inner_product,
    random_unit_columns,
)
from cohcp.decompose import (
    SolverConfig,
    constrained_als,
    divergence_witness,
    oga_continuous,
    random_incoherent_dictionary,
    woga,
)
from cohcp.norms import (
    NormConfig,
    mat_mult_decomposition,
    mat_mult_tensor,
    nuclear_norm_bounds,
    spectral_norm,
)
from cohcp.simulate import (
    ArrayScene,
    PathSet,
    collinearity_check,
    doa_estimate,
    has_resolvent_triad,
    polarization_vector,
    simulate_array,
    steering_vectors,
)

WAVELENGTH = 0.3
CELERITY = 3.0e8
PULSATION = 2.0 * math.pi * CELERITY / WAVELENGTH


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_kruskal_bound_table():
    table = [(3, 2), (4, 2), (2, 3), (3, 3), (6, 2), (4, 4)]
    expected = (3, 4, 3, 4, 6, 6)
    t0 = time.perf_counter()
    got = tuple(kruskal_simple_bound(n1, n2) for n1, n2 in table)
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1e-3
    report(1, ok, f"subarray table r_max {got}, {elapsed * 1e6:.0f} us")


def test_criterion_02_matmul_tensor_norms():
    t0 = time.perf_counter()
    t2 = mat_mult_tensor(2)
    spec = spectral_norm(t2, restarts=64, seed=0)
    cfg = NormConfig(search=False, restarts=64,
                     candidates=(mat_mult_decomposition(2),))
    cert = nuclear_norm_bounds(t2, cfg)
    elapsed = time.perf_counter() - t0
    spectral_ok = abs(spec.spectral - 1.0) < 1e-6
    lower_ok = cert.nuclear_lower >= 8.0 - 1e-6
    upper_ok = cert.nuclear_upper <= 8.0 + 1e-3
    ok = (spectral_ok and lower_ok and upper_ok and cert.certified
          and elapsed < 10.0)
    report(2, ok,
           f"spectral {spec.spectral:.9f}, nuclear "
           f"[{cert.nuclear_lower:.6f}, {cert.nuclear_upper:.6f}] certified "
           f"{cert.certified}, {elapsed:.2f}s")


def test_criterion_03_nonexistence_witness():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    t0 = time.perf_counter()
    records = divergence_witness([e1] * 3, [e2] * 3, range(8, 65))
    elapsed = time.perf_counter() - t0
    loss_n = np.array([r["loss"] * r["n"] for r in records])
    weight_n = np.array([r["max_weight"] / r["n"] for r in records])
    c1, c2 = loss_n.mean(), weight_n.mean()
    loss_ok = bool(np.all(np.abs(loss_n - c1) <= 0.15 * c1))
    weight_ok = bool(np.all(np.abs(weight_n - c2) <= 0.15 * c2))
    mu_ok = all(min(r["mode_coherences"]) >= 1.0 - 5.0 / r["n"] for r in records)
    ok = loss_ok and weight_ok and mu_ok and elapsed < 1.0
    report(3, ok,
           f"loss*n in [{loss_n.min():.4f}, {loss_n.max():.4f}] around {c1:.4f}, "
           f"weight/n in [{weight_n.min():.4f}, {weight_n.max():.4f}], "
           f"mode coherences >= 1 - 5/n, {elapsed * 1e3:.0f} ms")


def test_criterion_04_temlyakov_exact_recovery():
    t0 = time.perf_counter()
    successes = 0
    mus = []
    for seed in range(50):
        dictionary = random_incoherent_dictionary((4, 4, 4), 40, mu_max=0.09,
                                                  seed=seed)
        mus.append(dictionary.mu)
        assert temlyakov_condition(5, dictionary.mu, 1.0)
        rng = np.random.default_rng(10_000 + seed)
        idx = rng.choice(40, 5, replace=False)
        coeffs = (0.5 + rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        stacks = [np.stack([dictionary.atoms[i][k] for i in idx], axis=1)
                  for k in range(3)]
        f = evaluate_terms(coeffs, stacks)
        res = woga(f, dictionary, t=1.0, max_iter=5)
        if res.residuals[-1] <= 1e-10 * frobenius(f):
            successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes == 50 and max(mus) < 0.09 and elapsed < 30.0
    report(4, ok,
           f"{successes}/50 exact recoveries, dictionary mu in "
           f"[{min(mus):.4f}, {max(mus):.4f}], {elapsed:.2f}s")


def test_criterion_05_coercivity_property():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, 6))
        dims = [int(n) for n in rng.integers(2, 6, size=d)]
        factors = [random_unit_columns(n, r, rng) for n in dims]
        lam = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        mus = []
        for f in factors:
            if r == 1:
                mus.append(0.0)
            else:
                mus.append(min(coherence(f).mu, 1.0))
        lhs = frobenius(evaluate_terms(lam, factors)) ** 2
        if lhs < coercivity_lower_bound(lam, mus) - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(5, ok, f"0 violations in 1000 draws required, got {violations}, "
                  f"{elapsed:.2f}s")


def test_criterion_06_duality_property():
    rng = np.random.default_rng(6)
    cfg = NormConfig(search=False, restarts=16)
    t0 = time.perf_counter()
    violations = 0
    worst = -math.inf
    for trial in range(1000):
        shape = (2, 2, 2) if trial % 2 == 0 else (3, 2, 2)
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = spectral_norm(f, restarts=cfg.restarts, seed=trial)
        nuc = nuclear_norm_bounds(g, cfg)
        slack = spec.spectral * nuc.nuclear_upper - abs(inner_product(f, g))
        worst = max(worst, -slack)
        if slack < -1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(6, ok, f"0 violations in 1000 pairs required, got {violations} "
                  f"(worst deficit {worst:.2e}), {elapsed:.2f}s")


def test_criterion_07_matrix_specialization():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    spectral_err = nuclear_err = tail_err = 0.0
    for trial in range(200):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s = np.linalg.svd(a, compute_uv=False)
        cert = nuclear_norm_bounds(a, NormConfig(restarts=24, seed=trial))
        spectral_err = max(spectral_err, abs(cert.spectral - s[0]))
        nuclear_err = max(nuclear_err,
                          abs(cert.nuclear_lower - s.sum()),
                          abs(cert.nuclear_upper - s.sum()))
        r = int(rng.integers(1, min(m, n)))
        _, res = oga_continuous(a, r, restarts=32, seed=trial)
        tail = math.sqrt(float(np.sum(s[r:] ** 2)))
        tail_err = max(tail_err, abs(res.residuals[-1] - tail))
    elapsed = time.perf_counter() - t0
    ok = spectral_err < 1e-8 and nuclear_err < 1e-8 and tail_err < 1e-8
    report(7, ok,
           f"max errors: spectral {spectral_err:.2e}, nuclear {nuclear_err:.2e}, "
           f"greedy tail {tail_err:.2e} over 200 matrices, {elapsed:.1f}s")


def test_criterion_08_condition_implication_chain():
    grid = [0.05 * k for k in range(1, 20)]
    t0 = time.perf_counter()
    violations = 0
    for m1 in grid:
        for m2 in grid:
            for m3 in grid:
                mus = (m1, m2, m3)
                for r in range(1, 9):
                    ssq = sufficient_sumsq(mus, r)
                    ssum = sufficient_sum(mus, r)
                    both = existence_uniqueness_condition(mus, r)
                    if ssq and not ssum:
                        violations += 1
                    if ssum and not both:
                        violations += 1
                    if both and not (existence_condition(mus, r)
                                     and uniqueness_condition(mus, r)):
                        violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0
    report(8, ok, f"exhaustive 19^3 x 8 grid, {violations} violations, "
                  f"{elapsed:.1f}s")


def _round_trip_scene():
    s = 0.45 * WAVELENGTH
    b = [[i * s, j * s, 0.0] for i in range(4) for j in range(4)]
    b.append([s, s, 0.4 * WAVELENGTH])  # elevated above a grid node
    t = 0.3 * WAVELENGTH
    delta = [[0, 0, 0], [t, 0, 0], [0, t, 0], [t, t, 0.25 * WAVELENGTH]]
    scene = ArrayScene(b=np.array(b), delta=np.array(delta),
                       pulsation=PULSATION, celerity=CELERITY)
    h = 1.0 / 0.9 / 2.0  # direction-cosine step of the 0.45-wavelength grid
    uz = math.sqrt(1.0 - 2.0 * h * h)
    dirs = np.array([[-h, -h, uz], [h, -h, uz], [-h, h, uz], [h, h, uz]])
    return scene, dirs


def _correlated_signals(rng, n3: int, norm_scale: float):
    z = rng.standard_normal((n3, 5)) + 1j * rng.standard_normal((n3, 5))
    q, _ = np.linalg.qr(z)
    sig = np.zeros((n3, 4), dtype=complex)
    sig[:, 0] = q[:, 0]
    sig[:, 1] = 0.8 * q[:, 0] + 0.6 * q[:, 1]   # pairwise coherence 0.8
    sig[:, 2] = 0.3 * q[:, 0] + math.sqrt(1 - 0.09) * q[:, 2]
    sig[:, 3] = q[:, 3]
    scales = np.array([2.0, 1.6, 1.3, 1.0]) * norm_scale
    return sig / np.linalg.norm(sig, axis=0) * scales


def test_criterion_09_blind_identification_round_trip():
    scene, dirs = _round_trip_scene()
    assert has_resolvent_triad(scene.b, scene.wavelength)
    min_sep = min(
        math.degrees(math.acos(np.clip(dirs[p] @ dirs[q], -1, 1)))
        for p in range(4) for q in range(p + 1, 4))
    assert min_sep >= 10.0
    u, v = steering_vectors(scene, dirs)
    mu1, mu2 = coherence(u).mu, coherence(v).mu
    norm_scale = 1.0 / math.sqrt(scene.b.shape[0] * scene.delta.shape[0])

    t0 = time.perf_counter()
    successes = 0
    checked_conditions = True
    for seed in range(50):
        rng = np.random.default_rng(90_000 + seed)
        sig = _correlated_signals(rng, 48, norm_scale)
        mu3 = coherence(sig / np.linalg.norm(sig, axis=0)).mu
        if not existence_uniqueness_condition([mu1, mu2, mu3], 4):
            checked_conditions = False
        paths = PathSet(directions=dirs, signals=sig)
        clean, truth = simulate_array(scene, paths, 0.0)
        noise_std = frobenius(clean) / math.sqrt(clean.size) * 10 ** (-30 / 20)
        noisy, _ = simulate_array(scene, paths, noise_std, seed=seed)
        model, _ = constrained_als(
            noisy, SolverConfig(r=4, coherence_caps=(0.2, 0.7, 0.9),
                                seed=seed, max_iter=1500))
        if not essentially_equal(model, truth, 0.05):
            continue
        ests = doa_estimate(np.asarray(model.factors[0]), scene,
                            grid_resolution_deg=1.0)
        errs = [math.degrees(math.acos(np.clip(est.direction @ dirs[p], -1, 1)))
                for p, est in enumerate(ests)]
        if max(errs) < 1.0:
            successes += 1
    elapsed = time.perf_counter() - t0
    ok = successes >= 45 and checked_conditions and elapsed < 300.0
    report(9, ok,
           f"{successes}/50 seeds recovered (need >= 45); coherences "
           f"({mu1:.3f}, {mu2:.3f}, 0.800) satisfy the combined condition; "
           f"min separation {min_sep:.1f} deg; {elapsed:.1f}s")


def test_criterion_09_mode_updates_certified(monkeypatch):
    # guard, not a criterion: the correlated sources fail the worst-pair
    # margin 1-(r-1) prod mu_k on the first mode, but its Gershgorin rows
    # hold, so no mode update of the capped ALS falls back to lstsq
    scene, dirs = _round_trip_scene()
    norm_scale = 1.0 / math.sqrt(scene.b.shape[0] * scene.delta.shape[0])
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    for seed in range(10):
        rng = np.random.default_rng(90_000 + seed)
        paths = PathSet(directions=dirs, signals=_correlated_signals(rng, 48, norm_scale))
        clean, _ = simulate_array(scene, paths, 0.0)
        noise_std = frobenius(clean) / math.sqrt(clean.size) * 10 ** (-30 / 20)
        noisy, _ = simulate_array(scene, paths, noise_std, seed=seed)
        _, diag = constrained_als(
            noisy, SolverConfig(r=4, coherence_caps=(0.2, 0.7, 0.9),
                                seed=seed, max_iter=1500))
        assert diag.n_iter > 1
    assert calls == []


def test_criterion_10_krank_oracle_check():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    bound_violations = 0
    spark_violations = 0
    for _ in range(500):
        r = int(rng.integers(5, 11))
        v = random_unit_columns(8, r, rng)
        # force a dependency so that krank < dim span (non-orthonormal)
        j, a, bcol = rng.choice(r, 3, replace=False)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        col = w[0] * v[:, a] + w[1] * v[:, bcol]
        v[:, j] = col / np.linalg.norm(col)
        k = kruskal_rank_bruteforce(v)
        span = int(np.linalg.matrix_rank(v))
        assert k < span
        if k < krank_lower_bound(coherence(v)):
            bound_violations += 1
        if spark_bruteforce(v) != k + 1:
            spark_violations += 1
    elapsed = time.perf_counter() - t0
    ok = bound_violations == 0 and spark_violations == 0
    report(10, ok,
           f"500 factor sets: {bound_violations} bound violations, "
           f"{spark_violations} spark relation violations, {elapsed:.1f}s")


def test_criterion_11_resolvent_and_polarization_suites():
    scene, _ = _round_trip_scene()
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    collinearity_violations = 0
    count = 0
    while count < 1000:
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(3)
        b /= np.linalg.norm(b)
        angle = math.degrees(math.acos(np.clip(a @ b, -1, 1)))
        if angle < 1.0:
            continue
        res = collinearity_check(scene, a, b)
        if not (res.separation_guaranteed and res.value < 1.0 - 1e-9):
            collinearity_violations += 1
        count += 1

    polarization_violations = 0
    for _ in range(1000):
        theta_p = rng.uniform(0, 2 * math.pi)
        theta_q = rng.uniform(0, 2 * math.pi)
        phi_p = rng.uniform(-1.5, 1.5)
        phi_q = rng.uniform(-1.5, 1.5)
        alpha_p = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2)
        alpha_q = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2)
        beta_p = rng.choice([-1, 1]) * rng.uniform(1e-3, math.pi / 4 - 1e-3)
        beta_q = rng.choice([-1, 1]) * rng.uniform(1e-3, math.pi / 4 - 1e-3)
        vp = polarization_vector(theta_p, phi_p, alpha_p, beta_p)
        vq = polarization_vector(theta_q, phi_q, alpha_q, beta_q)
        if abs(np.vdot(vp, vq)) > 1.0 + 1e-12:
            polarization_violations += 1
    # equality manifold: same direction and ellipticity, orientation mod pi
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        phi = rng.uniform(-1.5, 1.5)
        alpha = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2)
        beta = rng.choice([-1, 1]) * rng.uniform(1e-3, math.pi / 4 - 1e-3)
        shift = rng.choice([-1, 0, 1]) * math.pi
        vp = polarization_vector(theta, phi, alpha, beta)
        vq = polarization_vector(theta, phi, alpha + shift, beta)
        if abs(np.vdot(vp, vq)) < 1.0 - 1e-9:
            polarization_violations += 1
    elapsed = time.perf_counter() - t0
    ok = collinearity_violations == 0 and polarization_violations == 0
    report(11, ok,
           f"collinearity violations {collinearity_violations}/1000, "
           f"polarization violations {polarization_violations}/1200, "
           f"{elapsed:.1f}s")
