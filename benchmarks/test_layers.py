"""Layer rows for pytest-benchmark: the kernels the dense decompose path,
the nuclear-norm bracket and blind direction finding spend their time in.

Run from the repository root (the tier-1 suite does not collect them)::

    PYTHONPATH=src python -m pytest benchmarks -q
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-autosave

Inputs are fixed by their seeds, so rows of two commits compare like with
like.  Report medians: the timings carry the noise of the host.

One copy of this file runs against either commit's sources.  A name that
one row uses is imported inside that row, under ``from_sources()``, so a
kernel that one commit lacks skips its own row there and no other; the
names several rows share are imported once, at the top.
"""

import contextlib
import math

import numpy as np
import pytest

from cohcp.core import (
    canonicalize,
    evaluate_terms,
    khatri_rao_but,
    random_unit_columns,
    term_correlations,
)
from cohcp.decompose import SolverConfig, _mode_solve
from cohcp.simulate import simulate_array, steering_vectors
from perfbench.workloads import BlindId, array_scene, correlated_signals


@contextlib.contextmanager
def from_sources():
    """Around a row's own imports: a name these sources lack skips the row."""
    try:
        yield
    except ImportError as exc:
        pytest.skip(f"not in these sources: {exc}")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_read_htns_40(benchmark):
    with from_sources():
        from cohcp.htns import dump_htns, parse_htns
    text = dump_htns(_complex(np.random.default_rng(0), (40, 40, 40)))
    t = benchmark(parse_htns, text)
    assert t.shape == (40, 40, 40)


def test_write_htns_60(benchmark, tmp_path):
    # the largest file the dense_als set-up writes
    with from_sources():
        from cohcp.htns import write_htns
    path = tmp_path / "t.htns"
    benchmark(write_htns, path, _complex(np.random.default_rng(0), (60, 60, 60)))
    assert path.stat().st_size > 60 ** 3 * 2 * 17


def test_certified_mode_solve_60_r6(benchmark):
    rng = np.random.default_rng(1)
    r = 6
    factors = [random_unit_columns(60, r, rng) for _ in range(3)]
    unfold = _complex(rng, (60, 60 * 60))
    z = khatri_rao_but(factors, 0)
    grams = [fj.conj().T @ fj for fj in factors[1:]]
    c = benchmark(_mode_solve, unfold, z, grams)
    assert c.shape == (60, r)


def test_first_mode_solve_17x4x48_r4(benchmark):
    # the first-mode update of blind identification at the true factors:
    # signal coherence 0.8 fails the worst-pair margin, the Gershgorin rows hold
    with from_sources():
        from cohcp.simulate import PathSet
    scene, dirs = array_scene()
    u, v = steering_vectors(scene, dirs)
    sig = correlated_signals(np.random.default_rng(14), 48, 1.0)
    t, _ = simulate_array(scene, PathSet(directions=dirs, signals=sig), 0.01, seed=14)
    s = sig / np.linalg.norm(sig, axis=0)
    unfold = t.reshape(17, -1)
    z = khatri_rao_but([u, v, s], 0)
    c = benchmark(_mode_solve, unfold, z, [v.conj().T @ v, s.conj().T @ s])
    ref = np.linalg.lstsq(z, unfold.T, rcond=None)[0].T
    assert np.linalg.norm(c - ref) <= 1e-10 * np.linalg.norm(ref)


def _planted_rank6(n):
    # the dense_als input: planted rank-6 n^3 tensor at 40 dB
    rng = np.random.default_rng(10)
    factors = [random_unit_columns(n, 6, rng) for _ in range(3)]
    f = evaluate_terms(np.linspace(2.0, 1.0, 6), factors)
    noise = _complex(rng, f.shape)
    return f + noise * (0.01 * np.linalg.norm(f) / np.linalg.norm(noise)), factors


@pytest.mark.parametrize("n", [40, 60])
def test_greedy_warm_start_r6(benchmark, n):
    with from_sources():
        from cohcp.decompose import _init_factors
    f, _ = _planted_rank6(n)
    unfolds = [np.moveaxis(f, k, 0).reshape(n, -1) for k in range(3)]
    factors, _ = benchmark(_init_factors, f, unfolds, SolverConfig(r=6), [])
    assert factors[0].shape == (n, 6)


def test_khatri_rao_but_40_r6(benchmark):
    _, factors = _planted_rank6(40)
    z = benchmark(khatri_rao_but, factors, 0)
    assert z.shape == (1600, 6)


def test_term_gram_40_r6(benchmark):
    with from_sources():
        from cohcp.core import term_gram
    _, factors = _planted_rank6(40)
    gram = benchmark(term_gram, factors)
    assert gram.shape == (6, 6)


def test_term_correlations_40_r6(benchmark):
    f, factors = _planted_rank6(40)
    b = benchmark(term_correlations, f, factors)
    assert b.shape == (6,)


def test_canonicalize_40_r6(benchmark):
    _, factors = _planted_rank6(40)
    weights = np.linspace(2.0, 1.0, 6) * np.exp(1j * np.arange(6))
    model = benchmark(canonicalize, weights, factors)
    assert model.rank == 6


def test_essentially_equal_40_r6(benchmark):
    with from_sources():
        from cohcp.core import cp_evaluate, essentially_equal
    _, factors = _planted_rank6(40)
    m1 = canonicalize(np.linspace(2.0, 1.0, 6), factors)
    # the same terms in reverse order, each mode scaled by a unimodular
    # factor, phases summing to zero
    phases = [np.exp(1j * 0.3), np.exp(-1j * 0.1), np.exp(-1j * 0.2)]
    m2 = canonicalize(np.linspace(1.0, 2.0, 6),
                      [f[:, ::-1] * ph for f, ph in zip(factors, phases)])
    assert benchmark(essentially_equal, m1, m2, 1e-9)
    assert np.allclose(cp_evaluate(m1), cp_evaluate(m2))


@pytest.mark.parametrize("n, restarts", [(40, 16), (3, 64), (60, 16)])
def test_alternating_spectral_sweep(benchmark, n, restarts):
    with from_sources():
        from cohcp.core import alternating_rank1
    t = _complex(np.random.default_rng(2), (n, n, n))

    def sweep():
        # one sweep from fixed starts
        return alternating_rank1(t, restarts, 0.0, 1, np.random.default_rng(3))

    value, _ = benchmark(sweep)
    assert value > 0.0


def test_best_rank1_4cubed_16_restarts(benchmark):
    # a full fit as the greedy warm start runs it on an r x r x r core
    with from_sources():
        from cohcp.decompose import best_rank1
    t = _complex(np.random.default_rng(11), (4, 4, 4))
    weight, _ = benchmark(best_rank1, t, 16, 0)
    assert weight > 0.0


def test_constrained_als_blind_id_item(benchmark):
    # one capped solve of the blind_id workload, on a seeded pool item
    with from_sources():
        from cohcp.decompose import constrained_als
    workload = BlindId(pool=1)
    item = workload.setup(15, None)[0]
    t, _ = simulate_array(workload.scene, item.paths, item.noise_std, item.seed)
    cfg = SolverConfig(r=4, coherence_caps=workload.caps, seed=item.seed, max_iter=1500)
    _, diag = benchmark(constrained_als, t, cfg)
    assert diag.converged


def _tensor_3cubed():
    return _complex(np.random.default_rng(4), (3, 3, 3))


def test_nuclear_norm_bounds_3(benchmark):
    with from_sources():
        from cohcp.norms import NormConfig, nuclear_norm_bounds
    t = _tensor_3cubed()
    cert = benchmark(nuclear_norm_bounds, t, NormConfig())
    assert cert.nuclear_lower <= cert.nuclear_upper


def test_exact_fit_3_r5(benchmark):
    with from_sources():
        from cohcp.norms import _exact_fit, _flattening_spectra
    t = _tensor_3cubed()
    spectra = _flattening_spectra(t)

    def fit():
        return _exact_fit(t, 5, np.random.default_rng(5), spectra)

    benchmark(fit)


def _noisy_steering():
    # the blind_id scene and directions, steering columns at 1% noise
    scene, dirs = array_scene()
    u, _ = steering_vectors(scene, dirs)
    return scene, u + 0.01 * _complex(np.random.default_rng(6), u.shape), dirs


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_doa_estimate_17_sensors_1deg(benchmark, warm):
    with from_sources():
        from cohcp.simulate import doa_estimate
    scene, u, _ = _noisy_steering()
    if warm:
        doa_estimate(u, scene, grid_resolution_deg=1.0)
        ests = benchmark(doa_estimate, u, scene, grid_resolution_deg=1.0)
    else:
        # a new scene per round, so every call builds its grid
        ests = benchmark.pedantic(
            doa_estimate, setup=lambda: ((u, array_scene()[0]), {"grid_resolution_deg": 1.0}),
            rounds=10)
    assert len(ests) == 4


def test_refine_directions_four_columns(benchmark):
    with from_sources():
        from cohcp.simulate import _refine_directions
    # the four columns of one blind_id op, each from a start off its direction
    scene, u, dirs = _noisy_steering()
    cols = u / np.linalg.norm(u, axis=0)
    starts = dirs + np.array([0.01, -0.01, 0.0])
    out = benchmark(_refine_directions, scene, cols, starts, math.radians(1.0))
    assert all(d @ true > 0.99 for (d, _), true in zip(out, dirs))


def test_evaluate_terms_17x4x48_r4(benchmark):
    rng = np.random.default_rng(9)
    factors = [random_unit_columns(n, 4, rng) for n in (17, 4, 48)]
    weights = np.array([2.0, 1.6, 1.3, 1.0])
    t = benchmark(evaluate_terms, weights, factors)
    assert t.shape == (17, 4, 48)


def test_term_correlations_17x4x48_r4(benchmark):
    rng = np.random.default_rng(9)
    factors = [random_unit_columns(n, 4, rng) for n in (17, 4, 48)]
    t = _complex(rng, (17, 4, 48))
    b = benchmark(term_correlations, t, factors)
    assert b.shape == (4,)
