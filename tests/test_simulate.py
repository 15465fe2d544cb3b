import functools
import importlib.util
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp import simulate
from cohcp.coherence import coherence
from cohcp.core import cp_evaluate, frobenius, rank1_outer
from cohcp.simulate import (
    ArrayScene,
    CdmaScene,
    PathSet,
    collinearity_check,
    direction_triad,
    doa_estimate,
    effective_codes,
    fibonacci_sphere,
    has_resolvent_triad,
    is_resolvent,
    polarization_gain,
    polarization_vector,
    resolvent_directions,
    simulate_array,
    simulate_cdma,
    simulate_fluorescence,
    steering_vectors,
)

WAVELENGTH = 0.3
CELERITY = 3.0e8
PULSATION = 2.0 * math.pi * CELERITY / WAVELENGTH


def cross_scene(spacing=0.4 * WAVELENGTH, translations=None):
    """3-D cross array: resolvent w.r.t. three independent directions."""
    b = [[0, 0, 0], [spacing, 0, 0], [0, spacing, 0], [0, 0, spacing],
         [2 * spacing, 0, 0], [0, 2 * spacing, 0]]
    if translations is None:
        translations = [[0, 0, 0], [0, 0, 2 * spacing]]
    return ArrayScene(b=np.array(b, dtype=float),
                      delta=np.array(translations, dtype=float),
                      pulsation=PULSATION, celerity=CELERITY)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestSteeringVectors:
    def test_single_sensor(self):
        scene = ArrayScene(b=np.zeros((1, 3)), delta=np.zeros((1, 3)),
                           pulsation=PULSATION, celerity=CELERITY)
        u, v = steering_vectors(scene, np.array([[0.0, 0.0, 1.0]]))
        assert np.allclose(u, [[1.0]])
        assert np.allclose(v, [[1.0]])

    def test_columns_unit_norm(self):
        scene = cross_scene()
        dirs = np.stack([unit([1, 2, 3]), unit([0, 0, 1]), unit([-1, 1, 0])])
        u, v = steering_vectors(scene, dirs)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-12)

    def test_equal_directions_equal_columns(self):
        scene = cross_scene()
        d = unit([1, 1, 1])
        u, _ = steering_vectors(scene, np.stack([d, d]))
        assert np.array_equal(u[:, 0], u[:, 1])

    def test_quarter_wavelength_pair_opposite_directions(self):
        # two sensors lambda/4 apart along x, directions +x and -x:
        # phase difference pi, so the steering inner product vanishes
        scene = ArrayScene(
            b=np.array([[0, 0, 0], [WAVELENGTH / 4, 0, 0]]),
            delta=np.zeros((1, 3)),
            pulsation=PULSATION, celerity=CELERITY)
        dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        u, _ = steering_vectors(scene, dirs)
        direct = (1.0 + np.exp(-1j * math.pi)) / 2.0
        got = np.vdot(u[:, 1], u[:, 0])
        assert abs(got - direct) < 1e-12
        assert abs(got) < 1e-12

    def test_rejects_non_unit_direction(self):
        scene = cross_scene()
        with pytest.raises(ValueError):
            steering_vectors(scene, np.array([[1.0, 1.0, 0.0]]))

    def test_rejects_nan_direction(self):
        # NaN fails no `>` comparison, so the unit-norm check must reject it explicitly
        scene = cross_scene()
        bad = np.array([[np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="directions must be unit vectors"):
            steering_vectors(scene, bad)
        with pytest.raises(ValueError, match="directions must be unit vectors"):
            PathSet(directions=bad, signals=np.ones((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_path_set_rejects_non_finite_signals(self, bad):
        signals = np.ones((4, 2), dtype=complex)
        signals[2, 1] = bad
        with pytest.raises(ValueError, match=r"PathSet signals: non-finite entry at index \(2, 1\)"):
            PathSet(directions=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], signals=signals)

    def test_path_set_takes_no_polarization(self):
        # simulate_array models no polarization; angles must not be dropped silently
        with pytest.raises(TypeError, match="polarization"):
            PathSet(directions=[[0.0, 0.0, 1.0]], signals=np.ones((4, 1)),
                    polarization=[[0.1, 0.2]])

    def test_mu_invariant_under_rigid_translation(self):
        scene = cross_scene()
        shift = np.array([1.7, -0.4, 2.2])
        moved = ArrayScene(b=scene.b + shift, delta=scene.delta,
                           pulsation=PULSATION, celerity=CELERITY)
        dirs = np.stack([unit([1, 0.2, 0.5]), unit([0, 1, 0.3]), unit([1, 1, 1])])
        u0, _ = steering_vectors(scene, dirs)
        u1, _ = steering_vectors(moved, dirs)
        assert abs(coherence(u0).mu - coherence(u1).mu) < 1e-12


class TestArrayScene:
    def test_requires_zero_first_translation(self):
        with pytest.raises(ValueError, match="reference"):
            ArrayScene(b=np.zeros((2, 3)),
                       delta=np.array([[0.1, 0, 0], [0, 0, 0]]),
                       pulsation=PULSATION, celerity=CELERITY)

    def test_wavelength(self):
        scene = cross_scene()
        assert abs(scene.wavelength - WAVELENGTH) < 1e-12

    def test_stores_read_only_copies(self):
        b = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        delta = np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.0]])
        scene = ArrayScene(b=b, delta=delta, pulsation=PULSATION, celerity=CELERITY)
        b[1, 0] = 7.0
        delta[1, 1] = 7.0
        assert scene.b[1, 0] == 0.1
        assert scene.delta[1, 1] == 0.1
        with pytest.raises(ValueError):
            scene.b[0, 0] = 1.0
        with pytest.raises(ValueError):
            scene.delta[0, 0] = 1.0


class TestOwnedArrays:
    """A scene keeps read-only C-order copies: its caller's arrays stay
    writeable, and a later write to them does not reach the scene."""

    @staticmethod
    def check(obj, given: dict):
        before = {name: np.array(getattr(obj, name)) for name in given}
        for name, a in given.items():
            assert a.flags.writeable
            a[(0,) * a.ndim] = math.nan
            kept = getattr(obj, name)
            assert np.array_equal(kept, before[name])
            assert not kept.flags.writeable and kept.flags.c_contiguous

    def test_path_set(self):
        # a write of 5.0 used to reach the directions, past their unit-norm check
        d = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        signals = np.ones((4, 2), dtype=np.complex128)
        self.check(PathSet(directions=d, signals=signals), {"directions": d, "signals": signals})

    def test_cdma_scene(self):
        # a NaN written into the gains used to reach the scene
        a, s, b = (np.ones((n, 2), dtype=np.complex128) for n in (3, 4, 5))
        self.check(CdmaScene(gains=a, symbols=s, codes=b), {"gains": a, "symbols": s, "codes": b})

    def test_array_scene(self):
        b = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        delta = np.zeros((1, 3))
        scene = ArrayScene(b=b, delta=delta, pulsation=PULSATION, celerity=CELERITY)
        self.check(scene, {"b": b, "delta": delta})


class TestSimulateArray:
    def paths(self, rng, r=3, n3=16):
        dirs = np.stack([unit([1, 0.1 * p, 0.5 + 0.2 * p]) for p in range(r)])
        sig = (rng.standard_normal((n3, r)) + 1j * rng.standard_normal((n3, r)))
        sig *= np.linspace(2.0, 1.0, r)[None, :] / np.linalg.norm(sig, axis=0)
        return PathSet(directions=dirs, signals=sig)

    def test_noiseless_rank1(self):
        scene = cross_scene()
        rng = np.random.default_rng(0)
        paths = self.paths(rng, r=1)
        tensor, truth = simulate_array(scene, paths, noise_std=0.0)
        assert truth.rank == 1
        recon = truth.weights[0] * rank1_outer([f[:, 0] for f in truth.factors])
        assert frobenius(tensor - recon) < 1e-12 * frobenius(tensor)

    def test_noiseless_matches_model(self):
        scene = cross_scene()
        rng = np.random.default_rng(1)
        paths = self.paths(rng, r=3)
        tensor, truth = simulate_array(scene, paths, noise_std=0.0)
        assert frobenius(tensor - cp_evaluate(truth)) < 1e-12 * frobenius(tensor)

    def test_physical_phases(self):
        # entry (i, j, k) accumulates the phase of both displacements
        scene = cross_scene()
        rng = np.random.default_rng(2)
        paths = self.paths(rng, r=2, n3=4)
        tensor, _ = simulate_array(scene, paths, noise_std=0.0)
        k = scene.wavenumber
        i, j, t = 3, 1, 2
        direct = 0.0
        for p in range(2):
            phase = k * (scene.b[i] + scene.delta[j]) @ paths.directions[p]
            direct += paths.signals[t, p] * np.exp(1j * phase)
        assert abs(tensor[i, j, t] - direct) < 1e-12

    def test_noise_std_statistical(self):
        scene = cross_scene(translations=[[0, 0, 0], [0, 0, 0.1], [0.1, 0, 0]])
        rng = np.random.default_rng(3)
        paths = self.paths(rng, r=2, n3=600)
        s = 0.05
        noisy, truth = simulate_array(scene, paths, noise_std=s, seed=7)
        resid = noisy - cp_evaluate(truth)
        emp = math.sqrt(float(np.mean(np.abs(resid) ** 2)))
        assert abs(emp - s) < 0.05 * s
        assert resid.size >= 10000 / 2  # 6 x 3 x 600 entries

    def test_deterministic_given_seed(self):
        scene = cross_scene()
        rng = np.random.default_rng(4)
        paths = self.paths(rng)
        t1, _ = simulate_array(scene, paths, noise_std=0.1, seed=5)
        t2, _ = simulate_array(scene, paths, noise_std=0.1, seed=5)
        assert np.array_equal(t1, t2)


@pytest.mark.parametrize("noise_std", [np.nan, np.inf, -0.1])
@pytest.mark.parametrize("kind", ["array", "cdma", "fluorescence"])
def test_bad_noise_std_named(kind, noise_std):
    # NaN and inf gave a NaN tensor, a negative std numpy's bare "scale < 0"
    rng = np.random.default_rng(13)
    x, y, z = (rng.random((3, 2)) for _ in range(3))
    paths = TestSimulateArray().paths(rng, r=1, n3=4)
    with pytest.raises(ValueError, match="noise_std must be finite and >= 0"):
        if kind == "array":
            simulate_array(cross_scene(), paths, noise_std)
        elif kind == "cdma":
            simulate_cdma(CdmaScene(gains=x, symbols=y, codes=z), noise_std)
        else:
            simulate_fluorescence(x, y, z, noise_std)


class TestResolvent:
    def test_quarter_wave_pair(self):
        pts = np.array([[0, 0, 0], [WAVELENGTH / 4, 0, 0]])
        assert is_resolvent(pts, [WAVELENGTH / 4, 0, 0], WAVELENGTH)

    def test_half_wave_excluded(self):
        pts = np.array([[0, 0, 0], [WAVELENGTH / 2, 0, 0]])
        assert not is_resolvent(pts, [WAVELENGTH / 2, 0, 0], WAVELENGTH)

    def test_non_difference(self):
        pts = np.array([[0, 0, 0], [WAVELENGTH / 4, 0, 0]])
        assert not is_resolvent(pts, [0, WAVELENGTH / 4, 0], WAVELENGTH)

    def test_triad_detection(self):
        assert has_resolvent_triad(cross_scene().b, WAVELENGTH)
        line = np.array([[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        assert not has_resolvent_triad(line, WAVELENGTH)
        plane = np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
        assert not has_resolvent_triad(plane, WAVELENGTH)


class TestCollinearity:
    def test_same_direction(self):
        res = collinearity_check(cross_scene(), unit([1, 1, 1]), unit([1, 1, 1]))
        assert abs(res.value - 1.0) < 1e-12
        assert res.separation_guaranteed

    def test_separated_directions_monte_carlo(self):
        scene = cross_scene()
        rng = np.random.default_rng(5)
        count = 0
        while count < 100:
            a = unit(rng.standard_normal(3))
            b = unit(rng.standard_normal(3))
            angle = math.degrees(math.acos(np.clip(a @ b, -1, 1)))
            if angle < 5.0:
                continue
            res = collinearity_check(scene, a, b)
            assert res.value < 1.0 - 1e-6
            count += 1

    def test_linear_array_mirror_ambiguity(self):
        # a line of sensors cannot separate directions mirrored about its axis
        line = ArrayScene(
            b=np.array([[0.1 * i, 0, 0] for i in range(4)], dtype=float),
            delta=np.zeros((1, 3)), pulsation=PULSATION, celerity=CELERITY)
        d1 = unit([0.5, 0.7, 0.2])
        d2 = unit([0.5, -0.7, -0.2])  # same projection on the array axis
        res = collinearity_check(line, d1, d2)
        assert abs(res.value - 1.0) < 1e-12
        assert not res.separation_guaranteed


class TestPolarization:
    def test_triad_right_handed_orthonormal(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
            d, e, f = direction_triad(theta, phi)
            basis = np.stack([d, e, f])
            assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
            assert np.allclose(np.cross(d, e), f, atol=1e-12)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
            alpha = rng.uniform(-math.pi / 2 + 1e-6, math.pi / 2)
            beta = rng.choice([-1, 1]) * rng.uniform(1e-3, math.pi / 4 - 1e-3)
            v = polarization_vector(theta, phi, alpha, beta)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_gain_orientation_mod_pi(self):
        g1 = polarization_gain(0.3, 0.2)
        g2 = polarization_gain(0.3 - math.pi, 0.2)
        assert abs(abs(np.vdot(g1, g2)) - 1.0) < 1e-12
        g3 = polarization_gain(0.5, 0.2)
        assert abs(np.vdot(g1, g3)) < 1.0 - 1e-6

    def test_equality_manifold(self):
        # same direction, orientation shifted by pi, same ellipticity
        v1 = polarization_vector(0.7, 0.3, 0.4, 0.15)
        v2 = polarization_vector(0.7, 0.3, 0.4 - math.pi, 0.15)
        assert abs(abs(np.vdot(v1, v2)) - 1.0) < 1e-9

    def test_strict_inequality_off_manifold(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            theta_p = rng.uniform(0, 2 * math.pi)
            theta_q = rng.uniform(0, 2 * math.pi)
            if min(abs(theta_p - theta_q) % math.pi,
                   math.pi - abs(theta_p - theta_q) % math.pi) < 0.1:
                continue
            phi = rng.uniform(-1.4, 1.4)
            alpha, beta = 0.3, 0.2
            vp = polarization_vector(theta_p, phi, alpha, beta)
            vq = polarization_vector(theta_q, phi, alpha, beta)
            ip = abs(np.vdot(vp, vq))
            assert ip <= 1.0 + 1e-12
            assert ip < 1.0 - 1e-9

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="neither linear nor circular"):
            polarization_vector(0.1, 0.1, 0.1, 0.0)

    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.1), (0.1, math.inf),
                                            (-math.inf, math.nan)])
    def test_non_finite_direction_rejected(self, theta, phi):
        with pytest.raises(ValueError, match="angles theta and phi must be finite, got "):
            polarization_vector(theta, phi, 0.1, 0.1)


class TestCdma:
    def test_effective_codes_match_direct_convolution(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = effective_codes(c, h)
        # independent convolution sum
        for p in range(3):
            for k in range(b.shape[0]):
                direct = sum(h[k - t, p] * c[t, p] for t in range(5)
                             if 0 <= k - t < 3)
                assert abs(b[k, p] - direct) < 1e-12

    def test_orthogonal_codes_zero_mode3_coherence(self):
        rng = np.random.default_rng(10)
        codes = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        scene = CdmaScene(
            gains=rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
            symbols=rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)),
            codes=codes)
        _, truth = simulate_cdma(scene)
        # recover the mode-3 coherence from the canonical model factors
        mu_b = coherence(np.asarray(truth.factors[2])).mu
        assert mu_b < 1e-10

    def test_noiseless_matches_model(self):
        rng = np.random.default_rng(11)
        scene = CdmaScene(
            gains=rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)),
            symbols=rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)),
            codes=rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
        tensor, truth = simulate_cdma(scene)
        assert frobenius(tensor - cp_evaluate(truth)) < 1e-12 * frobenius(tensor)
        direct = np.einsum("ip,jp,kp->ijk", scene.gains, scene.symbols, scene.codes)
        assert frobenius(tensor - direct) < 1e-12 * frobenius(tensor)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("field", ["gains", "symbols", "codes"])
def test_cdma_scene_non_finite_named(field, bad):
    mats = {name: np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
            for name in ("gains", "symbols", "codes")}
    mats[field][0, 1] = bad
    with pytest.raises(ValueError, match=rf"CdmaScene {field}: "
                                         r"non-finite entry at index \(0, 1\)"):
        CdmaScene(**mats)


@pytest.mark.parametrize("field", ["spreading", "impulse"])
def test_effective_codes_non_finite_named(field):
    mats = {"spreading": np.ones((2, 2)), "impulse": np.ones((2, 2))}
    mats[field][1, 1] = np.nan
    with pytest.raises(ValueError, match=rf"effective_codes {field}: "
                                         r"non-finite entry at index \(1, 1\)"):
        effective_codes(**mats)


class TestFluorescence:
    def test_rank1(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([[0.5], [0.5], [1.0]])
        z = np.array([[1.0], [0.0]])
        tensor, truth, likeness = simulate_fluorescence(x, y, z)
        assert truth.rank == 1
        assert np.all(tensor.real >= -1e-12)
        assert likeness["concentration_likeness"] == 0.0

    def test_noiseless_exact(self):
        rng = np.random.default_rng(12)
        x, y, z = (rng.random((n, 2)) + 0.05 for n in (4, 5, 6))
        tensor, truth, _ = simulate_fluorescence(x, y, z)
        direct = np.einsum("ip,jp,kp->ijk", x, y, z)
        assert frobenius(tensor - direct) < 1e-12 * frobenius(tensor)
        assert frobenius(tensor - cp_evaluate(truth)) < 1e-12 * frobenius(tensor)

    def test_likeness_reported(self):
        x = np.array([[1.0, 0.9], [0.1, 0.5]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[0.7, 0.6], [0.3, 0.5], [0.2, 0.3]])
        _, _, likeness = simulate_fluorescence(x, y, z)
        assert likeness["absorbance_likeness"] < 1e-12
        assert likeness["fluorescence_likeness"] > 0.9

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_fluorescence(np.array([[-1.0]]), np.array([[1.0]]),
                                  np.array([[1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["concentrations", "excitation", "emission"])
    def test_non_finite_named(self, field, bad):
        # NaN passed the sign check and ended in RuntimeWarnings and
        # "weights must be finite"; -inf read as merely negative
        mats = {name: np.array([[1.0, 0.2], [0.3, 1.0]]) for name in
                ("concentrations", "excitation", "emission")}
        mats[field][1, 0] = bad
        with pytest.raises(ValueError, match=rf"simulate_fluorescence {field}: "
                                             r"non-finite entry at index \(1, 0\)"):
            simulate_fluorescence(**mats)


class TestDoaEstimate:
    def test_noiseless_self_consistency(self):
        scene = cross_scene()
        dirs = np.stack([unit([1, 0.3, 0.8]), unit([-0.4, 1, 0.2])])
        u, _ = steering_vectors(scene, dirs)
        ests = doa_estimate(u, scene, grid_resolution_deg=2.0)
        for est, d in zip(ests, dirs):
            angle = math.degrees(math.acos(np.clip(est.direction @ d, -1, 1)))
            assert angle < 2.0
            assert est.separation_guaranteed

    def test_refinement_beats_grid(self):
        scene = cross_scene()
        d = unit([0.3, 0.5, 0.9])
        u, _ = steering_vectors(scene, d[None, :])
        est = doa_estimate(u, scene, grid_resolution_deg=2.0)[0]
        angle = math.degrees(math.acos(np.clip(est.direction @ d, -1, 1)))
        assert angle < 0.2

    def test_mirror_ambiguity_flagged(self):
        line = ArrayScene(
            b=np.array([[0.12 * i, 0, 0] for i in range(5)], dtype=float),
            delta=np.zeros((1, 3)), pulsation=PULSATION, celerity=CELERITY)
        d = unit([0.5, 0.8, 0.0])
        u, _ = steering_vectors(line, d[None, :])
        est = doa_estimate(u, line, grid_resolution_deg=3.0)[0]
        assert est.ambiguous
        assert est.alternates
        assert not est.separation_guaranteed

    def test_one_dimensional_estimate_is_one_column(self):
        scene = cross_scene()
        u, _ = steering_vectors(scene, unit([0.3, 0.5, 0.9])[None, :])
        (flat,) = doa_estimate(u[:, 0], scene, grid_resolution_deg=2.0)
        (col,) = doa_estimate(u, scene, grid_resolution_deg=2.0)
        assert flat.direction.tobytes() == col.direction.tobytes()
        assert flat.score == col.score

    def test_sensor_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match the sensor count"):
            doa_estimate(np.ones((5, 1)), cross_scene())


def line_scene():
    return ArrayScene(b=np.array([[0.12 * i, 0, 0] for i in range(5)], dtype=float),
                      delta=np.zeros((1, 3)), pulsation=PULSATION, celerity=CELERITY)


def estimate_bytes(est):
    out = [est.direction.tobytes(), repr(est.score), est.ambiguous,
           est.separation_guaranteed]
    for alt in est.alternates:
        out += estimate_bytes(alt)
    return out


class TestDoaGridCache:
    @pytest.mark.parametrize("make_scene, resolution", [(cross_scene, 2.0),
                                                        (line_scene, 3.0)])
    def test_reused_scene_matches_fresh_scene_bytewise(self, make_scene, resolution):
        scene = make_scene()
        dirs = np.stack([unit([1, 0.3, 0.8]), unit([-0.4, 1, 0.2])])
        u, _ = steering_vectors(scene, dirs)
        u = u + 0.01 * np.random.default_rng(7).standard_normal(u.shape)
        first = doa_estimate(u, scene, grid_resolution_deg=resolution)
        again = doa_estimate(u, scene, grid_resolution_deg=resolution)
        fresh = doa_estimate(u, make_scene(), grid_resolution_deg=resolution)
        for a, b, c in zip(first, again, fresh):
            assert estimate_bytes(a) == estimate_bytes(b) == estimate_bytes(c)

    def test_grid_steering_built_once_per_scene_and_resolution(self, monkeypatch):
        kept = []
        original = simulate._doa_grid

        def keeping(*args):
            kept.append(original(*args))
            return kept[-1]

        one, two = cross_scene(), cross_scene()
        u, _ = steering_vectors(one, unit([0.3, 0.5, 0.9])[None, :])
        monkeypatch.setattr(simulate, "_doa_grid", keeping)
        for _ in range(3):
            doa_estimate(u, one, grid_resolution_deg=2.0)
        doa_estimate(u, one, grid_resolution_deg=3.0)
        doa_estimate(u, two, grid_resolution_deg=2.0)
        n2 = simulate._grid_size_for_resolution(2.0)
        n3 = simulate._grid_size_for_resolution(3.0)
        # a build returns new cells, a cache hit the ones it returned before
        built = [cells[0].size for i, cells in enumerate(kept)
                 if not any(cells is seen for seen in kept[:i])]
        # one build for one at 2 degrees, one at 3 degrees, one for two at 2
        assert len(kept) == 5 and built == [n2, n3, n2]

    def test_scene_keeps_the_latest_grid_size_only(self):
        # each grid size used to stay cached: 4 entries, 71.3 MB in all
        workload = _blind_id_workload()
        u, _ = steering_vectors(workload.scene, workload.dirs)
        for resolution in (1.0, 0.9, 0.8, 0.7):
            doa_estimate(u, workload.scene, grid_resolution_deg=resolution)
        count = simulate._grid_size_for_resolution(0.7)
        [(key, (cell_of, steer, slack))] = workload.scene._doa_grids.items()
        assert key == cell_of.size == count and cell_of.dtype == np.int32
        assert steer.shape[0] == 17 and steer.shape[1] == slack.size <= count
        assert cell_of.nbytes + steer.nbytes + slack.nbytes \
            == 4 * count + (16 * 17 + 8) * slack.size
        assert not any(a.flags.writeable for a in (cell_of, steer, slack))

    def test_rejects_zero_column(self):
        scene = cross_scene()
        u, _ = steering_vectors(scene, np.stack([unit([1, 0, 1]), unit([0, 1, 1])]))
        u[:, 1] = 0.0
        with pytest.raises(ValueError, match="steering column 1 has zero norm"):
            doa_estimate(u, scene, grid_resolution_deg=3.0)

    def test_rejects_non_finite_column(self):
        scene = cross_scene()
        u, _ = steering_vectors(scene, np.stack([unit([1, 0, 1]), unit([0, 1, 1])]))
        u[2, 0] = np.nan
        with pytest.raises(ValueError, match="steering column 0 has a non-finite entry"):
            doa_estimate(u, scene, grid_resolution_deg=3.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, how", [(1e308, "overflows"), (1e-170, "underflows")])
    def test_rejects_a_squared_norm_out_of_the_doubles(self, scale, how):
        # 1e308 warned of an overflow and gave grid point 0 with score 0;
        # 1e-170 was refused as a column of zero norm
        scene = cross_scene()
        u, _ = steering_vectors(scene, np.stack([unit([1, 0, 1]), unit([0, 1, 1])]))
        u[:, 1] *= scale
        with pytest.raises(ValueError, match=f"steering column 1 has a squared norm that {how}"):
            doa_estimate(u, scene, grid_resolution_deg=3.0)

    @pytest.mark.filterwarnings("error")
    def test_squared_norm_at_the_edges_of_the_doubles_is_kept(self):
        # powers of two scale a column exactly, so the estimates keep their bits
        scene = cross_scene()
        u, _ = steering_vectors(scene, np.stack([unit([1, 0, 1]), unit([0, 1, 1])]))
        want = [estimate_bytes(e) for e in doa_estimate(u, scene, grid_resolution_deg=3.0)]
        for scale in (2.0 ** 500, 2.0 ** -500):
            got = doa_estimate(u * scale, scene, grid_resolution_deg=3.0)
            assert [estimate_bytes(e) for e in got] == want
        # a norm of 2**-511 squares to the smallest normal double, 2**511 to
        # the largest power of two
        for entry in (2.0 ** -511, 2.0 ** 511):
            e = np.zeros((6, 1))
            e[0] = entry
            assert len(doa_estimate(e, scene, grid_resolution_deg=30.0)) == 1
        e[0] = math.nextafter(2.0 ** -511, 0.0)
        with pytest.raises(ValueError, match="column 0 has a squared norm that underflows"):
            doa_estimate(e, scene, grid_resolution_deg=30.0)


class TestGridResolution:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "must be finite and > 0, got nan"),
        (0.0, "must be finite and > 0, got 0.0"),
        (-1.0, "must be finite and > 0, got -1.0"),
        (np.inf, "must be finite and > 0, got inf"),
        (1e-6, "needs more than the 1000000 grid points"),
        (1e-300, "needs more than the 1000000 grid points")])
    def test_rejected_by_name_before_any_grid(self, monkeypatch, bad, message):
        # NaN raised "cannot convert float NaN to integer", 0 a
        # ZeroDivisionError, -1 flagged every estimate ambiguous, inf gave
        # RuntimeWarnings and garbage, 1e-6 asked for 4e16 grid points
        def no_grid(*args):
            raise AssertionError("a direction grid was built")

        monkeypatch.setattr(simulate, "_sphere_points", no_grid)
        scene = cross_scene()
        u, _ = steering_vectors(scene, unit([0.3, 0.5, 0.9])[None, :])
        with pytest.raises(ValueError, match=f"grid_resolution_deg .*{message}"):
            doa_estimate(u, scene, grid_resolution_deg=bad)

    @pytest.mark.parametrize("shape", [(), (6, 2, 2)])
    def test_estimate_of_other_ndim_rejected_by_shape(self, monkeypatch, shape):
        # a 0-d estimate raised IndexError, a 3-d one numpy's "truth value of
        # an array ... is ambiguous"
        def no_grid(*args):
            raise AssertionError("a direction grid was built")

        monkeypatch.setattr(simulate, "_sphere_points", no_grid)
        with pytest.raises(ValueError, match=re.escape(f"a vector or a matrix, got shape {shape}")):
            doa_estimate(np.ones(shape, complex), cross_scene())

    def test_cap_is_on_points(self):
        # the finest resolution the cap admits, and one just below it
        finest = math.degrees(math.sqrt(4.0 * math.pi / simulate.DOA_GRID_CAP))
        assert simulate._grid_size_for_resolution(finest * (1 + 1e-9)) \
            <= simulate.DOA_GRID_CAP
        with pytest.raises(ValueError, match="grid points"):
            simulate._grid_size_for_resolution(finest * (1 - 1e-9))


def _whole_grid(scene, grid_resolution_deg):
    """The direction grid and its conjugated steering, as one product of the
    whole grid.  Its phases are the rows of ``grid @ b.T``, as in the blocks
    of ``_grid_scores``: ``b @ grid.T`` has other bits at one BLAS thread on
    the 1 degree grid, and at every thread count on the 10 degree grid."""
    grid = fibonacci_sphere(simulate._grid_size_for_resolution(grid_resolution_deg))
    return grid, np.conj(simulate._steering((grid @ scene.b.T).T, scene.wavenumber))


def _doa_estimate_reference(u_est, scene, grid_resolution_deg):
    """``doa_estimate`` as it was before the grid search was pruned and the
    rival search restricted to the near ties: the whole grid is scored in one
    product, the angle to the best point is taken over the whole grid, and
    each direction is refined by ``_refine_direction_reference``, so it
    shares no code with the search and the ascent under test."""
    guaranteed = has_resolvent_triad(scene.b, scene.wavelength)
    grid, ug_conj = _whole_grid(scene, grid_resolution_deg)
    cols = u_est / np.linalg.norm(u_est, axis=0)
    scores = np.abs(ug_conj.T @ cols)
    sep = 3.0 * math.radians(grid_resolution_deg)
    step0 = math.radians(grid_resolution_deg)
    out = []
    for p in range(cols.shape[1]):
        sc = scores[:, p]
        best_i = int(np.argmax(sc))
        d_best, s_best = _refine_direction_reference(scene, cols[:, p], grid[best_i], step0)
        near = sc >= sc[best_i] - simulate.AMBIGUITY_TOL
        angles = np.arccos(np.clip(grid @ grid[best_i], -1.0, 1.0))
        rivals = np.flatnonzero(near & (angles > sep))
        alternates = []
        if rivals.size:
            j = rivals[int(np.argmax(sc[rivals]))]
            d_alt, s_alt = _refine_direction_reference(scene, cols[:, p], grid[j], step0)
            alternates.append(simulate.DoaEstimate(direction=d_alt, score=s_alt,
                                                   separation_guaranteed=guaranteed))
        out.append(simulate.DoaEstimate(direction=d_best, score=s_best,
                                        ambiguous=bool(alternates), alternates=alternates,
                                        separation_guaranteed=guaranteed))
    return out


def _blind_id_workload():
    # the benchmark's criterion-9 workload, loaded from its file: the tests
    # do not need the repository root on sys.path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.BlindId(pool=6)


def test_doa_estimate_matches_reference_bytewise():
    # the fitted steering columns of the seed-611 blind_id pool, then a
    # mirror-symmetric line, whose near ties hold a rival
    workload = _blind_id_workload()
    cases = [(np.asarray(workload.op(item).model.factors[0]), workload.scene, 1.0)
             for item in workload.setup(611, Path("."))]
    line = line_scene()
    u, _ = steering_vectors(line, np.stack([unit([0.5, 0.8, 0.0]), unit([0.2, 0.4, 0.9])]))
    cases.append((u + 0.01 * np.random.default_rng(9).standard_normal(u.shape), line, 3.0))
    rivals = 0
    for u_est, scene, resolution in cases:
        got = doa_estimate(u_est, scene, grid_resolution_deg=resolution)
        want = _doa_estimate_reference(u_est, scene, resolution)
        assert [estimate_bytes(e) for e in got] == [estimate_bytes(e) for e in want]
        rivals += sum(e.ambiguous for e in got)
    assert rivals


def _blind_id_scene():
    return _blind_id_workload().scene


def _noisy_columns(scene, dirs, seed):
    u, _ = steering_vectors(scene, dirs)
    return u + 0.01 * np.random.default_rng(seed).standard_normal(u.shape)


def _unit_columns(u):
    return u / np.linalg.norm(u, axis=0)


def _scores(scene, idx, cols, resolution):
    count = simulate._grid_size_for_resolution(resolution)
    return simulate._grid_scores(scene, count, idx, cols)


class TestDoaBlocks:
    """The grid cells are built, and grid points scored, one block of
    ``_blocks`` at a time, with the bits of the whole products and a bounded
    share of their memory."""

    @staticmethod
    def _scores_of_the_whole_product(scene, cols, resolution):
        grid, ug_conj = _whole_grid(scene, resolution)
        whole = np.abs(ug_conj.T @ cols)
        got = _scores(scene, np.arange(grid.shape[0]), cols, resolution)
        assert got.shape == whole.shape == (grid.shape[0], cols.shape[1])
        assert got.tobytes() == whole.tobytes()
        return grid, whole

    def test_grid_scores_equal_the_whole_product_bytewise(self):
        workload = _blind_id_workload()
        cols = _unit_columns(_noisy_columns(workload.scene, workload.dirs, 3))
        grid, whole = self._scores_of_the_whole_product(workload.scene, cols, 1.0)
        assert divmod(grid.shape[0], simulate.DOA_BLOCK) == (40, 293)
        # gathered rows keep their bits; a lone point is scored as a pair,
        # since a one-row product runs through gemv
        rng = np.random.default_rng(2)
        for size in (1, 2, 3, 17, 1_000, 1_025):
            for _ in range(3):
                idx = np.sort(rng.choice(grid.shape[0], size, replace=False))
                assert _scores(workload.scene, idx, cols, 1.0).tobytes() \
                    == whole[idx].tobytes()

    def test_one_point_remainder_keeps_the_bits_of_the_whole_product(self):
        # 40,961 = 40 * 1,024 + 1 points: as a block of its own, the last
        # point's one-row product, through gemv, changed 4 of its 17 steering
        # entries.  That point, the south pole, is one column's maximum here
        workload, resolution = _blind_id_workload(), 1.0035585685
        count = simulate._grid_size_for_resolution(resolution)
        assert count % simulate.DOA_BLOCK == 1
        south = fibonacci_sphere(count)[-1]
        u = _noisy_columns(workload.scene, np.vstack([workload.dirs, south]), 3)
        self._scores_of_the_whole_product(workload.scene, _unit_columns(u), resolution)
        got = doa_estimate(u, workload.scene, grid_resolution_deg=resolution)
        want = _doa_estimate_reference(u, workload.scene, resolution)
        assert [estimate_bytes(e) for e in got] == [estimate_bytes(e) for e in want]
        assert got[4].direction @ south > math.cos(math.radians(resolution))

    @pytest.mark.parametrize("make_scene, block", [
        *(pytest.param(line_scene, block, id=str(block))
          for block in (1, 7, "N - 1", "N", "N + 1")),
        # sensors with 3-D positions, on which gemv and gemm phases differ
        *(pytest.param(_blind_id_scene, block, id=f"3-D {block}")
          for block in (2, 7, "N - 1", "N", "N + 1"))])
    def test_block_size_changes_no_bit(self, monkeypatch, make_scene, block):
        # at 3 degrees; the mirror-symmetric line's near ties hold a rival
        if make_scene is line_scene:
            dirs = np.stack([unit([0.5, 0.8, 0.0]), unit([0.2, 0.4, 0.9])])
        else:
            dirs = _blind_id_workload().dirs
        u = _noisy_columns(make_scene(), dirs, 9)
        n = simulate._grid_size_for_resolution(3.0)
        scores = _scores(make_scene(), np.arange(n), _unit_columns(u), 3.0)
        want = doa_estimate(u, make_scene(), grid_resolution_deg=3.0)
        assert any(e.ambiguous for e in want) == (make_scene is line_scene)
        monkeypatch.setattr(simulate, "DOA_BLOCK",
                            {"N - 1": n - 1, "N": n, "N + 1": n + 1}.get(block, block))
        # one-row score products run through gemv, whose bits differ; on the
        # line they move no estimate
        assert (_scores(make_scene(), np.arange(n), _unit_columns(u), 3.0).tobytes()
                == scores.tobytes()) is (block != 1)
        got = doa_estimate(u, make_scene(), grid_resolution_deg=3.0)
        assert [estimate_bytes(e) for e in got] == [estimate_bytes(e) for e in want]

    def test_points_by_index_equal_the_grid_bytewise(self):
        rng = np.random.default_rng(2)
        for count in (41_253, 165_012):
            grid = fibonacci_sphere(count)
            for s, e in simulate._blocks(count):
                assert simulate._sphere_points(count, np.arange(s, e)).tobytes() \
                    == grid[s:e].tobytes()
            for size in (1, 2, 3, 17, 1_000, 4_096):
                i = rng.choice(count, size, replace=False)
                assert simulate._sphere_points(count, i).tobytes() == grid[i].tobytes()

    @pytest.mark.parametrize("count, block, bounds", [
        (16, 1024, [(0, 16)]), (2049, 1024, [(0, 1024), (1024, 2049)]),
        (2050, 1024, [(0, 1024), (1024, 2048), (2048, 2050)]),
        (4, 1, [(0, 1), (1, 2), (2, 4)])])
    def test_no_block_of_one_point(self, monkeypatch, count, block, bounds):
        monkeypatch.setattr(simulate, "DOA_BLOCK", block)
        assert list(simulate._blocks(count)) == bounds

    @staticmethod
    def _traced(call):
        """The result of call(), and the bytes it left and its peak, traced."""
        tracemalloc.start()
        try:
            result = call()
            return result, *tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def _cold_build_kept(self, resolution):
        scene = _blind_id_workload().scene
        cells, kept, peak = self._traced(lambda: simulate._doa_grid(scene, resolution))
        assert sum(a.nbytes for a in cells) <= kept
        assert peak <= kept + 2**20
        return kept

    def test_cold_build_holds_little_beyond_the_cache(self):
        # the conjugated steering of every grid point kept 10.7 MiB at 1
        # degree; a build peaked 0.7 MiB above what it kept
        assert self._cold_build_kept(1.0) <= 2 * 2**20

    def test_half_degree_cells_are_small(self):
        # the conjugated steering of every grid point kept 42.8 MiB at 0.5
        # degrees, and a build peaked at 43.5 MiB
        assert self._cold_build_kept(0.5) <= 3 * 2**20

    def test_warm_call_holds_little_beyond_its_scores(self):
        # whole-grid scoring took 3.96 MB for 4 columns at 1 degree, an
        # (r, N) score array 1.72 MB; a call now holds the scores of the cell
        # centres and one block of grid steering, a few times over
        workload = _blind_id_workload()
        u, _ = steering_vectors(workload.scene, workload.dirs)
        doa_estimate(u, workload.scene, grid_resolution_deg=1.0)
        estimates, _, peak = self._traced(
            lambda: doa_estimate(u, workload.scene, grid_resolution_deg=1.0))
        assert len(estimates) == 4
        assert peak <= 4 * 16 * 17 * simulate.DOA_BLOCK


def _one_sensor_scene():
    # the Lipschitz constant of the scores is 0, and every grid point ties
    return ArrayScene(b=[[0.1, -0.2, 0.05]], delta=np.zeros((1, 3)), pulsation=PULSATION,
                      celerity=CELERITY)


def _wide_scene():
    # sensors 5 wavelengths apart: the cells clamp to the grid spacing, and
    # most hold a single point
    s = 5.0 * WAVELENGTH
    b = [[0, 0, 0], [s, 0, 0], [0, s, 0], [0, 0, s], [2 * s, 0, 0], [0, 2 * s, 0], [s, s, s]]
    return ArrayScene(b=np.array(b), delta=np.zeros((1, 3)), pulsation=PULSATION,
                      celerity=CELERITY)


SEARCH_SCENES = {"3-D": _blind_id_scene, "line": line_scene, "one sensor": _one_sensor_scene,
                 "wide": _wide_scene}


def _cells_reference(scene, count):
    """(cell_of, steer, slack) of ``_doa_cells``, built from the whole grid in
    one piece: the cells are the sorted distinct boxes, the centres sums
    over member counts, and the centres' steering is taken in ``_blocks``
    row blocks, whose bits equal the whole product's."""
    grid, k, b = fibonacci_sphere(count), scene.wavenumber, scene.b
    centred = b - b.mean(axis=0)
    lip = k * math.sqrt(max(np.linalg.eigvalsh(centred.T @ centred / b.shape[0])[-1], 0.0))
    side = max(simulate.DOA_CELL_BOUND / lip if lip > 0.0 else math.inf,
               math.sqrt(4.0 * math.pi / count))
    bands = max(2, math.ceil(math.pi / side))
    bins = np.maximum(np.ceil(2.0 * math.pi / side
                              * np.sin((np.arange(bands) + 0.5) * math.pi / bands)),
                      1.0).astype(np.int64)
    band = np.minimum((np.arccos(grid[:, 2]) * (bands / math.pi)).astype(np.int64), bands - 1)
    phi = np.arctan2(grid[:, 1], grid[:, 0]) % (2.0 * math.pi)
    box = (np.cumsum(bins) - bins)[band] \
        + np.minimum((phi * (bins[band] / (2.0 * math.pi))).astype(np.int64), bins[band] - 1)
    boxes, cell_of = np.unique(box, return_inverse=True)
    centres = np.zeros((boxes.size, 3))
    np.add.at(centres, cell_of, grid)
    centres /= np.bincount(cell_of)[:, None]
    radius = np.zeros(boxes.size)
    gap = grid - centres[cell_of]
    np.maximum.at(radius, cell_of, np.sqrt(np.vecdot(gap, gap)))
    steer = np.concatenate([np.conj(simulate._steering((centres[s:e] @ b.T).T, k))
                            for s, e in simulate._blocks(boxes.size)], axis=1)
    return cell_of.astype(np.int32), steer, lip * radius * (1.0 + 1e-9) + 1e-9


@pytest.mark.parametrize("name, resolution", [
    *((name, 1.0) for name in SEARCH_SCENES), ("3-D", 1.0035585685)])
def test_cells_equal_a_build_from_the_whole_grid_bytewise(name, resolution):
    scene = SEARCH_SCENES[name]()
    got = simulate._doa_grid(scene, resolution)
    want = _cells_reference(scene, simulate._grid_size_for_resolution(resolution))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@functools.lru_cache(maxsize=1)
def _search_case(name, resolution):
    """One scene, kept across examples so that its cells are built once, with
    its whole grid and the grid's conjugated steering."""
    scene = SEARCH_SCENES[name]()
    return (scene, *_whole_grid(scene, resolution))


def _search_columns(scene, grid, seed, r, on_grid):
    """r unit columns: the steering vectors of random grid points, or random
    complex columns."""
    rng = np.random.default_rng(seed)
    if on_grid:
        u, _ = steering_vectors(scene, grid[rng.choice(grid.shape[0], r)])
    else:
        u = rng.standard_normal((scene.b.shape[0], r)) \
            + 1j * rng.standard_normal((scene.b.shape[0], r))
    return _unit_columns(u)


class TestPrunedSearch:
    """The grid search scores only the cells that can hold a maximum or a
    near tie, and finds what an exhaustive scan finds, bit for bit."""

    @pytest.mark.parametrize("resolution", [30.0, 10.0, 1.0, 1.0035585685])
    @pytest.mark.parametrize("name", SEARCH_SCENES)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4), on_grid=st.booleans())
    def test_pruned_search_equals_the_whole_grid_bytewise(self, name, resolution, seed, r,
                                                          on_grid):
        scene, grid, ug_conj = _search_case(name, resolution)
        cols = _search_columns(scene, grid, seed, r, on_grid)
        count, best, near, near_sc = simulate._grid_search(scene, cols, resolution)
        # a lone column as a pair: a one-column product runs through gemv,
        # whose bits depend on a row's place in the product
        whole = np.abs(ug_conj.T @ np.repeat(cols, 2 if r == 1 else 1, axis=1))[:, :r]
        want = whole.argmax(axis=0)
        assert count == grid.shape[0]
        assert np.asarray(best).tobytes() == want.tobytes()
        for p, i in enumerate(want):
            tied = np.flatnonzero(whole[:, p] >= whole[i, p] - simulate.AMBIGUITY_TOL)
            assert near[p].tobytes() == tied.tobytes()
            assert near_sc[p].tobytes() == whole[tied, p].tobytes()

    @pytest.mark.parametrize("name", SEARCH_SCENES)
    def test_every_pruned_point_scores_below_the_floor(self, monkeypatch, name):
        scene, grid, ug_conj = _search_case(name, 1.0)
        cols = _search_columns(scene, grid, 5, 4, True)
        calls = []
        original = simulate._grid_scores

        def keeping(*args):  # (scene, count, idx, cols)
            calls.append((args[2], original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(simulate, "_grid_scores", keeping)
        simulate._grid_search(scene, cols, 1.0)
        # the members of the top cells, then every member of a live cell
        [(_, top), (scored, _)] = calls
        floor = top.max(axis=0) - simulate.AMBIGUITY_TOL
        whole = np.abs(ug_conj.T @ cols)
        assert (floor <= whole.max(axis=0) - simulate.AMBIGUITY_TOL).all()
        pruned = np.ones(grid.shape[0], bool)
        pruned[scored] = False
        assert (whole[pruned] < floor).all()
        # the 17-sensor scene scores under 5% of its grid, the one sensor all
        share = {"3-D": (0.0, 0.05), "one sensor": (1.0, 1.0)}.get(name, (0.0, 1.0))
        assert share[0] <= scored.size / grid.shape[0] <= share[1]

    @pytest.mark.parametrize("name", SEARCH_SCENES)
    def test_members_score_at_most_their_centre_plus_slack(self, name):
        scene, grid, _ = _search_case(name, 1.0)
        cols = _search_columns(scene, grid, 6, 4, False)
        cell_of, steer, slack = simulate._doa_grid(scene, 1.0)
        assert slack.size == steer.shape[1] == cell_of.max() + 1 <= grid.shape[0]
        assert np.bincount(cell_of).min() >= 1  # no empty cell is kept
        members = _scores(scene, np.arange(grid.shape[0]), cols, 1.0)
        centres = np.abs(steer.T @ cols)
        assert (members <= (centres + slack[:, None])[cell_of]).all()

    def test_a_bound_below_one_still_splits_the_sphere(self):
        # sensors 2 cm apart at 0.3 m: the Lipschitz constant is 0.24, and
        # cells of side 0.15 / 0.24 rad cover the sphere in 42
        scene = ArrayScene(b=[[0, 0, 0], [0.02, 0, 0], [0, 0.02, 0]], delta=np.zeros((1, 3)),
                           pulsation=PULSATION, celerity=CELERITY)
        _, steer, _ = simulate._doa_grid(scene, 1.0)
        assert 20 < steer.shape[1] < 60

    # 5,496 cells at 1 degree on the 17-sensor scene
    @pytest.mark.parametrize("block, resolution", [(2, 10.0), (7, 10.0), (1024, 1.0)])
    def test_every_grid_product_has_two_to_doa_block_rows(self, monkeypatch, block,
                                                           resolution):
        # a one-row product runs through gemv; scoring every cell centre in
        # one product kept OpenBLAS's threads busy in every op
        cases = [(scene, steering_vectors(scene, _blind_id_workload().dirs[:1])[0])
                 for scene in (make() for make in SEARCH_SCENES.values())]
        monkeypatch.setattr(simulate, "DOA_BLOCK", block)
        rows = []
        steering, cells = simulate._steering, simulate._doa_grid

        class Centres(np.ndarray):
            def __matmul__(self, other):
                rows.append(self.shape[0])
                return np.asarray(self) @ other

        def counting(phases, k):
            if phases.ndim == 2:  # the grid's; the ascent's are stacked
                rows.append(phases.shape[1])
            return steering(phases, k)

        def spied(*args):
            cell_of, steer, slack = cells(*args)
            return cell_of, steer.view(Centres), slack

        monkeypatch.setattr(simulate, "_steering", counting)
        monkeypatch.setattr(simulate, "_doa_grid", spied)
        for scene, u in cases:
            doa_estimate(u, scene, grid_resolution_deg=resolution)
        # a one-point remainder joins the block before it
        assert rows and min(rows) >= 2 and max(rows) <= block + 1


def _tangent_basis_reference(d):
    a = np.zeros(3)
    a[int(np.argmin(np.abs(d)))] = 1.0
    t1 = np.cross(d, a)
    t1 /= np.linalg.norm(t1)
    return t1, np.cross(d, t1)


def _refine_direction_reference(scene, u_col, d0, step0, steps=20):
    # the local ascent scored through steering_vectors, with np.cross tangents
    def score(d):
        u, _ = steering_vectors(scene, d[None, :])
        return float(abs(np.vdot(u[:, 0], u_col)))

    d = d0 / np.linalg.norm(d0)
    best = score(d)
    step = step0
    for _ in range(steps):
        t1, t2 = _tangent_basis_reference(d)
        improved = False
        for dd in (t1, -t1, t2, -t2):
            cand = d + step * dd
            cand /= np.linalg.norm(cand)
            sc = score(cand)
            if sc > best:
                best, d = sc, cand
                improved = True
        if not improved:
            step *= 0.5
    return d, best


def test_tangent_basis_matches_np_cross():
    dirs = fibonacci_sphere(200)
    dirs = np.vstack([dirs, np.eye(3), -np.eye(3)])
    for d in dirs:
        got = simulate._tangent_basis(d)
        want = _tangent_basis_reference(d)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_refine_direction_matches_reference_bytewise():
    scene = cross_scene()
    rng = np.random.default_rng(8)
    dirs = fibonacci_sphere(12)
    u, _ = steering_vectors(scene, dirs)
    u = u + 0.02 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    u /= np.linalg.norm(u, axis=0)
    starts = fibonacci_sphere(300)
    start_scores = np.abs(steering_vectors(scene, starts)[0].conj().T @ u)
    for p in range(u.shape[1]):
        d0 = starts[int(np.argmax(start_scores[:, p]))]
        [(d, best)] = simulate._refine_directions(scene, u[:, p:p + 1], d0[None, :],
                                                  math.radians(3.0))
        d_ref, best_ref = _refine_direction_reference(scene, u[:, p], d0,
                                                      math.radians(3.0))
        assert d.tobytes() == d_ref.tobytes()
        assert best == best_ref


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_refine_directions_matches_reference_per_column(m):
    # the columns of one C-order (n, m) array, whose column stride changes
    # with m.  Start p sits 3.5 steps off its direction along t1, -t1, t2,
    # -t2 or t1 - t2 of its own tangent basis, so the first step accepts a
    # candidate at every index, and a column that accepted re-scores its
    # remaining candidates in a further round.  17 sensors: on shorter
    # columns zdotc's unit-stride and strided kernels can agree
    scene = ArrayScene(b=[[0.12 * i, 0.12 * j, 0.0] for i in range(4) for j in range(4)]
                       + [[0.0, 0.0, 0.12]], delta=np.zeros((1, 3)),
                       pulsation=PULSATION, celerity=CELERITY)
    step0 = math.radians(1.0)
    starts = fibonacci_sphere(9)[1:m + 1]
    truths = []
    for p, d in enumerate(starts):
        t1, t2 = _tangent_basis_reference(unit(d))
        truths.append(unit(d + 3.5 * step0 * (t1, -t1, t2, -t2, t1 - t2)[p]))
    u, _ = steering_vectors(scene, np.stack(truths))
    u = u + 0.002 * np.random.default_rng(m).standard_normal(u.shape)
    u /= np.linalg.norm(u, axis=0)
    assert u.flags.c_contiguous and u.shape == (17, m)
    got = simulate._refine_directions(scene, u, starts, step0)
    assert len(got) == m
    first = []
    for p in range(m):
        d, best = _refine_direction_reference(scene, u[:, p], starts[p], step0)
        assert got[p][0].tobytes() == d.tobytes()
        assert got[p][1] == best

        def score(c):
            return abs(np.vdot(steering_vectors(scene, c[None, :])[0][:, 0], u[:, p]))

        d0 = unit(starts[p])
        t1, t2 = _tangent_basis_reference(d0)
        first.append(next(i for i, dd in enumerate((t1, -t1, t2, -t2))
                          if score(unit(d0 + step0 * dd)) > score(d0)))
    assert first == [0, 1, 2, 3, 0][:m]


def test_doa_estimate_of_one_dimensional_column_matches_reference():
    # a 1-D estimate is refined as a contiguous column, which takes the
    # unit-stride zdotc kernel
    scene = cross_scene()
    u, _ = steering_vectors(scene, unit([0.3, -0.5, 0.8])[None, :])
    u_est = u[:, 0] + 0.01 * np.random.default_rng(4).standard_normal(6)
    (est,) = doa_estimate(u_est, scene, grid_resolution_deg=2.0)
    col = u_est[:, None] / np.linalg.norm(u_est[:, None], axis=0)
    grid, ug_conj = _whole_grid(scene, 2.0)
    d0 = grid[int(np.argmax(np.abs(ug_conj.T @ col)))]
    d, best = _refine_direction_reference(scene, col[:, 0], d0, math.radians(2.0))
    assert not est.ambiguous
    assert est.direction.tobytes() == d.tobytes()
    assert est.score == best


def test_doa_estimate_of_no_columns_is_empty():
    scene = cross_scene()
    assert doa_estimate(np.zeros((scene.b.shape[0], 0), complex), scene) == []


def test_fibonacci_sphere_uniform_unit():
    pts = fibonacci_sphere(500)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    # roughly balanced octants
    signs = (pts > 0).astype(int)
    counts = np.bincount(signs @ np.array([1, 2, 4]), minlength=8)
    assert counts.min() > 30


def test_fibonacci_sphere_heights_are_band_midpoints():
    # point i sits at height 1 - (2 i + 1) / N, the first at angle 0
    pts = fibonacci_sphere(4)
    assert pts[:, 2].tolist() == [0.75, 0.25, -0.25, -0.75]
    assert pts[0].tolist() == [math.sqrt(0.4375), 0.0, 0.75]


@pytest.mark.parametrize("count, message", [
    # the parent returned 3 points spaced for 2.5 and empty grids for 0 and -3
    (2.5, r"^count must be >= 1, got 2\.5$"),
    (0, r"^count must be >= 1, got 0$"),
    (-3, r"^count must be >= 1, got -3$"),
    (np.nan, r"^count must be >= 1, got nan$")])
def test_fibonacci_sphere_refuses_a_non_count_by_value(count, message):
    with pytest.raises(ValueError, match=message):
        fibonacci_sphere(count)


def test_fibonacci_sphere_takes_a_whole_float_as_its_int():
    assert fibonacci_sphere(16.0).tobytes() == fibonacci_sphere(16).tobytes()


class TestMalformedInputRejected:
    """Each simulator names what is wrong with a malformed input."""

    @pytest.mark.parametrize("b, delta, pulsation, message", [
        (np.zeros((2, 3)), np.zeros((1, 2)), PULSATION, "delta must be an"),
        ([[0.0, np.nan, 0.0]], np.zeros((1, 3)), PULSATION, "positions must be finite"),
        (np.zeros((2, 3)), np.zeros((1, 3)), 0.0, "pulsation and celerity must be positive"),
    ])
    def test_array_scene(self, b, delta, pulsation, message):
        with pytest.raises(ValueError, match=message):
            ArrayScene(b=b, delta=delta, pulsation=pulsation, celerity=CELERITY)

    @pytest.mark.parametrize("pulsation, celerity", [(math.inf, CELERITY), (PULSATION, math.inf),
                                                     (math.nan, CELERITY)])
    def test_array_scene_wave_must_be_finite(self, pulsation, celerity):
        # an infinite pulsation made NaN steering vectors, and an infinite
        # celerity a zero wavenumber, which steers every direction alike
        with pytest.raises(ValueError, match="pulsation and celerity must be positive and finite"):
            ArrayScene(b=np.zeros((2, 3)), delta=np.zeros((1, 3)), pulsation=pulsation,
                       celerity=celerity)

    @pytest.mark.parametrize("pulsation, celerity, wave", [
        (1e-300, 1e300, "inf and 0.0"),  # one steering column for every direction
        (1e300, 1e-300, "0.0 and inf"),  # NaN steering entries
    ])
    def test_array_scene_wave_must_stay_in_the_doubles(self, pulsation, celerity, wave):
        with pytest.raises(ValueError, match="pulsation and celerity must give a positive, "
                                             f"finite wavelength and wavenumber, got {wave}$"):
            ArrayScene(b=np.zeros((2, 3)), delta=np.zeros((1, 3)), pulsation=pulsation,
                       celerity=celerity)

    @pytest.mark.parametrize("directions, signals, message", [
        (np.ones((1, 2)), np.ones((4, 1)), r"directions must be \(r, 3\)"),
        (np.zeros((0, 3)), np.ones((4, 0)), r"directions must be \(r, 3\)"),
        (np.eye(3)[:2], np.ones((4, 3)), r"signals must be \(n3, r\), one column per path"),
    ])
    def test_path_set(self, directions, signals, message):
        with pytest.raises(ValueError, match=message):
            PathSet(directions=directions, signals=signals)

    def test_path_set_counts_paths(self):
        assert PathSet(directions=np.eye(3)[:2], signals=np.ones((4, 2))).r == 2

    def test_zero_signal(self):
        paths = PathSet(directions=np.eye(3)[:2], signals=np.array([[1.0, 0.0]] * 4))
        with pytest.raises(ValueError, match="every path needs a nonzero signal"):
            simulate_array(cross_scene(), paths)

    def test_resolvent_wavelength(self):
        with pytest.raises(ValueError, match="wavelength must be positive"):
            is_resolvent(np.zeros((2, 3)), [0.1, 0.0, 0.0], 0.0)

    LINE = np.array([[0.1 * i, 0.0, 0.0] for i in range(4)])

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("check", [
        lambda pts, w: is_resolvent(pts, [0.1, 0.0, 0.0], w),
        resolvent_directions,
        has_resolvent_triad,
    ], ids=["is_resolvent", "resolvent_directions", "has_resolvent_triad"])
    def test_resolvent_wavelength_must_be_finite(self, check, wavelength):
        # NaN read as not resolvent, inf as resolvent, -1 as no directions
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            check(self.LINE, wavelength)

    @pytest.mark.parametrize("points, message", [
        (np.full((4, 3), np.nan), "points must be finite"),
        (np.zeros((3, 2)), r"points must be an \(n, 3\) array of positions"),
    ])
    @pytest.mark.parametrize("check", [resolvent_directions, has_resolvent_triad])
    def test_resolvent_points_must_be_finite_3d(self, check, points, message):
        with pytest.raises(ValueError, match=message):
            check(points, 1.0)

    @pytest.mark.parametrize("v", [[0.1, 0.0], [0.1, math.nan, 0.0], [[0.1, 0.0, 0.0]]])
    def test_resolvent_v_must_be_a_finite_3_vector(self, v):
        with pytest.raises(ValueError, match="v must be a finite 3-vector"):
            is_resolvent(self.LINE, v, 1.0)

    def test_fewer_than_three_resolvent_directions(self):
        # one pair gives the directions v and -v only
        assert not has_resolvent_triad(np.array([[0.0, 0, 0], [0.1, 0, 0]]), WAVELENGTH)

    @pytest.mark.parametrize("alpha, beta, message", [
        (math.nan, 0.2, "orientation angle alpha must be finite"),
        (0.3, math.pi / 4, r"ellipticity beta must lie in \(-pi/4, 0\) or \(0, pi/4\)"),
        (0.3, -1.0, r"ellipticity beta must lie in"),
    ])
    def test_polarization_gain(self, alpha, beta, message):
        with pytest.raises(ValueError, match=message):
            polarization_gain(alpha, beta)

    @pytest.mark.parametrize("gains, symbols, codes, message", [
        (np.ones(2), np.ones((3, 2)), np.ones((4, 2)), "must be matrices"),
        (np.ones((2, 2)), np.ones((3, 1)), np.ones((4, 2)), "need one column per user"),
    ])
    def test_cdma_scene(self, gains, symbols, codes, message):
        with pytest.raises(ValueError, match=message):
            CdmaScene(gains=gains, symbols=symbols, codes=codes)

    def test_effective_codes_columns(self):
        with pytest.raises(ValueError, match="spreading and impulse need one column per user"):
            effective_codes(np.ones((4, 2)), np.ones((2, 3)))

    def test_cdma_silent_user(self):
        scene = CdmaScene(gains=np.array([[1.0, 0.0], [1.0, 0.0]]),
                          symbols=np.ones((3, 2)), codes=np.ones((4, 2)))
        with pytest.raises(ValueError, match="every user needs nonzero gains"):
            simulate_cdma(scene)

    @pytest.mark.parametrize("x, y, z, message", [
        (np.ones(2), np.ones((3, 1)), np.ones((2, 1)), "concentrations must be a matrix"),
        (np.ones((2, 2)), np.ones((3, 1)), np.ones((2, 2)),
         "need one column per substance in every mode"),
        (np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones((3, 2)), np.ones((2, 2)),
         "every substance needs nonzero columns in all modes"),
    ])
    def test_fluorescence(self, x, y, z, message):
        with pytest.raises(ValueError, match=message):
            simulate_fluorescence(x, y, z)


def _tied_estimates(monkeypatch, grid, magnitudes, columns=1, resolution=1.0):
    """doa_estimate with the direction grid and its scores given, on one
    sensor at the origin.  Each grid point is a cell of its own, with no
    slack, whose centre steering entry of magnitude a scores exactly a, as
    the point itself does; every steering entry of the ascent is 1, so the
    local ascent never moves."""
    scene = ArrayScene(b=np.zeros((1, 3)), delta=np.zeros((1, 3)), pulsation=PULSATION,
                       celerity=CELERITY)
    mags = np.asarray(magnitudes, dtype=float)
    cells = (np.arange(mags.size, dtype=np.int32), mags.astype(complex)[None, :],
             np.zeros(mags.size))
    monkeypatch.setattr(simulate, "_doa_grid", lambda *_: cells)
    monkeypatch.setattr(simulate, "_grid_scores", lambda scene, count, idx, cols:
                        np.repeat(mags[idx, None], cols.shape[1], axis=1))
    monkeypatch.setattr(simulate, "_sphere_points",
                        lambda count, i: np.asarray(grid, dtype=float)[i])
    return doa_estimate(np.ones((1, columns)), scene, grid_resolution_deg=resolution)


class TestBoundaries:
    """The predicates and defaults of the simulators, at their boundaries."""

    def test_is_resolvent_norm_bounds(self):
        pts = np.array([[0.0, 0, 0], [0.4, 0, 0]])
        assert not is_resolvent(pts, [0.0, 0, 0], 1.0)  # every b_k - b_k is 0
        assert is_resolvent(pts, [0.4, 0, 0], 1.0)  # above wavelength / 3

    def test_is_resolvent_matches_a_difference_at_position_tol(self):
        # b_2 - b_1 - v is (0, -POSITION_TOL, 0) exactly
        pts = np.array([[0.0, 0, 0], [0.25, 0, 0]])
        assert is_resolvent(pts, [0.25, simulate.POSITION_TOL, 0], 1.0)

    def test_resolvent_directions_bounds_are_strict(self):
        # the differences of length POSITION_TOL and wavelength / 2 are out
        tol = simulate.POSITION_TOL
        pts = np.array([[0.0, 0, 0], [tol, 0, 0], [0.5, 0, 0]])
        dirs = resolvent_directions(pts, 1.0)
        assert np.array_equal(dirs[np.argsort(dirs[:, 0])],
                              [[-(0.5 - tol), 0, 0], [0.5 - tol, 0, 0]])

    def test_three_independent_resolvent_directions_are_a_triad(self, monkeypatch):
        # points give their differences in +- pairs, so exactly three come
        # only from a stand-in
        monkeypatch.setattr(simulate, "resolvent_directions", lambda *_: 0.1 * np.eye(3))
        assert has_resolvent_triad(np.zeros((1, 3)), 1.0)

    @pytest.mark.parametrize("beta", [-math.pi / 4, math.pi / 4])
    def test_ellipticity_bounds_are_strict(self, beta):
        with pytest.raises(ValueError, match="ellipticity beta must lie in"):
            polarization_gain(0.3, beta)

    def test_noise_std_one_adds_noise(self):
        tensor, truth = simulate_cdma(CdmaScene(gains=np.eye(2), symbols=np.eye(2),
                                                codes=np.eye(2)), 1.0)
        assert not np.array_equal(tensor, cp_evaluate(truth))

    def test_defaults_are_no_noise_and_seed_zero(self):
        scene = cross_scene()
        paths = PathSet(directions=np.eye(3)[:2], signals=np.ones((4, 2)))
        tensor, truth = simulate_array(scene, paths)
        assert np.array_equal(tensor, cp_evaluate(truth))
        assert np.array_equal(simulate_array(scene, paths, 0.5)[0],
                              simulate_array(scene, paths, 0.5, seed=0)[0])
        x = np.array([[1.0, 0.2], [0.3, 1.0]])
        assert np.array_equal(simulate_fluorescence(x, x, x, 0.5)[0],
                              simulate_fluorescence(x, x, x, 0.5, seed=0)[0])

    def test_doa_default_resolution_is_one_degree(self):
        scene = cross_scene()
        u, _ = steering_vectors(scene, unit([0.3, 0.5, 0.9])[None, :])
        assert estimate_bytes(doa_estimate(u, scene)[0]) \
            == estimate_bytes(doa_estimate(u, scene, grid_resolution_deg=1.0)[0])

    def test_grid_of_exactly_the_cap_is_allowed(self, monkeypatch):
        s = math.radians(1.0)
        points = 4.0 * math.pi / (s * s)
        monkeypatch.setattr(simulate, "DOA_GRID_CAP", points)
        assert simulate._grid_size_for_resolution(1.0) == math.ceil(points)

    @pytest.mark.parametrize("b, delta, message", [
        (np.zeros((0, 3)), np.zeros((1, 3)), r"b must be an \(n1, 3\) array"),
        (np.zeros((1, 3)), np.zeros((0, 3)), r"delta must be an \(n2, 3\) array")])
    def test_array_scene_needs_a_sensor_and_a_translation(self, b, delta, message):
        with pytest.raises(ValueError, match=message):
            ArrayScene(b=b, delta=delta, pulsation=PULSATION, celerity=CELERITY)

    def test_first_translation_at_position_tol_is_zero(self):
        delta = [[simulate.POSITION_TOL, 0.0, 0.0]]
        scene = ArrayScene(b=np.zeros((1, 3)), delta=delta, pulsation=PULSATION,
                           celerity=CELERITY)
        assert scene.delta[0, 0] == simulate.POSITION_TOL

    def test_zero_celerity_named(self):
        with pytest.raises(ValueError, match="pulsation and celerity must be positive and finite"):
            ArrayScene(b=np.zeros((1, 3)), delta=np.zeros((1, 3)), pulsation=PULSATION,
                       celerity=0.0)

    # one of wavelength and wavenumber leaves the doubles, the other stays in
    @pytest.mark.parametrize("pulsation, celerity, wave", [
        (1e-8, 1e300, "inf and 1e-308"), (1e300, 1e-10, "6.28318530717956e-310 and inf")])
    def test_either_wave_quantity_out_of_the_doubles(self, pulsation, celerity, wave):
        with pytest.raises(ValueError, match=f"wavelength and wavenumber, got {wave}$"):
            ArrayScene(b=np.zeros((1, 3)), delta=np.zeros((1, 3)), pulsation=pulsation,
                       celerity=celerity)

    def test_wavenumber_below_one(self):
        scene = ArrayScene(b=np.zeros((1, 3)), delta=np.zeros((1, 3)),
                           pulsation=0.5 * CELERITY, celerity=CELERITY)
        assert scene.wavenumber == 0.5

    def test_near_tie_at_exactly_the_tolerance_is_a_rival(self, monkeypatch):
        grid = [[1.0, 0, 0], [-1.0, 0, 0]]
        tie = 1.0 - simulate.AMBIGUITY_TOL
        assert _tied_estimates(monkeypatch, grid, [1.0, tie])[0].ambiguous
        below = math.nextafter(tie, 0.0)
        assert not _tied_estimates(monkeypatch, grid, [1.0, below])[0].ambiguous
        # as a cell in a later block of centre scores, whose centre score
        # (plus no slack) is exactly the floor
        monkeypatch.setattr(simulate, "DOA_BLOCK", 2)
        grid = [[0, 0, 1.0], [1.0, 0, 0], [-1.0, 0, 0], [0, 0, -1.0]]
        assert _tied_estimates(monkeypatch, grid, [0.5, 1.0, tie, 0.5])[0].ambiguous

    @pytest.mark.parametrize("c, ambiguous", [(0.5, False), (0.5 - 1e-9, True)])
    def test_rival_lies_beyond_the_separation(self, monkeypatch, c, ambiguous):
        # at 20 degrees the separation 3 * radians(20) is arccos(0.5) exactly
        grid = [[1.0, 0, 0], [c, math.sqrt(1.0 - c * c), 0]]
        assert _tied_estimates(monkeypatch, grid, [1.0, 1.0], resolution=20.0)[0].ambiguous \
            is ambiguous

    def test_antipodal_rival_past_minus_one_by_rounding(self, monkeypatch):
        # the dot product -1 - 2^-52 is clipped to -1, an angle of pi
        grid = [[1.0, 0, 0], [math.nextafter(-1.0, -2.0), 0, 0]]
        assert _tied_estimates(monkeypatch, grid, [1.0, 1.0])[0].ambiguous

    def test_exact_tie_in_a_later_block_keeps_the_lower_index(self, monkeypatch):
        # blocks (0, 2) and (2, 4): the maximum 1.0 at index 1, then again at 3
        monkeypatch.setattr(simulate, "DOA_BLOCK", 2)
        grid = [[0, 0, 1.0], [1.0, 0, 0], [0, 0, -1.0], [-1.0, 0, 0]]
        [est] = _tied_estimates(monkeypatch, grid, [0.5, 1.0, 0.5, 1.0])
        assert est.direction.tolist() == grid[1]
        assert [alt.direction.tolist() for alt in est.alternates] == [grid[3]]

    def test_rival_of_a_column_before_the_last(self, monkeypatch):
        ests = _tied_estimates(monkeypatch, [[1.0, 0, 0], [-1.0, 0, 0]], [1.0, 1.0], columns=2)
        assert [len(est.alternates) for est in ests] == [1, 1]
