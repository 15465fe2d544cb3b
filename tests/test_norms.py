import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp import norms
from cohcp.core import (
    alternating_rank1,
    canonicalize,
    cp_evaluate,
    evaluate_terms,
    frobenius,
    inner_product,
    khatri_rao_but,
    multilinear_action,
    rank1_outer,
    random_unit_columns,
    term_correlations,
)
from cohcp.decompose import best_rank1
from cohcp.norms import (
    NormConfig,
    duality_gap_check,
    mat_mult_decomposition,
    mat_mult_tensor,
    nuclear_norm_bounds,
    spectral_norm,
    strassen_decomposition,
)


def alternating_rank1_reference(t, restarts, tol, max_sweeps, rng):
    """``core.alternating_rank1`` as it was before it kept the conjugates:
    every mode update conjugates all d vectors and norms by linalg.norm."""
    vecs = [random_unit_columns(n, restarts, rng) for n in t.shape]
    unfolds = [np.moveaxis(t, k, 0).reshape(n, -1) for k, n in enumerate(t.shape)]
    vals = np.zeros(restarts)
    for _ in range(max_sweeps):
        prev = vals
        for k, x in enumerate(unfolds):
            kr = khatri_rao_but([v.conj() for v in vecs], k)
            c = x if kr is None else x @ kr
            nrm = np.linalg.norm(c, axis=0)
            safe = np.where(nrm > 0, nrm, 1.0)
            vecs[k] = np.where(nrm > 0, c / safe, vecs[k])
            vals = nrm
        if np.max(vals - prev) <= tol * max(1.0, float(np.max(vals))):
            break
    best = int(np.argmax(vals))
    witness = tuple(v[:, best].copy() for v in vecs)
    return float(abs(term_correlations(t, [w[:, None] for w in witness])[0])), witness


def exact_fit_reference(t, r, rng, spectra):
    """``norms._exact_fit`` as it was before ``core.unit_columns``: lstsq
    with its default rcond on a fresh transposed unfolding, norms by
    linalg.norm and a hand-written keep of vanishing columns."""
    dims = t.shape
    d = t.ndim
    tnorm = frobenius(t)
    factors = [norms.random_unit_columns(n, r, rng) for n in dims]
    if norms._rank_floor(spectra, r) > 2.0 * norms.FIT_TOL * max(1.0, tnorm):
        return None
    unfolds = [np.moveaxis(t, k, 0).reshape(dims[k], -1) for k in range(d)]
    for _ in range(norms.FIT_SWEEPS):
        for k in range(d):
            z = norms.khatri_rao_but(factors, k)
            c = np.linalg.lstsq(z, unfolds[k].T, rcond=None)[0].T
            nrm = np.linalg.norm(c, axis=0)
            keep = nrm > 1e-300
            factors[k] = np.where(keep[None, :], c / np.where(keep, nrm, 1.0),
                                  factors[k])
    gram = norms.term_gram(factors)
    b = term_correlations(t, factors)
    lam = np.linalg.lstsq(gram, b, rcond=None)[0]
    resid = frobenius(t - evaluate_terms(lam, factors))
    if resid <= norms.FIT_TOL * max(1.0, tnorm):
        live = np.abs(lam) > 0
        if not np.any(live):
            return None
        model = canonicalize(lam[live], [f[:, live] for f in factors])
        value = float(np.sum(model.weights)) + resid * np.sqrt(t.size)
        return value, model, resid
    return None


def slice_terms_reference(t):
    """``norms._slice_terms`` as it was before memoization: every slice of
    every mode is decomposed afresh."""
    if t.ndim == 1:
        nrm = frobenius(t)
        return [(nrm, [t / nrm])]
    if t.ndim == 2:
        return norms._matrix_terms(t)
    best = None
    for k in range(t.ndim):
        total = 0.0
        terms = []
        for i in range(t.shape[k]):
            sl = np.take(t, i, axis=k)
            for w, vecs in slice_terms_reference(sl):
                e = np.zeros(t.shape[k], dtype=np.complex128)
                e[i] = 1.0
                terms.append((w, vecs[:k] + [e] + vecs[k:]))
                total += w
        if best is None or total < best[0]:
            best = (total, terms)
    return best[1]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 4, 6])
def test_term_correlations_agree_with_einsum(d, r):
    # the Khatri-Rao matmul sums in another order than einsum; |b_p| <= ||T||_F
    # for unit columns, so a few ulps of ||T||_F (relative to the largest
    # |b_p| would fail on cancellation in small b_p)
    rng = np.random.default_rng(10 * d + r)
    dims = (5, 3, 4, 2, 3)[:d]
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    factors = [random_unit_columns(n, r, rng) for n in dims]
    modes = "abcde"[:d]
    spec = modes + "," + ",".join(m + "r" for m in modes) + "->r"
    want = np.einsum(spec, t, *[f.conj() for f in factors], optimize=True)
    got = term_correlations(t, factors)
    assert got.shape == want.shape == (r,)
    assert np.max(np.abs(got - want)) <= 1e-15 * frobenius(t)


class TestTermCorrelationsRejectsMalformed:
    def test_no_modes(self):
        with pytest.raises(ValueError, match="need at least one mode"):
            term_correlations(np.ones(()), [])

    def test_column_counts_differ(self):
        # a one-column factor must not broadcast over the other factor's columns
        with pytest.raises(ValueError, match=r"column counts differ: \[1, 2\]"):
            term_correlations(np.ones((2, 3)), [np.ones((2, 1)), np.ones((3, 2))])

    def test_permuted_dims(self):
        # same size, so the unfolding would reshape without error
        with pytest.raises(ValueError, match=r"tensor shape \(3, 2\) does not "
                                             r"match the factor dims \(2, 3\)"):
            term_correlations(np.ones((3, 2)), [np.ones((2, 1)), np.ones((3, 1))])


class TestSpectralNorm:
    def test_diagonal_matrix(self):
        cert = spectral_norm(np.diag([3.0, 1.0]).astype(complex))
        assert abs(cert.spectral - 3.0) < 1e-10

    def test_matmul_tensor(self):
        cert = spectral_norm(mat_mult_tensor(2), restarts=32)
        assert abs(cert.spectral - 1.0) < 1e-6

    def test_matmul_value_and_witness_are_one_to_rounding(self):
        # |<T, w>| for a witness that is unit only to rounding: it reads
        # 1 + 2 eps here, above the spectral norm 1, and one witness vector
        # has norm 1 + eps
        eps = np.finfo(float).eps
        cert = spectral_norm(mat_mult_tensor(2))
        assert abs(cert.spectral - 1.0) <= 4 * eps
        for v in cert.spectral_witness:
            assert abs(np.linalg.norm(v) - 1.0) <= 4 * eps

    def test_weighted_rank1(self):
        rng = np.random.default_rng(0)
        vecs = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 4, 2)]
        t = 5.0 * rank1_outer(vecs)
        cert = spectral_norm(t, restarts=16)
        assert abs(cert.spectral - 5.0) < 1e-8

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        cert = spectral_norm(t, restarts=16)
        again = abs(inner_product(t, rank1_outer(cert.spectral_witness)))
        assert abs(cert.spectral - again) < 1e-10
        for v in cert.spectral_witness:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_vector_witness_keeps_signed_zeros(self):
        # one mode takes the unfolding itself, not x @ ones((1, r)), which
        # would turn -0.0 imaginary parts beside positive real parts to +0.0
        v = np.array([complex(3.0, -0.0), complex(1.0, -0.0), complex(-2.0, 0.0),
                      complex(0.5, -0.0)])
        (w,) = spectral_norm(v).spectral_witness
        assert np.array_equal(np.signbit(w.imag), np.signbit(v.imag))
        assert np.array_equal(w, v / np.linalg.norm(v))

    def test_matches_svd_on_matrices(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m, n = rng.integers(2, 7, size=2)
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            cert = spectral_norm(a, restarts=24)
            top = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(cert.spectral - top) < 1e-8 * max(1.0, top)

    def test_vector_input(self):
        v = np.array([3.0, 4.0j, 0.0])
        cert = spectral_norm(v)
        assert abs(cert.spectral - 5.0) < 1e-12
        assert np.allclose(cert.spectral_witness[0], v / 5.0, atol=1e-15)
        weight, factors = best_rank1(v)
        assert abs(weight - 5.0) < 1e-12
        assert np.allclose(factors[0], v / 5.0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(5,), (4, 6), (3, 4, 5), (2, 3, 4, 3)])
    def test_alternating_rank1_sweep_matches_einsum(self, shape):
        # one sweep from the kernel's seeded starts, each mode update
        # contracted by einsum instead of the Khatri-Rao MTTKRP
        restarts = 6
        rng = np.random.default_rng(7)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        value, witness = alternating_rank1(t, restarts, 0.0, 1,
                                           np.random.default_rng(8))
        starts = np.random.default_rng(8)
        vecs = [random_unit_columns(n, restarts, starts) for n in shape]
        letters = "abcd"[:len(shape)]
        for k in range(len(shape)):
            others = [vecs[j].conj() for j in range(len(shape)) if j != k]
            spec = ",".join([letters] + [letters[j] + "r" for j in range(len(shape))
                                         if j != k]) + "->" + letters[k] + "r"
            c = (np.einsum(spec, t, *others) if others
                 else np.repeat(t[:, None], restarts, axis=1))
            vals = np.linalg.norm(c, axis=0)
            vecs[k] = c / vals
        best = int(np.argmax(vals))
        assert abs(value - vals[best]) <= 1e-13 * vals[best]
        for got, v in zip(witness, vecs):
            assert np.allclose(got, v[:, best], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        t = np.ones((3, 3, 3), dtype=complex)
        t[0, 1, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite entry at index \(0, 1, 2\)"):
            spectral_norm(t)

    @pytest.mark.parametrize("restarts", [1, 16, 64])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_alternating_rank1_matches_reference_bytewise(self, n, restarts):
        rng = np.random.default_rng(100 * n + restarts)
        tensors = [rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3),
                   np.zeros((n,) * 3, dtype=complex)]
        for t in tensors:
            for tol, sweeps in ((1e-13, 500), (0.0, 3)):
                got = alternating_rank1(t, restarts, tol, sweeps,
                                        np.random.default_rng(restarts))
                want = alternating_rank1_reference(t, restarts, tol, sweeps,
                                                   np.random.default_rng(restarts))
                assert got[0] == want[0]
                assert [w.tobytes() for w in got[1]] == [w.tobytes() for w in want[1]]

    def test_zero_tensor(self):
        cert = spectral_norm(np.zeros((2, 2, 2)))
        assert cert.spectral == 0.0
        assert cert.spectral_witness is None

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        t = np.ones((2, 3, 2), dtype=complex)
        for call in (lambda: spectral_norm(t, restarts=restarts),
                     lambda: best_rank1(t, restarts=restarts),
                     lambda: nuclear_norm_bounds(t, NormConfig(restarts=restarts))):
            with pytest.raises(ValueError, match=f"restarts must be >= 1, got {restarts}"):
                call()

    def test_never_exceeds_frobenius(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
            cert = spectral_norm(t, restarts=8)
            assert cert.spectral <= frobenius(t) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        qs = [np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3)]
        s0 = spectral_norm(t, restarts=32).spectral
        s1 = spectral_norm(multilinear_action(qs, t), restarts=32).spectral
        assert abs(s0 - s1) < 1e-8 * max(1.0, s0)


class TestNormProperties:
    @settings(deadline=None, max_examples=40)
    @given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_sandwich_and_witness(self, dims, seed):
        # spectral <= Frobenius <= nuclear upper, lower <= upper, and the
        # spectral witness is unit and reproduces the spectral value
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        cert = nuclear_norm_bounds(t)
        tn = frobenius(t)
        assert cert.spectral <= tn * (1 + 1e-12)
        assert tn <= cert.nuclear_upper * (1 + 1e-12)
        assert cert.nuclear_lower <= cert.nuclear_upper
        again = abs(inner_product(t, rank1_outer(cert.spectral_witness)))
        assert abs(again - cert.spectral) <= 1e-12 * cert.spectral
        for v in cert.spectral_witness:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
def test_norm_config_rejects_bad_tol(bad):
    # a NaN tolerance can never certify
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        NormConfig(tol=bad)


class TestNuclearBounds:
    def test_matrix_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            cert = nuclear_norm_bounds(a)
            exact = np.linalg.svd(a, compute_uv=False).sum()
            assert abs(cert.nuclear_lower - exact) < 1e-8
            assert abs(cert.nuclear_upper - exact) < 1e-8
            assert cert.certified

    def test_matmul2_certified_eight(self):
        t2 = mat_mult_tensor(2)
        cfg = NormConfig(search=False,
                         candidates=(mat_mult_decomposition(2),))
        cert = nuclear_norm_bounds(t2, cfg)
        assert cert.nuclear_lower >= 8.0 - 1e-6
        assert cert.nuclear_upper <= 8.0 + 1e-3
        assert cert.certified

    def test_rank1_tensor(self):
        rng = np.random.default_rng(6)
        vecs = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 2, 3)]
        cert = nuclear_norm_bounds(5.0 * rank1_outer(vecs))
        assert abs(cert.nuclear_lower - 5.0) < 1e-8
        assert abs(cert.nuclear_upper - 5.0) < 1e-6
        assert cert.certified

    def test_vector_nuclear_norm_is_its_length(self):
        # an order-1 tensor is one term: its nuclear norm is its l2 norm,
        # not the l1 norm of its entries
        cert = nuclear_norm_bounds(np.array([3.0, 4.0]))
        assert cert.nuclear_lower == pytest.approx(5.0, rel=1e-12)
        assert cert.nuclear_upper == pytest.approx(5.0, rel=1e-12)
        assert cert.certified
        assert np.allclose(cert.upper_witness.factors[0][:, 0], [0.6, 0.8])

    def test_rank1_multiplicativity(self):
        rng = np.random.default_rng(7)
        vecs = [v * s for v, s in zip(
            (random_unit_columns(n, 1, rng)[:, 0] for n in (2, 3, 2)),
            (1.7, 0.4, 2.5))]
        t = rank1_outer(vecs)
        prod = float(np.prod([np.linalg.norm(v) for v in vecs]))
        cert = nuclear_norm_bounds(t)
        assert abs(cert.nuclear_upper - prod) < 1e-6 * prod
        assert abs(cert.nuclear_lower - prod) < 1e-9 * prod

    def test_sandwich_ordering(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            cert = nuclear_norm_bounds(t, NormConfig(search=False, restarts=24))
            tn = frobenius(t)
            assert cert.nuclear_lower <= cert.nuclear_upper + 1e-12
            assert tn * tn / cert.spectral <= cert.nuclear_lower + 1e-9
            assert cert.spectral <= tn + 1e-10
            assert tn <= cert.nuclear_upper + 1e-9

    def test_upper_witness_is_exact_decomposition(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        cert = nuclear_norm_bounds(t, NormConfig(search=False))
        resid = frobenius(t - cp_evaluate(cert.upper_witness))
        assert resid < 1e-9 * max(1.0, frobenius(t))
        assert abs(float(np.sum(cert.upper_witness.weights)) - cert.nuclear_upper) < 1e-9

    def test_size_cap_refusal(self):
        with pytest.raises(ValueError, match="cap"):
            nuclear_norm_bounds(np.ones((8, 8, 8)), NormConfig(size_cap=256))

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            nuclear_norm_bounds(np.zeros((2, 2)))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        qs = [np.linalg.qr(rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)))[0] for _ in range(3)]
        c0 = nuclear_norm_bounds(t, NormConfig(seed=1))
        c1 = nuclear_norm_bounds(multilinear_action(qs, t), NormConfig(seed=1))
        # certified intervals of a unitarily invariant quantity must overlap
        assert c0.nuclear_lower <= c1.nuclear_upper + 1e-6
        assert c1.nuclear_lower <= c0.nuclear_upper + 1e-6
        assert abs(c0.spectral - c1.spectral) < 1e-8 * max(1.0, c0.spectral)

    # spectral, nuclear_lower, nuclear_upper under the default NormConfig
    GOLDEN = {
        11: (3.825664541166921, 10.482533787767853, 15.82921726997619),
        12: (4.53863107601602, 8.722642632804543, 15.259652458915514),
        13: (4.588371271153004, 12.370306308823082, 19.43831536633889),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_values(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        cert = nuclear_norm_bounds(t)
        got = (cert.spectral, cert.nuclear_lower, cert.nuclear_upper)
        for value, want in zip(got, self.GOLDEN[seed]):
            assert abs(value - want) <= 1e-12 * want
        assert not cert.certified

    def test_closed_bracket_skips_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("search ran on a closed bracket")

        monkeypatch.setattr(norms, "_exact_fit", fail)
        cfg = NormConfig(candidates=(mat_mult_decomposition(2),))
        cert = nuclear_norm_bounds(mat_mult_tensor(2), cfg)
        assert cert.nuclear_upper == 8.0
        assert abs(cert.nuclear_lower - 8.0) <= 1e-12
        assert cert.certified

    def test_closed_bracket_computes_no_spectra(self, monkeypatch):
        # the slice bound of T_2 meets its lower bound 8 before any rank
        def fail(t):
            raise AssertionError("spectra computed for a closed bracket")

        monkeypatch.setattr(norms, "_flattening_spectra", fail)
        cert = nuclear_norm_bounds(mat_mult_tensor(2))
        assert cert.nuclear_upper == 8.0 and cert.certified

    def test_open_bracket_searches_every_rank(self, monkeypatch):
        ranks = []
        fit = norms._exact_fit

        def counting(t, r, rng, spectra):
            ranks.append(r)
            return fit(t, r, rng, spectra)

        monkeypatch.setattr(norms, "_exact_fit", counting)
        rng = np.random.default_rng(14)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        cert = nuclear_norm_bounds(t)
        assert ranks == list(range(1, 9))
        assert cert.nuclear_upper - cert.nuclear_lower > 1e-3

    def test_candidate_below_slice_bound_is_the_witness(self):
        # a rank-1 term off the basis: each slicing sums the l1 norm of a
        # unit vector, above its weight 1
        rng = np.random.default_rng(15)
        cand = canonicalize(np.ones(1), [random_unit_columns(3, 1, rng) for _ in range(3)])
        cfg = NormConfig(search=False, candidates=(cand,))
        cert = nuclear_norm_bounds(cp_evaluate(cand), cfg)
        slice_only = nuclear_norm_bounds(cp_evaluate(cand), NormConfig(search=False))
        assert slice_only.nuclear_upper > 1.2
        assert cert.upper_witness is cand
        assert cert.nuclear_upper == pytest.approx(1.0, abs=1e-12)
        assert cert.certified

    def test_spectral_underestimate_is_not_certified(self, monkeypatch):
        # a spectral estimate below the true norm raises the lower bound
        # ||T||_F^2 / sigma above the upper one, which must not certify
        real = norms.alternating_rank1

        def halved(*args):
            value, witness = real(*args)
            return value / 2, witness

        monkeypatch.setattr(norms, "alternating_rank1", halved)
        cert = nuclear_norm_bounds(mat_mult_tensor(2), NormConfig(search=False))
        assert cert.nuclear_lower == pytest.approx(16.0)
        assert cert.nuclear_upper == pytest.approx(8.0)
        assert cert.certified is False

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        t = np.ones((3, 3, 3), dtype=complex)
        t[1, 2, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite entry at index \(1, 2, 0\)"):
            nuclear_norm_bounds(t)
        with pytest.raises(ValueError, match="non-finite"):
            duality_gap_check(np.ones((3, 3, 3)), t)


def _random_tensor(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def _planted(rng, dims, r):
    """A tensor of rank at most r with complex Gaussian factors."""
    factors = [_random_tensor(rng, (n, r)) for n in dims]
    return evaluate_terms(rng.standard_normal(r) + 0j, factors)


GATE_CASES = {
    **{f"golden{seed}": (lambda seed=seed: _random_tensor(np.random.default_rng(seed),
                                                           (3, 3, 3)))
       for seed in (11, 12, 13)},
    **{f"planted_r{r}": (lambda r=r: _planted(np.random.default_rng(20 + r), (3, 3, 3), r))
       for r in (1, 2, 3, 4)},
    "2x2x2": lambda: _random_tensor(np.random.default_rng(15), (2, 2, 2)),
    "2x2x2x2": lambda: _random_tensor(np.random.default_rng(16), (2, 2, 2, 2)),
    "matmul2": lambda: mat_mult_tensor(2),
}


class TestRankFloor:
    """``_rank_floor`` bounds the distance to rank r from below, and the gate
    it drives in ``_exact_fit`` skips only fits that could not certify."""

    @settings(deadline=None, max_examples=80)
    @given(dims=st.lists(st.integers(2, 4), min_size=3, max_size=4),
           r=st.integers(1, 4), scale=st.sampled_from([10.0, 1.0, 1e-3, 1e-7]),
           seed=st.integers(0, 2**32 - 1))
    def test_floor_below_distance_to_rank_r(self, dims, r, scale, seed):
        rng = np.random.default_rng(seed)
        near = _planted(rng, dims, r)
        t = near + scale * _random_tensor(rng, dims)
        assert (norms._rank_floor(norms._flattening_spectra(t), r)
                <= frobenius(t - near) + 1e-14 * frobenius(t))

    @pytest.mark.parametrize("d", [3, 4])
    def test_planted_rank_not_gated(self, d):
        # a tensor of rank r sits at rounding distance from rank r
        rng = np.random.default_rng(30 + d)
        for _ in range(60):
            dims = tuple(int(n) for n in rng.integers(2, 5, size=d))
            r = int(rng.integers(1, 5))
            t = _planted(rng, dims, r)
            assert (norms._rank_floor(norms._flattening_spectra(t), r)
                    <= 16 * np.finfo(float).eps * frobenius(t))

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    def test_gate_leaves_results_unchanged(self, monkeypatch, case):
        t = GATE_CASES[case]()
        gated = nuclear_norm_bounds(t)
        monkeypatch.setattr(norms, "_rank_floor", lambda spectra, r: 0.0)
        ungated = nuclear_norm_bounds(t)
        for name in ("spectral", "nuclear_lower", "nuclear_upper", "certified"):
            assert getattr(gated, name) == getattr(ungated, name), name
        for a, b in zip(gated.spectral_witness, ungated.spectral_witness, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(gated.upper_witness.weights, ungated.upper_witness.weights)
        for a, b in zip(gated.upper_witness.factors, ungated.upper_witness.factors,
                        strict=True):
            assert np.array_equal(a, b)

    def test_spectra_computed_once_per_tensor(self, monkeypatch):
        # the search asks for the floor at each of its 8 ranks
        calls, floors = [], []
        spectra, floor = norms._flattening_spectra, norms._rank_floor
        monkeypatch.setattr(norms, "_flattening_spectra",
                            lambda t: calls.append(1) or spectra(t))
        monkeypatch.setattr(norms, "_rank_floor",
                            lambda s, r: floors.append(r) or floor(s, r))
        nuclear_norm_bounds(_random_tensor(np.random.default_rng(18), (3, 3, 3)))
        assert (len(calls), floors) == (1, list(range(1, 9)))

    def test_no_module_level_cache(self):
        assert not [name for name, obj in vars(norms).items() if hasattr(obj, "cache_info")]

    def test_gate_skips_ranks_below_border_rank_5(self, monkeypatch):
        # Eckart-Young gates r = 1, 2 and the Koszul flattening r = 3, 4 on a
        # random 3x3x3 tensor; r = 5..8 run all their sweeps (ranks are tried
        # in increasing order, so the largest key is the fit in progress)
        sweeps = {}
        fit, kr = norms._exact_fit, norms.khatri_rao_but

        def fit_spy(t, r, rng, spectra):
            sweeps[r] = 0
            return fit(t, r, rng, spectra)

        def kr_spy(factors, k):
            sweeps[max(sweeps)] += 1
            return kr(factors, k)

        monkeypatch.setattr(norms, "_exact_fit", fit_spy)
        monkeypatch.setattr(norms, "khatri_rao_but", kr_spy)
        nuclear_norm_bounds(_random_tensor(np.random.default_rng(17), (3, 3, 3)))
        assert sweeps == {r: 0 if r <= 4 else 3 * norms.FIT_SWEEPS for r in range(1, 9)}


def _fit_bytes(fit):
    if fit is None:
        return None
    value, model, resid = fit
    return (value.hex(), resid.hex(), model.weights.tobytes(),
            [f.tobytes() for f in model.factors])


class TestExactFitMatchesReference:
    """``_exact_fit`` gives the bytes of its previous loop: the post-sweep
    factors (read where ``term_gram`` receives them) and the result."""

    def _run(self, monkeypatch, fit, t, r):
        swept = []
        gram = norms.term_gram

        def gram_spy(factors):
            swept.extend(f.tobytes() for f in factors)
            return gram(factors)

        monkeypatch.setattr(norms, "term_gram", gram_spy)
        got = fit(t, r, np.random.default_rng(100 + r), norms._flattening_spectra(t))
        monkeypatch.setattr(norms, "term_gram", gram)
        return _fit_bytes(got), swept

    @pytest.mark.parametrize("r", range(1, 9))
    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4)])
    def test_bytewise(self, monkeypatch, dims, r):
        rng = np.random.default_rng(sum(dims) + r)
        for t in (_random_tensor(rng, dims), _planted(rng, dims, min(r, 4))):
            got = self._run(monkeypatch, norms._exact_fit, t, r)
            want = self._run(monkeypatch, exact_fit_reference, t, r)
            assert got == want

    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4)])
    def test_sweeps_pass_lstsq_its_default_rcond(self, monkeypatch, dims):
        # lstsq(rcond=None) takes eps * max(rows, cols) of its matrix
        lstsq, seen = np.linalg.lstsq, []

        def spy(a, b, rcond=None):
            seen.append(rcond == np.finfo(a.dtype).eps * max(a.shape))
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        t = _random_tensor(np.random.default_rng(42), dims)
        norms._exact_fit(t, 6, np.random.default_rng(6), norms._flattening_spectra(t))
        assert seen[:-1] == [True] * 3 * norms.FIT_SWEEPS

    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4)])
    def test_zero_start_column_keeps_bytes(self, monkeypatch, dims):
        # a zero start column in the last mode zeroes that column of the
        # Khatri-Rao product of modes 0 and 1, whose first updates then keep
        # their previous column
        draw = norms.random_unit_columns
        unit = norms.unit_columns
        calls, kept = [], []

        def zero_last(n, r, rng):
            m = draw(n, r, rng)
            calls.append(n)
            if len(calls) % len(dims) == 0:
                m[:, 0] = 0.0
            return m

        def unit_spy(c, keep, floor=0.0):
            u, nrm = unit(c, keep, floor)
            kept.append(int(np.sum(nrm <= floor)))
            return u, nrm

        monkeypatch.setattr(norms, "random_unit_columns", zero_last)
        monkeypatch.setattr(norms, "unit_columns", unit_spy)
        t = _random_tensor(np.random.default_rng(40), dims)
        for r in (5, 6):
            got = self._run(monkeypatch, norms._exact_fit, t, r)
            want = self._run(monkeypatch, exact_fit_reference, t, r)
            assert got == want
            assert got[1]  # the sweeps ran
        assert kept.count(1) >= 4


class TestSliceTerms:
    @pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (2, 3, 2, 2),
                                      (2, 2, 2, 2, 2), (4,), (3, 2)])
    def test_matches_reference_bytewise(self, dims):
        rng = np.random.default_rng(len(dims) * 10 + sum(dims))
        for t in (_random_tensor(rng, dims), _planted(rng, dims, 1),
                  rng.standard_normal(dims) + 0j):
            got = norms._slice_terms(t)
            want = slice_terms_reference(t)
            assert [w.hex() for w, _ in got] == [w.hex() for w, _ in want]
            assert ([[v.tobytes() for v in vecs] for _, vecs in got]
                    == [[v.tobytes() for v in vecs] for _, vecs in want])

    def test_each_sub_tensor_decomposed_once(self, monkeypatch):
        # 3^8 = 6,561 tuples of fixed indices; without the memo a 2^8 tensor
        # made 8!/2 * 2^6 = 1,290,240 matrix decompositions
        calls = []
        matrix_terms = norms._matrix_terms

        def spy(m):
            calls.append(m.shape)
            return matrix_terms(m)

        monkeypatch.setattr(norms, "_matrix_terms", spy)
        t = _random_tensor(np.random.default_rng(41), (2,) * 8)
        cert = nuclear_norm_bounds(t, NormConfig(search=False))
        assert len(calls) <= 3 ** 8
        assert cert.nuclear_lower <= cert.nuclear_upper


class TestCandidates:
    def test_candidate_dims_must_match(self):
        # u (x) e1 (x) e2 has nuclear norm 1; a 1x3x3 candidate of weight
        # 1/sqrt(3) broadcasts to a zero residual against it
        u = np.ones(3) / np.sqrt(3)
        e = np.eye(3)
        t = rank1_outer([u, e[0], e[1]])
        cand = canonicalize(np.ones(1) / np.sqrt(3),
                            [np.ones((1, 1)), e[:, :1], e[:, 1:2]])
        with pytest.raises(ValueError, match=r"candidate 0 has dims \(1, 3, 3\), "
                                             r"tensor has \(3, 3, 3\)"):
            nuclear_norm_bounds(t, NormConfig(candidates=(cand,)))

    def test_refused_before_any_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit ran")

        monkeypatch.setattr(norms, "alternating_rank1", no_fit)
        monkeypatch.setattr(norms, "_exact_fit", no_fit)
        good = canonicalize(np.ones(1), [np.eye(3)[:, :1]] * 3)
        bad = canonicalize(np.ones(1), [np.eye(2)[:, :1]] * 3)
        with pytest.raises(ValueError, match=r"candidate 1 has dims \(2, 2, 2\)"):
            nuclear_norm_bounds(np.ones((3, 3, 3)), NormConfig(candidates=(good, bad)))


E0 = np.array([1.0, 0.0], dtype=np.complex128)


def _step(x: float, step: int) -> float:
    """x, or its representable neighbour below (step -1) or above (step 1)."""
    return x if step == 0 else math.nextafter(x, step * math.inf)


def _unit_entry_term(weight: float):
    return canonicalize(np.array([weight]), [E0[:, None]] * 3)


class TestBracketBoundaries:
    """Each comparison of the nuclear bracket at its boundary and one
    representable step either side.  Patched spectral estimates and slice
    bounds put lower and upper on chosen doubles; below 1 the tie width and
    the residual allowance are TIE_RTOL and FIT_TOL themselves, and
    2^-31 + 1e-9 is exact, so each boundary is met with equality."""

    TINY = 2.0 ** -31

    def _bounds(self, monkeypatch, sigma, upper, **cfg):
        """Bounds of 2^-32 e0 (x) e0 (x) e0 (norm below sigma, so sigma is the
        lower bound) with the slice bound ``upper``."""
        monkeypatch.setattr(norms, "alternating_rank1", lambda *args: (sigma, (E0,) * 3))
        monkeypatch.setattr(norms, "_slice_terms", lambda t: [(upper, [E0] * 3)])
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 2.0 ** -32
        return nuclear_norm_bounds(t, NormConfig(**cfg))

    @pytest.mark.parametrize("step, tie", [(-1, True), (0, True), (1, False)])
    def test_tie_collapse(self, monkeypatch, step, tie):
        at = self.TINY + norms.TIE_RTOL
        assert at - self.TINY == norms.TIE_RTOL * max(1.0, self.TINY)
        cert = self._bounds(monkeypatch, _step(at, step), self.TINY, search=False)
        assert (cert.nuclear_lower == self.TINY) is tie
        assert cert.certified is tie

    @pytest.mark.parametrize("step, searched", [(-1, False), (0, False), (1, True)])
    def test_search_stops_on_a_closed_bracket(self, monkeypatch, step, searched):
        ranks = []

        def fit_spy(t, r, rng, spectra):
            ranks.append(r)

        monkeypatch.setattr(norms, "_exact_fit", fit_spy)
        upper = _step(self.TINY + norms.TIE_RTOL, step)
        self._bounds(monkeypatch, self.TINY, upper)
        assert ranks == ([1, 2, 3, 4] if searched else [])

    @pytest.mark.parametrize("step, replaced", [(-1, True), (0, False), (1, False)])
    def test_fit_must_lower_the_upper_bound(self, monkeypatch, step, replaced):
        model = _unit_entry_term(1.0)
        value = _step(2.0, step)
        monkeypatch.setattr(norms, "_exact_fit",
                            lambda t, r, rng, spectra: (value, model, 0.0) if r == 1 else None)
        cert = self._bounds(monkeypatch, 1.0, 2.0)
        assert (cert.upper_witness is model) is replaced
        assert cert.nuclear_upper == (value if replaced else 2.0)

    @pytest.mark.parametrize("tol, certified", [(0.25, True), (math.nextafter(0.25, 0.0), False)])
    def test_certificate_tolerance(self, monkeypatch, tol, certified):
        cert = self._bounds(monkeypatch, 0.75, 1.0, search=False, tol=tol)
        assert cert.certified is certified

    def test_zero_gap_certified_at_zero_tol(self, monkeypatch):
        cert = self._bounds(monkeypatch, 1.0, 1.0, search=False, tol=0.0)
        assert cert.nuclear_lower == cert.nuclear_upper == 1.0
        assert cert.certified is True

    def test_candidate_tying_the_slice_bound_is_not_the_witness(self):
        cand = mat_mult_decomposition(2)
        cert = nuclear_norm_bounds(mat_mult_tensor(2),
                                   NormConfig(search=False, candidates=(cand,)))
        assert cert.nuclear_upper == 8.0
        assert cert.upper_witness is not cand

    @pytest.mark.parametrize("step, replaced", [(-1, False), (1, True)])
    def test_candidate_beside_the_slice_bound(self, monkeypatch, step, replaced):
        e = np.eye(4, dtype=np.complex128)[0]
        monkeypatch.setattr(norms, "_slice_terms", lambda t: [(_step(8.0, step), [e] * 3)])
        cand = mat_mult_decomposition(2)
        cert = nuclear_norm_bounds(mat_mult_tensor(2),
                                   NormConfig(search=False, candidates=(cand,)))
        assert (cert.upper_witness is cand) is replaced

    @pytest.mark.parametrize("step, accepted", [(-1, True), (0, True), (1, False)])
    def test_candidate_residual(self, monkeypatch, step, accepted):
        # a residual of one entry eps has norm eps exactly, and ||T|| < 1
        cand = _unit_entry_term(0.5)
        t = cp_evaluate(cand)
        t[1, 1, 1] = _step(norms.FIT_TOL, step)
        monkeypatch.setattr(norms, "_slice_terms", lambda t: [(1.0, [E0] * 3)])
        cert = nuclear_norm_bounds(t, NormConfig(search=False, candidates=(cand,)))
        assert (cert.upper_witness is cand) is accepted

    @pytest.mark.parametrize("step, accepted", [(-1, True), (0, True), (1, False)])
    def test_exact_fit_residual(self, monkeypatch, step, accepted):
        t = cp_evaluate(_unit_entry_term(0.5))
        off = np.zeros_like(t)
        off[1, 1, 1] = _step(norms.FIT_TOL, step)
        monkeypatch.setattr(norms, "evaluate_terms", lambda lam, factors: t - off)
        got = norms._exact_fit(t, 1, np.random.default_rng(0), norms._flattening_spectra(t))
        assert (got is not None) is accepted
        if accepted:
            assert got[2] == off[1, 1, 1]

    def test_exact_fit_drops_zero_weights_before_canonicalizing(self, monkeypatch):
        # basis starts fit 0.5 e0 (x) e0 (x) e0 at rank 2 with weights exactly
        # (0.5, 0): the zero term is left out, not counted as dropped
        monkeypatch.setattr(norms, "random_unit_columns",
                            lambda n, r, rng: np.eye(n, r, dtype=np.complex128))
        t = cp_evaluate(_unit_entry_term(0.5))
        value, model, resid = norms._exact_fit(t, 2, None, norms._flattening_spectra(t))
        assert (value, resid) == (0.5, 0.0)
        assert model.weights.tolist() == [0.5]
        assert model.dropped_terms == 0


class TestDuality:
    def test_rank1_equality(self):
        rng = np.random.default_rng(11)
        vecs = [random_unit_columns(n, 1, rng)[:, 0] for n in (2, 2, 2)]
        f = rank1_outer(vecs)
        gap = duality_gap_check(f, f)
        assert abs(gap) < 1e-8

    def test_random_pairs_nonnegative(self):
        rng = np.random.default_rng(12)
        cfg = NormConfig(search=False, restarts=16)
        for _ in range(25):
            f = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            assert duality_gap_check(f, g, cfg) >= -1e-9

    def test_matmul_self_pairing_tight(self):
        t2 = mat_mult_tensor(2)
        cfg = NormConfig(search=False,
                         candidates=(mat_mult_decomposition(2),))
        cert = nuclear_norm_bounds(t2, cfg)
        spec = spectral_norm(t2, restarts=32)
        lhs = abs(inner_product(t2, t2))
        assert abs(lhs - 8.0) < 1e-12
        assert abs(spec.spectral * cert.nuclear_upper - 8.0) < 1e-3


class TestFixtures:
    def test_matmul_sizes(self):
        t1 = mat_mult_tensor(1)
        assert t1.shape == (1, 1, 1) and t1[0, 0, 0] == 1.0
        t2 = mat_mult_tensor(2)
        assert t2.shape == (4, 4, 4)
        assert int(np.abs(t2).sum()) == 8
        for n in (1, 2, 3):
            tn = mat_mult_tensor(n)
            assert abs(frobenius(tn) ** 2 - n ** 3) < 1e-9

    def test_matmul_cap(self):
        with pytest.raises(ValueError, match=r"capped at n <= 4$"):
            mat_mult_tensor(5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_matmul_floor(self, n):
        with pytest.raises(ValueError, match=r"fixture needs a whole n >= 1$"):
            mat_mult_tensor(n)

    def test_standard_decomposition_exact(self):
        for n in (1, 2, 3):
            model = mat_mult_decomposition(n)
            assert model.rank == n ** 3
            assert np.array_equal(cp_evaluate(model), mat_mult_tensor(n))

    def test_strassen_exact_and_rank_bound(self):
        st = strassen_decomposition()
        t2 = mat_mult_tensor(2)
        assert st.rank == 7
        assert frobenius(cp_evaluate(st) - t2) < 1e-12
        # certified nuclear norm 8 exceeds the rank certificate 7:
        # nuclear norm is NOT bounded by rank x spectral norm for d = 3
        cfg = NormConfig(search=False,
                         candidates=(mat_mult_decomposition(2),))
        cert = nuclear_norm_bounds(t2, cfg)
        assert cert.certified
        assert cert.nuclear_lower > 7.0 >= st.rank * cert.spectral - 1e-6
