import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp.coherence import coherence
from cohcp.conditions import coercivity_lower_bound, condition_report, temlyakov_condition
from cohcp.core import (
    NORM_MIN,
    canonicalize,
    cp_evaluate,
    essentially_equal,
    evaluate_terms,
    frobenius,
    gram_mu,
    inner_product,
    rank1_outer,
    random_unit_columns,
    stack_terms,
    term_gram,
)
from cohcp import decompose
from cohcp.decompose import (
    CERTIFIED_MARGIN,
    Dictionary,
    SolverConfig,
    best_rank1,
    constrained_als,
    divergence_witness,
    oga_continuous,
    random_incoherent_dictionary,
    woga,
)
from cohcp.core import khatri_rao_but
from cohcp.norms import spectral_norm


def orthonormal_atoms(rng, dims=(3, 3, 3), count=3):
    qs = [np.linalg.qr(rng.standard_normal((n, count))
                       + 1j * rng.standard_normal((n, count)))[0] for n in dims]
    return [tuple(q[:, i] for q in qs) for i in range(count)]


def planted_combination(dictionary, indices, coeffs):
    stacks = [np.stack([dictionary.atoms[i][k] for i in indices], axis=1)
              for k in range(dictionary.order)]
    return evaluate_terms(coeffs, stacks)


class TestDictionary:
    def test_atoms_normalized(self):
        rng = np.random.default_rng(0)
        raw = [tuple(3.0 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
                     for _ in range(3)) for _ in range(5)]
        d = Dictionary(raw)
        for i in range(5):
            assert abs(frobenius(d.atom_tensor(i)) - 1.0) < 1e-12

    def test_mu_matches_materialized_atoms(self):
        rng = np.random.default_rng(1)
        d = Dictionary([tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(3)) for _ in range(6)])
        direct = 0.0
        for p in range(6):
            for q in range(p + 1, 6):
                ip = inner_product(d.atom_tensor(p), d.atom_tensor(q))
                direct = max(direct, abs(ip))
        assert abs(d.mu - direct) < 1e-12

    def test_correlations_match_direct(self):
        rng = np.random.default_rng(2)
        d = Dictionary([tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(3)) for _ in range(4)])
        f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        got = d.correlations(f)
        for i in range(4):
            assert abs(got[i] - inner_product(f, d.atom_tensor(i))) < 1e-12

    def test_correlations_reject_mismatched_tensor(self):
        rng = np.random.default_rng(4)
        d = Dictionary([tuple(rng.standard_normal(n) for n in (2, 3, 4))
                        for _ in range(3)])
        with pytest.raises(ValueError, match=r"tensor shape \(2, 4, 3\) does not "
                                             r"match the factor dims \(2, 3, 4\)"):
            d.correlations(np.ones((2, 4, 3)))

    def test_incoherent_generator(self):
        d = random_incoherent_dictionary((4, 4, 4), 40, mu_max=0.09, seed=3)
        assert len(d) == 40
        assert 0.0 < d.mu < 0.09

    @pytest.mark.parametrize("bad, atom, mode", [(np.nan, 0, 0), (np.inf, 1, 1)])
    def test_non_finite_atom_rejected(self, bad, atom, mode):
        atoms = [[np.array([1.0, 0.0]), np.array([1.0, 0.0])],
                 [np.array([0.0, 1.0]), np.array([1.0, 1.0])]]
        atoms[atom][mode] = np.array([bad, 1.0])
        with pytest.raises(ValueError,
                           match=rf"atom {atom}, mode {mode}: non-finite entry"):
            Dictionary([tuple(a) for a in atoms])

    @pytest.mark.parametrize("atoms, message", [
        ([(np.ones(2), np.ones(2)), (np.ones(2),)],
         "all atoms must have the same number of modes"),
        ([(np.ones(2), np.zeros(2))], "atom factors must be nonzero vectors"),
        ([(np.ones(2), np.ones((2, 2)))], "atom factors must be nonzero vectors"),
        ([(np.ones(2), np.ones(2)), (np.ones(2), np.ones(3))],
         "all atoms must share the same mode dimensions"),
    ])
    def test_malformed_atoms_rejected(self, atoms, message):
        with pytest.raises(ValueError, match=message):
            Dictionary(atoms)

    def test_generator_refuses_more_atoms_than_index_tuples(self):
        with pytest.raises(ValueError, match=r"cannot place 9 distinct atoms in \(2, 2, 2\)"):
            random_incoherent_dictionary((2, 2, 2), 9)

    @pytest.mark.parametrize("dims, n_atoms, message", [
        # the parent built dims (4, 4, 4) from 4.5, and numpy refused 2.5
        # atoms with a TypeError
        ((4.5, 4, 4), 5, r"^dims must be >= 1, got 4\.5$"),
        ((4, 0, 4), 5, r"^dims must be >= 1, got 0$"),
        ((4, 4, np.nan), 5, r"^dims must be >= 1, got nan$"),
        ((4, 4, 4), 2.5, r"^n_atoms must be >= 1, got 2\.5$"),
        ((4, 4, 4), 0, r"^n_atoms must be >= 1, got 0$"),
        ((4, 4, 4), "5", r"^n_atoms must be >= 1, got '5'$")])
    def test_generator_refuses_a_non_count_by_value(self, dims, n_atoms, message):
        with pytest.raises(ValueError, match=message):
            random_incoherent_dictionary(dims, n_atoms, mu_max=0.5, seed=1)

    def test_generator_takes_whole_floats_as_their_ints(self):
        whole = random_incoherent_dictionary((4.0, 4, 4), 5.0, mu_max=0.5, seed=1)
        ints = random_incoherent_dictionary((4, 4, 4), 5, mu_max=0.5, seed=1)
        assert whole.dims == ints.dims == (4, 4, 4)
        assert [v.tobytes() for a in whole.atoms for v in a] == \
            [v.tobytes() for a in ints.atoms for v in a]

    def test_keeps_one_read_only_copy_of_its_atoms(self):
        # the atoms used to be writeable copies beside the stacks that mu,
        # gram and correlations read, so a write left those describing
        # another dictionary
        rng = np.random.default_rng(35)
        raw = [(np.array([1.0, 0.0]), 2.0 * rng.standard_normal(3),
                rng.standard_normal(4) + 1j * rng.standard_normal(4)),
               (np.array([0.6, 0.8]), rng.standard_normal(3),
                3.0 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)))]
        d = Dictionary(raw)
        unit = [tuple(v / np.linalg.norm(v) for v in map(np.complex128, atom))
                for atom in raw]
        stacks = stack_terms(unit, d.dims)
        assert [v.tobytes() for a in d.atoms for v in a] == \
            [v.tobytes() for a in unit for v in a]
        assert d.gram.tobytes() == term_gram(stacks).tobytes()
        assert d.mu == gram_mu(term_gram(stacks))
        f = rng.standard_normal(d.dims)
        before = (d.mu, d.correlations(f).tobytes(), d.atom_tensor(0).tobytes())
        for i, k in [(0, 0), (1, 2)]:
            with pytest.raises(ValueError, match="read-only"):
                d.atoms[i][k][:] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            d.gram[0, 1] = 0.0
        assert (d.mu, d.correlations(f).tobytes(), d.atom_tensor(0).tobytes()) == before
        assert all(v.flags.writeable for atom in raw for v in atom)

    def test_generator_gives_up_after_its_draws(self):
        with pytest.raises(ValueError, match="could not reach dictionary coherence < 1e-09 "
                                             f"in {decompose.DICTIONARY_DRAWS} draws"):
            random_incoherent_dictionary((2, 2), 3, mu_max=1e-9)


class TestWoga:
    def test_single_atom(self):
        rng = np.random.default_rng(4)
        d = Dictionary([tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(3)) for _ in range(5)])
        f = 2.0 * d.atom_tensor(3)
        res = woga(f, d, t=1.0)
        assert res.selected[0] == 3
        assert res.residuals[1] < 1e-12
        assert res.converged

    def test_orthonormal_dictionary_exact_coefficients(self):
        rng = np.random.default_rng(5)
        d = Dictionary(orthonormal_atoms(rng))
        f = planted_combination(d, [0, 1], np.array([2.0, 1.0]))
        res = woga(f, d, t=1.0)
        assert sorted(res.selected) == [0, 1]
        # descending selection: strongest atom first
        assert res.selected == [0, 1]
        assert np.allclose(sorted(np.abs(res.coefficients))[::-1], [2.0, 1.0],
                           atol=1e-10)
        assert res.residuals[-1] < 1e-10

    def test_temlyakov_exact_recovery_planted(self):
        d = random_incoherent_dictionary((4, 4, 4), 40, mu_max=0.09, seed=6)
        rng = np.random.default_rng(7)
        idx = rng.choice(40, 5, replace=False)
        coeffs = (0.5 + rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        f = planted_combination(d, idx, coeffs)
        assert temlyakov_condition(5, d.mu, 1.0)
        res = woga(f, d, t=1.0, max_iter=5)
        assert sorted(res.selected) == sorted(idx.tolist())
        assert res.residuals[-1] <= 1e-10 * frobenius(f)

    def test_residuals_non_increasing(self):
        rng = np.random.default_rng(8)
        d = Dictionary([tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(3)) for _ in range(12)])
        f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        res = woga(f, d, t=0.8, max_iter=8)
        diffs = np.diff(res.residuals)
        assert np.all(diffs <= 1e-10)

    def test_weak_selection_still_decreases(self):
        rng = np.random.default_rng(9)
        d = Dictionary([tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)
                              for _ in range(3)) for _ in range(10)])
        f = planted_combination(d, [1, 4, 7], np.array([1.0, 0.8, 0.6]))
        res = woga(f, d, t=0.5, max_iter=10)
        assert res.residuals[-1] < res.residuals[0]

    def test_t_domain(self):
        rng = np.random.default_rng(10)
        d = Dictionary([tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)
                              for _ in range(3)) for _ in range(2)])
        with pytest.raises(ValueError):
            woga(np.zeros((2, 2, 2)), d, t=0.0)

    def test_max_iter_below_one_rejected(self):
        # None still means the dictionary size
        d = Dictionary(orthonormal_atoms(np.random.default_rng(3)))
        assert len(woga(np.ones((3, 3, 3)), d, max_iter=None).residuals) == 4
        with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
            woga(np.ones((3, 3, 3)), d, max_iter=0)

    def test_out_of_span_selects_each_atom_once(self):
        # once every residual correlation is at rounding level, woga used to
        # reselect atoms, each time with a larger singular Gram
        d = random_incoherent_dictionary((4, 4, 4), 30, mu_max=0.09, seed=5)
        f = np.random.default_rng(7).standard_normal((4, 4, 4))
        res = woga(f, d, max_iter=200)
        assert sorted(res.selected) == list(range(len(d)))
        assert res.flags == ["residual_orthogonal_to_dictionary"]
        assert not res.converged
        assert len(res.residuals) == len(d) + 1

    def test_residual_orthogonal_to_dictionary_flagged(self):
        # every atom is e_0 in mode 0, and f vanishes on that slice
        rng = np.random.default_rng(11)
        e0, e1 = np.eye(3)[:2]
        d = Dictionary([(e0, rng.standard_normal(3), rng.standard_normal(3))
                        for _ in range(4)])
        f = rank1_outer([e1, np.ones(3), np.ones(3)])
        res = woga(f, d)
        assert res.selected == []
        assert res.flags == ["residual_orthogonal_to_dictionary"]
        assert res.residuals == [frobenius(f)] and not res.converged

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        d = random_incoherent_dictionary((3, 3, 3), 5, mu_max=0.5, seed=1)
        t = np.ones((3, 3, 3), dtype=complex)
        t[1, 1, 1] = bad
        with pytest.raises(ValueError, match=r"woga: non-finite entry at index \(1, 1, 1\)"):
            woga(t, d)

    def test_exact_recovery_at_tol_zero_stops_at_rounding(self):
        # after the planted atoms every correlation is rounding error: the
        # sixth selection raised the residual from 6.50e-16 to 6.71e-16, and
        # the run went on to select all 40 atoms
        d = random_incoherent_dictionary((4, 4, 4), 40, mu_max=0.09, seed=5)
        idx = [0, 3, 7, 11, 19]
        rng = np.random.default_rng(0)
        f = planted_combination(d, idx, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        res = woga(f, d, tol=0.0)
        assert sorted(res.selected) == idx
        assert res.flags == ["residual_orthogonal_to_dictionary"]
        assert len(res.residuals) == 6 and res.residuals[-1] <= 1e-14 * frobenius(f)
        assert not res.converged
        ref = woga(f, d, tol=0.0, max_iter=5)
        assert ref.selected == res.selected and ref.residuals == res.residuals
        assert ref.coefficients.tobytes() == res.coefficients.tobytes()

    @settings(deadline=None, max_examples=40)
    @given(n_atoms=st.integers(1, 20), in_span=st.integers(0, 5),
           t=st.sampled_from([1.0, 0.7, 0.3]), tol=st.sampled_from([0.0, 1e-12]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_residuals_non_increasing_property(self, n_atoms, in_span, t, tol, seed):
        rng = np.random.default_rng(seed)
        d = Dictionary([tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)
                              for _ in range(3)) for _ in range(n_atoms)])
        if in_span:
            idx = rng.choice(n_atoms, min(in_span, n_atoms), replace=False)
            f = planted_combination(d, idx, rng.standard_normal(len(idx)) + 1j)
        else:
            f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        res = woga(f, d, t=t, tol=tol)
        assert all(b <= a for a, b in zip(res.residuals, res.residuals[1:]))
        assert len(set(res.selected)) == len(res.selected) == len(res.residuals) - 1


class TestBestRank1:
    def test_exact_rank1(self):
        rng = np.random.default_rng(11)
        vecs = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 2, 4)]
        weight, factors = best_rank1(3.0 * rank1_outer(vecs))
        assert abs(weight - 3.0) < 1e-10
        recon = weight * rank1_outer(factors)
        assert frobenius(recon - 3.0 * rank1_outer(vecs)) < 1e-8

    def test_matrix_top_pair(self):
        weight, factors = best_rank1(np.diag([3.0, 1.0]).astype(complex))
        assert abs(weight - 3.0) < 1e-10
        assert abs(abs(factors[0][0]) - 1.0) < 1e-8

    def test_agrees_with_spectral_norm(self):
        rng = np.random.default_rng(12)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        weight, _ = best_rank1(t, restarts=32, seed=1)
        cert = spectral_norm(t, restarts=32, seed=2)
        assert abs(weight - cert.spectral) < 1e-8 * max(1.0, cert.spectral)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            best_rank1(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        t = np.ones((3, 3, 3), dtype=complex)
        t[0, 1, 2] = bad
        with pytest.raises(ValueError, match=r"best_rank1: non-finite entry at index \(0, 1, 2\)"):
            best_rank1(t)


class TestOgaContinuous:
    def test_rank1_recovery(self):
        rng = np.random.default_rng(13)
        vecs = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 3, 3)]
        f = 2.0 * rank1_outer(vecs)
        model, res = oga_continuous(f, 1)
        assert res.residuals[-1] < 1e-10
        assert model.rank == 1
        assert abs(model.weights[0] - 2.0) < 1e-8

    def test_orthogonally_decomposable_exact(self):
        rng = np.random.default_rng(14)
        qs = [np.linalg.qr(rng.standard_normal((4, 3))
                           + 1j * rng.standard_normal((4, 3)))[0] for _ in range(3)]
        truth = canonicalize(np.array([3.0, 2.0, 1.0]), qs)
        f = cp_evaluate(truth)
        model, res = oga_continuous(f, 3)
        assert res.residuals[-1] < 1e-8
        assert essentially_equal(model, truth, 1e-6)

    def test_matrix_matches_svd_tail(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = np.linalg.svd(a, compute_uv=False)
        for r in (1, 2, 3):
            _, res = oga_continuous(a, r, restarts=48)
            tail = math.sqrt(float(np.sum(s[r:] ** 2)))
            assert abs(res.residuals[-1] - tail) < 1e-8 * max(1.0, tail)

    def test_large_tol_stops_on_stagnation(self):
        # the stop test is absolute, the stagnation test relative to
        # max(1, ||f||): with ||f|| = 10 and tol = 1 every fall is stagnant
        rng = np.random.default_rng(16)
        f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        f *= 10.0 / frobenius(f)
        model, res = oga_continuous(f, 5, tol=1.0)
        assert res.flags == ["stagnation_early_stop"]
        assert len(res.selected) == model.rank == 3
        assert res.residuals[-1] > 1.0 and not res.converged

    def test_residual_below_norm_range_stops(self):
        # with tol = 0 the residual of an exact rank-1 fit at norm 1e-140 is
        # rounding below NORM_MIN, which best_rank1 refuses to decompose
        rng = np.random.default_rng(17)
        f = rank1_outer([random_unit_columns(3, 1, rng)[:, 0] for _ in range(3)]) * 1e-140
        model, res = oga_continuous(f, 3, tol=0.0)
        assert model.rank == 1 and len(res.residuals) == 2
        assert 0.0 < res.residuals[-1] < NORM_MIN and not res.converged

    def test_zero_tensor_gives_rank0_model(self):
        model, res = oga_continuous(np.zeros((3, 4, 2)), 2)
        assert model.rank == 0
        assert model.dims == (3, 4, 2)
        assert res.residuals == [0.0]
        assert res.converged
        assert res.selected == [] and res.flags == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_named_by_index(self, bad):
        t = np.ones((3, 3, 3), dtype=complex)
        t[1, 1, 1] = bad
        with pytest.raises(ValueError,
                           match=r"oga_continuous: non-finite entry at index \(1, 1, 1\)"):
            oga_continuous(t, 2)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"r": 0}, "target rank must be >= 1"),
        ({"r": 2, "tychonoff_lambda": -0.5}, "tychonoff_lambda must be >= 0"),
        ({"r": 2, "orthogonality": "joint"}, "unknown orthogonality regime 'joint'"),
    ])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)

    def test_single_regime_enforced(self):
        with pytest.raises(ValueError):
            SolverConfig(r=2, coherence_caps=(0.5, 0.5, 0.5), tychonoff_lambda=0.1)
        with pytest.raises(ValueError):
            SolverConfig(r=2, tychonoff_lambda=0.1, orthogonality="per-mode")

    def test_cap_domain(self):
        with pytest.raises(ValueError):
            SolverConfig(r=2, coherence_caps=(0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            SolverConfig(r=2, coherence_caps=(0.5, 1.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tychonoff_rejected(self, bad):
        # NaN reached LAPACK and inf ran every sweep before failing
        with pytest.raises(ValueError, match="tychonoff_lambda must be finite"):
            SolverConfig(r=2, tychonoff_lambda=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_bad_tol_rejected(self, bad):
        # a NaN tolerance never stops the sweeps
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            SolverConfig(r=2, tol=bad)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_max_iter_below_one_rejected(self, bad):
        # ran no sweep and returned the unswept warm start as unconverged
        with pytest.raises(ValueError, match=f"max_iter must be >= 1, got {bad}"):
            SolverConfig(r=2, max_iter=bad)

    def test_unknown_init_rejected(self):
        # any value but "greedy" used to select the random start
        with pytest.raises(ValueError, match="unknown init 'Greedy'"):
            SolverConfig(r=2, init="Greedy")


class TestGreedyTolRejected:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_woga(self, bad):
        rng = np.random.default_rng(3)
        dictionary = Dictionary(orthonormal_atoms(rng))
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            woga(np.ones((3, 3, 3)), dictionary, tol=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_oga_continuous(self, bad):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            oga_continuous(np.ones((2, 2, 2)), 1, tol=bad)


class TestGreedyShapeRejected:
    def test_woga_tensor_dims(self):
        dictionary = Dictionary(orthonormal_atoms(np.random.default_rng(3)))
        with pytest.raises(ValueError, match=r"tensor dims \(3, 3\) do not match "
                                             r"dictionary \(3, 3, 3\)"):
            woga(np.ones((3, 3)), dictionary)

    @pytest.mark.parametrize("r", [0, -1])
    def test_oga_continuous_rank(self, r):
        with pytest.raises(ValueError, match="r must be >= 1"):
            oga_continuous(np.ones((2, 2, 2)), r)


class TestConstrainedAls:
    def test_exact_orthonormal_recovery(self):
        rng = np.random.default_rng(16)
        qs = [np.linalg.qr(rng.standard_normal((5, 3))
                           + 1j * rng.standard_normal((5, 3)))[0] for _ in range(3)]
        truth = canonicalize(np.array([3.0, 2.0, 1.0]), qs)
        f = cp_evaluate(truth)
        model, diag = constrained_als(
            f, SolverConfig(r=3, coherence_caps=(1.0, 1.0, 1.0), seed=0))
        assert diag.final_residual < 1e-10
        assert essentially_equal(model, truth, 1e-6)

    def test_noisy_recovery_with_margins(self):
        rng = np.random.default_rng(17)
        # well-separated factors with coherences within the combined bound
        qs = []
        for n in (6, 6, 6):
            q = np.linalg.qr(rng.standard_normal((n, 2))
                             + 1j * rng.standard_normal((n, 2)))[0]
            qs.append(q)
        truth = canonicalize(np.array([2.0, 1.0]), qs)
        f = cp_evaluate(truth)
        noise = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
        noise *= 0.01 * frobenius(f) / frobenius(noise)
        model, _ = constrained_als(f + noise, SolverConfig(r=2, seed=0))
        assert essentially_equal(model, truth, 0.05)

    def test_tychonoff_trace_monotone(self):
        rng = np.random.default_rng(18)
        f = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        _, diag = constrained_als(
            f, SolverConfig(r=3, tychonoff_lambda=0.05, seed=1, init="random",
                            max_iter=300))
        tr = np.array(diag.loss_trace)
        assert np.all(np.diff(tr) <= 1e-9 * max(1.0, tr[0]))

    def test_unconstrained_trace_monotone(self):
        rng = np.random.default_rng(19)
        f = rng.standard_normal((4, 3, 4)) + 1j * rng.standard_normal((4, 3, 4))
        _, diag = constrained_als(
            f, SolverConfig(r=2, seed=2, init="random", max_iter=200))
        tr = np.array(diag.loss_trace)
        assert np.all(np.diff(tr) <= 1e-9 * max(1.0, tr[0]))

    def test_nonexistence_target_capped_weights_bounded(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        target = (rank1_outer([e2, e1, e1]) + rank1_outer([e1, e2, e1])
                  + rank1_outer([e1, e1, e2]))
        caps = (0.9, 0.9, 0.9)
        prod = 0.9 ** 3
        for seed in range(10):
            model, diag = constrained_als(
                target, SolverConfig(r=2, coherence_caps=caps, seed=seed,
                                     max_iter=800))
            assert all(mu <= 0.9 + 1e-6 for mu in diag.achieved_mus)
            # coercivity confines the weights on any loss level set
            level = frobenius(cp_evaluate(model))
            bound = level ** 2 / (1.0 - prod)
            assert float(np.sum(model.weights ** 2)) <= bound + 1e-6

    def test_nonexistence_target_uncapped_weights_grow(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        target = (rank1_outer([e2, e1, e1]) + rank1_outer([e1, e2, e1])
                  + rank1_outer([e1, e1, e2]))
        tops = []
        for iters in (50, 400, 3200):
            model, _ = constrained_als(
                target, SolverConfig(r=2, seed=0, max_iter=iters, tol=0.0))
            tops.append(model.weights[0])
        assert tops[0] < tops[1] < tops[2]

    def test_coherence_caps_cure_the_swamp(self):
        # seed 607 of test_als_fit_commutes_with_unitary_action: planted
        # coherences 0.39, 0.38 and 0.51 meet the uniqueness condition, yet
        # uncapped ALS follows the paper's degeneracy (every mode's coherence
        # near 1, the weights diverging) and needs 2,568 sweeps to leave it
        rng = np.random.default_rng(607)
        dims, r = (5, 4, 3), 2
        weights = np.sort(rng.uniform(1.0, 3.0, r))[::-1]
        factors = [random_unit_columns(n, r, rng) for n in dims]
        assert condition_report([coherence(f).mu for f in factors], r)["uniqueness"]["holds"]
        t = evaluate_terms(weights, factors)
        t = t + 0.01 * (rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        swamp, diag = constrained_als(t, SolverConfig(r=r, seed=607, max_iter=200))
        assert not diag.converged and min(diag.achieved_mus) >= 0.99
        assert np.abs(swamp.weights).min() > 4.0 * frobenius(t)
        # the paper's cure: bounded coherence, so the weights stay bounded
        capped, diag = constrained_als(
            t, SolverConfig(r=r, seed=607, coherence_caps=(0.9,) * 3))
        assert diag.converged and diag.n_iter <= 100
        assert max(diag.achieved_mus) <= 0.9
        free, free_diag = constrained_als(t, SolverConfig(r=r, seed=607, max_iter=20_000))
        assert free_diag.converged
        assert essentially_equal(capped, free, 1e-6)

    def test_coercivity_invariant_on_outputs(self):
        rng = np.random.default_rng(20)
        f = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        model, diag = constrained_als(f, SolverConfig(r=2, seed=3, max_iter=100))
        mus = [min(m, 1.0) for m in diag.achieved_mus]
        lhs = frobenius(cp_evaluate(model)) ** 2
        assert lhs >= coercivity_lower_bound(model.weights, mus) - 1e-9

    def test_per_mode_orthogonality(self):
        rng = np.random.default_rng(21)
        qs = [np.linalg.qr(rng.standard_normal((5, 2))
                           + 1j * rng.standard_normal((5, 2)))[0] for _ in range(3)]
        truth = canonicalize(np.array([2.0, 1.0]), qs)
        f = cp_evaluate(truth)
        model, diag = constrained_als(
            f, SolverConfig(r=2, orthogonality="per-mode", seed=0))
        assert diag.final_residual < 1e-8
        for fk in model.factors:
            gram = np.asarray(fk).conj().T @ np.asarray(fk)
            assert np.allclose(gram, np.eye(2), atol=1e-8)

    def test_separable_orthogonality(self):
        rng = np.random.default_rng(22)
        qs = [np.linalg.qr(rng.standard_normal((n, 2))
                           + 1j * rng.standard_normal((n, 2)))[0]
              for n in (3, 3, 6)]
        truth = canonicalize(np.array([2.0, 1.0]), qs)
        f = cp_evaluate(truth)
        model, diag = constrained_als(
            f, SolverConfig(r=2, orthogonality="separable", seed=0))
        assert diag.final_residual < 1e-8
        # the widest mode carries the orthogonality
        fk = np.asarray(model.factors[2])
        assert np.allclose(fk.conj().T @ fk, np.eye(2), atol=1e-8)

    def test_rejects_nonfinite(self):
        bad = np.full((2, 2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            constrained_als(bad, SolverConfig(r=1))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_named_by_index(self, bad):
        t = np.ones((3, 3, 3), dtype=complex)
        t[0, 2, 1] = bad
        with pytest.raises(ValueError,
                           match=r"constrained_als: non-finite entry at index \(0, 2, 1\)"):
            constrained_als(t, SolverConfig(r=1))

    def test_zero_tensor_greedy_start_degenerate(self):
        _, diag = constrained_als(np.zeros((3, 3, 3)), SolverConfig(r=2))
        assert diag.flags[0] == "greedy_init_degenerate_fallback_random"

    def test_greedy_start_padded_below_target_rank(self):
        # the greedy start stops after the one term of an exact rank-1 tensor
        rng = np.random.default_rng(12)
        f = rank1_outer([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                         for n in (4, 5, 3)])
        flags = []
        unfolds = [np.moveaxis(f, k, 0).reshape(f.shape[k], -1) for k in range(3)]
        factors, lam = decompose._init_factors(f, unfolds, SolverConfig(r=2), flags)
        assert flags == ["greedy_init_padded"]
        assert [fk.shape for fk in factors] == [(4, 2), (5, 2), (3, 2)]
        assert abs(lam[1]) == pytest.approx(1e-3 * abs(lam[0]))
        _, diag = constrained_als(f, SolverConfig(r=2))
        assert diag.flags[0] == "greedy_init_padded"

    def test_greedy_start_failure_falls_back_to_random(self, monkeypatch):
        def fail(*args):
            raise ValueError("no greedy start")

        f = np.random.default_rng(13).standard_normal((3, 4, 5))
        monkeypatch.setattr(decompose, "_greedy_start", fail)
        model, diag = constrained_als(f, SolverConfig(r=2, max_iter=5))
        assert diag.flags[0] == "greedy_init_failed_fallback_random"
        random_model, _ = constrained_als(f, SolverConfig(r=2, max_iter=5, init="random"))
        assert np.array_equal(model.weights, random_model.weights)

    @pytest.mark.parametrize("regime, dims, modes", [
        ("per-mode", (2, 4, 4), r"\[0, 1, 2\]"), ("separable", (2, 3, 2), r"\[1\]")])
    def test_orthogonality_rank_beyond_mode_rejected(self, regime, dims, modes):
        with pytest.raises(ValueError,
                           match=rf"{regime} orthogonality needs r <= n_k on modes {modes}"):
            constrained_als(np.ones(dims), SolverConfig(r=4, orthogonality=regime))

    def test_rejects_oversized_rank(self):
        with pytest.raises(ValueError):
            constrained_als(np.ones((2, 2)), SolverConfig(r=5))

    def test_rejects_cap_count_other_than_modes(self):
        with pytest.raises(ValueError, match="need one coherence cap per mode"):
            constrained_als(np.ones((2, 2, 2)), SolverConfig(r=2, coherence_caps=(0.5, 0.5)))

    # a one-mode tensor has no other mode to solve a mode update against
    @pytest.mark.parametrize("regime", [{}, {"orthogonality": "per-mode"},
                                        {"tychonoff_lambda": 0.1}])
    def test_rejects_one_mode_tensor(self, regime):
        with pytest.raises(ValueError, match="at least 2 modes, got 1"):
            constrained_als(np.ones(3, dtype=complex), SolverConfig(r=1, **regime))


def test_projection_on_mode_of_size_one_stays_finite_and_flags():
    # every column of a size-1 mode is a phase: no cap below 1 is
    # reachable, and the collinear fallback has no direction to split along
    flags = []
    v0 = np.array([[1, 1j, -1]])
    v, gram = decompose._project_coherence(v0, v0.conj().T @ v0, 0.5, flags)
    assert np.all(np.isfinite(v))
    assert flags == ["coherence_projection_incomplete"]
    assert gram.tobytes() == (v.conj().T @ v).tobytes()


@pytest.mark.parametrize("n, cap, checks", [(10, 0.2, 4), (2, 0.05, 20)])
def test_projection_returns_the_gram_of_its_columns(monkeypatch, n, cap, checks):
    # one Gram per rotation, and the one returned is that of the returned
    # columns, bit for bit, whether the cap is reached (three rotations) or
    # every pass is spent (five columns in C^2 cannot all be 0.05 apart)
    v0 = random_unit_columns(n, 4 if n > 2 else 5, np.random.default_rng(61))
    grams = []
    coherent = decompose.coherent_pair
    monkeypatch.setattr(decompose, "coherent_pair",
                        lambda g: grams.append(g) or coherent(g))
    flags = []
    v, gram = decompose._project_coherence(v0, v0.conj().T @ v0, cap, flags)
    assert gram.tobytes() == (v.conj().T @ v).tobytes()
    assert len(grams) == checks
    if checks == decompose.PROJECTION_PASSES:
        assert flags == ["coherence_projection_incomplete"]
    else:
        assert flags == [] and grams[-1] is gram and gram_mu(gram) <= cap + 1e-12


def test_projection_keeps_a_coherence_within_its_slack():
    # a coherence at most 1e-12 above the cap meets it: 0.5 under a cap of
    # 0.5 - 1e-12 is kept as it is, and a cap one ulp lower is restored
    v0 = np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]], dtype=complex)
    gram = v0.conj().T @ v0
    cap = 0.5 - 1e-12
    assert gram_mu(gram) == cap + 1e-12 == 0.5
    flags = []
    v, g = decompose._project_coherence(v0, gram, cap, flags)
    assert g is gram and v.tobytes() == v0.tobytes() and flags == []
    lower = math.nextafter(cap, 0.0)
    v, g = decompose._project_coherence(v0, gram, lower, flags)
    assert v.tobytes() != v0.tobytes() and gram_mu(g) <= lower + 1e-12 and flags == []


def gram_mu_spy(monkeypatch):
    calls = []

    def spy(gram):
        calls.append(gram.shape)
        return gram_mu(gram)

    monkeypatch.setattr(decompose, "gram_mu", spy)
    return calls


class TestCoherenceState:
    @pytest.mark.parametrize("regime", [
        {"coherence_caps": (0.3, 0.5, 0.9)}, {}, {"tychonoff_lambda": 0.05},
        {"orthogonality": "separable"}])
    def test_gram_mu_once_per_gram(self, monkeypatch, regime):
        # d at the start, one per mode update, one per projection, d for the
        # report; the random start runs no greedy projections of its own
        rng = np.random.default_rng(51)
        f = rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6))
        projections = []
        project = decompose._project_coherence
        monkeypatch.setattr(decompose, "_project_coherence",
                            lambda *a: projections.append(1) or project(*a))
        calls = gram_mu_spy(monkeypatch)
        _, diag = constrained_als(f, SolverConfig(r=3, seed=4, init="random",
                                                  max_iter=40, **regime))
        if "coherence_caps" in regime:
            assert projections
        assert len(calls) <= 3 + 3 * diag.n_iter + len(projections) + 3

    def test_mode_solve_reads_given_coherences_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        factors = [random_unit_columns(n, 4, rng) for n in (20, 24, 30)]
        unfold, z, grams = mode_problem(factors, 0, rng)
        mus = [gram_mu(g) for g in grams]
        ref = decompose._mode_solve(unfold, z, grams)
        certified = []
        check = decompose._certified
        monkeypatch.setattr(decompose, "_certified",
                            lambda *a: certified.append(1) or check(*a))
        calls = gram_mu_spy(monkeypatch)
        got = decompose._mode_solve(unfold, z, grams, 0.0, mus)
        assert calls == [] and len(certified) == 1
        assert got.tobytes() == ref.tobytes()


def small_problem(data):
    """A random complex tensor with 2-4 modes of size at most 5 and a rank
    of at most 4 that it can hold."""
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    r = data.draw(st.integers(1, min(4, math.prod(dims))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims), r


class TestSolverInvariants:
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_caps_hold_unless_flagged(self, data):
        f, r = small_problem(data)
        caps = tuple(data.draw(st.floats(0.05, 1.0)) for _ in f.shape)
        init = data.draw(st.sampled_from(["greedy", "random"]))
        _, diag = constrained_als(f, SolverConfig(r=r, coherence_caps=caps, init=init,
                                                  max_iter=30))
        if "coherence_projection_incomplete" not in diag.flags:
            assert all(mu <= cap + 1e-12 for mu, cap in zip(diag.achieved_mus, caps))

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_oga_continuous_residuals_non_increasing(self, data):
        # each projection is onto a span containing the previous one
        f, r = small_problem(data)
        _, res = oga_continuous(f, r, restarts=4, seed=data.draw(st.integers(0, 99)))
        assert np.all(np.diff(res.residuals) <= 1e-12 * frobenius(f))

    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), regime=st.sampled_from(["per-mode", "separable"]))
    def test_procrustes_factors_orthonormal(self, data, regime):
        f, _ = small_problem(data)
        modes = (range(f.ndim) if regime == "per-mode"
                 else [int(np.argmax(f.shape))])
        r = data.draw(st.integers(1, min(f.shape[k] for k in modes)))
        init = data.draw(st.sampled_from(["greedy", "random"]))
        model, _ = constrained_als(f, SolverConfig(r=r, orthogonality=regime, init=init,
                                                   max_iter=30))
        for k in modes:
            fk = np.asarray(model.factors[k])
            assert np.max(np.abs(fk.conj().T @ fk - np.eye(model.rank))) <= 1e-12

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_loss_trace_non_increasing(self, data):
        f, r = small_problem(data)
        reg = data.draw(st.sampled_from([0.0, 1e-3, 0.5]))
        init = data.draw(st.sampled_from(["greedy", "random"]))
        _, diag = constrained_als(f, SolverConfig(r=r, tychonoff_lambda=reg, init=init,
                                                  max_iter=30))
        # relative to ||f||^2, the scale at which the loss is rounded: an
        # exact fit's loss moves at 1e-32 between sweeps
        assert np.all(np.diff(diag.loss_trace) <= 1e-12 * frobenius(f) ** 2)


def planted_rank6(n, seed):
    """Planted rank-6 n^3 tensor at 40 dB SNR and its canonical truth."""
    rng = np.random.default_rng(seed)
    truth = canonicalize(np.linspace(2.0, 1.0, 6),
                         [random_unit_columns(n, 6, rng) for _ in range(3)])
    f = cp_evaluate(truth)
    noise = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
    return f + noise * (0.01 * frobenius(f) / frobenius(noise)), truth


def unfoldings(f):
    return [np.moveaxis(f, k, 0).reshape(f.shape[k], -1) for k in range(f.ndim)]


def test_achieved_coherences_clipped_to_one():
    # a rank-1 target fitted at rank 2: both columns of every mode align, and
    # the unclipped Gram entry read 1.0000000000000004, which the condition
    # report then refused as a coherence outside [0, 1]
    rng = np.random.default_rng(45)
    f = rank1_outer([random_unit_columns(3, 1, rng)[:, 0] for _ in range(3)])
    _, diag = constrained_als(f, SolverConfig(r=2, seed=45))
    assert max(diag.achieved_mus) == 1.0
    condition_report(diag.achieved_mus, 2)


class TestCompressedWarmStart:
    @pytest.mark.parametrize("n, seed", [(30, 40), (40, 41)])
    def test_matches_uncompressed_start(self, monkeypatch, n, seed):
        f, truth = planted_rank6(n, seed)
        cfg = SolverConfig(r=6, seed=seed)
        fast_model, fast = constrained_als(f, cfg)
        monkeypatch.setattr(decompose, "_compression_bases",
                            lambda unfolds, r: [None] * len(unfolds))
        full_model, full = constrained_als(f, cfg)
        assert fast.n_iter == full.n_iter
        assert fast.flags == full.flags
        assert abs(fast.final_residual - full.final_residual) \
            <= 1e-12 * full.final_residual
        np.testing.assert_allclose(fast_model.weights, full_model.weights,
                                   rtol=0.0, atol=1e-10)
        assert essentially_equal(fast_model, truth, 0.05)
        assert essentially_equal(full_model, truth, 0.05)

    def test_core_keeps_coherences(self):
        f, _ = planted_rank6(30, 42)
        bases = decompose._compression_bases(unfoldings(f), 6)
        core = f
        for k, u in enumerate(bases):
            np.testing.assert_allclose(u.conj().T @ u, np.eye(6), rtol=0.0, atol=1e-12)
            core = np.moveaxis(np.tensordot(u.conj().T, core, axes=(1, k)), 0, k)
        assert core.shape == (6, 6, 6)
        model, _ = oga_continuous(core, 6, restarts=16, seed=42)
        for u, g in zip(bases, model.factors):
            expanded = u @ g
            np.testing.assert_allclose(np.linalg.norm(expanded, axis=0), 1.0,
                                       rtol=0.0, atol=1e-12)
            assert abs(gram_mu(g.conj().T @ g)
                       - gram_mu(expanded.conj().T @ expanded)) <= 1e-12

    def test_small_modes_take_the_full_tensor_path(self):
        rng = np.random.default_rng(43)
        f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        flags = []
        factors, lam = decompose._init_factors(f, unfoldings(f), SolverConfig(r=3, seed=7),
                                               flags)
        model, _ = oga_continuous(f, 3, restarts=16, seed=7)
        assert flags == []
        assert lam.tobytes() == model.weights.astype(np.complex128).tobytes()
        for got, ref in zip(factors, model.factors):
            assert got.tobytes() == ref.tobytes()

    def test_tall_mode_forms_no_square_gram(self, monkeypatch):
        # a 400 x 2 x 2 tensor: the mode-0 unfolding is 400 x 4, so an
        # n_k x n_k Gram would be 400 x 400
        shapes = []
        for name in ("eigh", "svd"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        rng = np.random.default_rng(44)
        f = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
        flags = []
        factors, _ = decompose._init_factors(f, unfoldings(f), SolverConfig(r=2, seed=7),
                                             flags)
        assert shapes and all(min(s[-2:]) <= 4 for s in shapes)
        assert flags == []
        assert [fac.shape for fac in factors] == [(400, 2), (2, 2), (2, 2)]
        for fac in factors:
            np.testing.assert_allclose(np.linalg.norm(fac, axis=0), 1.0,
                                       rtol=0.0, atol=1e-12)

    def test_tall_mode_basis_narrower_than_rank(self):
        # at r = 5 the 400 x 4 unfolding spans only 4 dimensions
        rng = np.random.default_rng(45)
        f = rng.standard_normal((400, 2, 2)) + 1j * rng.standard_normal((400, 2, 2))
        bases = decompose._compression_bases(unfoldings(f), 5)
        assert bases[0].shape == (400, 4) and bases[1:] == [None, None]
        np.testing.assert_allclose(bases[0].conj().T @ bases[0], np.eye(4),
                                   rtol=0.0, atol=1e-12)
        model, diag = constrained_als(f, SolverConfig(r=5, seed=7))
        assert all(fac.shape == (n, 5) for fac, n in zip(model.factors, f.shape))
        assert np.isfinite(diag.final_residual)


def linalg_spy(monkeypatch, name):
    """Record the first argument's shape of every np.linalg.<name> call
    while still running it."""
    calls = []
    original = getattr(np.linalg, name)

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls, original


def lstsq_spy(monkeypatch):
    return linalg_spy(monkeypatch, "lstsq")


def mode_problem(factors, k, rng):
    dims = tuple(fk.shape[0] for fk in factors)
    x = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    unfold = np.moveaxis(x, k, 0).reshape(dims[k], -1)
    z = khatri_rao_but(factors, k)
    grams = [fj.conj().T @ fj for j, fj in enumerate(factors) if j != k]
    return unfold, z, grams


class TestCertifiedModeSolve:
    def test_matches_lstsq_on_incoherent_factors(self, monkeypatch):
        rng = np.random.default_rng(30)
        r = 4
        factors = [random_unit_columns(n, r, rng) for n in (20, 24, 30)]
        calls, lstsq = lstsq_spy(monkeypatch)
        for k in range(3):
            unfold, z, grams = mode_problem(factors, k, rng)
            mus = [coherence(fj).mu for j, fj in enumerate(factors) if j != k]
            # the Gershgorin certificate holds, so the normal equations run
            assert 1.0 - (r - 1) * math.prod(mus) >= CERTIFIED_MARGIN
            got = decompose._mode_solve(unfold, z, grams)
            assert calls == []
            ref = lstsq(z, unfold.T, rcond=None)[0].T
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_coherent_factors_fall_back_to_lstsq(self, monkeypatch):
        rng = np.random.default_rng(31)
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        n = 64
        # normalized rank-2 factor pairs of the divergence witness: mu_j -> 1
        pair = np.stack([(e1 + e2 / n) / np.linalg.norm(e1 + e2 / n), e1], axis=1)
        factors = [pair.copy() for _ in range(3)]
        calls, lstsq = lstsq_spy(monkeypatch)
        unfold, z, grams = mode_problem(factors, 0, rng)
        got = decompose._mode_solve(unfold, z, grams)
        assert len(calls) == 1
        ref = lstsq(z, unfold.T, rcond=None)[0].T
        assert np.array_equal(got, ref)

    def test_lstsq_fallback_keeps_a_small_ridge(self, monkeypatch):
        # below r * 1e-12 a ridge does not certify, yet lstsq on Z stacked
        # over sqrt(reg) I still solves (G + reg I) C^T = (X_k Z-bar)^T;
        # dropping the ridge moves C by about 8e-9 relative here
        rng = np.random.default_rng(31)
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        pair = np.stack([(e1 + e2 / 64) / np.linalg.norm(e1 + e2 / 64), e1], axis=1)
        unfold, z, grams = mode_problem([pair.copy() for _ in range(3)], 0, rng)
        gram, reg = grams[0] * grams[1], 1.9e-12
        calls, lstsq = lstsq_spy(monkeypatch)
        got = decompose._mode_solve(unfold, z, grams, reg)
        assert len(calls) == 1
        ref = np.linalg.solve(gram + reg * np.eye(2), (unfold @ z.conj()).T).T
        plain = lstsq(z, unfold.T, rcond=None)[0].T
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.linalg.norm(plain - ref) > 1e-9 * np.linalg.norm(ref)

    def test_als_trace_matches_lstsq_path(self, monkeypatch):
        rng = np.random.default_rng(32)
        truth = canonicalize(np.array([4.0, 3.0, 2.0, 1.0]),
                             [random_unit_columns(20, 4, rng) for _ in range(3)])
        f = cp_evaluate(truth)
        noise = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
        f = f + noise * (0.01 * frobenius(f) / frobenius(noise))
        cfg = SolverConfig(r=4, seed=0)
        calls, _ = lstsq_spy(monkeypatch)
        _, fast = constrained_als(f, cfg)
        assert calls == []  # every mode update was certified
        monkeypatch.setattr(decompose, "CERTIFIED_MARGIN", math.inf)
        _, slow = constrained_als(f, cfg)
        assert len(calls) == 3 * slow.n_iter
        assert fast.n_iter == slow.n_iter
        assert fast.flags == slow.flags
        np.testing.assert_allclose(fast.loss_trace, slow.loss_trace,
                                   rtol=1e-10, atol=0.0)


def evaluate_terms_spy(monkeypatch):
    """Record every residual ALS materializes (with a random start, which
    runs no greedy projections of its own)."""
    calls = []
    evaluate = decompose.evaluate_terms
    monkeypatch.setattr(decompose, "evaluate_terms",
                        lambda *a: calls.append(1) or evaluate(*a))
    return calls


class TestGramIdentityLoss:
    @pytest.mark.parametrize("regime", [
        {"coherence_caps": (0.3, 0.5, 0.9)}, {}, {"tychonoff_lambda": 0.05},
        {"orthogonality": "per-mode"}, {"orthogonality": "separable"}])
    def test_trace_matches_materialized_loss(self, monkeypatch, regime):
        # each run's last entry against its materialized final residual
        rng = np.random.default_rng(53)
        f = rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6))
        reg = regime.get("tychonoff_lambda", 0.0)
        calls = evaluate_terms_spy(monkeypatch)
        for sweeps in range(1, 9):
            calls.clear()
            model, diag = constrained_als(f, SolverConfig(r=3, seed=6, init="random",
                                                          max_iter=sweeps, **regime))
            assert len(calls) == 1  # the first entry; every sweep took the identity
            loss = diag.final_residual ** 2 + reg * float(np.sum(model.weights ** 2))
            assert abs(diag.loss_trace[-1] - loss) <= 1e-10 * loss

    def test_tol_zero_materializes_every_sweep(self, monkeypatch):
        rng = np.random.default_rng(54)
        f = rng.standard_normal((5, 4, 6)) + 1j * rng.standard_normal((5, 4, 6))
        calls = evaluate_terms_spy(monkeypatch)
        _, diag = constrained_als(f, SolverConfig(r=3, seed=6, init="random",
                                                  max_iter=12, tol=0.0))
        assert len(calls) == 1 + diag.n_iter == 13

    @pytest.mark.parametrize("reg", [0.0, 0.1])
    def test_tol_zero_sweeps_ignore_last_bit(self, reg):
        # tol = 0 stops at the loss's rounding level, not at two bitwise-equal
        # losses, so the last bit of one entry does not move the sweep count
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f = evaluate_terms(np.array([3.0, 2.0, 1.0]),
                               [random_unit_columns(12, 3, rng) for _ in range(3)])
            noise = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
            f += noise * (0.01 * frobenius(f) / frobenius(noise))
            g = f.copy()
            g.real[0, 0, 0] = np.nextafter(g.real[0, 0, 0], np.inf)
            cfg = SolverConfig(r=3, seed=seed, max_iter=200, tol=0.0, tychonoff_lambda=reg)
            _, a = constrained_als(f, cfg)
            _, b = constrained_als(g, cfg)
            assert a.converged and b.converged
            assert a.n_iter == b.n_iter < 200

    def test_cancelling_identity_materialized(self, monkeypatch):
        # ||f||^2 = 1.4e5 and a loss that falls to 1e-10: the identity would
        # cancel 15 digits, so its rounding reaches the stop test's resolution
        rng = np.random.default_rng(55)
        truth = canonicalize(np.array([300.0, 200.0, 100.0]),
                             [random_unit_columns(n, 3, rng) for n in (5, 4, 6)])
        f = cp_evaluate(truth)
        calls = evaluate_terms_spy(monkeypatch)
        _, diag = constrained_als(f, SolverConfig(r=3, seed=6, init="random",
                                                  max_iter=200))
        # every sweep that starts below a loss of 1 materializes its residual
        assert len(calls) >= 1 + sum(loss < 1.0 for loss in diag.loss_trace[:-1]) > 10
        # where the identity's own error would be of the loss's size
        loss = diag.final_residual ** 2
        assert loss < 1e-9 and abs(diag.loss_trace[-1] - loss) <= 1e-6 * loss

    def test_mode_solve_given_mttkrp_matches_bytewise(self):
        rng = np.random.default_rng(56)
        factors = [random_unit_columns(n, 4, rng) for n in (20, 24, 30)]
        for k in range(3):
            unfold, z, grams = mode_problem(factors, k, rng)
            for reg in (0.0, 0.1):
                ref = decompose._mode_solve(unfold, z, grams, reg)
                got = decompose._mode_solve(unfold, z, grams, reg, None, unfold @ z.conj())
                assert got.tobytes() == ref.tobytes()


class TestSolveGram:
    def test_certified_skips_the_condition_number(self, monkeypatch):
        rng = np.random.default_rng(33)
        factors = [random_unit_columns(n, 4, rng) for n in (20, 24, 30)]
        grams = [fk.conj().T @ fk for fk in factors]
        gram, mus = grams[0] * grams[1] * grams[2], [gram_mu(g) for g in grams]
        rhs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert decompose._certified(gram, mus)
        calls, _ = linalg_spy(monkeypatch, "cond")
        flags = []
        got = decompose._solve_gram(gram, rhs, flags, mus=mus)
        assert calls == [] and flags == []
        ref = np.linalg.solve(grams[0] * grams[1] * grams[2], rhs)
        assert got.tobytes() == ref.tobytes()

    def test_singular_takes_pinv_and_flags_once(self, monkeypatch):
        e1 = np.array([1.0, 0.0], dtype=complex)
        pair = np.stack([e1, e1], axis=1)  # mu = 1: margin 1-(r-1) = 0
        grams = [pair.conj().T @ pair] * 3
        gram, mus = grams[0] * grams[1] * grams[2], [gram_mu(g) for g in grams]
        assert not decompose._certified(gram, mus)
        calls, _ = linalg_spy(monkeypatch, "pinv")
        flags = []
        rhs = np.array([2.0, 2.0], dtype=complex)
        for _ in range(2):
            got = decompose._solve_gram(gram, rhs, flags, mus=mus)
        assert len(calls) == 2
        assert flags == ["singular_gram_pseudoinverse"]
        np.testing.assert_allclose(got, [1.0, 1.0], rtol=0.0, atol=1e-12)

    def test_tychonoff_matches_ridge_solve(self, monkeypatch):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        # coherent pairs: the ridge alone certifies the system
        pair = np.stack([(e1 + e2 / 8) / np.linalg.norm(e1 + e2 / 8), e1], axis=1)
        grams = [pair.conj().T @ pair] * 3
        gram, mus = grams[0] * grams[1] * grams[2], [gram_mu(g) for g in grams]
        assert not decompose._certified(gram, mus)
        calls, _ = linalg_spy(monkeypatch, "cond")
        rhs = np.array([1.0 + 2.0j, -0.5j])
        got = decompose._solve_gram(gram, rhs, [], 0.05, mus)
        assert calls == []
        ref = np.linalg.solve(gram + 0.05 * np.eye(2), rhs)
        assert got.tobytes() == ref.tobytes()

    def test_failed_condition_number_takes_pinv(self, monkeypatch):
        # np.linalg.cond raises LinAlgError when its SVD does not converge
        def failing_cond(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        pair = np.stack([(e1 + e2 / 8) / np.linalg.norm(e1 + e2 / 8), e1], axis=1)
        grams = [pair.conj().T @ pair] * 3
        gram, mus = grams[0] * grams[1] * grams[2], [gram_mu(g) for g in grams]
        assert not decompose._certified(gram, mus)
        monkeypatch.setattr(np.linalg, "cond", failing_cond)
        flags = []
        rhs = np.array([1.0 + 2.0j, -0.5j])
        got = decompose._solve_gram(gram, rhs, flags, mus=mus)
        assert flags == ["singular_gram_pseudoinverse"]
        ref = np.linalg.pinv(grams[0] * grams[1] * grams[2], rcond=1e-12) @ rhs
        assert got.tobytes() == ref.tobytes()

    def test_negligible_ridge_takes_pinv(self, monkeypatch):
        # G + 1e-300 I rounds to the singular G: solve would raise
        calls, _ = linalg_spy(monkeypatch, "pinv")
        flags = []
        got = decompose._solve_gram(np.ones((2, 2)), np.array([2.0, 2.0]), flags, 1e-300)
        assert len(calls) == 1 and flags == ["singular_gram_pseudoinverse"]
        np.testing.assert_allclose(got, [1.0, 1.0], rtol=0.0, atol=1e-12)

    def test_fallback_reads_the_ridged_system(self):
        # cond(G) = 2e12 would take pinv; a ridge of 1.9e-12 < r * 1e-12
        # does not certify, but brings cond(G + reg I) to about 7e11
        gram, reg = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]]), 1.9e-12
        assert np.linalg.cond(gram) > 1e12
        assert not decompose._certified(gram, (1.0 - 1e-12,), reg)
        flags, rhs = [], np.array([1.0, -1.0])
        got = decompose._solve_gram(gram, rhs, flags, reg)
        assert flags == []
        assert got.tobytes() == np.linalg.solve(gram + reg * np.eye(2), rhs).tobytes()

    def test_ridge_certifies_from_r_times_1e_minus_12(self):
        # a ridge of r * 1e-12 bounds cond(G + reg I) by 1e12 + 1; the
        # all-ones Gram has no margin, so only the ridge can certify it.
        # 2e-12 * 1e12 is exactly 2.0
        singular, reg = np.ones((2, 2)), 2e-12
        assert decompose._certified(singular, (1.0,), reg)
        assert decompose._certified(singular, (1.0,), math.nextafter(reg, 1.0))
        assert not decompose._certified(singular, (1.0,), math.nextafter(reg, 0.0))

    @pytest.mark.parametrize("ridge", [1e-300, 1e-30, 1e-17])
    def test_als_with_negligible_ridge_converges(self, ridge):
        # 38 or 39 of seeds 0-199 raised "Singular matrix" at each such
        # ridge while any ridge certified the system
        t = np.random.default_rng(2).standard_normal((1, 2, 3))
        model, diag = constrained_als(t, SolverConfig(r=3, tychonoff_lambda=ridge))
        assert diag.converged and model.rank == 3

    def test_certified_als_runs_no_condition_number(self, monkeypatch):
        rng = np.random.default_rng(32)
        f = evaluate_terms(np.array([4.0, 3.0, 2.0, 1.0]),
                           [random_unit_columns(20, 4, rng) for _ in range(3)])
        calls, _ = linalg_spy(monkeypatch, "cond")
        _, diag = constrained_als(f, SolverConfig(r=4, seed=0))
        assert calls == [] and diag.converged


class TestRowCertificate:
    def test_row_margin_certifies_a_coherent_pair(self, monkeypatch):
        # one pair coherent in both other modes, as correlated sources are:
        # the worst-pair margin 1-(r-1) mu_1 mu_2 fails, every row holds
        rng = np.random.default_rng(34)
        factors = [random_unit_columns(n, 4, rng) for n in (20, 24, 30)]
        for fk in factors[1:]:
            fk[:, 1] = fk[:, 0] + fk[:, 1]
            fk[:, 1] /= np.linalg.norm(fk[:, 1])
        unfold, z, grams = mode_problem(factors, 0, rng)
        assert 1.0 - 3 * math.prod(map(gram_mu, grams)) < CERTIFIED_MARGIN
        assert decompose._row_margin(grams[0] * grams[1]) >= CERTIFIED_MARGIN
        calls, lstsq = lstsq_spy(monkeypatch)
        got = decompose._mode_solve(unfold, z, grams)
        assert calls == []
        ref = lstsq(z, unfold.T, rcond=None)[0].T
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @settings(deadline=None, max_examples=100)
    @given(dims=st.lists(st.integers(2, 8), min_size=1, max_size=3),
           r=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_between_paper_margin_and_least_eigenvalue(self, dims, r, seed):
        rng = np.random.default_rng(seed)
        grams = [fk.conj().T @ fk for fk in (random_unit_columns(n, r, rng) for n in dims)]
        gram = functools.reduce(np.multiply, grams)
        row = decompose._row_margin(gram)
        eps = np.finfo(float).eps
        # the Hadamard diagonal is 1 to a few ulps (measured up to 5), and
        # the eigensolver rounds at about r ulps
        assert row >= 1.0 - (r - 1) * math.prod(map(gram_mu, grams)) - 8 * eps
        assert row <= np.linalg.eigvalsh(gram)[0] + 8 * r * eps


class TestCertificateBoundaries:
    """Each test of the certificate and of the condition-number fallback at
    its boundary and one representable step of the input either side."""

    @staticmethod
    def pair_gram(off: float) -> np.ndarray:
        return np.array([[1.0, off], [off, 1.0]], dtype=complex)

    def test_paper_margin_is_not_strict(self):
        # 1 - (2 - 1) * 0.75 is exactly 1/4; the row margin 0.2 fails
        gram = self.pair_gram(0.8)
        assert decompose._row_margin(gram) < CERTIFIED_MARGIN
        assert decompose._certified(gram, (0.75,))
        assert decompose._certified(gram, (math.nextafter(0.75, 0.0),))
        assert not decompose._certified(gram, (math.nextafter(0.75, 1.0),))

    def test_row_margin_is_not_strict(self):
        # 2 - (1 + 0.75) is exactly 1/4; 2^-52 is one step of the row sum
        # 1.75; the paper margin 1 - 0.8 fails
        step = 2.0 ** -52
        assert decompose._row_margin(self.pair_gram(0.75)) == CERTIFIED_MARGIN
        assert decompose._certified(self.pair_gram(0.75), (0.8,))
        assert decompose._certified(self.pair_gram(0.75 - step), (0.8,))
        assert not decompose._certified(self.pair_gram(0.75 + step), (0.8,))

    @pytest.mark.parametrize("cond, pinv", [(1e12, False),
                                            (math.nextafter(1e12, 0.0), False),
                                            (math.nextafter(1e12, math.inf), True)])
    def test_pseudoinverse_above_1e12(self, monkeypatch, cond, pinv):
        gram = self.pair_gram(0.8)
        assert not decompose._certified(gram, (0.8,))
        monkeypatch.setattr(np.linalg, "cond", lambda *args, **kwargs: cond)
        flags = []
        decompose._solve_gram(gram, np.array([1.0, 2.0j]), flags, mus=(0.8,))
        assert flags == (["singular_gram_pseudoinverse"] if pinv else [])


def hadamard_spy(monkeypatch):
    """Count the Hadamard products of Grams: decompose forms each one as
    functools.reduce(np.multiply, grams)."""
    calls = []
    reduce = functools.reduce

    def spy(fn, *args):
        if fn is np.multiply:
            calls.append(1)
        return reduce(fn, *args)

    monkeypatch.setattr(functools, "reduce", spy)
    return calls


class TestOneGramPerSystem:
    @pytest.mark.parametrize("regime", [{}, {"coherence_caps": (0.3, 0.5, 0.9, 0.9)},
                                        {"tychonoff_lambda": 0.05}])
    @pytest.mark.parametrize("init", ["greedy", "random"])
    def test_d_plus_one_products_per_sweep(self, monkeypatch, regime, init):
        # d mode solves and the weight re-solve, whose Gram the loss reads
        rng = np.random.default_rng(57)
        f = rng.standard_normal((5, 4, 6, 3)) + 1j * rng.standard_normal((5, 4, 6, 3))
        calls = hadamard_spy(monkeypatch)
        _, diag = constrained_als(f, SolverConfig(r=3, seed=4, init=init, max_iter=20,
                                                  **regime))
        assert len(calls) == 5 * diag.n_iter

    def test_120_per_blind_id_op(self, monkeypatch):
        # the seed-611 items of the benchmark converge in 30 sweeps of 3 modes
        from test_simulate import _blind_id_workload

        workload = _blind_id_workload()
        calls = hadamard_spy(monkeypatch)
        counts = []
        for item in workload.setup(611, None):
            calls.clear()
            workload.op(item)
            counts.append(len(calls))
        assert counts == [120] * workload.pool

    def test_no_numpy_wrapper_per_blind_id_op(self, monkeypatch):
        # the op's reductions are ndarray methods or ufunc.reduce and its norms
        # core.vector_norm and core.column_norms: the same loops, without the
        # Python-level dispatch of these functions (389 calls per op before)
        from test_simulate import _blind_id_workload

        calls = []
        for owner, name in [(np, "sum"), (np, "any"), (np, "all"), (np, "min"), (np, "max"),
                            (np, "argmax"), (np.linalg, "norm")]:
            def spy(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        workload = _blind_id_workload()
        counts = []
        for item in workload.setup(611, None):
            calls.clear()
            workload.op(item)
            counts.append(len(calls))
        assert counts == [0] * workload.pool

    def test_greedy_solves_read_their_gram(self, monkeypatch):
        rng = np.random.default_rng(58)
        dictionary = random_incoherent_dictionary((4, 4, 4), 12, seed=3)
        f = planted_combination(dictionary, [1, 5, 9], np.array([1.0, 0.8, 0.6]))
        calls = hadamard_spy(monkeypatch)
        woga(f, dictionary)
        oga_continuous(rng.standard_normal((3, 3, 3)) + 0j, 3, restarts=4)
        assert calls == []


class TestDivergenceWitness:
    def test_mode_coherences_clipped_to_one(self):
        # at n = 2^37 the normalized pair is aligned to rounding; the inner
        # product computed on its own read 1.0000000000000002
        rng = np.random.default_rng(0)
        phis = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        psis = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        (rec,) = divergence_witness(phis, psis, [2 ** 37])
        assert max(rec["mode_coherences"]) == 1.0

    def test_matches_entrywise_formulas(self):
        rng = np.random.default_rng(23)
        phis = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        psis = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        n = 10
        recs = divergence_witness(phis, psis, [n])
        # independent entrywise oracle of both displayed expressions
        target = np.zeros((3, 3, 3), dtype=complex)
        f_n = np.zeros((3, 3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    target[i, j, k] = (psis[0][i] * phis[1][j] * phis[2][k]
                                       + phis[0][i] * psis[1][j] * phis[2][k]
                                       + phis[0][i] * phis[1][j] * psis[2][k])
                    f_n[i, j, k] = (n * (phis[0][i] + psis[0][i] / n)
                                    * (phis[1][j] + psis[1][j] / n)
                                    * (phis[2][k] + psis[2][k] / n)
                                    - n * phis[0][i] * phis[1][j] * phis[2][k])
        oracle_loss = frobenius(target - f_n)
        assert abs(recs[0]["loss"] - oracle_loss) < 1e-12 * max(1.0, oracle_loss)
        oracle_weight = n * float(np.prod(
            [np.linalg.norm(phis[k] + psis[k] / n) for k in range(3)]))
        assert abs(recs[0]["max_weight"] - oracle_weight) < 1e-12 * oracle_weight

    def test_loss_halves_when_n_doubles(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        recs = divergence_witness([e1] * 3, [e2] * 3, [32, 64, 128])
        for a, b in zip(recs[:-1], recs[1:]):
            ratio = a["loss"] / b["loss"]
            assert abs(ratio - 2.0) < 0.2

    def test_coherences_approach_one(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        for rec in divergence_witness([e1] * 3, [e2] * 3, [8, 16, 64]):
            n = rec["n"]
            assert min(rec["mode_coherences"]) >= 1.0 - 5.0 / n

    def test_rejects_dependent_pairs(self):
        v = np.array([1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="dependent"):
            divergence_witness([v] * 3, [2.0 * v, v, v], [4])

    def test_rejects_other_than_three_pairs(self):
        e = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match=r"need exactly three \(phi_k, psi_k\) pairs"):
            divergence_witness([e[0]] * 2, [e[1]] * 2, [4])

    @pytest.mark.parametrize("which", ["phi", "psi"])
    def test_rejects_a_non_finite_vector_by_name(self, which):
        # before the independence check, whose SVD does not converge on NaN
        e = np.eye(2, dtype=complex)
        vectors = {"phi": [e[0]] * 3, "psi": [e[1]] * 3}
        vectors[which] = [e[0], np.array([1.0, math.nan]), e[0]] if which == "phi" \
            else [e[1], np.array([math.inf, 1.0]), e[1]]
        with pytest.raises(ValueError, match=rf"divergence_witness: mode 1 {which}: "
                                             r"non-finite entry at index \(\d,\)"):
            divergence_witness(vectors["phi"], vectors["psi"], [4])

    @pytest.mark.parametrize("n", [0, -4])
    def test_rejects_nonpositive_n(self, n):
        e = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="n values must be positive"):
            divergence_witness([e[0]] * 3, [e[1]] * 3, [4, n])
