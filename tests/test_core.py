import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp import core
from cohcp.core import (
    CPModel,
    canonicalize,
    coherent_pair,
    cp_evaluate,
    essentially_equal,
    evaluate_terms,
    frobenius,
    inner_product,
    khatri_rao_but,
    multilinear_action,
    rank1_outer,
    random_unit_columns,
    term_correlations,
)


def random_model(rng, dims=(3, 4, 2), r=3):
    weights = np.sort(0.5 + rng.random(r))[::-1]
    factors = [random_unit_columns(n, r, rng) for n in dims]
    return CPModel(weights=weights, factors=tuple(factors))


class TestRank1Outer:
    def test_standard_basis(self):
        e = np.array([1.0, 0.0])
        t = rank1_outer([e, e, e])
        assert t.shape == (2, 2, 2)
        assert t[0, 0, 0] == 1.0
        assert np.abs(t).sum() == 1.0

    def test_rank1_matrix(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        m = rank1_outer([u, v])
        assert np.allclose(m, [[0.5, -0.5], [0.5, -0.5]])

    def test_unit_factors_give_unit_norm(self):
        rng = np.random.default_rng(0)
        vecs = [random_unit_columns(3, 1, rng)[:, 0] for _ in range(3)]
        t = rank1_outer(vecs)
        assert abs(frobenius(t) - 1.0) < 1e-12

    def test_entries_match_product_formula(self):
        rng = np.random.default_rng(1)
        u, v, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for n in (2, 3, 2))
        t = rank1_outer([u, v, w])
        for i in range(2):
            for j in range(3):
                for k in range(2):
                    assert abs(t[i, j, k] - u[i] * v[j] * w[k]) < 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank1_outer([])
        with pytest.raises(ValueError):
            rank1_outer([np.array([]), np.array([1.0])])


class TestInnerProduct:
    def test_basis_tensor(self):
        e = np.array([1.0, 0.0])
        t = rank1_outer([e, e, e])
        assert inner_product(t, t) == 1.0

    def test_rank1_splits_into_product(self):
        rng = np.random.default_rng(2)
        us = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 2, 4)]
        vs = [random_unit_columns(n, 1, rng)[:, 0] for n in (3, 2, 4)]
        lhs = inner_product(rank1_outer(us), rank1_outer(vs))
        rhs = 1.0
        for u, v in zip(us, vs):
            rhs *= np.sum(u * v.conj())
        assert abs(lhs - rhs) < 1e-12

    def test_matches_flattened_dot(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        g = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        oracle = sum(f[i, j, k] * np.conj(g[i, j, k])
                     for i in range(2) for j in range(3) for k in range(2))
        assert abs(inner_product(f, g) - oracle) < 1e-12

    def test_cauchy_schwarz_on_unit_rank1(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = rank1_outer([random_unit_columns(n, 1, rng)[:, 0] for n in (3, 3, 3)])
            g = rank1_outer([random_unit_columns(n, 1, rng)[:, 0] for n in (3, 3, 3)])
            assert abs(inner_product(f, g)) <= 1.0 + 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(np.zeros((2, 2)), np.zeros((2, 3)))


class TestCPEvaluate:
    def test_single_weighted_basis_term(self):
        e1 = np.array([[1.0], [0.0]])
        model = CPModel(weights=np.array([2.0]), factors=(e1, e1, e1))
        t = cp_evaluate(model)
        assert t[0, 0, 0] == 2.0
        assert np.abs(t).sum() == 2.0

    def test_identity_matrix_model(self):
        eye = np.eye(2, dtype=complex)
        model = CPModel(weights=np.array([1.0, 1.0]), factors=(eye, eye))
        assert np.allclose(cp_evaluate(model), np.eye(2))

    def test_nonexistence_sequence_matches_entrywise_formula(self):
        # rank-2 term pair evaluated against the displayed product expression
        rng = np.random.default_rng(5)
        n = 10
        phis = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        psis = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        mixed = [p + q / n for p, q in zip(phis, psis)]
        model = canonicalize(
            np.array([n, -n], dtype=complex),
            [np.stack([m, p], axis=1) for m, p in zip(mixed, phis)],
        )
        t = cp_evaluate(model)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    direct = (n * mixed[0][i] * mixed[1][j] * mixed[2][k]
                              - n * phis[0][i] * phis[1][j] * phis[2][k])
                    assert abs(t[i, j, k] - direct) < 1e-12


class TestCanonicalize:
    def test_sorts_descending(self):
        rng = np.random.default_rng(6)
        factors = [random_unit_columns(3, 2, rng) for _ in range(3)]
        model = canonicalize(np.array([1.0, 3.0]), factors)
        assert np.allclose(model.weights, [3.0, 1.0])
        # columns swapped along with the weights
        raw = evaluate_terms([1.0, 3.0], factors)
        assert frobenius(raw - cp_evaluate(model)) < 1e-12 * frobenius(raw)

    def test_negative_weight_absorbed(self):
        rng = np.random.default_rng(7)
        factors = [random_unit_columns(4, 1, rng) for _ in range(3)]
        raw = evaluate_terms([-2.0], factors)
        model = canonicalize(np.array([-2.0]), factors)
        assert model.weights[0] == 2.0
        assert frobenius(raw - cp_evaluate(model)) < 1e-12 * frobenius(raw)

    def test_random_terms_reevaluate(self):
        rng = np.random.default_rng(8)
        weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        factors = [2.0 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
                   for _ in range(3)]
        raw = evaluate_terms(weights, factors)
        model = canonicalize(weights, factors)
        assert frobenius(raw - cp_evaluate(model)) < 1e-12 * frobenius(raw)
        assert np.all(np.diff(model.weights) <= 0)
        for f in model.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_phase_anchor_is_real_positive(self):
        rng = np.random.default_rng(9)
        model = canonicalize(
            np.array([1.0 + 1.0j]),
            [np.exp(1j * rng.random()) * random_unit_columns(4, 1, rng)
             for _ in range(3)],
        )
        for f in model.factors[:-1]:
            col = f[:, 0]
            top = col[np.argmax(np.abs(col))]
            assert abs(top.imag) < 1e-12
            assert top.real > 0

    def test_zero_term_dropped_with_flag(self):
        rng = np.random.default_rng(10)
        factors = [random_unit_columns(3, 2, rng) for _ in range(3)]
        factors[1] = factors[1].copy()
        factors[1][:, 1] = 0.0
        model = canonicalize(np.array([1.0, 1.0]), factors)
        assert model.rank == 1
        assert model.dropped_terms == 1

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        weights = rng.standard_normal(4)
        factors = [rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
                   for _ in range(3)]
        raw = evaluate_terms(weights, factors)
        model = canonicalize(weights, factors)
        assert abs(frobenius(raw) - frobenius(cp_evaluate(model))) \
            < 1e-12 * frobenius(raw)


class TestCPModelValidation:
    def test_rejects_ascending_weights(self):
        rng = np.random.default_rng(12)
        factors = tuple(random_unit_columns(3, 2, rng) for _ in range(3))
        with pytest.raises(ValueError):
            CPModel(weights=np.array([1.0, 2.0]), factors=factors)

    def test_rejects_non_unit_columns(self):
        rng = np.random.default_rng(13)
        factors = [random_unit_columns(3, 2, rng) for _ in range(3)]
        factors[0] = 2 * factors[0]
        with pytest.raises(ValueError):
            CPModel(weights=np.array([2.0, 1.0]), factors=tuple(factors))

    def test_rejects_zero_weight(self):
        rng = np.random.default_rng(14)
        factors = tuple(random_unit_columns(3, 1, rng) for _ in range(3))
        with pytest.raises(ValueError):
            CPModel(weights=np.array([0.0]), factors=factors)

    def test_immutable(self):
        rng = np.random.default_rng(15)
        m = random_model(rng)
        with pytest.raises(ValueError):
            m.weights[0] = 5.0

    def test_keeps_read_only_copies(self):
        # the caller's arrays used to turn read-only, being the model's own
        rng = np.random.default_rng(15)
        w = np.array([2.0, 1.0])
        factors = tuple(random_unit_columns(3, 2, rng) for _ in range(3))
        m = CPModel(weights=w, factors=factors)
        assert w.flags.writeable and all(f.flags.writeable for f in factors)
        w[0] = -1.0
        factors[0][0, 0] = np.nan
        assert m.weights[0] == 2.0 and np.isfinite(m.factors[0]).all()
        for a in (m.weights, *m.factors):
            assert not a.flags.writeable and a.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            CPModel(weights=np.array([bad]), factors=(np.ones((1, 1)), np.ones((1, 1))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_factor_entries(self, bad):
        f = np.array([[bad], [0.0]])
        with pytest.raises(ValueError, match=r"factors\[1\] must be finite"):
            CPModel(weights=np.array([1.0]), factors=(np.ones((1, 1)), f))

    @pytest.mark.parametrize("weights, factors, message", [
        (np.ones((1, 1)), (np.ones((2, 1)),), "weights must be a vector"),
        (np.ones(1), (), "need at least one mode"),
        (np.ones(2), (np.ones((2, 2)), np.ones((2, 1))), "factor matrices must be n_k x r"),
        (np.ones(1), (np.ones((1, 1)), np.ones((0, 1))), "empty mode"),
    ])
    def test_rejects_malformed_shapes(self, weights, factors, message):
        with pytest.raises(ValueError, match=message):
            CPModel(weights=weights, factors=factors)

    @pytest.mark.parametrize("factors, message", [
        ([], "need at least one mode"),
        ([np.ones((2, 1)), np.ones((2, 2))], "each factor matrix needs one column per term"),
    ])
    def test_canonicalize_rejects_malformed_shapes(self, factors, message):
        with pytest.raises(ValueError, match=message):
            canonicalize(np.ones(1), factors)

    def test_canonicalize_rejects_non_finite(self):
        with pytest.raises(ValueError, match="weights must be finite"):
            canonicalize(np.array([np.nan]), [np.ones((2, 1)), np.ones((2, 1))])
        f = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError, match=r"factors\[1\] must be finite"):
            canonicalize(np.array([1.0]), [np.ones((2, 1)), f])

    def test_canonicalize_drops_a_zero_weight_without_a_warning(self):
        # a zero weight has no phase to divide out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = canonicalize([0.0, 2.0], [np.ones((2, 2)), np.ones((3, 2))])
        assert model.dropped_terms == 1
        assert model.weights[0] == pytest.approx(2.0 * np.sqrt(6.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_canonicalize_blames_the_factor_not_the_weight(self, bad):
        # the entry is refused before any division, so no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"factors\[0\] must be finite"):
                canonicalize([1.0], [np.array([[bad], [1.0]])])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 4, 6])
def test_evaluate_terms_agrees_with_einsum(d, r):
    # the Khatri-Rao matmul sums in another order than einsum; every entry
    # of a unit-column model is bounded by sum_p |w_p|, so a few ulps of it
    rng = np.random.default_rng(100 * d + r)
    dims = (5, 3, 4, 2, 3)[:d]
    factors = [random_unit_columns(n, r, rng) for n in dims]
    w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    modes = "abcde"[:d]
    spec = "r," + ",".join(m + "r" for m in modes) + "->" + modes
    want = np.einsum(spec, w, *factors, optimize=True)
    got = evaluate_terms(w, factors)
    assert got.shape == want.shape == dims
    assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(w))


@pytest.mark.parametrize("r", [2, 3, 4, 7])
def test_coherent_pair_matches_fill_diagonal_argmax(r):
    # reference: the first largest off-diagonal |G_pq| in C order, found
    # with np.fill_diagonal and np.argmax; also on a transposed (F-order)
    # Gram and on one whose off-diagonal entries all tie
    rng = np.random.default_rng(r)
    v = random_unit_columns(3, r, rng)
    for gram in (v.conj().T @ v, (v.conj().T @ v).T, np.ones((r, r))):
        g = np.abs(gram)
        np.fill_diagonal(g, -1.0)
        p, q = divmod(int(np.argmax(g)), r)
        assert coherent_pair(gram) == (min(float(g[p, q]), 1.0), (p, q))


def test_evaluate_terms_rejects_column_count_mismatch():
    with pytest.raises(ValueError, match="each factor matrix needs one column per term"):
        evaluate_terms(np.ones(2), [np.ones((3, 2)), np.ones((3, 1))])


def test_term_correlations_of_no_terms():
    out = term_correlations(np.ones((2, 3)), [np.zeros((2, 0)), np.zeros((3, 0))])
    assert out.shape == (0,) and out.dtype == np.complex128


def test_khatri_rao_but_of_one_mode_is_the_empty_product():
    kr = khatri_rao_but([np.full((3, 4), 2.0 + 1.0j)], 0)
    assert kr.dtype == np.float64
    assert np.array_equal(kr, np.ones((1, 4)))


def test_evaluate_terms_rejects_empty_factor_list():
    with pytest.raises(ValueError, match="evaluate_terms: need at least one mode"):
        evaluate_terms([1.0], [])


class TestCanonicalizeProperties:
    @settings(deadline=None, max_examples=60)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           r=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_idempotent_and_preserves_tensor(self, dims, r, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        factors = [rng.uniform(0.1, 10.0, r)
                   * (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
                   for n in dims]
        raw = evaluate_terms(w, factors)
        model = canonicalize(w, factors)
        assert frobenius(cp_evaluate(model) - raw) <= 1e-12 * frobenius(raw)
        again = canonicalize(model.weights, model.factors)
        assert again.dropped_terms == 0
        tol = 1e-12 * np.max(model.weights, initial=1.0)  # weights are not unit
        assert essentially_equal(again, model, tol)
        assert frobenius(cp_evaluate(again) - raw) <= 1e-12 * frobenius(raw)


class TestEssentiallyEqualProperties:
    """The verdict is invariant under permutations of terms within a block
    of equal weights and under per-term unimodular scalings whose phases
    sum to zero over the modes."""

    @settings(deadline=None, max_examples=80)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           weights=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_invariant_under_block_permutations_and_balanced_phases(self, dims, weights,
                                                                     seed):
        rng = np.random.default_rng(seed)
        w = np.sort(np.array(weights))[::-1]
        r = w.size
        model = CPModel(weights=w, factors=tuple(random_unit_columns(n, r, rng)
                                                 for n in dims))
        perm = np.concatenate([rng.permutation(np.flatnonzero(w == v))
                               for v in np.unique(w)[::-1]])
        thetas = rng.uniform(-np.pi, np.pi, (len(dims), r))
        thetas[-1] = -thetas[:-1].sum(axis=0)
        moved = CPModel(weights=w, factors=tuple(
            np.exp(1j * th) * f[:, perm] for th, f in zip(thetas, model.factors)))
        # a third model: term 0 with one mode's phase unbalanced
        factors = [np.array(f) for f in model.factors]
        factors[0][:, 0] *= np.exp(0.4j)
        other = CPModel(weights=w, factors=tuple(factors))
        assert essentially_equal(moved, model, 1e-9)
        assert essentially_equal(model, moved, 1e-9)
        assert essentially_equal(moved, other, 1e-9) == essentially_equal(model, other, 1e-9)


class TestEssentiallyEqual:
    def test_reflexive(self):
        rng = np.random.default_rng(16)
        m = random_model(rng)
        assert essentially_equal(m, m, 1e-9)

    def test_symmetric_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_model(rng)
            b = random_model(rng)
            assert essentially_equal(a, b, 1e-9) == essentially_equal(b, a, 1e-9)

    def test_balanced_phases_accepted(self):
        rng = np.random.default_rng(18)
        m = random_model(rng)
        alpha = 0.7
        scales = [np.exp(1j * alpha), np.exp(-1j * alpha), 1.0]
        factors = []
        for k, f in enumerate(m.factors):
            g = np.array(f)
            g[:, 1] = scales[k] * g[:, 1]
            factors.append(g)
        other = CPModel(weights=m.weights, factors=tuple(factors))
        assert essentially_equal(m, other, 1e-9)
        # the two models evaluate to the same tensor
        assert frobenius(cp_evaluate(m) - cp_evaluate(other)) < 1e-12

    def test_unbalanced_phase_rejected(self):
        rng = np.random.default_rng(19)
        m = random_model(rng)
        factors = [np.array(f) for f in m.factors]
        factors[0][:, 0] = np.exp(1j * 0.4) * factors[0][:, 0]
        other = CPModel(weights=m.weights, factors=tuple(factors))
        assert not essentially_equal(m, other, 1e-9)
        # and indeed the evaluations differ
        assert frobenius(cp_evaluate(m) - cp_evaluate(other)) > 1e-6

    def test_permutation_within_equal_weights(self):
        rng = np.random.default_rng(20)
        factors = [random_unit_columns(4, 2, rng) for _ in range(3)]
        m1 = CPModel(weights=np.array([1.0, 1.0]), factors=tuple(factors))
        swapped = tuple(f[:, ::-1] for f in factors)
        m2 = CPModel(weights=np.array([1.0, 1.0]), factors=swapped)
        assert essentially_equal(m1, m2, 1e-9)

    def test_no_permutation_across_distinct_weights(self):
        rng = np.random.default_rng(21)
        factors = tuple(random_unit_columns(4, 2, rng) for _ in range(3))
        m1 = CPModel(weights=np.array([2.0, 1.0]), factors=factors)
        swapped = tuple(f[:, ::-1] for f in factors)
        m2 = CPModel(weights=np.array([2.0, 1.0]), factors=swapped)
        assert not essentially_equal(m1, m2, 1e-9)

    def test_weight_difference_rejected(self):
        rng = np.random.default_rng(22)
        factors = tuple(random_unit_columns(4, 1, rng) for _ in range(3))
        m1 = CPModel(weights=np.array([1.0]), factors=factors)
        m2 = CPModel(weights=np.array([1.5]), factors=factors)
        assert not essentially_equal(m1, m2, 0.1)
        assert essentially_equal(m1, m2, 0.6)

    def test_weights_exactly_tol_apart_match(self):
        # "within tol" is non-strict: 1.5 - 1.0 is 0.5 exactly, in the sorted
        # weights and on the edge of the matching alike
        rng = np.random.default_rng(22)
        factors = tuple(random_unit_columns(4, 1, rng) for _ in range(3))
        m1 = CPModel(weights=np.array([1.0]), factors=factors)
        m2 = CPModel(weights=np.array([1.5]), factors=factors)
        assert essentially_equal(m1, m2, 0.5)
        assert not essentially_equal(m1, m2, np.nextafter(0.5, 0.0))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
    def test_bad_tol_rejected(self, tol):
        # every "> tol" comparison is false for NaN, so two different models
        # compared equal
        rng = np.random.default_rng(24)
        m1, m2 = random_model(rng), random_model(rng)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            essentially_equal(m1, m2, tol)

    def test_dims_mismatch_raises(self):
        rng = np.random.default_rng(23)
        m1 = random_model(rng, dims=(3, 3, 3))
        m2 = random_model(rng, dims=(3, 3, 2))
        with pytest.raises(ValueError):
            essentially_equal(m1, m2, 1e-9)

    def test_rank_mismatch_is_unequal(self):
        rng = np.random.default_rng(28)
        m = random_model(rng, r=3)
        fewer = CPModel(weights=m.weights[:2], factors=tuple(f[:, :2] for f in m.factors))
        assert not essentially_equal(m, fewer, 1e-9)

    def test_orthogonal_factors_do_not_align(self):
        e = np.eye(2, dtype=complex)
        m1 = CPModel(weights=np.ones(1), factors=(e[:, :1], e[:, :1]))
        m2 = CPModel(weights=np.ones(1), factors=(e[:, :1], e[:, 1:]))
        assert not essentially_equal(m1, m2, 1e-9)

    def test_non_model_input_rejected(self):
        m = random_model(np.random.default_rng(29))
        with pytest.raises(ValueError, match="essentially_equal expects canonical CPModel"):
            essentially_equal(m, cp_evaluate(m), 1e-9)

    def test_swapped_terms_within_tol_match_both_ways(self):
        # weights 1.0 | 0.94 split into two blocks by the first model's gap,
        # while 0.97 lies within 0.05 of both: the terms align only swapped
        m1, m2 = example_models([1.0, 0.94], "AB", [0.97, 0.97], "BA")
        assert essentially_equal(m1, m2, 0.05)
        assert essentially_equal(m2, m1, 0.05)

    def test_no_chain_of_small_gaps_pairs_terms_more_than_tol_apart(self):
        # gaps of 0.04 chain 1.0, 0.96 and 0.92 together, but the only pairing
        # whose factors align puts A at 1.0 with A at 0.93, 0.07 apart
        m3, m4 = example_models([1.0, 0.96, 0.92], "ABC", [0.99, 0.96, 0.93], "CBA")
        assert not essentially_equal(m3, m4, 0.05)
        assert not essentially_equal(m4, m3, 0.05)
        assert essentially_equal(m3, m4, 0.07 + 1e-9)


def example_models(weights1, terms1, weights2, terms2):
    """Two canonical rank-r models on 3x3x3 whose terms are drawn from the
    unit terms A, B and C of ``default_rng(5)``, named by letter."""
    rng = np.random.default_rng(5)
    pool = dict(zip("ABC", ([random_unit_columns(3, 1, rng) for _ in range(3)]
                            for _ in range(3))))

    def model(weights, terms):
        return canonicalize(np.array(weights), [np.hstack([pool[t][k] for t in terms])
                                                for k in range(3)])

    return model(weights1, terms1), model(weights2, terms2)


class TestEssentiallyEqualMatching:
    """One matching over all terms: a pair is an edge when its weights agree
    within tol and its factors align, wherever the weight gaps fall."""

    @staticmethod
    def permutation_search(m1, m2, tol):
        """Some permutation pairs every term within tol in weight, with its
        factors aligned."""
        r = m1.rank
        return any(all(abs(m1.weights[p] - m2.weights[s[p]]) <= tol
                       and core._align_phases(m1, m2, p, s[p], tol) for p in range(r))
                   for s in itertools.permutations(range(r)))

    @settings(deadline=None, max_examples=150)
    @given(r=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_and_equal_to_a_permutation_search(self, r, seed):
        # weights on a 0.03 grid: neighbours lie within tol = 0.05, and the
        # next but one does not, so some terms sit within tol across a gap
        rng = np.random.default_rng(seed)
        tol = 0.05
        terms = [random_unit_columns(n, r, rng) for n in (2, 3, 2)]

        def model(order):
            factors = [f[:, order] for f in terms]
            if rng.random() < 0.25:  # a fresh term, which aligns with none
                p = int(rng.integers(r))
                for f in factors:
                    f[:, p] = random_unit_columns(f.shape[0], 1, rng)[:, 0]
            weights = np.sort(1.0 + 0.03 * rng.integers(0, 5, r))[::-1]
            return canonicalize(weights, factors)

        m1, m2 = model(np.arange(r)), model(rng.permutation(r))
        verdict = essentially_equal(m1, m2, tol)
        assert essentially_equal(m2, m1, tol) == verdict
        assert verdict == self.permutation_search(m1, m2, tol)


class CountingMatrix:
    """A boolean matrix that counts the entries read from it."""

    def __init__(self, ok):
        self.ok = ok
        self.shape = ok.shape
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return self.ok[index]


class TestMatchBlock:
    def test_no_perfect_matching_in_cubic_reads(self):
        # the last two rows match only column 0; backtracking read about
        # 2.7 million entries at n = 9 and ten times more per extra row
        n = 12
        ok = np.ones((n, n), dtype=bool)
        ok[-2:, 1:] = False
        counted = CountingMatrix(ok)
        assert core._match_block(counted) is False
        assert counted.reads <= n ** 3

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_permutation_search(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            ok = rng.random((n, n)) < rng.random()
            exists = any(all(ok[i, p[i]] for i in range(n))
                         for p in itertools.permutations(range(n)))
            assert core._match_block(ok) is exists


class TestMultilinearAction:
    def test_identity(self):
        rng = np.random.default_rng(24)
        t = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        eyes = [np.eye(n) for n in t.shape]
        assert np.allclose(multilinear_action(eyes, t), t)

    def test_rank1_maps_per_mode(self):
        rng = np.random.default_rng(25)
        vecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for n in (3, 4, 2)]
        mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                for n in (3, 4, 2)]
        lhs = multilinear_action(mats, rank1_outer(vecs))
        rhs = rank1_outer([m @ v for m, v in zip(mats, vecs)])
        assert frobenius(lhs - rhs) < 1e-10 * max(1.0, frobenius(rhs))

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(26)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        qs = [np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3)]
        assert abs(frobenius(multilinear_action(qs, t)) - frobenius(t)) < 1e-10

    def test_commutes_with_cp_evaluate(self):
        rng = np.random.default_rng(27)
        m = random_model(rng, dims=(3, 3, 3), r=2)
        qs = [np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0] for _ in range(3)]
        acted = multilinear_action(qs, cp_evaluate(m))
        moved = evaluate_terms(m.weights, [q @ f for q, f in zip(qs, m.factors)])
        assert frobenius(acted - moved) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multilinear_action([np.eye(2), np.eye(3)], np.zeros((2, 2)))

    def test_one_matrix_per_mode(self):
        with pytest.raises(ValueError, match="need exactly one matrix per mode"):
            multilinear_action([np.eye(2)], np.zeros((2, 2)))


class TestUnitColumns:
    """``unit_columns`` against ``np.linalg.norm(c, axis=0)`` and the
    ``np.where`` keep it replaced, bit for bit."""

    @staticmethod
    def reference(c, keep, floor):
        nrm = np.linalg.norm(c, axis=0)
        live = nrm > floor
        return np.where(live, c / np.where(live, nrm, 1.0), keep), nrm

    @settings(deadline=None, max_examples=200)
    @given(n=st.integers(1, 5), r=st.integers(0, 6),
           kinds=st.lists(st.sampled_from(["gauss", "zero", "nan", "tiny", "huge", "floor"]),
                          min_size=6, max_size=6),
           floor=st.sampled_from([0.0, 1e-300, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_matches_linalg_norm_and_where(self, n, r, kinds, floor, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        keep = random_unit_columns(n, r, rng)
        for p in range(r):
            if kinds[p] == "zero":
                c[:, p] = 0.0
            elif kinds[p] == "nan":
                c[rng.integers(n), p] = np.nan
            elif kinds[p] in ("tiny", "huge"):
                c[:, p] *= 1e-160 if kinds[p] == "tiny" else 1e150
        at_floor = [p for p in range(r) if kinds[p] == "floor"]
        if at_floor:
            # a column whose norm is exactly the floor keeps its old column
            floor = float(np.linalg.norm(c[:, at_floor[0]]))
        u, nrm = core.unit_columns(c, keep, floor)
        want_u, want_nrm = self.reference(c, keep, floor)
        assert u.shape == want_u.shape == (n, r) and u.dtype == want_u.dtype
        assert nrm.tobytes() == want_nrm.tobytes()
        assert u.tobytes() == want_u.tobytes()
        for p in at_floor:
            if nrm[p] == floor:
                assert u[:, p].tobytes() == keep[:, p].tobytes()

    def test_all_live_is_one_division(self):
        c = np.array([[3.0, 0.0], [4.0, 2.0]], dtype=complex)
        u, nrm = core.unit_columns(c, np.zeros((2, 2)))
        assert nrm.tolist() == [5.0, 2.0]
        assert u.tobytes() == (c / np.array([5.0, 2.0])).tobytes()

    def test_no_columns(self):
        u, nrm = core.unit_columns(np.zeros((3, 0), dtype=complex),
                                   np.zeros((3, 0), dtype=complex), 1e-300)
        assert u.shape == (3, 0) and nrm.shape == (0,)


class TestNormHelpers:
    """``vector_norm`` and ``column_norms`` run ``np.linalg.norm``'s own
    formulas, so they give its bytes on every layout."""

    @staticmethod
    def views(a):
        # contiguous, a transpose, strided column and row views, one entry
        return [a, a.T, a[:, 0], a[:, -1], a[::2], a[0], a[:1, :1], a[0, :1]]

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(1, 9), m=st.integers(1, 9), exp=st.integers(-150, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_vector_norm_is_linalg_norm(self, n, m, exp, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, m)) * 10.0 ** exp
        for x in self.views(a) + self.views(a + 1j * rng.standard_normal((n, m))):
            assert core.vector_norm(x).tobytes() == np.linalg.norm(x).tobytes()

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(1, 9), m=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_column_norms_are_linalg_norm(self, n, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, m))
        for x in (a, a + 1j * rng.standard_normal((n, m))):
            for v in (x, x.T, x[::2], x[:, ::-1]):
                assert core.column_norms(v).tobytes() == np.linalg.norm(v, axis=0).tobytes()

    def test_frobenius_of_integers_and_transposes(self):
        i = np.arange(-12, 12).reshape(2, 3, 4)
        t = np.random.default_rng(0).standard_normal((3, 4, 5)) + 1j
        for x in (i, i.transpose(2, 0, 1), t.transpose(1, 2, 0), [3, 4]):
            assert frobenius(x) == float(np.linalg.norm(np.asarray(x).ravel()))

    @pytest.mark.parametrize("seed", [0, 1, 611])
    @pytest.mark.parametrize("n, r", [(1, 1), (4, 4), (17, 4), (48, 3)])
    def test_random_unit_columns_keep_their_bytes(self, seed, n, r):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        want = m / np.linalg.norm(m, axis=0)
        assert random_unit_columns(n, r, np.random.default_rng(seed)).tobytes() == want.tobytes()


class TestBoundedTensor:
    def test_in_range_is_one_pass(self, monkeypatch):
        # the norm is the scan: no isfinite pass over an in-range tensor
        t = np.arange(24.0).reshape(2, 3, 4) * 1e100
        monkeypatch.setattr(np, "isfinite", lambda *a: pytest.fail("isfinite scan"))
        got, nrm = core.bounded_tensor(t, "caller")
        assert got.dtype == np.complex128 and nrm == frobenius(t)

    def test_zero_tensor_passes_with_norm_zero(self):
        got, nrm = core.bounded_tensor(np.zeros((2, 2)), "caller")
        assert nrm == 0.0 and not got.any()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_named(self, bad):
        t = np.ones((2, 3))
        t[1, 2] = bad
        with pytest.raises(ValueError, match=r"caller: non-finite entry at index \(1, 2\)"):
            core.bounded_tensor(t, "caller")

    @pytest.mark.parametrize("scale, norm", [(1e160, "5e+160"), (1e155, "5e+155"),
                                             (1e-160, "5e-160"), (1e-300, "5e-300")])
    def test_norm_out_of_range_named(self, scale, norm):
        # 1e155 overflows the squared sum and 1e-300 underflows it to zero
        t = np.array([3.0, 4.0j]) * scale
        with pytest.raises(ValueError, match=re.escape(f"caller: Frobenius norm {norm} lies")):
            core.bounded_tensor(t, "caller")

    def test_band_edges_pass(self):
        for edge in (core.NORM_MIN, core.NORM_MAX):
            assert core.bounded_tensor(np.array([edge]), "caller")[1] == edge


@pytest.mark.parametrize("scale", [1e160, 1e-200])
@pytest.mark.parametrize("entry", ["constrained_als", "woga", "oga_continuous", "best_rank1",
                                   "spectral_norm", "nuclear_norm_bounds"])
def test_entry_points_refuse_norm_out_of_range(entry, scale):
    from cohcp import decompose, norms

    t = np.ones((2, 2, 2)) * scale
    calls = {
        "constrained_als": lambda: decompose.constrained_als(t, decompose.SolverConfig(r=1)),
        "woga": lambda: decompose.woga(t, decompose.Dictionary([[np.ones(2)] * 3])),
        "oga_continuous": lambda: decompose.oga_continuous(t, 1),
        "best_rank1": lambda: decompose.best_rank1(t),
        "spectral_norm": lambda: norms.spectral_norm(t),
        "nuclear_norm_bounds": lambda: norms.nuclear_norm_bounds(t),
    }
    with pytest.raises(ValueError, match=f"{entry}: Frobenius norm .* lies outside"):
        calls[entry]()


class TestKernelBoundaries:
    """The predicates of the small core helpers, at their boundaries."""

    @pytest.mark.parametrize("tol", [0.0, -0.0, 5e-324, 1.7976931348623157e308])
    def test_check_tol_accepts_zero_and_every_finite_positive(self, tol):
        core.check_tol(tol)

    @pytest.mark.parametrize("tol", [-5e-324, np.inf, np.nan])
    def test_check_tol_refuses(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            core.check_tol(tol)

    @pytest.mark.parametrize("r", [0, 1])
    def test_coherent_pair_of_fewer_than_two_columns(self, r):
        assert coherent_pair(np.ones((r, r), dtype=complex)) == (0.0, None)

    def test_coherent_pair_clips_an_overshoot_to_one(self):
        over = 1.0 + 2.0 ** -52  # Cauchy-Schwarz broken by one ulp of rounding
        gram = np.array([[1.0, over], [over, 1.0]], dtype=complex)
        assert coherent_pair(gram) == (1.0, (0, 1))

    def test_unit_columns_default_floor_is_zero(self):
        c = np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex)
        keep = np.full((2, 2), 7.0 + 0j)
        u, nrm = core.unit_columns(c, keep)
        assert np.array_equal(nrm, [0.5, 0.0])
        assert np.array_equal(u, [[1.0, 7.0], [0.0, 7.0]])


def _count_sites() -> dict:
    """Every count the package checks, as a call of the one value."""
    from cohcp import conditions, decompose, norms
    from cohcp.coherence import kruskal_rank_bruteforce, spark_bruteforce

    e = np.eye(2, dtype=complex)
    t = rank1_outer([e[0], e[0], e[0]]) + 0.5 * rank1_outer([e[1], e[1], e[1]])
    atoms = [(e[i], e[j], e[k]) for i, j, k in [(0, 0, 0), (1, 1, 1), (0, 1, 0), (1, 0, 1)]]
    mus = [0.25, 0.25, 0.25]
    return {
        "check_r": lambda x: conditions.existence_condition(mus, x),
        "greedy_bound_check_r": lambda x: conditions.greedy_bound_check("gms", x, 1e-3),
        "kruskal_krank": lambda x: conditions.kruskal_condition([x, 2, 2], 2),
        "expected_rank_dim": lambda x: conditions.expected_rank((x, 3, 3)),
        "kruskal_simple_bound_n1": lambda x: conditions.kruskal_simple_bound(x, 4),
        "kruskal_simple_bound_n2": lambda x: conditions.kruskal_simple_bound(4, x),
        "solver_config_r": lambda x: decompose.SolverConfig(r=x),
        "solver_config_max_iter": lambda x: decompose.SolverConfig(r=2, max_iter=x),
        "oga_continuous_r": lambda x: decompose.oga_continuous(t, x, restarts=2),
        "woga_max_iter": lambda x: decompose.woga(t, decompose.Dictionary(atoms), max_iter=x),
        "divergence_witness_n": lambda x: decompose.divergence_witness(
            [e[0]] * 3, [e[1]] * 3, [x]),
        "alternating_rank1_restarts": lambda x: core.alternating_rank1(
            t, x, 1e-12, 20, np.random.default_rng(0)),
        "matmul_n": norms.mat_mult_tensor,
        "krank_budget": lambda x: kruskal_rank_bruteforce(e, budget=x),
        "spark_budget": lambda x: spark_bruteforce(e, budget=x),
        "norm_size_cap": lambda x: norms.NormConfig(size_cap=x),
    }


# woga's max_iter=None is its default, the dictionary size
@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in sorted(_count_sites())
    for bad in [2.5, np.nan, np.inf, -np.inf, "3", None]
    if (site, bad) != ("woga_max_iter", None)])
def test_count_sites_refuse_a_non_count_by_value(site, bad):
    with pytest.raises(ValueError) as info:
        _count_sites()[site](bad)
    assert str(info.value).count(repr(bad)) == 1


@pytest.mark.parametrize("site", sorted(_count_sites()))
@pytest.mark.parametrize("same", [3.0, np.int64(3), np.float32(3.0)])
def test_count_sites_take_a_whole_number_of_any_type_as_its_int(site, same):
    call = _count_sites()[site]
    assert repr(call(same)) == repr(call(3))


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, 7, True, np.uint8(7), 7.0, -0.0, np.float16(7)])
    def test_returns_the_int(self, value):
        count = core.check_count(value, 0, "n must be >= 0")
        assert type(count) is int and count == value

    def test_a_whole_number_below_least_raises_the_message_unchanged(self):
        for value in (0, 0.0, np.int64(0), -1e300):
            with pytest.raises(ValueError, match=r"^n must be >= 1$"):
                core.check_count(value, 1, "n must be >= 1")

    def test_a_message_that_ends_in_the_value_names_it_once(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got nan$"):
            core.check_count(np.nan, 1, f"n must be >= 1, got {np.nan}")
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 2.5$"):
            core.check_count(2.5, 1, "n must be >= 1")
