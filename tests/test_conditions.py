import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohcp.conditions import (
    _BOUNDARY_RTOL,
    coercivity_lower_bound,
    condition_report,
    existence_condition,
    existence_uniqueness_condition,
    expected_rank,
    greedy_bound_check,
    kruskal_condition,
    kruskal_simple_bound,
    sufficient_sum,
    sufficient_sumsq,
    temlyakov_condition,
    uniqueness_condition,
)
from cohcp.core import evaluate_terms, frobenius, gram_mu, random_unit_columns


class TestExistence:
    def test_product_below_threshold(self):
        assert existence_condition([0.9, 0.9, 0.9], 2)  # 0.729 < 1

    def test_collinear_fails(self):
        assert not existence_condition([1.0, 1.0, 1.0], 2)  # 1 < 1 is false

    def test_rank_one_always(self):
        assert existence_condition([1.0, 1.0, 1.0], 1)
        assert existence_condition([0.0], 1)

    def test_strictness(self):
        # product exactly at 1/(r-1) must fail
        assert not existence_condition([0.5, 1.0, 1.0], 3)


class TestUniqueness:
    def test_arithmetic(self):
        assert uniqueness_condition([1 / 3, 1 / 3, 1 / 3], 3)  # 9 >= 8

    def test_d2_never_sufficient_at_mu_ge_inv_r(self):
        for r in range(1, 6):
            mu = 1.0 / r
            assert not uniqueness_condition([mu, mu], r)

    def test_fails_with_collinear(self):
        assert not uniqueness_condition([1.0, 1.0, 1.0], 1)  # 3 >= 4 false

    def test_zero_coherence_satisfies(self):
        assert uniqueness_condition([0.0, 1.0, 1.0], 10)

    def test_non_strict_boundary(self):
        # sum 1/mu = 4 exactly at mu = 0.75, r = 1, d = 3
        assert uniqueness_condition([0.75, 0.75, 0.75], 1)


class TestExistenceUniqueness:
    def test_true_case(self):
        assert existence_uniqueness_condition([0.4, 0.4, 0.4], 2)

    def test_false_case(self):
        assert not existence_uniqueness_condition([0.6, 0.6, 0.6], 2)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="d >= 3"):
            existence_uniqueness_condition([0.5, 0.5], 2)

    def test_boundary_inclusive(self):
        assert existence_uniqueness_condition([0.5, 0.5, 0.5], 2)


class TestSufficientConditions:
    def test_thresholds_d3_r2(self):
        # sum threshold 1.5, sum-of-squares threshold 0.75
        assert sufficient_sum([0.4, 0.4, 0.4], 2)       # 1.2 <= 1.5
        assert sufficient_sumsq([0.4, 0.4, 0.4], 2)     # 0.48 <= 0.75
        assert not sufficient_sum([0.6, 0.6, 0.6], 2)   # 1.8 > 1.5
        assert not sufficient_sumsq([0.51, 0.51, 0.51], 2)

    def test_implication_chain_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            d = int(rng.integers(3, 6))
            mus = rng.uniform(0.01, 1.0, size=d)
            r = int(rng.integers(1, 9))
            if sufficient_sumsq(mus, r):
                assert sufficient_sum(mus, r)
            if sufficient_sum(mus, r):
                assert existence_uniqueness_condition(mus, r)
            if existence_uniqueness_condition(mus, r):
                assert existence_condition(mus, r)
                assert uniqueness_condition(mus, r)


class TestKruskalCondition:
    def test_boundary(self):
        assert kruskal_condition([2, 2, 2], 2)  # 6 <= 6

    def test_d2_never(self):
        for r in range(1, 8):
            assert not kruskal_condition([r, r], r)

    def test_trivial_false(self):
        assert not kruskal_condition([1, 1, 1], 1)  # 4 <= 3 false


class TestExpectedRank:
    def test_examples(self):
        assert expected_rank([2, 2, 2]) == 2
        assert expected_rank([3, 3, 3]) == 4
        assert expected_rank([7]) == 1

    def test_cubic_exceeds_side(self):
        # the n = 2 cube is the known exception: its generic rank equals 2
        assert expected_rank([2, 2, 2]) == 2
        for n in range(3, 8):
            assert expected_rank([n, n, n]) >= n + 1

    def test_degenerate_inputs_rejected(self):
        # the denominator 1 - d + sum(n_k) is >= 1 for any positive dims,
        # so only nonpositive dims can degenerate it
        assert expected_rank([1, 1, 1, 1]) == 1
        with pytest.raises(ValueError):
            expected_rank([1, 0])


class TestKruskalSimpleBound:
    def test_table_values(self):
        assert kruskal_simple_bound(3, 2) == 3
        assert kruskal_simple_bound(6, 2) == 6
        assert kruskal_simple_bound(4, 4) == 6

    def test_symmetry(self):
        assert kruskal_simple_bound(2, 3) == kruskal_simple_bound(3, 2) == 3


class TestTemlyakov:
    def test_boundary_cases(self):
        assert temlyakov_condition(5, 0.1, 1.0)       # 5 < 5.5
        assert not temlyakov_condition(6, 0.1, 1.0)   # 6 < 5.5 false

    def test_small_t_fails(self):
        assert not temlyakov_condition(1, 0.5, 0.2)

    def test_monotone_in_t(self):
        held = [temlyakov_condition(3, 0.1, t) for t in (0.1, 0.5, 1.0)]
        assert held == sorted(held)

    def test_orthonormal_dictionary(self):
        assert temlyakov_condition(1000, 0.0, 0.5)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            temlyakov_condition(2, 0.5, 0.0)
        with pytest.raises(ValueError):
            temlyakov_condition(2, 1.0, 1.0)


class TestCoercivity:
    def test_orthonormal_exact(self):
        w = np.array([1.0, 2.0, 2.0])
        assert abs(coercivity_lower_bound(w, [0.0, 0.0, 0.0]) - 9.0) < 1e-12

    def test_arithmetic(self):
        val = coercivity_lower_bound([1.0, 1.0], [0.5, 0.5, 0.5])
        assert abs(val - 1.75) < 1e-12

    def test_rank_one_exact(self):
        assert abs(coercivity_lower_bound([3.0], [0.9, 0.9]) - 9.0) < 1e-12

    def test_negative_returned_as_is(self):
        val = coercivity_lower_bound([1.0, 1.0, 1.0], [0.9, 0.9, 0.9])
        assert val < 0

    def test_bound_holds_on_random_factor_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            r = int(rng.integers(1, 5))
            dims = rng.integers(2, 6, size=d)
            factors = [random_unit_columns(int(n), r, rng) for n in dims]
            lam = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            mus = []
            for f in factors:
                g = np.abs(f.conj().T @ f)
                np.fill_diagonal(g, 0)
                mus.append(min(float(np.max(g)), 1.0) if r > 1 else 0.0)
            true_sq = frobenius(evaluate_terms(lam, factors)) ** 2
            assert true_sq >= coercivity_lower_bound(lam, mus) - 1e-10

    @settings(deadline=None, max_examples=100)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           r=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           coherent=st.booleans())
    def test_bound_holds_property(self, dims, r, seed, coherent):
        rng = np.random.default_rng(seed)
        factors = [random_unit_columns(n, r, rng) for n in dims]
        if coherent:  # near-collinear columns: mu_k close to 1
            factors = [f[:, :1] + 0.05 * f for f in factors]
            factors = [f / np.linalg.norm(f, axis=0) for f in factors]
        lam = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        mus = [gram_mu(f.conj().T @ f) for f in factors]
        true_sq = frobenius(evaluate_terms(lam, factors)) ** 2
        lam2 = float(np.sum(np.abs(lam) ** 2))
        assert true_sq >= coercivity_lower_bound(lam, mus) - 1e-12 * lam2


class TestGreedyBounds:
    def test_tropp_small_r(self):
        factor, iterate = greedy_bound_check("tropp", 1, 0.01)
        assert abs(factor - math.sqrt(7)) < 1e-12
        assert iterate == 1

    def test_liv(self):
        got = greedy_bound_check("liv", 10, 0.001)
        assert got is not None
        assert got[0] == 3.0 and got[1] == 20

    def test_high_coherence_none(self):
        for kind in ("gms", "tropp", "det", "liv"):
            assert greedy_bound_check(kind, 10, 0.5) is None

    def test_det_threshold_follows_exponent(self):
        # mu^{-2/3}/20 = 5 at mu = 0.001: r = 5 passes, r = 10 does not
        assert greedy_bound_check("det", 5, 0.001) is not None
        assert greedy_bound_check("det", 10, 0.001) is None

    def test_det_iterate_natural_log(self):
        factor, iterate = greedy_bound_check("det", 10, 1e-6)
        assert factor == 24.0
        assert iterate == math.ceil(10 * math.log(10))

    def test_all_four_when_very_incoherent(self):
        for kind in ("gms", "tropp", "det", "liv"):
            assert greedy_bound_check(kind, 5, 1e-5) is not None

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            greedy_bound_check("bogus", 2, 0.1)


class TestBoundaries:
    """Each inequality at a point where both sides are exact in binary, and
    one representable step to the side where the verdict flips."""

    def test_temlyakov_strict_at_equality(self):
        # (1/2)(1 + 1/0.2) is exactly 3.0, so r = 3 fails the strict bound
        assert not temlyakov_condition(3, 0.2, 1.0)
        assert temlyakov_condition(2, 0.2, 1.0)

    def test_temlyakov_weakness_range_closed_at_one(self):
        assert not temlyakov_condition(3, 0.2, 1.0)
        with pytest.raises(ValueError, match="weakness parameter"):
            temlyakov_condition(3, 0.2, math.nextafter(1.0, 2.0))

    @pytest.mark.parametrize("kind, r, mu", [("gms", 2, 1 / 64), ("tropp", 4, 1 / 12)])
    def test_greedy_strict_at_equality(self, kind, r, mu):
        # 1/(32 mu) = 2.0 and 1/(3 mu) = 4.0 exactly; one ulp less
        # coherence lifts the threshold above r
        assert greedy_bound_check(kind, r, mu) is None
        assert greedy_bound_check(kind, r, math.nextafter(mu, 0.0)) is not None

    def test_liv_threshold_numerator(self):
        # 1/(20 mu) = 2.0 at mu = 1/40: r = 2 holds, r = 3 does not
        assert greedy_bound_check("liv", 2, 1 / 40) == (3.0, 4)
        assert greedy_bound_check("liv", 3, 1 / 40) is None

    def test_expected_rank_denominator(self):
        # ceil(64 / 10); a denominator of 2 - d + sum(n_k) gives ceil(64 / 11) = 6
        assert expected_rank((4, 4, 4)) == 7

    def test_kruskal_simple_bound_smallest_sizes(self):
        assert kruskal_simple_bound(1, 1) == 0
        assert kruskal_simple_bound(1, 2) == kruskal_simple_bound(2, 1) == 1


class TestConditionReport:
    def test_report_fields(self):
        rep = condition_report([0.4, 0.4, 0.4], 2, kranks=[2, 2, 2])
        assert rep["existence"]["holds"]
        assert rep["uniqueness"]["holds"]
        assert rep["existence_uniqueness"]["holds"]
        assert rep["kruskal"]["holds"]
        assert abs(rep["existence"]["lhs_product"] - 0.064) < 1e-12

    def test_low_order_report(self):
        rep = condition_report([0.4, 0.4], 2)
        assert not rep["existence_uniqueness"]["holds"]
        assert "note" in rep["existence_uniqueness"]

    def test_kranks_need_one_per_mode(self):
        # two kranks for three modes: the verdict counted d = 2 while the
        # printed left side counted d = 3, and "holds" contradicted 6 <= 5
        with pytest.raises(ValueError, match="need one Kruskal rank per mode"):
            condition_report([0.4, 0.4, 0.4], 2, kranks=[3, 2])


def _with_slack(a, b):
    return _BOUNDARY_RTOL * max(1.0, abs(a), abs(b))


# each entry's inequality, stated on its printed sides, and its predicate
STATED = {
    "existence": ("lhs_product", lambda a, b: a < b, existence_condition),
    "uniqueness": ("lhs_inverse_sum", lambda a, b: a >= b - _with_slack(a, b),
                   uniqueness_condition),
    "existence_uniqueness": ("lhs_geometric_mean",
                             lambda a, b: a <= b + _with_slack(a, b),
                             existence_uniqueness_condition),
    "sufficient_sum": ("lhs_sum", lambda a, b: a <= b + _with_slack(a, b), sufficient_sum),
    "sufficient_sumsq": ("lhs_sum_squares", lambda a, b: a <= b + _with_slack(a, b),
                         sufficient_sumsq),
}

# coherences drawn from a grid that hits the boundaries exactly, and anywhere
MUS = st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
               min_size=1, max_size=5)


class TestReportProperties:
    @settings(deadline=None, max_examples=300)
    @given(mus=MUS, r=st.integers(1, 9), data=st.data())
    def test_entries_are_their_predicates_and_sides(self, mus, r, data):
        kranks = data.draw(st.lists(st.integers(0, 12), min_size=len(mus),
                                    max_size=len(mus)))
        rep = condition_report(mus, r, kranks=kranks)
        for name, (lhs, compare, predicate) in STATED.items():
            entry = rep[name]
            if len(mus) < 3 and name not in ("existence", "uniqueness"):
                assert entry["holds"] is False and "note" in entry
                with pytest.raises(ValueError, match="d >= 3"):
                    predicate(mus, r)
                continue
            assert entry["holds"] is predicate(mus, r)
            assert entry["holds"] == compare(entry[lhs], entry["rhs"])
        kr = rep["kruskal"]
        assert kr["holds"] is kruskal_condition(kranks, r)
        assert kr["holds"] == (kr["lhs"] <= kr["rhs_krank_sum"])


class TestNonFiniteRejected:
    # NaN fails no range comparison; unchecked, it counts as 1/mu = inf
    # and certifies uniqueness
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [
        existence_condition, uniqueness_condition, existence_uniqueness_condition,
        sufficient_sum, sufficient_sumsq, condition_report])
    def test_coherences(self, check, bad):
        with pytest.raises(ValueError, match="coherences must be finite"):
            check([bad, 0.5, 0.5], 2)

    def test_nan_does_not_certify_uniqueness(self):
        with pytest.raises(ValueError, match=r"coherences must be finite, got \[nan"):
            uniqueness_condition([math.nan, 0.5, 0.5], 2)

    def test_temlyakov_coherence(self):
        with pytest.raises(ValueError, match=r"dictionary coherence must lie in \[0, 1\)"):
            temlyakov_condition(3, math.nan, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_coercivity_weights(self, bad):
        with pytest.raises(ValueError, match="coercivity_lower_bound: weights must be finite"):
            coercivity_lower_bound([1.0, bad], [0.1, 0.1, 0.1])

    def test_coercivity_coherences(self):
        with pytest.raises(ValueError, match="coherences must be finite"):
            coercivity_lower_bound([1.0, 1.0], [math.nan, 0.1, 0.1])


class TestRangeRejected:
    """Each checker names the argument that is out of its range."""

    @pytest.mark.parametrize("mus", [[], [[0.5, 0.5]]])
    def test_coherences_not_a_nonempty_list(self, mus):
        with pytest.raises(ValueError, match="need a nonempty list of per-mode coherences"):
            existence_condition(mus, 2)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_coherence_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"coherences must lie in \[0, 1\]"):
            condition_report([0.5, bad, 0.5], 2)

    @pytest.mark.parametrize("r", [0, -3])
    def test_rank_below_one(self, r):
        with pytest.raises(ValueError, match="rank r must be >= 1"):
            uniqueness_condition([0.5, 0.5, 0.5], r)

    @pytest.mark.parametrize("kranks", [[], [2, -1, 2]])
    def test_kranks_empty_or_negative(self, kranks):
        with pytest.raises(ValueError, match="kranks must be nonnegative integers"):
            kruskal_condition(kranks, 2)

    @pytest.mark.parametrize("n1, n2", [(0, 3), (3, 0)])
    def test_kruskal_simple_bound_sizes(self, n1, n2):
        with pytest.raises(ValueError, match="subarray sizes must be positive"):
            kruskal_simple_bound(n1, n2)

    def test_coercivity_needs_a_weight(self):
        with pytest.raises(ValueError, match="need at least one weight"):
            coercivity_lower_bound([], [0.1, 0.1, 0.1])

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_greedy_bound_coherence_open_interval(self, mu):
        with pytest.raises(ValueError, match=r"coherence must lie in \(0, 1\)"):
            greedy_bound_check("gms", 2, mu)
