import math

import numpy as np
import pytest

from cohcp.coherence import (
    CoherenceReport,
    coherence,
    krank_lower_bound,
    kruskal_rank_bruteforce,
    spark_bruteforce,
)
from cohcp.core import random_unit_columns


class TestCoherence:
    def test_orthonormal_basis(self):
        rep = coherence(np.eye(3, dtype=complex))
        assert rep.mu == 0.0
        assert rep.omega == math.inf

    def test_duplicated_vector(self):
        e1 = np.zeros((3, 2), dtype=complex)
        e1[0, :] = 1.0
        rep = coherence(e1)
        assert abs(rep.mu - 1.0) < 1e-12
        assert rep.omega == 0.0
        assert rep.argpair == (0, 1)

    def test_cosine_pair(self):
        t = math.pi / 3
        v = np.array([[1.0, math.cos(t)], [0.0, math.sin(t)]])
        rep = coherence(v)
        assert abs(rep.mu - 0.5) < 1e-12
        assert abs(rep.omega - 1.0) < 1e-12

    def test_single_vector_trivial(self):
        rep = coherence(np.array([[1.0], [0.0]]))
        assert rep.mu == 0.0 and rep.trivial
        assert rep.omega == math.inf

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            coherence(np.array([[2.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_rejects_empty_factor_set(self, shape):
        # a 0 x 3 set has three zero columns, which are not unit either
        with pytest.raises(ValueError, match="factor set must be a nonempty n x r matrix"):
            coherence(np.zeros(shape))

    @pytest.mark.parametrize("check", [coherence, kruskal_rank_bruteforce, spark_bruteforce])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_named(self, check, bad):
        # |norm - 1| > tol is false for a NaN norm
        with pytest.raises(ValueError, match=r"factor set: non-finite entry at index \(0, 0\)"):
            check(np.array([[bad, 1.0], [1.0, 0.0]]))

    def test_matches_direct_gram_scan(self):
        rng = np.random.default_rng(0)
        v = random_unit_columns(5, 6, rng)
        rep = coherence(v)
        gram = v.conj().T @ v
        direct = max(abs(gram[p, q]) for p in range(6) for q in range(6) if p != q)
        assert abs(rep.mu - direct) < 1e-12

    def test_invariance_unimodulus_and_unitary(self):
        rng = np.random.default_rng(1)
        v = random_unit_columns(5, 4, rng)
        mu0 = coherence(v).mu
        phases = np.exp(2j * np.pi * rng.random(4))
        q = np.linalg.qr(rng.standard_normal((5, 5))
                         + 1j * rng.standard_normal((5, 5)))[0]
        assert abs(coherence(v * phases).mu - mu0) < 1e-12
        assert abs(coherence(q @ v).mu - mu0) < 1e-10

    def test_mu_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = random_unit_columns(4, 5, rng)
            mu = coherence(v).mu
            assert 0.0 <= mu <= 1.0

    def test_omega_relation(self):
        rng = np.random.default_rng(3)
        v = random_unit_columns(4, 4, rng)
        rep = coherence(v)
        assert abs(rep.omega - (1 - rep.mu) / rep.mu) < 1e-12


class TestKruskalRank:
    def test_identity_full(self):
        assert kruskal_rank_bruteforce(np.eye(3, dtype=complex)) == 3

    def test_dependent_triple(self):
        e1 = np.array([1.0, 0, 0], dtype=complex)
        e2 = np.array([0, 1.0, 0], dtype=complex)
        mix = (e1 + e2) / np.sqrt(2)
        v = np.stack([e1, e2, mix], axis=1)
        assert kruskal_rank_bruteforce(v) == 2

    def test_duplicate_gives_one(self):
        rng = np.random.default_rng(4)
        u = random_unit_columns(3, 1, rng)[:, 0]
        w = random_unit_columns(3, 1, rng)[:, 0]
        v = np.stack([u, w, u], axis=1)
        assert kruskal_rank_bruteforce(v) == 1

    def test_budget_refusal(self):
        rng = np.random.default_rng(5)
        v = random_unit_columns(4, 15, rng)
        with pytest.raises(ValueError):
            kruskal_rank_bruteforce(v)
        # explicit budget raise allows it
        assert kruskal_rank_bruteforce(v, budget=15) >= 1

    def test_more_vectors_than_dim(self):
        rng = np.random.default_rng(6)
        v = random_unit_columns(3, 5, rng)
        k = kruskal_rank_bruteforce(v)
        assert 1 <= k <= 3

    def test_spark_relation(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            v = random_unit_columns(4, 6, rng)
            if trial % 2:
                # plant a dependency
                v = v.copy()
                v[:, 5] = v[:, 0] * 0.6 + v[:, 1] * 0.8
                v[:, 5] /= np.linalg.norm(v[:, 5])
            k = kruskal_rank_bruteforce(v)
            s = spark_bruteforce(v)
            assert s == k + 1

    def test_spark_of_independent_set_is_r_plus_one(self):
        v = np.eye(4, 3, dtype=complex)
        assert spark_bruteforce(v) == 4 == kruskal_rank_bruteforce(v) + 1

    def test_single_column_has_krank_one(self):
        assert kruskal_rank_bruteforce(np.ones((1, 1), dtype=complex)) == 1
        assert spark_bruteforce(np.ones((1, 1), dtype=complex)) == 2

    def test_spark_budget_refusal(self):
        v = random_unit_columns(4, 15, np.random.default_rng(5))
        with pytest.raises(ValueError, match="brute-force spark refused: r=15 exceeds budget 14"):
            spark_bruteforce(v)


class TestKrankLowerBound:
    def test_half(self):
        rep = CoherenceReport(mu=0.5, omega=1.0, argpair=(0, 1))
        assert krank_lower_bound(rep) == 2

    def test_point_three(self):
        rep = CoherenceReport(mu=0.3, omega=7 / 3, argpair=(0, 1))
        assert krank_lower_bound(rep) == 4

    def test_exact_integer_reciprocal(self):
        # 1/(1/3) must give 3, not 4, despite float round-off
        rep = CoherenceReport(mu=1 / 3, omega=2.0, argpair=(0, 1))
        assert krank_lower_bound(rep) == 3

    def test_orthonormal_signals(self):
        rep = CoherenceReport(mu=0.0, omega=math.inf, argpair=None)
        with pytest.raises(ValueError, match="orthonormal"):
            krank_lower_bound(rep)

    def test_bound_below_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            v = random_unit_columns(8, 6, rng)
            rep = coherence(v)
            k = kruskal_rank_bruteforce(v)
            if rep.mu > 0 and k < np.linalg.matrix_rank(v):
                assert k >= krank_lower_bound(rep)

    def test_lemma_on_forced_dependency(self):
        # instances with krank < dim span, where the bound is guaranteed
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = random_unit_columns(8, 6, rng)
            v = v.copy()
            v[:, 3] = 0.7 * v[:, 0] + 0.3 * v[:, 1]
            v[:, 3] /= np.linalg.norm(v[:, 3])
            k = kruskal_rank_bruteforce(v)
            span = np.linalg.matrix_rank(v)
            assert k < span
            assert k >= krank_lower_bound(coherence(v))
