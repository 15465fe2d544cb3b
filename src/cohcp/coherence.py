"""Coherence, relative incoherence, spark, and brute-force Kruskal rank.

A factor set is a complex matrix whose columns are unit-norm vectors.  Its
coherence is the largest off-diagonal magnitude of the Gram matrix; its
relative incoherence is (1 - mu) / mu, infinite for orthonormal sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import check_count, coherent_pair, column_norms, finite_tensor

NORM_TOL = 1e-9
KRANK_BUDGET = 14
RANK_RTOL = 1e-8


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence mu in [0, 1], incoherence omega in [0, inf], attaining pair.

    ``trivial`` marks the r = 1 convention (mu = 0 with no pair).
    """

    mu: float
    omega: float
    argpair: tuple | None
    trivial: bool = False


def _check_unit_columns(vectors) -> np.ndarray:
    v = finite_tensor(vectors, "factor set")
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError("factor set must be a nonempty n x r matrix")
    bad = np.abs(column_norms(v) - 1.0) > NORM_TOL
    if bad.any():
        raise ValueError(
            f"non-unit vector(s) at columns {np.flatnonzero(bad).tolist()}"
        )
    return v


def coherence(vectors) -> CoherenceReport:
    """Coherence of a set of unit vectors: max_{p != q} |<phi_p, phi_q>|.

    Computed from the Gram matrix, r(r-1)/2 distinct inner products.
    For a single vector, returns mu = 0 flagged trivial.
    """
    v = _check_unit_columns(vectors)
    mu, pair = coherent_pair(v.conj().T @ v)
    if pair is None:
        return CoherenceReport(mu=0.0, omega=math.inf, argpair=None, trivial=True)
    omega = (1.0 - mu) / mu if mu > 0 else math.inf
    return CoherenceReport(mu=mu, omega=omega, argpair=(min(pair), max(pair)))


def _independent(subset: np.ndarray) -> bool:
    s = np.linalg.svd(subset, compute_uv=False)
    return bool(s[-1] > RANK_RTOL * s[0])


def _bruteforce_columns(vectors, budget: int, what: str) -> np.ndarray:
    """The unit columns of an enumeration, refusing more than ``budget``."""
    v = _check_unit_columns(vectors)
    if v.shape[1] > check_count(budget, 0, f"budget must be >= 0, got {budget}"):
        raise ValueError(f"brute-force {what} refused: r={v.shape[1]} exceeds budget {budget}")
    return v


def kruskal_rank_bruteforce(vectors, budget: int = KRANK_BUDGET) -> int:
    """Largest k such that every k-subset of columns is linearly independent.

    Exhaustive subset enumeration (the problem is strongly NP-hard), so the
    set size r is capped by ``budget`` and exceeding it raises rather than
    silently approximating.  Independence of a subset means the smallest
    singular value exceeds ``RANK_RTOL`` times the largest.  Enumeration
    runs from k = min(r, n) downward and stops at the first k where all
    subsets pass; a single unit column is independent, so k = 1 always does.
    """
    v = _bruteforce_columns(vectors, budget, "Kruskal rank")
    n, r = v.shape
    for k in range(min(n, r), 1, -1):
        if all(_independent(v[:, list(c)]) for c in combinations(range(r), k)):
            return k
    return 1


def spark_bruteforce(vectors, budget: int = KRANK_BUDGET) -> int:
    """Size of the smallest linearly dependent subset of columns.

    Independent enumeration path (increasing k); returns r + 1 when every
    subset is independent.  Satisfies spark = krank + 1.
    """
    v = _bruteforce_columns(vectors, budget, "spark")
    n, r = v.shape
    for k in range(1, r + 1):
        if k > n:
            return k  # any k > n columns are dependent
        for c in combinations(range(r), k):
            if not _independent(v[:, list(c)]):
                return k
    return r + 1


def krank_lower_bound(report: CoherenceReport) -> int:
    """Guaranteed Kruskal-rank lower bound ceil(1 / mu).

    Valid whenever krank < dim span (the set is not linearly independent).
    For mu = 0 the bound is undefined: an orthonormal set has krank = r,
    checkable in polynomial time, and this raises to signal that.  A
    coherence outside [0, 1], NaN included, is refused by name.
    """
    if report.mu <= 0.0:
        raise ValueError(
            "orthonormal set: coherence bound not applicable, krank = r"
        )
    if not report.mu <= 1.0:
        raise ValueError(f"coherence must lie in [0, 1], got {report.mu}")
    # tiny slack so mathematically integral 1/mu does not round up
    return int(math.ceil(1.0 / report.mu - 1e-9))
