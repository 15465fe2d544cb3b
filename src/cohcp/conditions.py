"""Existence / uniqueness / recovery condition checkers.

All checkers are pure predicates over scalars (coherences, Kruskal ranks,
rank, order), decoupled from tensors, so they can be tested exhaustively on
grids.  Strictness at the boundaries matters and is preserved: the
existence product bound is strict, the uniqueness and combined bounds are
non-strict.  Non-strict comparisons carry a 1e-12 relative slack so that
mathematically exact equalities are not lost to floating-point rounding.
Each inequality is evaluated once, by a private function returning the
report entry (``holds`` and both sides) that its predicate also reads.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_count

_BOUNDARY_RTOL = 1e-12


def _le(a: float, b: float) -> bool:
    return a <= b + _BOUNDARY_RTOL * max(1.0, abs(a), abs(b))


def _ge(a: float, b: float) -> bool:
    return a >= b - _BOUNDARY_RTOL * max(1.0, abs(a), abs(b))


def _check_mus(mus) -> np.ndarray:
    m = np.asarray(mus, dtype=np.float64)
    if m.ndim != 1 or m.size < 1:
        raise ValueError("need a nonempty list of per-mode coherences")
    if not ((m >= 0.0) & (m <= 1.0)).all():  # NaN and +-inf fail this too
        if not np.isfinite(m).all():
            raise ValueError(f"coherences must be finite, got {m.tolist()}")
        raise ValueError("coherences must lie in [0, 1]")
    return m


def _check_r(r: int) -> int:
    return check_count(r, 1, "rank r must be >= 1")


def _existence(m: np.ndarray, r: int) -> dict:
    prod = float(np.prod(m))
    rhs = math.inf if r == 1 else 1.0 / (r - 1)
    return {"holds": prod < rhs, "lhs_product": prod, "rhs": rhs, "strict": True}


def _uniqueness(m: np.ndarray, r: int) -> dict:
    # a zero (or subnormal) coherence counts as 1/mu = inf
    with np.errstate(divide="ignore", over="ignore"):
        invsum = float((1.0 / m).sum())
    rhs = float(2 * r + m.size - 1)
    return {"holds": _ge(invsum, rhs), "lhs_inverse_sum": invsum, "rhs": rhs,
            "strict": False}


def _d3_bound(m: np.ndarray, r: int, name: str) -> dict:
    """The entry ``name`` of the combined bound or a sufficient one, d >= 3."""
    d = m.size
    thresh = d / (2 * r + d - 1)
    if name == "existence_uniqueness":
        key, lhs, rhs = "lhs_geometric_mean", float(np.prod(m)) ** (1.0 / d), thresh
    elif name == "sufficient_sum":
        key, lhs, rhs = "lhs_sum", float(m.sum()), d * d / (2 * r + d - 1)
    else:
        key, lhs, rhs = "lhs_sum_squares", float((m * m).sum()), d * thresh * thresh
    return {"holds": _le(lhs, rhs), key: lhs, "rhs": rhs, "strict": False}


def _d3_holds(mus, r: int, name: str, low_order: str) -> bool:
    m = _check_mus(mus)
    r = _check_r(r)
    if m.size < 3:
        raise ValueError(low_order)
    return _d3_bound(m, r, name)["holds"]


def _kruskal(kranks, r: int) -> dict:
    message = "kranks must be nonnegative integers, one per mode"
    ks = [check_count(k, 0, message) for k in kranks]
    check_count(len(ks), 1, message)
    lhs = 2 * _check_r(r) + len(ks) - 1
    return {"holds": lhs <= sum(ks), "lhs": float(lhs),
            "rhs_krank_sum": float(sum(ks)), "kranks": ks}


def existence_condition(mus, r: int) -> bool:
    """Best rank-r approximation exists if prod(mu_k) < 1/(r-1) (strict).

    The case r = 1 always has a solution (the set of separable functions
    is closed), so this returns True.
    """
    return _existence(_check_mus(mus), _check_r(r))["holds"]


def uniqueness_condition(mus, r: int) -> bool:
    """Rank-retaining decomposition is essentially unique if
    sum_k 1/mu_k >= 2r + d - 1 (equivalently sum omega_k >= 2r - 1).

    A zero coherence contributes 1/mu = inf and therefore satisfies the
    condition outright.
    """
    return _uniqueness(_check_mus(mus), _check_r(r))["holds"]


def existence_uniqueness_condition(mus, r: int) -> bool:
    """Combined bound: (prod mu_k)^(1/d) <= d / (2r + d - 1), d >= 3.

    For d <= 2 the underlying uniqueness inequality can never hold (the
    Kruskal rank of r vectors cannot exceed r), so this rejects.
    """
    return _d3_holds(mus, r, "existence_uniqueness",
                     "combined existence/uniqueness requires d >= 3; Kruskal-type "
                     "uniqueness is unattainable for d <= 2")


def sufficient_sum(mus, r: int) -> bool:
    """Stronger sufficient condition: sum mu_k <= d^2 / (2r + d - 1)."""
    return _d3_holds(mus, r, "sufficient_sum", "sufficient conditions require d >= 3")


def sufficient_sumsq(mus, r: int) -> bool:
    """Stronger sufficient condition: sum mu_k^2 <= d (d/(2r+d-1))^2."""
    return _d3_holds(mus, r, "sufficient_sumsq", "sufficient conditions require d >= 3")


def kruskal_condition(kranks, r: int) -> bool:
    """Kruskal uniqueness: 2r + d - 1 <= sum_k krank_k (integer exact)."""
    return _kruskal(kranks, r)["holds"]


def expected_rank(dims) -> int:
    """ceil(prod n_k / (1 - d + sum n_k)), the generic rank heuristic."""
    message = "dims must be positive integers"
    ns = [check_count(n, 1, message) for n in dims]
    check_count(len(ns), 1, message)
    # every n_k >= 1, so the denominator 1 + sum(n_k - 1) is at least 1
    return -(-math.prod(ns) // (1 - len(ns) + sum(ns)))


def kruskal_simple_bound(n1: int, n2: int) -> int:
    """r_max = n1 + n2 - 2 for full-rank loadings with n1, n2 <= r <= n3."""
    message = "subarray sizes must be positive"
    return check_count(n1, 1, message) + check_count(n2, 1, message) - 2


def temlyakov_condition(r: int, mu: float, t: float) -> bool:
    """Exact greedy recovery condition: r < (t/(1+t)) (1 + 1/mu) (strict).

    mu = 0 (orthonormal dictionary) satisfies the condition for every
    finite r.
    """
    r = _check_r(r)
    if not (0.0 < t <= 1.0):
        raise ValueError("weakness parameter t must lie in (0, 1]")
    if not (0.0 <= mu < 1.0):
        raise ValueError(f"dictionary coherence must lie in [0, 1), got {mu}")
    if mu == 0.0:
        return True
    return r < (t / (1.0 + t)) * (1.0 + 1.0 / mu)


def coercivity_lower_bound(weights, mus) -> float:
    """[1 - (r-1) prod mu_k] * ||lambda||_2^2.

    Guaranteed lower bound on ||sum_p lambda_p phi_1p (x) ... (x) phi_dp||^2
    for any factor sets with per-mode coherences at most mu_k.  A negative
    value (bound vacuous) is returned as-is.
    """
    w = np.asarray(weights, dtype=np.complex128).ravel()
    m = _check_mus(mus)
    r = check_count(w.size, 1, "need at least one weight")
    if not np.all(np.isfinite(w)):
        raise ValueError("coercivity_lower_bound: weights must be finite")
    lam2 = float(np.sum(np.abs(w) ** 2))
    return (1.0 - (r - 1) * float(np.prod(m))) * lam2


GREEDY_BOUND_KINDS = ("gms", "tropp", "det", "liv")


def greedy_bound_check(kind: str, r: int, mu: float):
    """Greedy (t = 1) approximation bound factors under coherence.

    Returns (factor, iterate) when the named bound's hypothesis holds at
    (r, mu), else None:

    - gms:   r < mu^-1 / 32        -> (8 sqrt(r), r)
    - tropp: r < mu^-1 / 3         -> (sqrt(1 + 6r), r)
    - det:   r <= mu^(-2/3) / 20   -> (24, ceil(r ln r))
    - liv:   r <= mu^-1 / 20       -> (3, 2r)

    The 'det' iterate index uses the natural logarithm (the analysis
    convention; the base is not pinned down in the source results).
    """
    r = _check_r(r)
    if not (0.0 < mu < 1.0):
        raise ValueError("coherence must lie in (0, 1)")
    if kind not in GREEDY_BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}; expected {GREEDY_BOUND_KINDS}")
    holds, factor, iterate = {
        "gms": (r < 1.0 / (32.0 * mu), 8.0 * math.sqrt(r), r),
        "tropp": (r < 1.0 / (3.0 * mu), math.sqrt(1.0 + 6.0 * r), r),
        "det": (_le(r, mu ** (-2.0 / 3.0) / 20.0), 24.0, math.ceil(r * math.log(r))),
        "liv": (_le(r, 1.0 / (20.0 * mu)), 3.0, 2 * r),
    }[kind]
    return (factor, iterate) if holds else None


def condition_report(mus, r: int, kranks=None) -> dict:
    """All condition verdicts with the numbers on both sides of each
    inequality, ready for JSON serialization.  Each entry is the one the
    matching predicate reads, so ``holds`` is the comparison of the
    printed sides.  ``kranks`` needs one Kruskal rank per coherence."""
    m = _check_mus(mus)
    r = _check_r(r)
    d = m.size
    report = {"d": d, "r": r, "mus": [float(x) for x in m],
              "existence": _existence(m, r), "uniqueness": _uniqueness(m, r)}
    for name in ("existence_uniqueness", "sufficient_sum", "sufficient_sumsq"):
        report[name] = (_d3_bound(m, r, name) if d >= 3 else
                        {"holds": False, "note": "requires d >= 3 (unattainable for d <= 2)"})
    if kranks is not None:
        if len(kranks) != d:
            raise ValueError(f"need one Kruskal rank per mode: got {len(kranks)} "
                             f"kranks for {d} coherences")
        report["kruskal"] = _kruskal(kranks, r)
    return report
