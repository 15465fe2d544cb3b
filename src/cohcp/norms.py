"""Tensor spectral norm, nuclear norm sandwich bounds, and fixtures.

The spectral norm sup |<T, phi_1 (x) ... (x) phi_d>| over unit vectors is
estimated by multi-start alternating maximization as |<T, witness>|, whose
vectors are unit only to rounding, so it can exceed the norm by a few ulps.
The nuclear norm is bracketed: any exact finite decomposition sum lambda_p
certifies an upper bound, and duality |<T, g>| <= ||T||_sigma ||g||_* turns
candidate tensors g into lower bounds, which inherit the rounding and the
accuracy of the spectral estimate in their denominator; on the fixtures
used here the maximization converges to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CPModel,
    alternating_rank1,
    bounded_tensor,
    canonicalize,
    check_count,
    check_tol,
    cp_evaluate,
    evaluate_terms,
    frobenius,
    inner_product,
    khatri_rao_but,
    random_unit_columns,
    stack_terms,
    term_correlations,
    term_gram,
    unit_columns,
)

TIE_RTOL = 1e-9  # nuclear bounds closer than this x max(1, upper) differ by rounding
SWEEP_TOL = 1e-12  # alternating-spectral stop: relative gain of one sweep
MAX_SWEEPS = 500   # alternating-spectral sweep cap
FIT_SWEEPS = 112   # ALS sweeps of each exact fit; the reported bounds depend on it
FIT_TOL = 1e-9     # relative residual at which a fit certifies an upper bound


@dataclass(frozen=True)
class NormCertificate:
    """Spectral value with witness, nuclear sandwich, certification flag.

    ``spectral`` is |<T, witness>| for witness vectors unit only to rounding,
    so it can exceed the spectral norm by a few ulps (1 + 2 eps on
    ``mat_mult_tensor(2)``).  ``nuclear_lower <= nuclear_upper`` bracket the
    nuclear norm; ``certified`` means the bracket is tighter than the tolerance.
    """

    spectral: float
    spectral_witness: tuple | None
    nuclear_lower: float | None = None
    nuclear_upper: float | None = None
    upper_witness: CPModel | None = None
    certified: bool = False


@dataclass(frozen=True)
class NormConfig:
    tol: float = 1e-3            # relative certification tolerance
    size_cap: int = 256          # refuse tensors with more entries
    restarts: int = 64
    seed: int = 0
    search: bool = True          # search exact ALS fits by rank while the bracket is open
    candidates: tuple = ()       # known CPModel decompositions of T

    def __post_init__(self):
        check_tol(self.tol)
        object.__setattr__(self, "size_cap", check_count(
            self.size_cap, 0, f"size_cap must be >= 0, got {self.size_cap}"))
        object.__setattr__(self, "restarts", check_count(
            self.restarts, 1, f"restarts must be >= 1, got {self.restarts}"))
        object.__setattr__(self, "seed", check_count(
            self.seed, 0, f"seed must be >= 0, got {self.seed}"))


def spectral_norm(tensor, restarts: int = 64, seed: int = 0) -> NormCertificate:
    """Best |<T, phi_1 (x) ... (x) phi_d>| over unit vectors found by
    multi-start alternating maximization.

    The value is |<T, witness>|, which can exceed the spectral norm by a few
    ulps; for matrices it matches the largest singular value.  The zero tensor
    returns 0 with no witness; non-finite entries raise ``ValueError``.
    """
    t, tnorm = bounded_tensor(tensor, "spectral_norm")
    seed = check_count(seed, 0, f"seed must be >= 0, got {seed}")
    if tnorm == 0.0:
        return NormCertificate(spectral=0.0, spectral_witness=None)
    rng = np.random.default_rng(seed)
    value, witness = alternating_rank1(t, restarts, SWEEP_TOL, MAX_SWEEPS, rng)
    return NormCertificate(spectral=value, spectral_witness=witness)


def _matrix_terms(m: np.ndarray) -> list:
    """Exact SVD decomposition of a matrix; sum of weights = nuclear norm."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    terms = []
    for i, sv in enumerate(s):
        if sv > 0.0:
            # A = sum_i s_i outer(u_i, vh_i): the vh row already carries
            # the conjugate of the right singular vector
            terms.append((float(sv), [u[:, i], vh[i, :]]))
    return terms


def _slice_terms(t: np.ndarray) -> list:
    """Exact decomposition by slicing the best mode, recursively.

    Any exact decomposition certifies a nuclear-norm upper bound; slicing
    one mode into basis vectors and decomposing each slice exactly is a
    cheap closed-form choice (exact SVD at the matrix level).  A nonzero
    vector is one term, its norm times its direction.  A sub-tensor is named
    by the tuple of fixed indices (None for a free mode), and its term list
    is built once, so a tensor makes at most prod(n_k + 1) of them.
    """
    @functools.cache
    def terms_at(fixed: tuple) -> list:
        sub = t[tuple(slice(None) if i is None else i for i in fixed)]
        if sub.ndim == 1:
            nrm = frobenius(sub)
            return [(nrm, [sub / nrm])]
        if sub.ndim == 2:
            return _matrix_terms(sub)
        best = None
        free = [k for k, i in enumerate(fixed) if i is None]
        for j, k in enumerate(free):
            total = 0.0
            terms = []
            for i in range(t.shape[k]):
                for w, vecs in terms_at(fixed[:k] + (i,) + fixed[k + 1:]):
                    e = np.zeros(t.shape[k], dtype=np.complex128)
                    e[i] = 1.0
                    terms.append((w, vecs[:j] + [e] + vecs[j:]))
                    total += w
            if best is None or total < best[0]:
                best = (total, terms)
        return best[1]

    return terms_at((None,) * t.ndim)


def _flattening_spectra(t: np.ndarray) -> list:
    """(sigma, m, c) for each flattening M of the tensor: its singular values,
    the rank m r that M(T') has at most for T' of rank <= r, and
    ||M(E)||_F / ||E||_F."""
    spectra = []
    for k, n in enumerate(t.shape):
        unfold = np.moveaxis(t, k, 0)
        spectra.append((np.linalg.svd(unfold.reshape(n, -1), compute_uv=False), 1, 1.0))
        if n == 3:
            a, b, c = (s.reshape(s.shape[0], -1) for s in unfold)
            z = np.zeros_like(a)
            koszul = np.block([[z, a, -b], [-a, z, c], [b, -c, z]])
            spectra.append((np.linalg.svd(koszul, compute_uv=False), 2, math.sqrt(2.0)))
    return spectra


def _rank_floor(spectra: list, r: int) -> float:
    """rho_r <= ||T - T'||_F for every tensor T' of rank <= r, from the
    ``_flattening_spectra`` of T.

    The larger of two flattening bounds, each linear in T:
    - Eckart-Young on each unfolding: rank T'_(k) <= r, so
      ||T - T'||_F >= (sum_{i>r} sigma_i(T_(k))^2)^{1/2};
    - Strassen's Koszul flattening for each mode of size 3, with slices
      A, B, C flattened to matrices by their first mode:
      M(T) = [[0, A, -B], [-A, 0, C], [B, -C, 0]] maps a rank-1 term a (x) X
      to a rank-2 skew 3x3 matrix (x) X, so rank M(T') <= 2r, and
      ||M(E)||_F = sqrt(2) ||E||_F, so
      ||T - T'||_F >= (sum_{i>2r} sigma_i(M(T))^2)^{1/2} / sqrt(2).
    """
    return max(float(np.linalg.norm(s[m * r:])) / c for s, m, c in spectra)


def _exact_fit(t: np.ndarray, r: int, rng, spectra: list) -> tuple | None:
    """Search an exact rank-r fit for a nuclear-norm upper bound.

    Alternating least squares on unit factors from a random start, then an
    exact weight solve.  Only decompositions meeting the residual tolerance
    produce upper bounds.  Returns (weight_sum, model, residual) or None.
    The start is drawn first, so the rng stream does not depend on the gate:
    when the rank floor of the flattening ``spectra`` of t exceeds twice the
    residual tolerance (the factor 2 absorbs the rounding of the floor and
    of the fit's residual), no rank-r fit could certify and the sweeps are
    skipped.
    """
    dims = t.shape
    d = t.ndim
    tnorm = frobenius(t)
    factors = [random_unit_columns(n, r, rng) for n in dims]
    if _rank_floor(spectra, r) > 2.0 * FIT_TOL * max(1.0, tnorm):
        return None
    # each mode's transposed unfolding, and lstsq's own default rcond for it
    rhs = [np.moveaxis(t, k, 0).reshape(n, -1).T for k, n in enumerate(dims)]
    rconds = [np.finfo(np.float64).eps * max(t.size // n, r) for n in dims]
    for _ in range(FIT_SWEEPS):
        for k in range(d):
            z = khatri_rao_but(factors, k)
            c = np.linalg.lstsq(z, rhs[k], rcond=rconds[k])[0].T
            factors[k] = unit_columns(c, factors[k], 1e-300)[0]
    gram = term_gram(factors)
    b = term_correlations(t, factors)
    lam = np.linalg.lstsq(gram, b, rcond=None)[0]
    resid = frobenius(t - evaluate_terms(lam, factors))
    live = np.abs(lam) > 0  # none live: seen only for the zero tensor, which the caller refuses
    if not resid <= FIT_TOL * max(1.0, tnorm) or not live.any():
        return None
    model = canonicalize(lam[live], [f[:, live] for f in factors])
    # rigorous slack for the accepted residual
    value = float(np.sum(model.weights)) + resid * math.sqrt(t.size)
    return value, model, resid


def nuclear_norm_bounds(tensor, cfg: NormConfig | None = None) -> NormCertificate:
    """Sandwich the nuclear norm between duality lower and decomposition
    upper bounds.

    Lower: max over candidate tensors g of |<T, g>| / ||g||_sigma, always
    including g = T (giving ||T||_F^2 / ||T||_sigma) and the spectral
    witness (giving ||T||_sigma itself); exact polar dual for matrices.
    Upper: min over exact decompositions found - the matrix SVD, mode-slice
    decompositions, user-supplied candidate models, and an optional
    search over ranks 1, 2, ... for exact ALS fits.  Any exact
    decomposition weighs at least the nuclear norm, hence at least the lower
    bound, so the search stops once the bracket is closed to rounding.
    ``certified`` when the gap is within ``cfg.tol`` relative.  Non-finite
    entries raise ``ValueError``.
    """
    cfg = cfg or NormConfig()
    t, tnorm = bounded_tensor(tensor, "nuclear_norm_bounds")
    if t.size > cfg.size_cap:
        raise ValueError(
            f"nuclear_norm_bounds refused: {t.size} entries exceeds cap "
            f"{cfg.size_cap} (raise NormConfig.size_cap explicitly)"
        )
    if tnorm == 0.0:
        raise ValueError("nuclear norm bounds undefined for the zero tensor")
    for i, cand in enumerate(cfg.candidates):
        if cand.dims != t.shape:
            raise ValueError(f"nuclear_norm_bounds: candidate {i} has dims {cand.dims}, "
                             f"tensor has {t.shape}")
    rng = np.random.default_rng(cfg.seed)
    sigma, witness = alternating_rank1(t, cfg.restarts, SWEEP_TOL, MAX_SWEEPS, rng)

    lower = max(sigma, tnorm * tnorm / sigma)
    if t.ndim == 2:
        u, _, vh = np.linalg.svd(t, full_matrices=False)
        polar = u @ vh
        lower = max(lower, abs(inner_product(t, polar)))

    # upper bounds from exact decompositions
    terms = _slice_terms(t)
    slice_model = canonicalize(np.array([w for w, _ in terms], dtype=np.complex128),
                               stack_terms([vecs for _, vecs in terms], t.shape))
    upper = float(np.sum(slice_model.weights))
    upper_witness = slice_model
    for cand in cfg.candidates:
        resid = frobenius(t - cp_evaluate(cand))
        if resid <= FIT_TOL * max(1.0, tnorm):
            val = float(np.sum(cand.weights)) + resid * math.sqrt(t.size)
            if val < upper:
                upper, upper_witness = val, cand
    if cfg.search and t.ndim >= 3:
        spectra = None
        for r in range(1, min(t.size // max(t.shape), 8) + 1):
            if upper - lower <= TIE_RTOL * max(1.0, upper):
                break
            spectra = spectra or _flattening_spectra(t)
            got = _exact_fit(t, r, rng, spectra)
            if got is not None and got[0] < upper:
                upper, upper_witness = got[0], got[1]

    if 0.0 < lower - upper <= TIE_RTOL * max(1.0, upper):
        lower = upper  # numerical ties collapse to the upper bound
    return NormCertificate(
        spectral=sigma,
        spectral_witness=witness,
        nuclear_lower=lower,
        nuclear_upper=upper,
        upper_witness=upper_witness,
        certified=bool(0.0 <= upper - lower <= cfg.tol * max(upper, 1e-300)),
    )


def duality_gap_check(f, g, cfg: NormConfig | None = None) -> float:
    """||f||_sigma * (nuclear upper of g) - |<f, g>|; >= -1e-9 must hold."""
    cfg = cfg or NormConfig()
    spec = spectral_norm(f, restarts=cfg.restarts, seed=cfg.seed)
    nuc = nuclear_norm_bounds(g, cfg)
    return spec.spectral * nuc.nuclear_upper - abs(inner_product(f, g))


MATMUL_SIZE_CAP = 4


def _matmul_support(n: int) -> tuple:
    """Side n^2 of T_n and the 3 x n^3 index array of its ones
    ((i,j), (j,k), (k,i)), one column per (i, j, k) in lexicographic order."""
    n = check_count(n, 1, "matrix multiplication fixture needs a whole n >= 1")
    if n > MATMUL_SIZE_CAP:
        raise ValueError(f"matrix multiplication fixture capped at n <= {MATMUL_SIZE_CAP}")
    i, j, k = np.unravel_index(np.arange(n ** 3), (n, n, n))
    return n * n, np.stack([i * n + j, j * n + k, k * n + i])


def mat_mult_tensor(n: int) -> np.ndarray:
    """Matrix multiplication tensor T_n in C^{n^2 x n^2 x n^2}.

    Entry ((i,j), (k,l), (m,p)) is 1 exactly when j = k, l = m, p = i
    (the trace-of-product pattern), so there are n^3 ones.
    """
    side, support = _matmul_support(n)
    t = np.zeros((side, side, side), dtype=np.complex128)
    t[tuple(support)] = 1.0
    return t


def mat_mult_decomposition(n: int) -> CPModel:
    """Standard n^3-term decomposition of T_n with unit matrix-unit factors.

    Every weight is 1, so the weight sum n^3 certifies the nuclear-norm
    upper bound that is in fact exact for T_n.
    """
    side, support = _matmul_support(n)
    units = np.eye(side, dtype=np.complex128)
    return CPModel(weights=np.ones(support.shape[1]),
                   factors=tuple(units[:, rows] for rows in support))


def strassen_decomposition() -> CPModel:
    """Seven-term decomposition of T_2, certifying rank(T_2) <= 7.

    Together with the certified nuclear norm 8 of T_2 this witnesses that
    the nuclear norm can exceed rank times spectral norm for d = 3.
    """
    x = np.array([
        [1, 0, 0, 1],    # A11 + A22
        [0, 0, 1, 1],    # A21 + A22
        [1, 0, 0, 0],    # A11
        [0, 0, 0, 1],    # A22
        [1, 1, 0, 0],    # A11 + A12
        [-1, 0, 1, 0],   # A21 - A11
        [0, 1, 0, -1],   # A12 - A22
    ], dtype=np.complex128).T
    y = np.array([
        [1, 0, 0, 1],    # B11 + B22
        [1, 0, 0, 0],    # B11
        [0, 1, 0, -1],   # B12 - B22
        [-1, 0, 1, 0],   # B21 - B11
        [0, 0, 0, 1],    # B22
        [1, 1, 0, 0],    # B11 + B12
        [0, 0, 1, 1],    # B21 + B22
    ], dtype=np.complex128).T
    # transposed contribution patterns of each product in the output
    z = np.array([
        [1, 0, 0, 1],    # C11 + C22
        [0, 1, 0, -1],   # C21 - C22
        [0, 0, 1, 1],    # C12 + C22
        [1, 1, 0, 0],    # C11 + C21
        [-1, 0, 1, 0],   # C12 - C11
        [0, 0, 0, 1],    # C22
        [1, 0, 0, 0],    # C11
    ], dtype=np.complex128).T
    return canonicalize(np.ones(7), [x, y, z])
