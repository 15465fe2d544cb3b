"""Greedy and alternating solvers for low-rank multilinear decomposition.

Contains the weakly orthogonal greedy algorithm over a finite dictionary of
separable atoms, its continuous counterpart driven by best rank-1
selection, a coherence-constrained / Tychonoff-regularized alternating
least squares solver, and the explicit rank-2 sequence witnessing that a
best rank-r approximation can fail to exist.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NORM_MIN,
    _owned,
    alternating_rank1,
    bounded_tensor,
    canonicalize,
    check_count,
    check_instance,
    check_tol,
    coherent_pair,
    cp_evaluate,
    evaluate_terms,
    finite_tensor,
    frobenius,
    gram_mu,
    khatri_rao_but,
    rank1_outer,
    random_unit_columns,
    stack_terms,
    term_correlations,
    term_gram,
    unit_columns,
)
from .conditions import existence_condition


class Dictionary:
    """Finite dictionary of unit-norm separable atoms, kept once as read-only
    per-mode stacks whose columns the factor tuples ``atoms`` view.

    Atom inner products use the per-mode product formula, so the dictionary
    coherence is max over distinct atom pairs of prod_k |<phi_k, psi_k>|.
    """

    def __init__(self, atoms):
        if len(atoms) == 0:
            raise ValueError("dictionary must contain at least one atom")
        d = len(atoms[0])
        if d == 0:
            raise ValueError("dictionary atoms need at least one mode")
        norm_atoms = []
        for i, atom in enumerate(atoms):
            if len(atom) != d:
                raise ValueError("all atoms must have the same number of modes")
            vecs = []
            for k, v in enumerate(atom):
                v = finite_tensor(v, f"atom {i}, mode {k}")
                nrm = np.linalg.norm(v)
                if v.ndim != 1 or nrm == 0.0:
                    raise ValueError("atom factors must be nonzero vectors")
                vecs.append(v / nrm)
            norm_atoms.append(tuple(vecs))
        self.order = d
        self.dims = tuple(len(v) for v in norm_atoms[0])
        if any(tuple(len(v) for v in atom) != self.dims for atom in norm_atoms):
            raise ValueError("all atoms must share the same mode dimensions")
        self._stacks = tuple(_owned(s, np.complex128) for s in stack_terms(norm_atoms, self.dims))
        self.atoms = tuple(zip(*(s.T for s in self._stacks)))
        self.gram = _owned(term_gram(self._stacks), np.complex128)
        self.mu = gram_mu(self.gram)

    def __len__(self):
        return len(self.atoms)

    def correlations(self, tensor) -> np.ndarray:
        """<T, g> for every atom g, via one batched contraction."""
        return term_correlations(np.asarray(tensor, dtype=np.complex128),
                                 self._stacks)

    def atom_tensor(self, index: int) -> np.ndarray:
        return rank1_outer(self.atoms[index])


@dataclass
class GreedyResult:
    """Selection trace of a greedy run.

    ``residuals[m]`` is the residual norm after m iterations
    (``residuals[0] = ||f||``); the sequence is non-increasing because the
    projection spaces are nested (``woga`` undoes a selection that does not
    lower it, which only rounding can cause).
    """

    selected: list
    coefficients: np.ndarray
    residuals: list
    converged: bool
    flags: list = field(default_factory=list)


CERTIFIED_MARGIN = 0.25  # certifies a condition number of at most 7


def _certified(gram: np.ndarray, mus, reg: float = 0.0) -> bool:
    """Whether (G + reg I) x = b, for the r x r Hadamard product ``gram`` of
    unit-diagonal Grams with coherences ``mus``, has a ridge of at least
    r * 1e-12 or a Gershgorin margin of at least CERTIFIED_MARGIN, a lower
    bound on the least eigenvalue of G.

    G is positive semidefinite with trace r, so such a ridge bounds the
    condition number by (r + reg) / reg <= 1e12 + 1, the limit of
    ``_solve_gram``'s fallback; below about 1e-17 a ridge rounds away.
    The paper's coercivity margin 1-(r-1) prod_k mu_k is tried next; only
    if it fails is the row margin of G read (``_row_margin``), which is
    never below the paper's, since |G_pq| <= prod_k mu_k, and certifies
    correlated sources whose worst pair alone fails it.  Either margin of
    1/4 bounds the largest eigenvalue by 7/4, so the condition number by 7."""
    return reg * 1e12 >= len(gram) or (
        1.0 - (len(gram) - 1) * math.prod(mus) >= CERTIFIED_MARGIN) or (
        _row_margin(gram) >= CERTIFIED_MARGIN)


def _row_margin(gram: np.ndarray) -> float:
    """min_p (Re G_pp - sum_{q != p} |G_pq|), by Gershgorin at most the least
    eigenvalue of the Hermitian ``gram``: one minus the cumulative coherence
    of Tropp, "Greed is good" (IEEE Trans. Inf. Theory 50(10), 2004)."""
    a = np.abs(gram)
    return float((gram.diagonal().real + a.diagonal() - a.sum(axis=1)).min())


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, flags: list, reg: float = 0.0,
                mus=None):
    """Solve (G + reg I) x = rhs for the built Gram G, the Hadamard product
    of Grams with coherences ``mus`` (default: G's own): a certified system
    directly, any other when the condition number of G + reg I is at most
    1e12, else by its pseudoinverse (``singular_gram_pseudoinverse``)."""
    system = gram + reg * np.eye(len(gram)) if reg else gram
    if not _certified(gram, (gram_mu(gram),) if mus is None else mus, reg):
        try:
            cond = np.linalg.cond(system)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not np.isfinite(cond) or cond > 1e12:
            if "singular_gram_pseudoinverse" not in flags:
                flags.append("singular_gram_pseudoinverse")
            return np.linalg.pinv(system, rcond=1e-12) @ rhs
    return np.linalg.solve(system, rhs)


def woga(tensor, dictionary: Dictionary, t: float = 1.0,
         max_iter: int | None = None, tol: float = 1e-12) -> GreedyResult:
    """Weakly orthogonal greedy algorithm over a finite dictionary.

    Per iteration: select the first atom g_m whose correlation with the
    current residual reaches t times the maximum; orthogonally project the
    original f onto span(g_1, .., g_m) by solving the Gram system; deflate.
    No atom is selected twice: when no unselected atom correlates with the
    residual, or the projection would not lower the residual (the
    correlations are rounding error), the run stops and flags
    ``residual_orthogonal_to_dictionary``.
    Stops when the residual norm drops to ``tol`` or after ``max_iter``
    iterations (default: dictionary size).  Non-finite entries raise
    ``ValueError``.
    """
    if not (0.0 < t <= 1.0):
        raise ValueError("weakness parameter t must lie in (0, 1]")
    check_tol(tol)
    f, fnorm = bounded_tensor(tensor, "woga")
    check_instance(dictionary, Dictionary, "woga")
    if f.shape != dictionary.dims:
        raise ValueError(f"tensor dims {f.shape} do not match dictionary {dictionary.dims}")
    max_iter = len(dictionary) if max_iter is None else check_count(
        max_iter, 1, f"max_iter must be >= 1, got {max_iter}")

    b_all = dictionary.correlations(f)
    selected: list = []
    flags: list = []
    coeffs = np.zeros(0, dtype=np.complex128)
    residuals = [fnorm]
    converged = residuals[0] <= tol
    while not converged and len(selected) < max_iter:
        # residual correlations without materializing the residual
        scores = np.abs(b_all - dictionary.gram[:, selected] @ coeffs)
        scores[selected] = 0.0
        threshold = t * float(np.max(scores))
        if threshold <= 0.0:
            flags.append("residual_orthogonal_to_dictionary")
            break
        pick = int(np.argmax(scores >= threshold))
        trial = selected + [pick]
        projection = _solve_gram(dictionary.gram[np.ix_(trial, trial)],
                                 b_all[trial], flags)
        # materialized residual: the Gram identity ||f||^2 - <h_m, f>
        # cancels catastrophically once the fit is nearly exact
        stacks = [s[:, trial] for s in dictionary._stacks]
        residual = frobenius(f - evaluate_terms(projection, stacks))
        if residual >= residuals[-1]:
            # the correlations were rounding error: the selection is undone
            flags.append("residual_orthogonal_to_dictionary")
            break
        selected, coeffs = trial, projection
        residuals.append(residual)
        converged = residual <= tol
    return GreedyResult(selected=selected, coefficients=coeffs,
                        residuals=residuals, converged=converged, flags=flags)


def best_rank1(tensor, restarts: int = 32, seed: int = 0):
    """Best separable (rank-1) approximation: the spectral-norm witness.

    Returns (weight, factors) with unit factors maximizing
    |<T, phi_1 (x) ... (x) phi_d>| and weight equal to that value.
    Non-finite entries raise ``ValueError``.
    """
    f, fnorm = bounded_tensor(tensor, "best_rank1")
    seed = check_count(seed, 0, f"seed must be >= 0, got {seed}")
    if fnorm == 0.0:
        raise ValueError("best rank-1 term undefined for the zero tensor")
    rng = np.random.default_rng(seed)
    # a stop tolerance of 1e-13, tighter than spectral_norm's 1e-12: the
    # greedy warm start of constrained_als depends on these exact sweeps
    return alternating_rank1(f, restarts, 1e-13, 500, rng)


def oga_continuous(tensor, r: int, restarts: int = 32, tol: float = 1e-12,
                   seed: int = 0):
    """Greedy rank-1 deflation with joint reprojection, r terms.

    Baseline only: atom selection over the continuous separable manifold,
    orthogonal projection of f onto the span of all selected rank-1 terms,
    deflation.  Deflation alone carries no optimality guarantee for d >= 3;
    early stop (flagged) on three consecutive stagnating iterations, and an
    unflagged stop once the residual falls below ``core.NORM_MIN``.

    Returns (CPModel, GreedyResult); ``selected`` holds the factor tuples.
    Non-finite entries raise ``ValueError``.
    """
    f, fnorm = bounded_tensor(tensor, "oga_continuous")
    r = check_count(r, 1, "r must be >= 1")
    seed = check_count(seed, 0, f"seed must be >= 0, got {seed}")
    check_tol(tol)
    atoms: list = []
    flags: list = []
    residuals = [fnorm]
    coeffs = np.zeros(0, dtype=np.complex128)
    residual = f
    stagnant = 0
    for m in range(r):
        # a residual below NORM_MIN (reachable only for tol < NORM_MIN) is
        # rounding that best_rank1 would refuse: the run stops unconverged
        if residuals[-1] <= tol or residuals[-1] < NORM_MIN:
            break
        _, factors = best_rank1(residual, restarts=restarts, seed=seed + m)
        atoms.append(factors)
        stacks = stack_terms(atoms, f.shape)
        coeffs = _solve_gram(term_gram(stacks), term_correlations(f, stacks), flags)
        residual = f - evaluate_terms(coeffs, stacks)
        residuals.append(frobenius(residual))
        if residuals[-2] - residuals[-1] < tol * max(1.0, residuals[0]):
            stagnant += 1
            if stagnant >= 3:
                flags.append("stagnation_early_stop")
                break
        else:
            stagnant = 0
    model = canonicalize(coeffs, stack_terms(atoms, f.shape))
    result = GreedyResult(selected=atoms, coefficients=coeffs,
                          residuals=residuals,
                          converged=residuals[-1] <= tol, flags=flags)
    return model, result


ATOM_JITTER = 0.015      # Gaussian perturbation of the random dictionary atoms
DICTIONARY_DRAWS = 50    # dictionary draws before giving up on mu_max


def random_incoherent_dictionary(dims, n_atoms: int, mu_max: float = 0.09,
                                 seed: int = 0) -> Dictionary:
    """Random separable-atom dictionary with measured coherence below mu_max.

    Plain i.i.d. atoms in small dimensions are far too coherent, so atoms
    are built from random per-mode unitary bases at distinct index tuples
    (pairwise orthogonal before perturbation) and then jittered; the
    measured coherence scales with ``ATOM_JITTER``.  Up to
    ``DICTIONARY_DRAWS`` draws are made, deterministically, until the
    measured coherence clears ``mu_max``.
    """
    dims = tuple(check_count(n, 1, f"dims must be >= 1, got {n!r}") for n in dims)
    n_atoms = check_count(n_atoms, 1, f"n_atoms must be >= 1, got {n_atoms!r}")
    seed = check_count(seed, 0, f"seed must be >= 0, got {seed}")
    total = math.prod(dims)
    if n_atoms > total:
        raise ValueError(f"cannot place {n_atoms} distinct atoms in {dims}")
    rng = np.random.default_rng(seed)
    for _ in range(DICTIONARY_DRAWS):
        bases = []
        for n in dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bases.append(np.linalg.qr(g)[0])
        flat = rng.choice(total, size=n_atoms, replace=False)
        tuples = [np.unravel_index(ix, dims) for ix in flat]
        atoms = []
        for tup in tuples:
            vecs = []
            for k, n in enumerate(dims):
                g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v = bases[k][:, tup[k]] + ATOM_JITTER * g
                vecs.append(v / np.linalg.norm(v))
            atoms.append(tuple(vecs))
        dictionary = Dictionary(atoms)
        if dictionary.mu < mu_max:
            return dictionary
    raise ValueError(
        f"could not reach dictionary coherence < {mu_max} in {DICTIONARY_DRAWS} draws"
    )


ORTHO_NONE = "none"
ORTHO_PER_MODE = "per-mode"
ORTHO_SEPARABLE = "separable"


@dataclass(frozen=True)
class SolverConfig:
    """Configuration of the constrained alternating solver.

    Exactly one constraint regime may be active: per-mode coherence caps,
    Tychonoff weight regularization, or orthogonality (per-mode = every
    factor set orthonormal; separable = one mode orthonormal, which makes
    the rank-1 terms mutually orthogonal).
    """

    r: int
    coherence_caps: tuple | None = None
    tychonoff_lambda: float = 0.0
    orthogonality: str = ORTHO_NONE
    max_iter: int = 2000
    tol: float = 1e-10
    seed: int = 0
    # "greedy" (warm start on the Tucker core: the closed form of a three-way
    # core with two modes of size r, else rank-1 deflation) or "random"
    init: str = "greedy"

    def __post_init__(self):
        object.__setattr__(self, "r", check_count(self.r, 1, "target rank must be >= 1"))
        object.__setattr__(self, "max_iter", check_count(
            self.max_iter, 1, f"max_iter must be >= 1, got {self.max_iter}"))
        object.__setattr__(self, "seed", check_count(
            self.seed, 0, f"seed must be >= 0, got {self.seed}"))
        if self.init not in ("greedy", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        if not isinstance(self.tychonoff_lambda, numbers.Real):
            raise ValueError(f"tychonoff_lambda must be a real number, got "
                             f"{self.tychonoff_lambda!r}")
        if not np.isfinite(self.tychonoff_lambda):
            raise ValueError(f"tychonoff_lambda must be finite, got {self.tychonoff_lambda}")
        check_tol(self.tol)
        active = [
            self.coherence_caps is not None,
            self.tychonoff_lambda > 0.0,
            self.orthogonality != ORTHO_NONE,
        ]
        if sum(active) > 1:
            raise ValueError("at most one constraint regime may be active")
        if self.coherence_caps is not None:
            try:
                caps = tuple(float(c) for c in self.coherence_caps)
            except (TypeError, ValueError):
                raise ValueError(f"coherence_caps must be a sequence of numbers, got "
                                 f"{self.coherence_caps!r}") from None
            if any(not (0.0 < c <= 1.0) for c in caps):
                raise ValueError("coherence caps must lie in (0, 1]")
            object.__setattr__(self, "coherence_caps", caps)
        if self.tychonoff_lambda < 0.0:
            raise ValueError("tychonoff_lambda must be >= 0")
        if self.orthogonality not in (ORTHO_NONE, ORTHO_PER_MODE, ORTHO_SEPARABLE):
            raise ValueError(f"unknown orthogonality regime {self.orthogonality!r}")


@dataclass
class AlsDiagnostics:
    loss_trace: list
    final_residual: float
    achieved_mus: list
    converged: bool
    n_iter: int
    flags: list = field(default_factory=list)


PROJECTION_PASSES = 20  # pairwise rotations of one coherence projection


def _project_coherence(v: np.ndarray, gram: np.ndarray, cap: float, flags: list) -> tuple:
    """Restore the per-mode coherence cap by pairwise rotations; returns
    (v, gram) with the Gram of the returned columns, given that of v.

    Repeatedly takes the worst offending pair and rotates both columns
    symmetrically apart within their 2-D span until |<u, w>| equals the
    cap; after ``PROJECTION_PASSES`` rotations, or at once when the pair
    spans no plane to rotate in, an infeasible cap is flagged.
    """
    v = v.copy()
    for _ in range(PROJECTION_PASSES):
        worst, pair = coherent_pair(gram)
        if worst <= cap + 1e-12:
            return v, gram
        p, q = pair
        u, w = v[:, p], v[:, q]
        ip = np.vdot(u, w)
        phase = ip / abs(ip)
        w_al = w * phase.conjugate()  # now the pair inner product is real positive
        # the pair spans a real plane; rotate both away from the bisector
        # until the angle matches the cap
        half_target = math.acos(cap) / 2.0
        bis = u + w_al
        bis = bis / np.linalg.norm(bis)
        perp = w_al - np.vdot(bis, w_al) * bis
        pn = np.linalg.norm(perp)
        if pn < 1e-14:
            # collinear pair: split along a deterministic orthogonal direction
            base = np.zeros_like(u)
            base[int(np.argmin(np.abs(u)))] = 1.0
            perp = base - np.vdot(bis, base) * bis
            pn = np.linalg.norm(perp)
            if pn == 0.0:
                break  # a mode of size 1 has no direction to rotate into
        perp = perp / pn
        v[:, p] = math.cos(half_target) * bis - math.sin(half_target) * perp
        v[:, q] = (math.cos(half_target) * bis + math.sin(half_target) * perp) * phase
        v[:, p] /= np.linalg.norm(v[:, p])
        v[:, q] /= np.linalg.norm(v[:, q])
        gram = v.conj().T @ v
    if "coherence_projection_incomplete" not in flags:
        flags.append("coherence_projection_incomplete")
    return v, gram


def _compression_bases(unfolds, r):
    """Orthonormal bases of the dominant (at most r-dimensional) column
    spaces of the unfoldings with n_k > r (``None`` for the other modes).

    A wide unfolding (n_k <= m, the product of the other dims) takes the
    top-r eigenvectors of the n_k x n_k Gram X_k X_k^H, which is much
    cheaper than an SVD of the unfolding itself.  A tall one takes the
    leading left singular vectors of its thin SVD instead, at most m of
    them, so no n_k x n_k matrix is formed and the core has min(r, m) in
    that mode.
    """
    bases = []
    for x in unfolds:
        n, m = x.shape
        if n <= r:
            bases.append(None)
        elif n > m:
            bases.append(np.linalg.svd(x, full_matrices=False)[0][:, :r])
        else:
            bases.append(np.linalg.eigh(x @ x.conj().T)[1][:, ::-1][:, :r])
    return bases


SLICE_RCOND = 1e-10       # least singular value of M_y, relative to its largest
EIGVEC_COND_MAX = 1e4     # largest eigenvector condition number of a closed-form start


def _closed_form_start(core, r, seed):
    """(weights, unit factors) of a three-way tensor of rank at most r from
    simultaneous diagonalization (Harshman 1970; Leurgans, Ross & Abel, SIAM
    J. Matrix Anal. Appl. 14, 1993), or ``None`` where it does not apply.

    It needs two modes of size r, the A and B modes, and a third of size at
    least 2, the slice mode (the last mode when all three have size r).
    With slices T_k along it, two mixtures M_x = sum_k x_k T_k = A diag(C^T
    x * lam) B^T and M_y give M_x M_y^-1 = A diag(C^T x / C^T y) A^-1, whose
    eigenvectors are the unit columns of A.  Slice p of A^-1 . T along the A
    mode is then lam_p b_p (x) c_p, and its top singular pair gives b_p,
    c_p and the weight |lam_p|.  x and y come from ``default_rng([seed,
    22])``, so no caller's stream moves.  Exact on a noiseless tensor whose
    A and B have full column rank and whose eigenvalues are distinct.

    Conditioning: M_y must have a singular-value ratio above
    ``SLICE_RCOND``, and A a condition number of at most
    ``EIGVEC_COND_MAX``.  For unit columns the Gershgorin row margin m of
    A^H A (``_row_margin``, the paper's bound on a coherent set) gives
    cond(A) <= sqrt((2 - m) / m) whenever m > 0; only where m <= 0 is
    cond(A) computed.
    """
    if core.ndim != 3:
        return None
    shape = core.shape
    s = next((k for k in (2, 1, 0) if shape[:k] + shape[k + 1:] == (r, r)), None)
    if s is None or shape[s] < 2:
        return None
    t = np.moveaxis(core, s, 2)
    x, y = np.random.default_rng([seed, 22]).standard_normal((2, shape[s]))
    m_x, m_y = t @ x, t @ y
    sv = np.linalg.svd(m_y, compute_uv=False)
    if not sv[-1] > SLICE_RCOND * sv[0]:
        return None
    a = np.linalg.eig(np.linalg.solve(m_y.T, m_x.T).T)[1]
    margin = _row_margin(a.conj().T @ a)
    cond = math.sqrt((2.0 - margin) / margin) if margin > 0.0 else np.linalg.cond(a)
    if not cond <= EIGVEC_COND_MAX:
        return None
    u, w, vh = np.linalg.svd(np.linalg.solve(a, t.reshape(r, -1)).reshape(t.shape))
    factors = [a, u[:, :, 0].T, vh[:, 0, :].T]
    factors.insert(s, factors.pop())
    return w[:, 0], factors


def _greedy_start(f, unfolds, r, seed):
    """Warm start under ``init="greedy"``, run on the Tucker core T x_k U_k^H
    for the modes with n_k > r and expanded back as U_k G_k: the closed
    form of ``_closed_form_start`` where it applies, else greedy rank-1
    deflation (``oga_continuous``).

    U_k has orthonormal columns, so <U_k a, U_k b> = <a, b>: the expanded
    columns keep unit norm and every per-mode coherence of the core
    factors.  A tensor with every n_k <= r is used as it is.
    """
    bases = _compression_bases(unfolds, r)
    core = f
    for k, u in enumerate(bases):
        if u is not None:
            core = np.moveaxis(np.tensordot(u.conj().T, core, axes=(1, k)), 0, k)
    start = _closed_form_start(core, r, seed)
    if start is None:
        model, _ = oga_continuous(core, r, restarts=16, seed=seed)
        start = model.weights, model.factors
    weights, core_factors = start
    factors = [g if u is None else u @ g for u, g in zip(bases, core_factors)]
    return weights, factors


def _init_factors(f, unfolds, cfg, flags):
    r = cfg.r
    rng = np.random.default_rng(cfg.seed)
    if cfg.init == "greedy":
        try:
            weights, factors = _greedy_start(f, unfolds, r, cfg.seed)
        except ValueError:
            flags.append("greedy_init_failed_fallback_random")
        else:
            r0 = len(weights)
            if r0 > 0:
                if r0 < r:
                    flags.append("greedy_init_padded")
                # pad the greedy warm start with r - r0 fresh random components
                facs = [np.hstack([fac, random_unit_columns(n, r - r0, rng)])
                        for fac, n in zip(factors, f.shape)]
                lam = np.concatenate([
                    weights.astype(np.complex128),
                    np.full(r - r0, 1e-3 * max(weights[0], 1e-12),
                            dtype=np.complex128),
                ])
                return facs, lam
            flags.append("greedy_init_degenerate_fallback_random")
    return [random_unit_columns(n, r, rng) for n in f.shape], \
        np.ones(r, dtype=np.complex128)


def constrained_als(tensor, cfg: SolverConfig):
    """Alternating least squares for min ||f - sum_p lambda_p (x)_k phi_kp||^2,
    optionally Tychonoff-regularized (+ lam_reg sum |lambda_p|^2), with
    coherence caps enforced by post-update projection or orthogonality
    enforced by Procrustes updates.

    Per sweep, each mode solves an exact (ridge) least-squares block, so
    the objective trace is monotone non-increasing in the unconstrained and
    Tychonoff regimes; there ``tol = 0`` stops once a sweep lowers the loss
    by no more than its rounding.  Weight positivity is a representation
    choice and is restored by canonicalization after convergence.

    The weight re-solve reads b_p = <f, term p> from the last mode's MTTKRP,
    and the sweep loss is the Gram identity ||f||^2 - 2 Re lam^H b +
    lam^H G lam on that b and the Hadamard Gram G.  The residual is
    materialized for the first trace entry, for ``final_residual``, and for
    any sweep whose identity rounding bound is not 16 times below the stop
    test's resolution ``tol * max(1, loss)``, so ``tol = 0`` always
    materializes it.

    The greedy warm start runs on the Tucker core T x_k U_k^H, where U_k
    spans the dominant (at most r-dimensional) column space of the mode-k
    unfolding for every mode with n_k > r, and its factors are expanded as
    U_k G_k.
    Orthonormal U_k keep every inner product, so coherences and the paper's
    conditions are the same for core and expanded factors.  On a three-way
    core with two modes of size r the start is closed-form, by simultaneous
    diagonalization (``_closed_form_start``), whose eigenvector matrix is
    certified well-conditioned by its coherence where the Gershgorin bound
    holds; elsewhere, or where that start is ill-conditioned, it is greedy
    rank-1 deflation (``oga_continuous``).  The sweeps run on the full
    tensor and remove what the compression discarded.

    Returns (CPModel, AlsDiagnostics).
    """
    check_instance(cfg, SolverConfig, "constrained_als")
    f, fnorm = bounded_tensor(tensor, "constrained_als")
    d = f.ndim
    if d < 2:
        raise ValueError(f"constrained_als needs at least 2 modes, got {d}")
    dims = f.shape
    r = cfg.r
    if r > f.size:
        raise ValueError(f"rank {r} exceeds tensor size {f.size}")
    flags: list = []
    if cfg.coherence_caps is not None:
        if len(cfg.coherence_caps) != d:
            raise ValueError("need one coherence cap per mode")
        if not existence_condition(cfg.coherence_caps, r):
            flags.append("existence_condition_violated_by_caps")
    # the modes updated by Procrustes: none, every mode, or the largest mode
    procrustes = {ORTHO_NONE: (), ORTHO_PER_MODE: tuple(range(d)),
                  ORTHO_SEPARABLE: (dims.index(max(dims)),)}[cfg.orthogonality]
    if any(r > dims[k] for k in procrustes):
        raise ValueError(f"{cfg.orthogonality} orthogonality needs r <= n_k on "
                         f"modes {list(procrustes)}, got r = {r} for dims {dims}")

    unfolds = [np.moveaxis(f, k, 0).reshape(dims[k], -1) for k in range(d)]
    factors, lam = _init_factors(f, unfolds, cfg, flags)
    # mus[k] = gram_mu(grams[k]), set with grams[k]; mu <= 1, so a cap of 1 never projects
    grams = [fk.conj().T @ fk for fk in factors]
    mus = [gram_mu(g) for g in grams]
    caps = cfg.coherence_caps or (1.0,) * d
    lam_reg = cfg.tychonoff_lambda
    # rounding bound of the Gram-identity loss: its three terms are at most
    # (||f|| + ||lam||_1)^2 in size (|b_p| <= ||f||, |G_pq| <= 1), and each
    # sums over the tensor, losing log2(size) ulps of that as a pairwise sum
    ulps = np.finfo(np.float64).eps * max(1.0, math.log2(f.size))

    def ridge() -> float:
        return lam_reg * float((np.abs(lam) ** 2).sum()) if lam_reg > 0 else 0.0

    def residual_norm(fit: np.ndarray) -> float:
        # f - fit into fit's own memory: one tensor-sized array, not two
        return frobenius(np.subtract(f, fit, out=fit))

    def objective() -> float:
        return residual_norm(evaluate_terms(lam, factors)) ** 2 + ridge()

    # tol = 0 where the loss never rises: stop at its rounding level
    to_rounding = cfg.tol == 0.0 and cfg.coherence_caps is None and not procrustes
    loss_trace = [objective()]
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        for k in range(d):
            z = khatri_rao_but(factors, k)
            mttkrp = unfolds[k] @ z.conj()
            if k in procrustes:
                # Procrustes: min ||X_k - Q diag(lam) Z^T|| over unitary-column Q
                uu, _, vv = np.linalg.svd(mttkrp @ np.diag(lam.conj()),
                                          full_matrices=False)
                factors[k] = uu @ vv
            else:
                c = _mode_solve(unfolds[k], z, grams[:k] + grams[k + 1:], lam_reg,
                                mus[:k] + mus[k + 1:], mttkrp)
                factors[k], nrm = unit_columns(c, factors[k], 1e-300)
                dead = nrm <= 1e-300
                if dead.any():
                    if "dead_component_reseeded" not in flags:
                        flags.append("dead_component_reseeded")
                    rng = np.random.default_rng(cfg.seed + 977 + it)
                    c[:, dead] = random_unit_columns(dims[k], int(dead.sum()), rng) \
                        * (1e-6 * max(nrm.max(), 1e-6))
                    factors[k], nrm = unit_columns(c, factors[k], 1e-300)
                lam = nrm.astype(np.complex128)
            grams[k] = factors[k].conj().T @ factors[k]
            mus[k] = gram_mu(grams[k])
            if mus[k] > caps[k]:
                factors[k], grams[k] = _project_coherence(factors[k], grams[k], caps[k], flags)
                mus[k] = gram_mu(grams[k])
        # global weight re-solve on b_p = <f, term p>, read from the last
        # mode's MTTKRP: it depends only on the other modes, so it holds
        # however the last factor was set
        b = np.add.reduce(mttkrp * factors[-1].conj(), axis=0)
        gram = functools.reduce(np.multiply, grams)
        lam = _solve_gram(gram, b, flags, lam_reg, mus)
        prev = loss_trace[-1]
        scale = fnorm + float(np.abs(lam).sum())
        resolution = cfg.tol * max(1.0, prev)
        if 16.0 * ulps * scale ** 2 < resolution:
            # ||f - sum_p lam_p g_p||^2 = ||f||^2 - 2 Re lam^H b + lam^H G lam,
            # its rounding well below the stop test's resolution
            cur = float(fnorm ** 2 - 2.0 * np.vdot(lam, b).real
                        + np.vdot(lam, gram @ lam).real) + ridge()
        else:
            cur = objective()
        loss_trace.append(cur)
        if to_rounding:
            # a fall of at most 16 times the materialized loss's rounding,
            # about ulps ||f - sum_p lam_p g_p|| (||f|| + ||lam||_1)
            converged = prev - cur <= 16.0 * ulps * scale * math.sqrt(prev)
        else:
            converged = abs(prev - cur) <= resolution
        if converged:
            break

    model = canonicalize(lam, factors)
    diag = AlsDiagnostics(
        loss_trace=loss_trace,
        final_residual=residual_norm(cp_evaluate(model)),
        achieved_mus=[gram_mu(fk.conj().T @ fk) for fk in model.factors],
        converged=converged,
        n_iter=it,
        flags=flags,
    )
    return model, diag


def _mode_solve(unfold: np.ndarray, z: np.ndarray, other_grams: list,
                reg: float = 0.0, mus: list | None = None,
                mttkrp: np.ndarray | None = None) -> np.ndarray:
    """Mode update C minimizing ||X_k - C Z^T||^2 + reg ||C||^2.

    Z is the Khatri-Rao product of the other (unit-column) factors, so Z^H Z
    is the Hadamard product of their Grams, formed once here.  A certified
    system (see ``_certified``, which reads ``mus``, their coherences, when
    given) solves (Z^H Z + reg I) C^T = (X_k Z-bar)^T, taking the MTTKRP
    X_k Z-bar as ``mttkrp`` when the caller holds it; any other runs
    ``lstsq`` on Z, stacked over sqrt(reg) I when there is a ridge, which
    does not square the conditioning.
    """
    gram = functools.reduce(np.multiply, other_grams)
    if not _certified(gram, map(gram_mu, other_grams) if mus is None else mus, reg):
        if reg:
            r = len(gram)
            z = np.vstack([z, math.sqrt(reg) * np.eye(r)])
            unfold = np.hstack([unfold, np.zeros((len(unfold), r))])
        return np.linalg.lstsq(z, unfold.T, rcond=None)[0].T
    if mttkrp is None:
        mttkrp = unfold @ z.conj()
    return np.linalg.solve(gram + reg * np.eye(len(gram)) if reg else gram, mttkrp.T).T


def divergence_witness(phis, psis, ns):
    """Explicit nonexistence mechanism: rank-2 approximants of a rank-3
    target whose loss vanishes while the leading weight diverges.

    From per-mode linearly independent pairs (phi_k, psi_k), builds the
    rank-3 target

        f = psi_1 (x) phi_2 (x) phi_3 + phi_1 (x) psi_2 (x) phi_3
            + phi_1 (x) phi_2 (x) psi_3

    and, per n, the rank-2 approximant

        f_n = n (phi_1 + psi_1/n) (x) (phi_2 + psi_2/n) (x) (phi_3 + psi_3/n)
              - n phi_1 (x) phi_2 (x) phi_3.

    Returns a list of records (n, loss, max_weight, mode coherences
    mu(g_k, h_k) of the two normalized rank-2 factors per mode): the loss
    decays as O(1/n), the weight grows as n, and every mode coherence
    approaches 1.
    """
    if len(phis) != 3 or len(psis) != 3:
        raise ValueError("need exactly three (phi_k, psi_k) pairs")
    phis = [finite_tensor(v, f"divergence_witness: mode {k} phi") for k, v in enumerate(phis)]
    psis = [finite_tensor(v, f"divergence_witness: mode {k} psi") for k, v in enumerate(psis)]
    for k in range(3):
        pair = np.stack([phis[k], psis[k]], axis=1)
        s = np.linalg.svd(pair, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValueError(f"mode {k}: phi and psi are linearly dependent")
    target = (
        rank1_outer([psis[0], phis[1], phis[2]])
        + rank1_outer([phis[0], psis[1], phis[2]])
        + rank1_outer([phis[0], phis[1], psis[2]])
    )
    records = []
    for n in ns:
        n = check_count(n, 1, "n values must be positive")
        mixed = [phis[k] + psis[k] / n for k in range(3)]
        f_n = n * rank1_outer(mixed) - n * rank1_outer(phis)
        loss = frobenius(target - f_n)
        weight = n * float(np.prod([np.linalg.norm(v) for v in mixed]))
        mus = []
        for k in range(3):
            g = mixed[k] / np.linalg.norm(mixed[k])
            h = phis[k] / np.linalg.norm(phis[k])
            pair = np.stack([g, h], axis=1)
            mus.append(gram_mu(pair.conj().T @ pair))
        records.append({
            "n": n,
            "loss": float(loss),
            "max_weight": float(weight),
            "mode_coherences": mus,
        })
    return records
