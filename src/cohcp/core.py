"""Dense hypermatrix core: rank-1 terms, CP models, canonical form, equality.

A hypermatrix is an ordinary complex :class:`numpy.ndarray` stored in C order,
i.e. row-major lexicographic with mode 1 slowest.  Every flattening in this
package uses that single convention.

A CP model is a weighted sum of separable (rank-1) terms

    T = sum_p  w_p * phi_1p (x) phi_2p (x) ... (x) phi_dp

with real positive weights sorted in descending order and unit-norm factor
columns.  All types are immutable after construction and all operations are
pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12


def _as_complex(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.complex128))


def _owned(a, dtype) -> np.ndarray:
    """A read-only C-order copy of ``a`` as ``dtype``: a value object that
    keeps it stays valid whatever its caller later writes to ``a``."""
    a = np.array(a, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


def vector_norm(x: np.ndarray):
    """``np.linalg.norm(x)`` of a float or complex array by its own formula,
    without its checks: the same dots of the entries in memory order, so the
    same bits."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(re.dot(re) + im.dot(im))
    return np.sqrt(x.dot(x))


def column_norms(c: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(c, axis=0)`` by its own formula, without its checks."""
    return np.sqrt(np.add.reduce((c.conj() * c).real, axis=0))


def frobenius(t) -> float:
    """Frobenius (L2) norm of a hypermatrix.  A kernel, like
    ``inner_product``, ``rank1_outer``, ``evaluate_terms`` and
    ``multilinear_action``, which the solvers and norms call on inputs their
    entry points have checked: those check shapes, and none scans for
    non-finite entries, which propagate (NaN in, NaN out)."""
    t = np.asarray(t).ravel()
    return float(vector_norm(t if t.dtype.kind in "fc" else t.astype(float)))


def inner_product(f, g) -> complex:
    """Hilbert inner product <f, g> = sum f * conj(g) over matching dims.

    For rank-1 inputs this equals the product of the per-mode inner
    products.  A kernel: shapes are checked, non-finite entries propagate.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape}")
    return complex(np.vdot(g.ravel(), f.ravel()))


def rank1_outer(factors) -> np.ndarray:
    """Outer product of d vectors: entry (i_1..i_d) = prod_k phi_k(i_k).
    A kernel: shapes are checked, non-finite entries propagate."""
    if len(factors) == 0:
        raise ValueError("need at least one factor vector")
    vecs = [_as_complex(v) for v in factors]
    for v in vecs:
        if v.ndim != 1 or v.size == 0:
            raise ValueError("factors must be nonempty vectors")
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return out


def finite_tensor(tensor, caller: str) -> np.ndarray:
    """The tensor as complex128, refusing NaN or infinite entries."""
    t = np.asarray(tensor, dtype=np.complex128)
    finite = np.isfinite(t)
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise ValueError(f"{caller}: non-finite entry at index {tuple(bad.tolist())}")
    return t


# the Frobenius norms a nonzero tensor may have in the solvers and norms
NORM_MAX = 2.0 ** 509   # squares stay 64 times below the largest double, room for r-term sums
NORM_MIN = 2.0 ** -509  # squares stay 16 times above the smallest normal double, 2^-1022


def bounded_tensor(tensor, caller: str) -> tuple:
    """(t, ||t||_F): the tensor as complex128 and its Frobenius norm,
    refusing NaN or infinite entries (see ``finite_tensor``) and a nonzero
    tensor whose norm lies outside [NORM_MIN, NORM_MAX], where the squared
    sums of the solvers would overflow or underflow.  The norm is the scan
    for non-finite entries: only a norm out of range looks at the entries."""
    t = np.asarray(tensor, dtype=np.complex128)
    with np.errstate(over="ignore"):  # an overflow is refused below
        nrm = frobenius(t)
    if not NORM_MIN <= nrm <= NORM_MAX:
        finite_tensor(t, caller)
        if nrm > 0.0 or t.any():
            top = float(np.max(np.abs(t)))
            raise ValueError(f"{caller}: Frobenius norm {top * frobenius(t / top):.3g} lies "
                             f"outside [{NORM_MIN:.3g}, {NORM_MAX:.3g}]; rescale the tensor")
    return t, nrm


def check_tol(tol) -> None:
    """Refuse a negative or non-finite tolerance (a NaN one never stops)."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def check_count(value, least: int, message: str) -> int:
    """``value`` (an int, numpy integer or integral float) as an int.  A whole
    number below ``least`` raises ``ValueError(message)``; any other value
    raises it naming the value, unless the message already ends in it."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise ValueError(message if message.endswith(repr(value)) else f"{message}, got {value!r}")
    if value < least:
        raise ValueError(message)
    return int(value)


def check_instance(value, cls: type, caller: str):
    """``value`` if it is a ``cls``; otherwise a ``ValueError`` naming both types."""
    if not isinstance(value, cls):
        raise ValueError(f"{caller} expects a {cls.__name__}, got {type(value).__name__}")
    return value


def stack_terms(terms, dims) -> list:
    """Factor matrices of rank-1 terms given as one vector per mode: the
    n_k x m matrix of mode k holds term p in column p (n_k x 0 for none)."""
    if len(terms) == 0:
        return [np.zeros((n, 0), dtype=np.complex128) for n in dims]
    return [np.stack([term[k] for term in terms], axis=1) for k in range(len(dims))]


def khatri_rao_but(factors, k: int) -> np.ndarray:
    """Khatri-Rao product of all factor matrices except mode k, ordered to
    match the C-order unfolding of the remaining modes; for a single mode,
    the empty product: a 1 x r row of ones."""
    r = factors[0].shape[1]
    others = [*factors[:k], *factors[k + 1:]]
    if not others:
        return np.ones((1, r))
    kr = others[0]
    for fj in others[1:]:
        kr = (kr[:, None] * fj).reshape(-1, r)
    return kr


def term_gram(factors) -> np.ndarray:
    """Gram matrix M_pq = <g_q, g_p> of the unit rank-1 terms."""
    r = factors[0].shape[1]
    gram = np.ones((r, r), dtype=np.complex128)
    for f in factors:
        gram *= f.conj().T @ f
    return gram


def coherent_pair(gram: np.ndarray) -> tuple:
    """Coherence of a unit-column set from its Gram G, with the pair that
    attains it: (min(|G_pq|, 1), (p, q)) at the first largest off-diagonal
    entry, or (0.0, None) for fewer than two columns.  Cauchy-Schwarz bounds
    |G_pq| by 1; the clip removes a rounding overshoot of about an ulp."""
    r = gram.shape[0]
    if r < 2:
        return 0.0, None
    g = np.abs(gram)
    g.flat[::r + 1] = -1.0
    p, q = divmod(int(g.argmax()), r)
    return min(float(g[p, q]), 1.0), (p, q)


def gram_mu(gram: np.ndarray) -> float:
    """Coherence of a unit-column set from its Gram (see ``coherent_pair``)."""
    return coherent_pair(gram)[0]


def term_correlations(t: np.ndarray, factors) -> np.ndarray:
    """b_p = <T, phi_1p (x) ... (x) phi_dp> for all terms p at once: the
    mode-1 unfolding times the conjugate Khatri-Rao product of the other
    modes (MTTKRP), summed against conj(phi_1p)."""
    if len(factors) == 0:
        raise ValueError("term_correlations: need at least one mode")
    cols = [f.shape[1] for f in factors]
    dims = tuple(f.shape[0] for f in factors)
    if len(set(cols)) != 1:
        raise ValueError(f"term_correlations: factor column counts differ: {cols}")
    if t.shape != dims:
        raise ValueError(f"term_correlations: tensor shape {t.shape} does not "
                         f"match the factor dims {dims}")
    if cols[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    kr = khatri_rao_but(factors, 0).conj()
    return np.add.reduce((t.reshape(dims[0], -1) @ kr) * factors[0].conj(), axis=0)


def evaluate_terms(weights, factors) -> np.ndarray:
    """Evaluate sum_p weights[p] * (col p of each factor matrix) outer, as
    the weighted mode-1 factor times the transposed Khatri-Rao product.
    A kernel: shapes are checked, non-finite entries propagate."""
    factors = [_as_complex(f) for f in factors]
    if len(factors) == 0:
        raise ValueError("evaluate_terms: need at least one mode")
    w = _as_complex(np.atleast_1d(weights))
    r = w.shape[0]
    for f in factors:
        if f.ndim != 2 or f.shape[1] != r:
            raise ValueError("each factor matrix needs one column per term")
    dims = tuple(f.shape[0] for f in factors)
    if r == 0:
        return np.zeros(dims, dtype=np.complex128)
    return ((factors[0] * w) @ khatri_rao_but(factors, 0).T).reshape(dims)


def unit_columns(c: np.ndarray, keep: np.ndarray, floor: float = 0.0) -> tuple:
    """(u, nrm): the columns of c over their norms, with column p of keep
    wherever nrm[p] <= floor or is NaN, and nrm = ``column_norms(c)``; when
    every norm is above the floor, u is one division."""
    nrm = column_norms(c)
    if np.minimum.reduce(nrm, initial=np.inf) > floor:  # False for a NaN norm
        return c / nrm, nrm
    live = nrm > floor
    return np.where(live, c / np.where(live, nrm, 1.0), keep), nrm


def alternating_rank1(t: np.ndarray, restarts: int, tol: float,
                      max_sweeps: int, rng) -> tuple:
    """Batched alternating maximization of |<T, phi_1 (x) .. (x) phi_d>|
    (higher-order power method), all restarts in lockstep; returns the best
    restart as (|<T, witness>|, witness).  Each mode update normalizes the
    MTTKRP X_(k) conj(KR of the other modes), which increases the objective
    monotonically; a vector's unfolding column broadcasts over the restarts.
    ``unit_columns`` normalizes the MTTKRP and keeps the previous vector of
    a restart whose MTTKRP vanishes.
    """
    restarts = check_count(restarts, 1, f"restarts must be >= 1, got {restarts}")
    vecs = [random_unit_columns(n, restarts, rng) for n in t.shape]
    unfolds = [np.moveaxis(t, k, 0).reshape(n, -1) for k, n in enumerate(t.shape)]
    vals = np.zeros(restarts)
    for _ in range(max_sweeps):
        prev = vals
        for k, x in enumerate(unfolds):
            # one mode: x itself, as x @ ones would turn -0.0 imaginary parts to +0.0
            c = x if t.ndim == 1 else x @ khatri_rao_but(vecs, k).conj()
            vecs[k], vals = unit_columns(c, vecs[k])
        if (vals - prev).max() <= tol * max(1.0, float(vals.max())):
            break
    best = int(vals.argmax())
    witness = tuple(v[:, best].copy() for v in vecs)
    return float(abs(term_correlations(t, [w[:, None] for w in witness])[0])), witness


@dataclass(frozen=True)
class CPModel:
    """Canonical-form CP model: descending positive weights, unit columns.

    ``factors[k]`` has shape (n_k, r); column p is the mode-k factor of
    term p.  ``dropped_terms`` counts zero terms removed by
    :func:`canonicalize`.
    """

    weights: np.ndarray
    factors: tuple
    dropped_terms: int = 0

    def __post_init__(self):
        w = _owned(self.weights, np.float64)
        facs = tuple(_owned(f, np.complex128) for f in self.factors)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        r = w.shape[0]
        if len(facs) < 1:
            raise ValueError("need at least one mode")
        for k, f in enumerate(facs):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError("factor matrices must be n_k x r")
            if f.shape[0] < 1:
                raise ValueError("empty mode")
            if not np.isfinite(f).all():
                raise ValueError(f"factors[{k}] must be finite")
        if r > 0:
            if (w <= 0).any():
                raise ValueError("weights must be strictly positive")
            if (w[1:] > w[:-1]).any():
                raise ValueError("weights must be sorted in descending order")
            for f in facs:
                if np.abs(column_norms(f) - 1.0).max() > UNIT_TOL:
                    raise ValueError("factor columns must have unit norm")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", facs)

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)


def cp_evaluate(model: CPModel) -> np.ndarray:
    """Evaluate a CP model into a dense hypermatrix."""
    check_instance(model, CPModel, "cp_evaluate")
    return evaluate_terms(model.weights, model.factors)


def canonicalize(weights, factors) -> CPModel:
    """Bring weighted rank-1 terms to canonical form.

    Accepts complex weights and factor columns of arbitrary nonzero norm.
    Column norms and weight phases are absorbed into real positive weights,
    which are then stable-sorted in descending order.  Zero terms (zero
    weight or a zero factor column) are dropped and counted in
    ``dropped_terms``.

    Phase convention: within each term, each of the first d-1 factors is
    multiplied by the unimodulus scalar that makes its largest-magnitude
    entry real positive; the accumulated inverse phase is folded into the
    last factor.  This picks a deterministic representative of the
    unimodulus orbit.  The evaluated tensor is unchanged.
    """
    w = _as_complex(np.atleast_1d(weights))
    facs = [_as_complex(f) for f in factors]
    r = w.shape[0]
    d = len(facs)
    if d < 1:
        raise ValueError("need at least one mode")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    for k, f in enumerate(facs):
        if f.ndim != 2 or f.shape[1] != r:
            raise ValueError("each factor matrix needs one column per term")
        if not np.isfinite(f).all():
            raise ValueError(f"factors[{k}] must be finite")

    mags = np.empty(r)
    cols = [np.empty_like(f) for f in facs]
    for p in range(r):
        mag = abs(w[p])
        phase = w[p] / mag if mag > 0 else 0.0
        for k in range(d):
            c = facs[k][:, p]
            nrm = vector_norm(c)
            if nrm == 0.0:
                mag = 0.0
                break
            mag *= nrm
            u = c / nrm
            if k < d - 1:
                top = u[np.abs(u).argmax()]
                ph = top / abs(top)
                u = u / ph
                phase = phase * ph
            else:
                u = u * phase
            cols[k][:, p] = u
        mags[p] = mag

    keep = mags != 0.0  # a NaN magnitude is kept, for CPModel to refuse
    kept = np.flatnonzero(keep)[np.argsort(-mags[keep], kind="stable")]
    return CPModel(
        weights=mags[kept],
        factors=tuple(c[:, kept] for c in cols),
        dropped_terms=int(r - keep.sum()),
    )


def _align_phases(m1: CPModel, m2: CPModel, p: int, q: int, tol: float) -> bool:
    """True if term p of m1 matches term q of m2 up to unimodulus scalings
    whose phases sum to zero mod 2pi, each mode aligned within tol."""
    d = m1.order
    zs = np.array(
        [np.vdot(m2.factors[k][:, q], m1.factors[k][:, p]) for k in range(d)]
    )
    mags = np.abs(zs)
    if np.any(mags < 1e-15):
        return False
    units = zs / mags
    # smallest per-mode correction distributing the phase-sum constraint
    excess = np.angle(np.prod(units))
    thetas = np.angle(units) - excess / d
    for k in range(d):
        resid = np.linalg.norm(
            m1.factors[k][:, p] - np.exp(1j * thetas[k]) * m2.factors[k][:, q]
        )
        if resid > tol:
            return False
    return True


def _match_block(ok: np.ndarray) -> bool:
    """Whether the square boolean matrix has a perfect matching (row i to
    column j where ok[i, j]): Kuhn's augmenting paths, at most n^3 reads."""
    n = ok.shape[0]
    owner = [-1] * n  # owner[j]: the row matched to column j, -1 if none

    def augment(i: int, seen: list) -> bool:
        for j in range(n):
            if ok[i, j] and not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def essentially_equal(m1: CPModel, m2: CPModel, tol: float) -> bool:
    """Test whether two canonical CP models are essentially the same.

    True iff ranks agree and the terms pair off in one matching; an edge
    where the weights agree within tol and the factors align, that is, term
    p of m1 meets term q of m2 up to unimodulus scalings e^{i theta_k} with
    sum_k theta_k = 0 mod 2pi, each mode within tol.  The verdict is
    symmetric in m1 and m2.
    """
    check_tol(tol)
    if not isinstance(m1, CPModel) or not isinstance(m2, CPModel):
        raise ValueError("essentially_equal expects canonical CPModel inputs")
    if m1.dims != m2.dims:
        raise ValueError(f"dimension mismatch: {m1.dims} vs {m2.dims}")
    if m1.rank != m2.rank:
        return False
    r = m1.rank
    if r == 0:
        return True
    w1, w2 = m1.weights, m2.weights
    if np.max(np.abs(w1 - w2)) > tol:  # a matching within tol needs sorted weights within tol
        return False
    ok = np.array([[abs(w1[p] - w2[q]) <= tol and _align_phases(m1, m2, p, q, tol)
                    for q in range(r)] for p in range(r)])
    return _match_block(ok)


def multilinear_action(matrices, tensor) -> np.ndarray:
    """Apply one square matrix per mode: (M_1,..,M_d) . T.

    Entry (a, b, c, ...) = sum_{ijk..} M1[a,i] M2[b,j] M3[c,k] ... T[ijk..].
    On a rank-1 tensor u (x) v (x) w this yields (M1 u) (x) (M2 v) (x) (M3 w).
    A kernel: shapes are checked, non-finite entries propagate.
    """
    t = _as_complex(tensor)
    if len(matrices) != t.ndim:
        raise ValueError("need exactly one matrix per mode")
    for k, m in enumerate(matrices):
        m = _as_complex(m)
        n = t.shape[k]
        if m.shape != (n, n):
            raise ValueError(f"mode {k}: expected {(n, n)} matrix, got {m.shape}")
        t = np.moveaxis(np.tensordot(m, t, axes=(1, k)), 0, k)
    return t


def random_unit_columns(n: int, r: int, rng) -> np.ndarray:
    """n x r complex matrix with i.i.d. Gaussian unit-normalized columns."""
    m = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return m / column_norms(m)
