"""Metamorphic properties from the paper's invariances.

A per-mode unitary action (U_1, .., U_d) . T (``core.multilinear_action``)
maps rank-1 terms to rank-1 terms and keeps every inner product.  So it
keeps the weights, every coherence and every condition verdict, the
spectral norm, and whether two models are essentially equal.  None of
these properties needs a reference value.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohcp.coherence import coherence
from cohcp.conditions import condition_report
from cohcp.core import canonicalize, essentially_equal, multilinear_action, random_unit_columns
from cohcp.norms import spectral_norm

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0]


def verdicts(mus, r: int) -> dict:
    return {name: entry["holds"] for name, entry in condition_report(mus, r).items()
            if isinstance(entry, dict)}


def moved(model, unitaries):
    return canonicalize(model.weights, [u @ f for u, f in zip(unitaries, model.factors)])


@settings(deadline=None, max_examples=30)
@given(dims=st.sampled_from([(3, 3, 3), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2)]), seed=SEEDS)
def test_spectral_norm_invariant(dims, seed):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    moved_t = multilinear_action([random_unitary(rng, n) for n in dims], t)
    a = spectral_norm(t, seed=seed).spectral
    b = spectral_norm(moved_t, seed=seed).spectral
    # a spectral local maximum on either side would show here (ROADMAP item 4)
    assert abs(a - b) <= 1e-12 * a


@settings(deadline=None, max_examples=60)
@given(dims=st.lists(st.integers(2, 6), min_size=2, max_size=4), r=st.integers(2, 5),
       seed=SEEDS)
def test_coherences_and_verdicts_invariant(dims, r, seed):
    rng = np.random.default_rng(seed)
    factors = [random_unit_columns(n, r, rng) for n in dims]
    mus = [coherence(f).mu for f in factors]
    moved_mus = [coherence(random_unitary(rng, n) @ f).mu for n, f in zip(dims, factors)]
    assert np.allclose(moved_mus, mus, rtol=0.0, atol=1e-12)
    # every verdict is monotone in each mu: equal verdicts at mus scaled by
    # 1 -+ 1e-9 put mus and moved_mus on the same side of every inequality
    low = verdicts([mu * (1 - 1e-9) for mu in mus], r)
    assume(low == verdicts([min(mu * (1 + 1e-9), 1.0) for mu in mus], r))
    assert verdicts(moved_mus, r) == verdicts(mus, r) == low


@settings(deadline=None, max_examples=60)
@given(dims=st.lists(st.integers(2, 5), min_size=2, max_size=4), r=st.integers(1, 3),
       noise=st.sampled_from([0.0, 1e-3, 1e-2, 3e-2, 0.1, 0.3]), seed=SEEDS)
def test_essentially_equal_invariant(dims, r, noise, seed):
    rng = np.random.default_rng(seed)
    weights = 1.0 + rng.random(r)
    m1 = canonicalize(weights, [random_unit_columns(n, r, rng) for n in dims])
    m2 = canonicalize(weights + noise * rng.standard_normal(r),
                      [f + noise * random_unit_columns(n, r, rng)
                       for n, f in zip(dims, m1.factors)])
    assume(m2.rank == r)
    tol = 0.05
    # the verdict is monotone in tol: equal verdicts at tol -+ 1e-6 relative
    # keep the models off the tolerance boundary
    verdict = essentially_equal(m1, m2, tol * (1 - 1e-6))
    assume(verdict == essentially_equal(m1, m2, tol * (1 + 1e-6)))
    unitaries = [random_unitary(rng, n) for n in dims]
    assert essentially_equal(moved(m1, unitaries), moved(m2, unitaries), tol) == verdict
