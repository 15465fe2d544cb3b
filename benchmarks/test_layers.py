"""Layer rows for pytest-benchmark: the kernels the dense decompose path
and the nuclear-norm bracket spend their time in.

Run from the repository root (the tier-1 suite does not collect them)::

    PYTHONPATH=src python -m pytest benchmarks -q
    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-autosave

Inputs are fixed by their seeds, so rows of two commits compare like with
like.  Report medians: the timings carry the noise of the host.
"""

import numpy as np
import pytest

from cohcp.core import random_unit_columns
from cohcp.decompose import _mode_solve
from cohcp.htns import dump_htns, parse_htns
from cohcp.norms import (
    NormConfig,
    _alternating_spectral,
    _exact_fit,
    _khatri_rao_but,
    nuclear_norm_bounds,
)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_read_htns_40(benchmark):
    text = dump_htns(_complex(np.random.default_rng(0), (40, 40, 40)))
    t = benchmark(parse_htns, text)
    assert t.shape == (40, 40, 40)


def test_certified_mode_solve_60_r6(benchmark):
    rng = np.random.default_rng(1)
    r = 6
    factors = [random_unit_columns(60, r, rng) for _ in range(3)]
    unfold = _complex(rng, (60, 60 * 60))
    z = _khatri_rao_but(factors, 0)
    grams = [fj.conj().T @ fj for fj in factors[1:]]
    c = benchmark(_mode_solve, unfold, z, grams)
    assert c.shape == (60, r)


@pytest.mark.parametrize("n, restarts", [(40, 16), (3, 64)])
def test_alternating_spectral_sweep(benchmark, n, restarts):
    t = _complex(np.random.default_rng(2), (n, n, n))

    def sweep():
        # one sweep from fixed starts
        return _alternating_spectral(t, restarts, 0.0, 1, np.random.default_rng(3))

    value, _ = benchmark(sweep)
    assert value > 0.0


def _tensor_3cubed():
    return _complex(np.random.default_rng(4), (3, 3, 3))


def test_nuclear_norm_bounds_3(benchmark):
    t = _tensor_3cubed()
    cert = benchmark(nuclear_norm_bounds, t, NormConfig())
    assert cert.nuclear_lower <= cert.nuclear_upper


def test_exact_fit_3_r5(benchmark):
    t = _tensor_3cubed()

    def fit():
        return _exact_fit(t, 5, NormConfig(), np.random.default_rng(5))

    benchmark(fit)
