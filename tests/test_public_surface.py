"""Every public callable of ``cohcp`` refuses malformed input by name.

``ROWS`` holds, for each function and class that ``cohcp`` exports, one
malformed call and a phrase that its ``ValueError`` must contain.
``EXEMPT`` names the exports that have no malformed call to refuse, each
with its reason.  ``KERNELS`` are the five exported kernels, which check
shapes (their rows) but do not scan for non-finite entries: NaN in, NaN
out.  A new export with neither a row nor an exemption fails
``test_every_export_has_a_row_or_an_exemption``.
"""

import io
import math
import os
import pickle
import types

import numpy as np
import pytest

import cohcp as c

NAN = math.nan
CUBE = np.full((2, 2, 2), NAN)  # a tensor entry point must name the non-finite entry
COHERENCES = [NAN, 0.5, 0.5]
CELERITY = 3.0e8


def _scene(**fields):
    args = dict(b=[[0.12 * i, 0.0, 0.0] for i in range(5)], delta=np.zeros((1, 3)),
                pulsation=2.0 * np.pi * CELERITY / 0.3, celerity=CELERITY)
    return c.ArrayScene(**{**args, **fields})


ROWS = {
    "ArrayScene": (lambda: _scene(pulsation=NAN),
                   "pulsation and celerity must be positive and finite"),
    "CPModel": (lambda: c.CPModel(weights=np.array([NAN]), factors=(np.ones((1, 1)),)),
                "weights must be finite"),
    "CdmaScene": (lambda: c.CdmaScene(gains=[[NAN]], symbols=[[1.0]], codes=[[1.0]]),
                  "CdmaScene gains: non-finite entry at index (0, 0)"),
    "Dictionary": (lambda: c.Dictionary([(np.array([NAN, 1.0]),)]),
                   "atom 0, mode 0: non-finite entry at index (0,)"),
    "NormConfig": (lambda: c.NormConfig(tol=NAN), "tol must be finite and >= 0"),
    "PathSet": (lambda: c.PathSet(directions=[[NAN, 0.0, 0.0]], signals=[[1.0]]),
                "directions must be unit vectors"),
    "SolverConfig": (lambda: c.SolverConfig(r=0), "target rank must be >= 1"),
    "best_rank1": (lambda: c.best_rank1(CUBE), "best_rank1: non-finite entry"),
    "canonicalize": (lambda: c.canonicalize([1.0], [np.array([[NAN], [1.0]])]),
                     "factors[0] must be finite"),
    "coercivity_lower_bound": (lambda: c.coercivity_lower_bound([NAN], [0.5, 0.5]),
                               "coercivity_lower_bound: weights must be finite"),
    "coherence": (lambda: c.coherence(np.array([[NAN, 1.0], [0.0, 1.0]])),
                  "factor set: non-finite entry at index (0, 0)"),
    "collinearity_check": (lambda: c.collinearity_check(_scene(), [NAN, 0.0, 0.0],
                                                        [0.0, 1.0, 0.0]),
                           "directions must be unit vectors"),
    "condition_report": (lambda: c.condition_report(COHERENCES, 2),
                         "coherences must be finite"),
    "constrained_als": (lambda: c.constrained_als(CUBE, c.SolverConfig(r=1)),
                        "constrained_als: non-finite entry"),
    "cp_evaluate": (lambda: c.cp_evaluate(None), "cp_evaluate expects a CPModel, got NoneType"),
    "divergence_witness": (lambda: c.divergence_witness([np.array([NAN, 1.0])] * 3,
                                                        [np.array([0.0, 1.0])] * 3, [1]),
                           "divergence_witness: mode 0 phi: non-finite entry"),
    "doa_estimate": (lambda: c.doa_estimate(np.full(5, NAN), _scene()),
                     "steering column 0 has a non-finite entry"),
    "duality_gap_check": (lambda: c.duality_gap_check(CUBE, np.ones((2, 2, 2))),
                          "non-finite entry at index (0, 0, 0)"),
    "dump_htns": (lambda: c.dump_htns(CUBE), "HTNS1: non-finite entry at index (0, 0, 0)"),
    "effective_codes": (lambda: c.effective_codes([[NAN]], [[1.0]]),
                        "effective_codes spreading: non-finite entry"),
    "essentially_equal": (lambda: c.essentially_equal(c.strassen_decomposition(),
                                                      c.strassen_decomposition(), NAN),
                          "tol must be finite and >= 0"),
    "existence_condition": (lambda: c.existence_condition(COHERENCES, 2),
                            "coherences must be finite"),
    "existence_uniqueness_condition": (lambda: c.existence_uniqueness_condition(COHERENCES, 2),
                                       "coherences must be finite"),
    "expected_rank": (lambda: c.expected_rank([0, 2]), "dims must be positive integers"),
    "greedy_bound_check": (lambda: c.greedy_bound_check("gms", 2, NAN),
                           "coherence must lie in (0, 1)"),
    "has_resolvent_triad": (lambda: c.has_resolvent_triad([[NAN, 0.0, 0.0]], 1.0),
                            "points must be finite"),
    "is_resolvent": (lambda: c.is_resolvent([[0.0, 0.0, 0.0]], [NAN, 0.0, 0.0], 1.0),
                     "v must be a finite 3-vector"),
    "krank_lower_bound": (lambda: c.krank_lower_bound(
                              c.CoherenceReport(mu=NAN, omega=NAN, argpair=None)),
                          "coherence must lie in [0, 1], got nan"),
    "kruskal_condition": (lambda: c.kruskal_condition([math.inf, 2, 2], 2),
                          "kranks must be nonnegative integers, one per mode, got inf"),
    "kruskal_rank_bruteforce": (lambda: c.kruskal_rank_bruteforce(
                                    np.array([[NAN, 1.0], [0.0, 1.0]])),
                                "factor set: non-finite entry"),
    "kruskal_simple_bound": (lambda: c.kruskal_simple_bound(0, 2),
                             "subarray sizes must be positive"),
    "mat_mult_decomposition": (lambda: c.mat_mult_decomposition(0), "needs a whole n >= 1"),
    "mat_mult_tensor": (lambda: c.mat_mult_tensor(0), "needs a whole n >= 1"),
    "nuclear_norm_bounds": (lambda: c.nuclear_norm_bounds(CUBE),
                            "nuclear_norm_bounds: non-finite entry"),
    "oga_continuous": (lambda: c.oga_continuous(CUBE, 1), "oga_continuous: non-finite entry"),
    "parse_htns": (lambda: c.parse_htns("junk"), "HTNS1: truncated header"),
    "polarization_gain": (lambda: c.polarization_gain(NAN, 0.0),
                          "orientation angle alpha must be finite"),
    "polarization_vector": (lambda: c.polarization_vector(NAN, 0.0, 0.0, 0.0),
                            "angles theta and phi must be finite"),
    "random_incoherent_dictionary": (lambda: c.random_incoherent_dictionary((0, 2), 3),
                                     "dims must be >= 1, got 0"),
    "read_htns": (lambda: c.read_htns(io.StringIO("1\n1\nnan 0\n")),
                  "HTNS1: entry 0: non-finite value"),
    "simulate_array": (lambda: c.simulate_array(
                           _scene(), c.PathSet(directions=[[1.0, 0.0, 0.0]], signals=[[1.0]]),
                           noise_std=NAN),
                       "noise_std must be finite and >= 0"),
    "simulate_cdma": (lambda: c.simulate_cdma(
                          c.CdmaScene(gains=[[1.0]], symbols=[[1.0]], codes=[[1.0]]), noise_std=NAN),
                      "noise_std must be finite and >= 0"),
    "simulate_fluorescence": (lambda: c.simulate_fluorescence([[NAN]], [[1.0]], [[1.0]]),
                              "simulate_fluorescence concentrations: non-finite entry"),
    "spark_bruteforce": (lambda: c.spark_bruteforce(np.array([[NAN, 1.0], [0.0, 1.0]])),
                         "factor set: non-finite entry"),
    "spectral_norm": (lambda: c.spectral_norm(CUBE), "spectral_norm: non-finite entry"),
    "steering_vectors": (lambda: c.steering_vectors(_scene(), [[NAN, 0.0, 0.0]]),
                         "directions must be unit vectors"),
    "sufficient_sum": (lambda: c.sufficient_sum(COHERENCES, 2), "coherences must be finite"),
    "sufficient_sumsq": (lambda: c.sufficient_sumsq(COHERENCES, 2),
                         "coherences must be finite"),
    "temlyakov_condition": (lambda: c.temlyakov_condition(0, 0.1, 1.0),
                            "rank r must be >= 1"),
    "uniqueness_condition": (lambda: c.uniqueness_condition(COHERENCES, 2),
                             "coherences must be finite"),
    "woga": (lambda: c.woga(CUBE, c.Dictionary([(np.eye(2)[0],) * 3])),
             "woga: non-finite entry"),
    # refused before the file is opened, so nothing is written
    "write_htns": (lambda: c.write_htns(os.devnull, CUBE),
                   "HTNS1: non-finite entry at index (0, 0, 0)"),
    # the kernels check shapes
    "inner_product": (lambda: c.inner_product(np.ones(2), np.ones(3)), "dimension mismatch"),
    "rank1_outer": (lambda: c.rank1_outer([]), "need at least one factor vector"),
    "evaluate_terms": (lambda: c.evaluate_terms([1.0, 2.0], [np.ones((2, 1))]),
                       "each factor matrix needs one column per term"),
    "multilinear_action": (lambda: c.multilinear_action([np.eye(2)], np.ones((2, 2))),
                           "need exactly one matrix per mode"),
}

# each kernel with a call on a non-finite entry, which it passes through
KERNELS = {
    "frobenius": (CUBE,),
    "inner_product": (CUBE, np.ones((2, 2, 2))),
    "rank1_outer": ([np.array([NAN, 1.0]), np.ones(2)],),
    "evaluate_terms": ([1.0], [np.array([[math.inf], [1.0]]), np.ones((2, 1))]),
    "multilinear_action": ([np.eye(2)] * 3, CUBE),
}

RECORD = "a result record that the library fills from checked values"
EXEMPT = {
    "frobenius": "a kernel that takes an array of any shape, and does not scan for "
                 "non-finite entries",
    "strassen_decomposition": "takes no arguments",
    "AlsDiagnostics": RECORD,
    "CoherenceReport": RECORD,
    "CollinearityResult": RECORD,
    "DoaEstimate": RECORD,
    "GreedyResult": RECORD,
    "NormCertificate": RECORD,
}


def exports() -> set:
    return {name for name in dir(c) if not name.startswith("_")
            and callable(getattr(c, name)) and not isinstance(getattr(c, name), types.ModuleType)}


def test_every_export_has_a_row_or_an_exemption():
    missing = exports() - set(ROWS) - set(EXEMPT)
    assert not missing, f"exports with neither a malformed call nor an exemption: {missing}"


def test_rows_and_exemptions_name_exports_once():
    assert (set(ROWS) | set(EXEMPT) | set(KERNELS)) <= exports()
    assert not set(ROWS) & set(EXEMPT)
    assert all(reason for reason in EXEMPT.values())


@pytest.mark.parametrize("name", sorted(ROWS))
def test_malformed_call_is_refused_by_name(name):
    call, phrase = ROWS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert phrase in str(info.value)


# configurations refuse at construction what their solver cannot use
CONFIG_ROWS = [
    (lambda: c.SolverConfig(r=2, seed=1.5), "seed must be >= 0, got 1.5"),
    (lambda: c.SolverConfig(r=2, seed=-1), "seed must be >= 0, got -1"),
    (lambda: c.NormConfig(seed=-1), "seed must be >= 0, got -1"),
    (lambda: c.NormConfig(seed=math.nan), "seed must be >= 0, got nan"),
    (lambda: c.NormConfig(restarts=0), "restarts must be >= 1, got 0"),
    (lambda: c.NormConfig(restarts=2.5), "restarts must be >= 1, got 2.5"),
]


@pytest.mark.parametrize("call, phrase", CONFIG_ROWS)
def test_config_refuses_what_its_solver_cannot_use(call, phrase):
    with pytest.raises(ValueError) as info:
        call()
    assert phrase in str(info.value)


# a config, dictionary or config field of the wrong type is refused by name,
# not by the first attribute or operation it lacks
TYPE_ROWS = [
    (lambda: c.constrained_als(CUBE_OK, 3), "constrained_als expects a SolverConfig, got int"),
    (lambda: c.nuclear_norm_bounds(CUBE_OK, 3), "nuclear_norm_bounds expects a NormConfig, got int"),
    (lambda: c.duality_gap_check(CUBE_OK, CUBE_OK, 3),
     "duality_gap_check expects a NormConfig, got int"),
    (lambda: c.woga(CUBE_OK, [(np.ones(2),) * 3]), "woga expects a Dictionary, got list"),
    (lambda: c.NormConfig(candidates=(c.strassen_decomposition(), 1)),
     "candidates[1] must be a CPModel, got int"),
    (lambda: c.NormConfig(candidates=5), "candidates must be a sequence of CPModel, got int"),
    (lambda: c.SolverConfig(r=2, coherence_caps=0.5),
     "coherence_caps must be a sequence of numbers, got 0.5"),
    (lambda: c.SolverConfig(r=2, coherence_caps=("a",)),
     "coherence_caps must be a sequence of numbers, got ('a',)"),
    (lambda: c.SolverConfig(r=2, tychonoff_lambda="a"),
     "tychonoff_lambda must be a real number, got 'a'"),
]


@pytest.mark.parametrize("call, phrase", TYPE_ROWS)
def test_wrong_type_is_refused_by_name(call, phrase):
    with pytest.raises(ValueError) as info:
        call()
    assert phrase in str(info.value)


def test_norm_config_keeps_its_candidates_as_a_tuple():
    model = c.strassen_decomposition()
    assert c.NormConfig(candidates=[model]).candidates == (model,)


def test_config_reads_a_whole_float_seed_as_its_int():
    assert c.SolverConfig(r=2, seed=3.0).seed == 3 == c.NormConfig(seed=3.0).seed
    assert type(c.NormConfig(restarts=np.int64(8)).restarts) is int


# every entry point that draws random numbers, called with a noise level or
# input for which it draws them, and a given seed
CUBE_OK = np.arange(8.0).reshape(2, 2, 2) + 1.0
SEEDED = {
    "simulate_array": lambda seed, noise=0.0: c.simulate_array(
        _scene(), c.PathSet(directions=[[1.0, 0.0, 0.0]], signals=[[1.0], [2.0]]),
        noise, seed),
    "simulate_cdma": lambda seed, noise=0.0: c.simulate_cdma(
        c.CdmaScene(gains=[[1.0]], symbols=[[1.0], [0.5]], codes=[[1.0]]), noise, seed),
    "simulate_fluorescence": lambda seed, noise=0.0: c.simulate_fluorescence(
        [[1.0]], [[1.0], [0.5]], [[0.3]], noise, seed),
    "best_rank1": lambda seed, noise=0.0: c.best_rank1(CUBE_OK, restarts=2, seed=seed),
    "oga_continuous": lambda seed, noise=0.0: c.oga_continuous(CUBE_OK, 2, restarts=2,
                                                               seed=seed),
    "spectral_norm": lambda seed, noise=0.0: c.spectral_norm(CUBE_OK, restarts=2, seed=seed),
    "random_incoherent_dictionary": lambda seed, noise=0.0: c.random_incoherent_dictionary(
        (2, 2), 2, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_entry_point_refuses_a_bad_seed_by_name(name, seed):
    # the simulators check the seed also when no noise is drawn
    with pytest.raises(ValueError) as info:
        SEEDED[name](seed)
    assert f"seed must be >= 0, got {seed}" in str(info.value)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_entry_point_reads_a_whole_float_seed_as_its_int(name):
    assert pickle.dumps(SEEDED[name](2.0, 0.1)) == pickle.dumps(SEEDED[name](2, 0.1))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_pass_non_finite_entries_through(name):
    # the documented contract: no scan, so a non-finite entry reaches the output
    with np.errstate(invalid="ignore"):
        out = np.asarray(getattr(c, name)(*KERNELS[name]))
    assert not np.isfinite(out).all()
