import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohcp import cli, core
from cohcp.cli import main, render_report
from cohcp.core import cp_evaluate, rank1_outer, random_unit_columns
from cohcp.decompose import random_incoherent_dictionary
from cohcp.htns import dump_htns, read_htns, write_htns


def run_cli(args, capsys=None):
    code = main(args)
    return code


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(text: str) -> str:
    """The report text, byte for byte, without its one timestamp field."""
    stripped, count = re.subn(r'"timestamp": "[^"]*", ', "", text)
    assert count == 1
    return stripped


class TestReportFormat:
    def test_versioned_and_parseable(self):
        text = render_report({"x": 1.5, "z": complex(1, -2), "inf": math.inf})
        doc = json.loads(text)
        assert doc["report_version"] == 1
        assert doc["x"] == 1.5
        assert doc["z"] == [1.0, -2.0]
        assert doc["inf"] == "inf"

    def test_seventeen_digits(self):
        text = render_report({"v": 0.1})
        assert "0.10000000000000001" in text

    def test_non_finite_values_as_strings(self):
        doc = json.loads(render_report({"nan": math.nan, "ninf": -math.inf,
                                        "z": complex(math.nan, 1.0)}))
        assert doc["nan"] == "nan" and doc["ninf"] == "-inf"
        assert doc["z"] == ["nan", 1.0]

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
            render_report({"x": object()})

    def test_report_to_stdout_without_out(self, tmp_path, capsys):
        args = ["check", "--mus", "0.4,0.4,0.4", "--r", "2", "--d", "3"]
        assert run_cli(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "r.json"
        assert run_cli(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert strip_timestamp(printed) == strip_timestamp(out.read_text())


class TestCheckCommand:
    def test_basic_verdicts(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["check", "--mus", "0.4,0.4,0.4", "--r", "2", "--d", "3",
                        "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["existence"]["holds"] is True
        assert doc["uniqueness"]["holds"] is True
        assert doc["existence_uniqueness"]["holds"] is True
        assert doc["sufficient_sum"]["holds"] is True
        assert doc["sufficient_sumsq"]["holds"] is True

    def test_factor_file_input(self, tmp_path):
        rng = np.random.default_rng(0)
        files = []
        for k in range(3):
            m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            m /= np.linalg.norm(m, axis=0)
            p = tmp_path / f"f{k}.htns"
            write_htns(p, m)
            files.append(str(p))
        out = tmp_path / "r.json"
        code = run_cli(["check", "--factors", *files, "--r", "2", "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert len(doc["mus"]) == 3

    def test_validation_error(self, tmp_path):
        assert run_cli(["check", "--r", "2"]) == 2
        assert run_cli(["check", "--mus", "0.4,x", "--r", "2"]) == 2
        assert run_cli(["check", "--mus", "0.4,0.4", "--r", "2", "--d", "3"]) == 2

    def test_unknown_flag_exits_2(self):
        assert run_cli(["check", "--mus", "0.4", "--r", "2", "--bogus"]) == 2

    def test_kranks_length_must_match_coherences(self, capsys):
        # the verdict counted d = 2 modes, the printed left side d = 3, and
        # the report said "holds": true beside lhs 6.0 > rhs_krank_sum 5.0
        assert run_cli(["check", "--mus", "0.4,0.4,0.4", "--r", "2",
                        "--kranks", "3,2"]) == 2
        assert "need one Kruskal rank per mode" in capsys.readouterr().err


class TestCoherenceCommand:
    def test_report(self, tmp_path):
        v = np.eye(3, dtype=complex)
        p = tmp_path / "v.htns"
        write_htns(p, v)
        out = tmp_path / "r.json"
        code = run_cli(["coherence", "--input", str(p), "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["mu"] == 0.0
        assert doc["omega"] == "inf"
        assert doc["krank_bruteforce"] == 3
        assert doc["spark"] == 4

    def test_budget_skip(self, tmp_path):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        v /= np.linalg.norm(v, axis=0)
        p = tmp_path / "v.htns"
        write_htns(p, v)
        out = tmp_path / "r.json"
        code = run_cli(["coherence", "--input", str(p), "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["krank_bruteforce"] is None
        assert doc["krank_lower_bound"] >= 1

    @staticmethod
    def _report(path, v, *flags):
        write_htns(path / "v.htns", v)
        out = path / "r.json"
        assert run_cli(["coherence", "--input", str(path / "v.htns"), "--out", str(out),
                        *flags]) == 0
        return load_report(out)

    @pytest.mark.parametrize("v", [
        # mu = 0.199: ceil(1/mu) = 6 was reported
        random_unit_columns(6, 3, np.random.default_rng(3)),
        # mu = 2.4e-16, all rounding: 4,097,286,979,174,656 was reported
        np.linalg.qr(np.random.default_rng(0).standard_normal((4, 3)))[0]],
        ids=["random", "orthonormal"])
    def test_lower_bound_of_an_independent_set_is_r(self, tmp_path, v):
        doc = self._report(tmp_path, v)
        assert (doc["n"], doc["r"]) == v.shape
        assert 0.0 < doc["mu"] < 0.2
        assert doc["krank_lower_bound"] == doc["krank_bruteforce"] == 3

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(2, 6), r=st.integers(2, 8), dependent=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_lower_bound_never_exceeds_the_kruskal_rank(self, fuzz_dir, n, r, dependent,
                                                         seed):
        rng = np.random.default_rng(seed)
        v = random_unit_columns(n, r, rng)
        if dependent:  # the last column in the span of the first two
            c = v[:, :2] @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v[:, -1] = c / np.linalg.norm(c)
        doc = self._report(fuzz_dir, v)
        assert 1 <= doc["krank_lower_bound"] <= doc["krank_bruteforce"]

    @pytest.mark.parametrize("budget, krank", [(3, 3), (2, None), (0, None)])
    def test_budget_is_the_largest_r_enumerated(self, tmp_path, budget, krank):
        doc = self._report(tmp_path, np.eye(3, dtype=complex), "--budget", str(budget))
        assert doc["krank_bruteforce"] == krank

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        write_htns(tmp_path / "v.htns", np.eye(3, dtype=complex))
        # the report once said "r=3 exceeds brute-force budget -1"
        assert run_cli(["coherence", "--input", str(tmp_path / "v.htns"),
                        "--budget", "-1"]) == 2
        assert "budget must be >= 0, got -1" in capsys.readouterr().err


class TestNormsCommand:
    def test_matmul_fixture(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["norms", "--fixture", "matmul:2", "--no-search",
                        "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert abs(doc["spectral"] - 1.0) < 1e-6
        assert abs(doc["nuclear_lower"] - 8.0) < 1e-6
        assert abs(doc["nuclear_upper"] - 8.0) < 1e-3
        assert doc["certified"] is True

    def test_tensor_input(self, tmp_path):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        p = tmp_path / "t.htns"
        write_htns(p, t)
        out = tmp_path / "r.json"
        code = run_cli(["norms", "--input", str(p), "--no-search", "--out", str(out)])
        assert code in (0, 3)
        doc = load_report(out)
        assert doc["nuclear_lower"] <= doc["nuclear_upper"] + 1e-12

    def test_missing_input(self):
        assert run_cli(["norms"]) == 2

    def test_vector_input_certified(self, tmp_path):
        # exited 3 with the l1 bracket [5, 7]
        p = tmp_path / "v.htns"
        write_htns(p, np.array([3.0, 4.0]))
        out = tmp_path / "r.json"
        assert run_cli(["norms", "--input", str(p), "--out", str(out)]) == 0
        doc = load_report(out)
        assert doc["nuclear_upper"] == pytest.approx(5.0, rel=1e-12)
        assert doc["certified"] is True

    def test_vector_witness_keeps_signed_zeros(self, tmp_path):
        # the one-mode witness is the input over its norm: x @ ones((1, r))
        # would turn the -0.0 imaginary parts beside positive real parts to +0.0
        v = np.array([complex(3.0, -0.0), complex(1.0, -0.0), complex(-2.0, 0.0)])
        p = tmp_path / "v.htns"
        write_htns(p, v)
        out = tmp_path / "r.json"
        assert run_cli(["norms", "--input", str(p), "--out", str(out)]) == 0
        witness = load_report(out)["spectral_witness"][0]
        assert [math.copysign(1.0, im) for _, im in witness] == [-1.0, -1.0, 1.0]
        assert '[0.80178372573727319, -0.0]' in out.read_text()

    def test_nonfinite_input_rejected_at_read(self, tmp_path, capsys):
        # entry 5 is t[1, 0, 1]; the writer refuses NaN, so the file is written as text
        p = tmp_path / "nan.htns"
        p.write_text("3\n2 2 2\n" + "1 0\n" * 5 + "nan 0\n" + "1 0\n" * 2)
        out = tmp_path / "r.json"
        code = run_cli(["norms", "--input", str(p), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "HTNS1: entry 5: non-finite value" in err
        assert not out.exists()


def _scaled_tensor(dims, scale):
    """A 4^3 complex or a 3^3 real Gaussian tensor, times ``scale``."""
    rng = np.random.default_rng(0 if dims == (4, 4, 4) else 1)
    if dims == (4, 4, 4):
        return (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * scale
    return rng.standard_normal(dims) * scale


def _range_command(tmp_path, dims, scale, command):
    path = tmp_path / "t.htns"
    write_htns(path, _scaled_tensor(dims, scale))
    if command == "norms":
        return ["norms", "--input", str(path)]
    argv = ["decompose", "--input", str(path), "--rank", "2", "--method", command]
    if command == "woga":
        e = np.eye(dims[0]).tolist()
        (tmp_path / "atoms.json").write_text(json.dumps(
            {"atoms": [[e[0], e[0], e[0]], [e[1], e[1], e[1]], [e[0], e[1], e[2]]]}))
        argv += ["--dict", str(tmp_path / "atoms.json")]
    return argv


class TestInputRange:
    # ||T|| = 1.08e154 and 1.08e155 overflowed the squared sums (a traceback,
    # or a misleading "Singular matrix"); 4.5e-200 underflowed them to zero
    @pytest.mark.parametrize("command", ["als", "oga", "woga", "norms"])
    @pytest.mark.parametrize("dims, scale", [((4, 4, 4), 1e153), ((4, 4, 4), 1e154),
                                             ((3, 3, 3), 1e-200)])
    def test_norm_out_of_range_exits_2(self, tmp_path, capsys, dims, scale, command):
        argv = _range_command(tmp_path, dims, scale, command)
        assert run_cli([*argv, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "Frobenius norm" in err and "lies outside" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["als", "oga", "woga", "norms"])
    @pytest.mark.parametrize("dims, scale", [((4, 4, 4), 1e152), ((3, 3, 3), 1e-150)])
    def test_norm_in_range_reports_unchanged(self, tmp_path, monkeypatch, dims, scale,
                                             command):
        # the range check only refuses: with the band opened to every
        # double, the report has the same bytes
        argv = _range_command(tmp_path, dims, scale, command)
        texts, codes = [], []
        for name in ("checked.json", "open.json"):
            codes.append(run_cli([*argv, "--out", str(tmp_path / name)]))
            texts.append(re.sub(r'"timestamp": "[^"]*", ', "", (tmp_path / name).read_text()))
            monkeypatch.setattr(core, "NORM_MIN", 0.0)
            monkeypatch.setattr(core, "NORM_MAX", math.inf)
        assert codes[0] == codes[1] in (0, 3)
        assert texts[0] == texts[1]


class TestDecomposeCommand:
    def test_als_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        qs = [np.linalg.qr(rng.standard_normal((4, 2))
                           + 1j * rng.standard_normal((4, 2)))[0] for _ in range(3)]
        from cohcp.core import canonicalize
        truth = canonicalize(np.array([2.0, 1.0]), qs)
        t = cp_evaluate(truth)
        p = tmp_path / "t.htns"
        write_htns(p, t)
        out = tmp_path / "model.json"
        code = run_cli(["decompose", "--input", str(p), "--rank", "2",
                        "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["converged"] is True
        assert doc["relative_residual"] < 1e-8
        assert len(doc["weights"]) == 2
        assert doc["conditions"]["existence"]["holds"] is True

    def test_coherences_of_aligned_columns_clipped(self, tmp_path):
        # a rank-1 tensor fitted at rank 2 aligns both columns of every mode;
        # the unclipped coherence 1.0000000000000004 made the report exit 2
        rng = np.random.default_rng(45)
        p = tmp_path / "t.htns"
        write_htns(p, rank1_outer([random_unit_columns(3, 1, rng)[:, 0] for _ in range(3)]))
        out = tmp_path / "r.json"
        assert run_cli(["decompose", "--input", str(p), "--rank", "2", "--seed", "45",
                        "--out", str(out)]) == 0
        assert all(mu <= 1.0 for mu in load_report(out)["achieved_coherences"])

    @pytest.mark.parametrize("flags, message", [
        (["--tychonoff", "nan"], "tychonoff_lambda must be finite"),
        (["--tychonoff", "inf"], "tychonoff_lambda must be finite"),
        (["--tol", "nan"], "tol must be finite and >= 0"),
        (["--tol", "-1"], "tol must be finite and >= 0"),
        (["--method", "oga", "--tol", "nan"], "tol must be finite and >= 0"),
        (["--max-iter", "-5"], "max_iter must be >= 1, got -5"),
    ])
    def test_bad_solver_settings_exit_2(self, tmp_path, capsys, flags, message):
        p = tmp_path / "t.htns"
        write_htns(p, np.arange(27, dtype=complex).reshape(3, 3, 3))
        assert run_cli(["decompose", "--input", str(p), "--rank", "2",
                        "--max-iter", "20", *flags]) == 2
        assert message in capsys.readouterr().err

    def test_als_not_converged_exits_3_with_report(self, tmp_path):
        rng = np.random.default_rng(7)
        p = tmp_path / "t.htns"
        write_htns(p, rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
        out = tmp_path / "r.json"
        assert run_cli(["decompose", "--input", str(p), "--rank", "2", "--method", "als",
                        "--max-iter", "1", "--out", str(out)]) == 3
        doc = load_report(out)
        assert doc["converged"] is False and doc["n_iter"] == 1
        assert len(doc["weights"]) == 2

    @pytest.mark.parametrize("method", ["als", "oga", "woga"])
    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_below_one_exits_2(self, tmp_path, capsys, method, rank):
        # woga reads the rank only for its Temlyakov report, which was
        # computed at r = 1 and exited 0
        p = tmp_path / "t.htns"
        write_htns(p, np.ones((2, 2, 2), dtype=complex))
        e = [[1.0, 0.0], [0.0, 1.0]]
        (tmp_path / "atoms.json").write_text(json.dumps({"atoms": [[e[0]] * 3, [e[1]] * 3]}))
        extra = ["--dict", str(tmp_path / "atoms.json")] if method == "woga" else []
        assert run_cli(["decompose", "--input", str(p), "--rank", rank, "--method", method,
                        *extra, "--out", str(tmp_path / "r.json")]) == 2
        assert f"--rank must be >= 1, got {rank}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_woga_requires_dictionary(self, tmp_path):
        t = np.ones((2, 2, 2), dtype=complex)
        p = tmp_path / "t.htns"
        write_htns(p, t)
        assert run_cli(["decompose", "--input", str(p), "--rank", "1",
                        "--method", "woga"]) == 2

    def test_woga_with_dictionary(self, tmp_path):
        rng = np.random.default_rng(4)
        atoms = []
        for _ in range(6):
            atoms.append([
                [[float(x.real), float(x.imag)]
                 for x in (rng.standard_normal(2) + 1j * rng.standard_normal(2))]
                for _ in range(3)])
        dict_path = tmp_path / "atoms.json"
        dict_path.write_text(json.dumps({"atoms": atoms}))
        from cohcp.decompose import Dictionary
        d = Dictionary([
            tuple(np.array([complex(re, im) for re, im in vec]) for vec in atom)
            for atom in atoms])
        t = 2.0 * d.atom_tensor(3)
        p = tmp_path / "t.htns"
        write_htns(p, t)
        out = tmp_path / "r.json"
        code = run_cli(["decompose", "--input", str(p), "--rank", "1",
                        "--method", "woga", "--dict", str(dict_path),
                        "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["selected"][0] == 3
        assert doc["converged"] is True

    def test_woga_out_of_span_stops_after_every_atom(self, tmp_path):
        # with the default --max-iter 2000 this ran for hours, reselecting
        # atoms once every correlation was at rounding level
        d = random_incoherent_dictionary((4, 4, 4), 30, mu_max=0.09, seed=5)
        dict_path = tmp_path / "atoms.json"
        dict_path.write_text(json.dumps({"atoms": [
            [[[float(x.real), float(x.imag)] for x in v] for v in atom] for atom in d.atoms]}))
        p = tmp_path / "t.htns"
        write_htns(p, np.random.default_rng(7).standard_normal((4, 4, 4)))
        out = tmp_path / "r.json"
        assert run_cli(["decompose", "--input", str(p), "--rank", "1", "--method", "woga",
                        "--dict", str(dict_path), "--out", str(out)]) == 3
        doc = load_report(out)
        assert sorted(doc["selected"]) == list(range(30))
        assert doc["flags"] == ["residual_orthogonal_to_dictionary"]

    def test_woga_rejects_max_iter_below_one(self, tmp_path, capsys):
        # exited 3 with no selection instead of naming the setting
        dict_path = tmp_path / "atoms.json"
        dict_path.write_text('{"atoms": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]}')
        p = tmp_path / "t.htns"
        write_htns(p, np.ones((2, 2), dtype=complex))
        assert run_cli(["decompose", "--input", str(p), "--rank", "1", "--method", "woga",
                        "--dict", str(dict_path), "--max-iter", "0"]) == 2
        assert "max_iter must be >= 1, got 0" in capsys.readouterr().err

    def test_woga_rejects_nan_atom(self, tmp_path, capsys):
        dict_path = tmp_path / "atoms.json"
        # Python's json reads the NaN literal as a float
        dict_path.write_text('{"atoms": [[[NaN, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]}')
        p = tmp_path / "t.htns"
        write_htns(p, np.ones((2, 2), dtype=complex))
        assert run_cli(["decompose", "--input", str(p), "--rank", "1",
                        "--method", "woga", "--dict", str(dict_path)]) == 2
        assert "atom 0, mode 0: non-finite entry" in capsys.readouterr().err

    def test_oga_method(self, tmp_path):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        p = tmp_path / "t.htns"
        write_htns(p, t)
        out = tmp_path / "r.json"
        code = run_cli(["decompose", "--input", str(p), "--rank", "2",
                        "--method", "oga", "--out", str(out)])
        assert code == cli.EXIT_NOT_CONVERGED
        doc = load_report(out)
        assert doc["residuals"][-1] <= doc["residuals"][0]

    def test_oga_exit_codes(self, tmp_path):
        rng = np.random.default_rng(8)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        from cohcp.core import rank1_outer
        exact = rank1_outer(vecs)
        noisy = exact + 0.1 * (rng.standard_normal((3, 3, 3))
                               + 1j * rng.standard_normal((3, 3, 3)))
        for name, t, want in (("exact", exact, 0), ("noisy", noisy, 3)):
            p = tmp_path / f"{name}.htns"
            write_htns(p, t)
            out = tmp_path / f"{name}.json"
            code = run_cli(["decompose", "--input", str(p), "--rank", "1",
                            "--method", "oga", "--out", str(out)])
            assert code == want
            assert load_report(out)["converged"] is (want == 0)

    def test_oga_zero_tensor(self, tmp_path):
        p = tmp_path / "zero.htns"
        write_htns(p, np.zeros((2, 3, 2), dtype=complex))
        out = tmp_path / "r.json"
        code = run_cli(["decompose", "--input", str(p), "--rank", "2",
                        "--method", "oga", "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["r"] == 0
        assert doc["residuals"] == [0.0]
        assert doc["converged"] is True

    # an explicitly given flag that the method does not read is refused by
    # name before any work, even when it carries the default value
    @pytest.mark.parametrize("method, flags, named", [
        ("als", ["--t", "0.5"], "--t"),
        ("oga", ["--max-iter", "5", "--caps", "0.1,0.1,0.1", "--tychonoff", "5",
                 "--ortho", "none"], "--caps, --tychonoff, --ortho, --max-iter"),
        ("woga", ["--caps", "0.5,0.5", "--tychonoff", "0", "--ortho", "per-mode"],
         "--caps, --tychonoff, --ortho"),
        ("woga", ["--seed", "5"], "--seed"),
    ])
    def test_flags_the_method_does_not_read_exit_2(self, tmp_path, capsys, method,
                                                    flags, named):
        dict_path = tmp_path / "atoms.json"
        dict_path.write_text('{"atoms": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]}')
        p = tmp_path / "t.htns"
        write_htns(p, np.ones((2, 2), dtype=complex))
        out = tmp_path / "r.json"
        extra = ["--dict", str(dict_path)] if method == "woga" else []
        assert run_cli(["decompose", "--input", str(p), "--rank", "1", "--method", method,
                        *extra, *flags, "--out", str(out)]) == 2
        assert f"--method {method} does not read {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--ortho", "per-mode"], ["--tychonoff", "0.1"]])
    def test_als_on_one_mode_tensor_exits_2(self, tmp_path, capsys, flags):
        p = tmp_path / "v.htns"
        write_htns(p, np.array([1.0, 2.0j, -1.0]))
        assert run_cli(["decompose", "--input", str(p), "--rank", "1", *flags]) == 2
        assert "needs at least 2 modes, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ridge", ["1e-30", "1e-300"])
    def test_negligible_ridge_exits_0(self, tmp_path, capsys, ridge):
        # such a ridge once certified a singular Gram, and solve raised
        # "Singular matrix" (exit 2)
        p = tmp_path / "t.htns"
        write_htns(p, np.random.default_rng(2).standard_normal((1, 2, 3)))
        out = tmp_path / "r.json"
        assert run_cli(["decompose", "--input", str(p), "--rank", "3",
                        "--tychonoff", ridge, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert load_report(out)["converged"] is True

    def test_woga_report_echoes_default_seed(self, tmp_path):
        dict_path = tmp_path / "atoms.json"
        dict_path.write_text('{"atoms": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]}')
        p = tmp_path / "t.htns"
        write_htns(p, np.ones((2, 2), dtype=complex))
        out = tmp_path / "r.json"
        assert run_cli(["decompose", "--input", str(p), "--rank", "1", "--method", "woga",
                        "--dict", str(dict_path), "--out", str(out)]) in (0, 3)
        assert load_report(out)["seed"] == 0


class TestSimulateCommand:
    def scene_doc(self):
        lam = 0.3
        s = 0.4 * lam
        positions = [[i * s, j * s, 0.0] for i in range(3) for j in range(3)]
        positions.append([s, s, 0.4 * lam])
        return {
            "positions": positions,
            "translations": [[0, 0, 0], [s, 0, 0], [0, s, 0]],
            "pulsation": 2 * math.pi * 3e8 / lam,
            "celerity": 3e8,
            "directions": [[0.5, 0.5, 0.707], [-0.5, 0.5, 0.707]],
            "signals": {"kind": "gaussian", "n_samples": 24},
        }

    def test_array_simulation(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(self.scene_doc()))
        tensor_path = tmp_path / "t.htns"
        out = tmp_path / "r.json"
        code = run_cli(["simulate", "--kind", "array", "--scene", str(scene_path),
                        "--seed", "1", "--out-tensor", str(tensor_path),
                        "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["resolvent_triad"] is True
        assert len(doc["truth_coherences"]) == 3
        t = read_htns(tensor_path)
        assert t.shape == (10, 3, 24)

    @pytest.mark.parametrize("kind, doc, field", [
        ("array", None, "translations"),
        ("array", None, "directions"),
        ("cdma", {"gains": [[1.0]], "symbols": [[1.0]], "spreading": [[1.0]]}, "impulse"),
        ("fluorescence", {"concentrations": [[1.0]], "emission": [[1.0]]}, "excitation"),
    ])
    def test_missing_scene_field_exits_2(self, tmp_path, capsys, kind, doc, field):
        if doc is None:
            doc = self.scene_doc()
            del doc[field]
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(doc))
        code = run_cli(["simulate", "--kind", kind, "--scene", str(scene_path),
                        "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"missing field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("noise_std", ["nan", "inf", "-0.5"])
    def test_bad_noise_std_exits_2(self, tmp_path, capsys, noise_std):
        # NaN exited 0 and wrote a tensor file that read_htns rejects
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(self.scene_doc()))
        tensor_path = tmp_path / "t.htns"
        code = run_cli(["simulate", "--kind", "array", "--scene", str(scene_path),
                        "--noise-std", noise_std, "--out-tensor", str(tensor_path)])
        assert code == 2
        assert "noise_std must be finite and >= 0" in capsys.readouterr().err
        assert not tensor_path.exists()

    @pytest.mark.parametrize("kind, field, message", [
        ("cdma", "gains", "CdmaScene gains"),
        ("cdma", "symbols", "CdmaScene symbols"),
        ("cdma", "codes", "CdmaScene codes"),
        ("cdma", "spreading", "effective_codes spreading"),
        ("fluorescence", "concentrations", "simulate_fluorescence concentrations"),
        ("fluorescence", "excitation", "simulate_fluorescence excitation"),
        ("fluorescence", "emission", "simulate_fluorescence emission"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scene_entry_exits_2(self, tmp_path, capsys, kind, field,
                                            message, bad):
        # a NaN gain ended in four RuntimeWarnings and "weights must be finite"
        doc = {"cdma": {"gains": [[1.0, 0.5], [0.2, 1.0]],
                        "symbols": [[1.0, 0.0], [0.3, 1.0]]},
               "fluorescence": {"concentrations": [[1.0, 0.2], [0.3, 1.0]],
                                "excitation": [[1.0, 0.9], [0.2, 0.3]],
                                "emission": [[0.5, 0.4], [0.5, 0.6]]}}[kind]
        if kind == "cdma":
            doc.update({"spreading": [[1.0, -1.0], [1.0, 1.0]], "impulse": [[1.0, 0.5]]}
                       if field == "spreading" else {"codes": [[1.0, -1.0], [1.0, 1.0]]})
        doc.setdefault(field, [[1.0, -1.0], [1.0, 1.0]])[1][0] = bad
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["simulate", "--kind", kind, "--scene", str(scene_path),
                            "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"{message}: non-finite entry at index (1, 0)" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_non_object_scene_exits_2(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text("[1, 2]")
        assert run_cli(["simulate", "--kind", "array", "--scene", str(scene_path)]) == 2

    def test_fluorescence(self, tmp_path):
        doc = {
            "concentrations": [[1.0, 0.2], [0.3, 1.0]],
            "excitation": [[1.0, 0.9], [0.2, 0.3], [0.1, 0.2]],
            "emission": [[0.5, 0.4], [0.5, 0.6]],
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = run_cli(["simulate", "--kind", "fluorescence",
                        "--scene", str(scene_path), "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert "likeness" in rep
        assert rep["conditions"]["existence"]["holds"] in (True, False)

    def test_cdma_with_convolved_codes(self, tmp_path):
        rng = np.random.default_rng(6)
        doc = {
            "gains": rng.standard_normal((3, 2)).tolist(),
            "symbols": rng.standard_normal((5, 2)).tolist(),
            "spreading": rng.standard_normal((4, 2)).tolist(),
            "impulse": rng.standard_normal((2, 2)).tolist(),
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        code = run_cli(["simulate", "--kind", "cdma", "--scene", str(scene_path),
                        "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["dims"] == [3, 5, 5]  # chips: 4 + 2 - 1


class TestArraySignals:
    def test_explicit_signal_matrix(self, tmp_path):
        # three samples of two paths, each entry an [re, im] pair
        doc = TestSimulateCommand().scene_doc()
        doc["signals"] = [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]],
                          [[1.0, 0.0], [1.0, -1.0]]]
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        tensor_path = tmp_path / "t.htns"
        assert run_cli(["simulate", "--kind", "array", "--scene", str(scene),
                        "--out-tensor", str(tensor_path),
                        "--out", str(tmp_path / "r.json")]) == 0
        assert read_htns(tensor_path).shape == (10, 3, 3)
        # truth weights are sqrt(n1 n2) times the signal column norms
        signals = np.array([[1, 1j], [0, 1], [1, 1 - 1j]])
        expected = np.sort(np.linalg.norm(signals, axis=0))[::-1] * math.sqrt(10 * 3)
        weights = load_report(tmp_path / "r.json")["truth"]["weights"]
        np.testing.assert_allclose(weights, expected, rtol=1e-12)

    def test_nan_signal_norm_named(self, tmp_path, capsys):
        doc = TestSimulateCommand().scene_doc()
        doc["signals"] = {"kind": "gaussian", "n_samples": 8, "norms": [math.nan, 1.0]}
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code = run_cli(["simulate", "--kind", "array", "--scene", str(scene)])
        assert code == 2
        assert "PathSet signals: non-finite entry" in capsys.readouterr().err

    @pytest.mark.parametrize("norms", [[1.0, 2.0, 3.0], [-1.0, 2.0]])
    def test_norms_of_the_wrong_shape_or_sign_named(self, tmp_path, capsys, norms):
        # three norms for two directions used to reach numpy's broadcast
        # error, and a negative one flipped its signal's sign
        doc = TestSimulateCommand().scene_doc()
        doc["signals"] = {"kind": "gaussian", "n_samples": 8, "norms": norms}
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--kind", "array", "--scene", str(scene)]) == 2
        assert ("signals field 'norms' must hold 2 numbers >= 0, one per direction"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("pulsation, celerity", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_wave_outside_the_doubles_named(self, tmp_path, capsys, pulsation, celerity):
        doc = TestSimulateCommand().scene_doc()
        doc["pulsation"], doc["celerity"] = pulsation, celerity
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            code = run_cli(["simulate", "--kind", "array", "--scene", str(scene)])
        assert code == 2
        err = capsys.readouterr().err
        assert "pulsation and celerity must give a positive, finite wavelength" in err

    def test_n_samples_capped_before_drawing(self, tmp_path, capsys, monkeypatch):
        class NoDraws:  # any draw of 10^12 samples would ask for terabytes
            def __getattr__(self, name):
                raise AssertionError(f"signals drawn with rng.{name}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        doc = TestSimulateCommand().scene_doc()
        doc["signals"] = {"kind": "gaussian", "n_samples": 10 ** 12}
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run_cli(["simulate", "--kind", "array", "--scene", str(scene)]) == 2
        err = capsys.readouterr().err
        assert f"signals field 'n_samples' must be at most {cli.MAX_SIGNAL_SAMPLES}" in err

    @pytest.mark.parametrize("n_samples, shown", [
        (2.5, "2.5"), (math.nan, "nan"), (-math.inf, "-inf"), ("8", "'8'"), ([8], "[8]")])
    def test_n_samples_refused_by_value(self, fuzz_dir, capsys, n_samples, shown):
        doc = _with(_array_scene(), "signals", {"kind": "qpsk", "n_samples": n_samples})
        assert _simulate(fuzz_dir, "array", doc) == 2
        assert capsys.readouterr().err == (
            f"error: signals field 'n_samples' must be a positive integer, got {shown}\n")

    def test_integral_float_n_samples_reads_as_its_int(self, fuzz_dir):
        reports = []
        for n_samples in (8, 8.0):
            doc = _with(_array_scene(), "signals", {"kind": "qpsk", "n_samples": n_samples})
            assert _simulate(fuzz_dir, "array", doc) == 0
            reports.append(strip_timestamp((fuzz_dir / "r.json").read_text()))
        assert reports[0] == reports[1]


class TestDemos:
    def test_demo_nonexistence(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["demo-nonexistence", "--nmax", "64", "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        series = doc["loss_times_n"]
        assert abs(series[-1] - math.sqrt(3)) < 0.01
        ratios = doc["weight_over_n"]
        assert abs(ratios[-1] - 1.0) < 0.01

    def test_demo_recovery(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["demo-recovery", "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = load_report(out)
        assert doc["exact_recovery"] is True
        assert doc["dictionary_mu"] < 0.09


class TestDeterminism:
    def test_byte_identical_reports_modulo_timestamp(self, tmp_path):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        p = tmp_path / "t.htns"
        write_htns(p, t)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_cli(["decompose", "--input", str(p), "--rank", "2",
                            "--seed", "11", "--out", str(out)])
            assert code in (0, 3)
            outs.append(out.read_text())
        # the raw text, key order and float formatting included, differs
        # only in the timestamp field
        assert strip_timestamp(outs[0]) == strip_timestamp(outs[1])


class TestReportPath:
    """``main`` writes every command's report; an --out it cannot open is a
    validation error that leaves stdout empty."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("inputs")
        write_htns(path / "v.htns", np.eye(3, dtype=complex))
        write_htns(path / "t.htns", np.ones((2, 2, 2), dtype=complex))
        (path / "scene.json").write_text(json.dumps(CDMA_SCENE))
        return path

    @pytest.mark.parametrize("args", [
        ["coherence", "--input", "{}/v.htns"],
        ["check", "--mus", "0.4,0.4,0.4", "--r", "2"],
        ["norms", "--input", "{}/t.htns", "--no-search"],
        ["decompose", "--input", "{}/t.htns", "--rank", "1"],
        ["simulate", "--kind", "cdma", "--scene", "{}/scene.json"],
        ["demo-nonexistence", "--nmax", "4"],
        ["demo-recovery"],
    ], ids=lambda args: args[0])
    def test_unwritable_out_exits_2(self, inputs, tmp_path, capsys, args):
        out = tmp_path / "missing" / "r.json"
        code = run_cli([a.format(inputs) for a in args] + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not out.parent.exists()


def _array_scene():
    return TestSimulateCommand().scene_doc()


CDMA_SCENE = {"gains": [[1.0, 0.5], [0.2, 1.0]], "symbols": [[1.0, 0.0], [0.3, 1.0]],
              "spreading": [[1.0, -1.0], [1.0, 1.0]], "impulse": [[1.0, 0.5], [0.2, 1.0]]}
FLUORESCENCE_SCENE = {"concentrations": [[1.0, 0.2], [0.3, 1.0]],
                      "excitation": [[1.0, 0.9], [0.2, 0.3]],
                      "emission": [[0.5, 0.4], [0.5, 0.6]]}


def _with(doc, key, value):
    doc = json.loads(json.dumps(doc))
    doc[key] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_htns(path / "t.htns", np.ones((2, 2), dtype=complex))
    return path


def _simulate(path, kind, doc):
    (path / "scene.json").write_text(json.dumps(doc))
    return main(["simulate", "--kind", kind, "--scene", str(path / "scene.json"),
                 "--out", str(path / "r.json")])


def _woga(path, doc):
    (path / "atoms.json").write_text(json.dumps(doc))
    return main(["decompose", "--input", str(path / "t.htns"), "--rank", "1",
                 "--method", "woga", "--dict", str(path / "atoms.json"),
                 "--out", str(path / "r.json")])


class TestNoTraceback:
    """Malformed input exits 2 with a message naming the field, never with a
    traceback."""

    @pytest.mark.parametrize("doc, message", [
        ({"atoms": 5}, "dictionary field 'atoms'"),
        ({"atoms": [5]}, "dictionary field 'atoms'"),
        ({"atoms": [[{"re": 1.0}]]}, "dictionary atom vectors"),
        ({"atoms": [[]]}, "dictionary atoms need at least one mode"),
        ({"atoms": [[[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 0.0]]]},
         "dictionary atom vectors: expected a vector of numbers or [re, im] pairs"),
    ])
    def test_dictionary_corpus(self, fuzz_dir, capsys, doc, message):
        assert _woga(fuzz_dir, doc) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("pulsation", None, "scene field 'pulsation' must be a finite number"),
        ("pulsation", [1, 2], "scene field 'pulsation' must be a finite number"),
        ("signals", {"n_samples": None}, "signals field 'n_samples'"),
        ("positions", {"x": 1.0}, "scene field 'positions'"),
        ("directions", [1.0, 0.0, 0.0], "scene field 'directions'"),
    ])
    def test_array_scene_corpus(self, fuzz_dir, capsys, key, value, message):
        assert _simulate(fuzz_dir, "array", _with(_array_scene(), key, value)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["demo-nonexistence", "--nmax", "0"], "--nmax must be >= 1, got 0"),
        (["demo-nonexistence", "--nmax", "-3"], "--nmax must be >= 1, got -3"),
        (["check", "--mus", "nan,0.5,0.5", "--r", "2"], "coherences must be finite"),
        (["check", "--mus", "0.5,0.5,0.5", "--r", "2", "--kranks", "inf,2,2"],
         "kranks must be nonnegative integers, one per mode, got inf"),
        (["norms", "--fixture", "matmul:2", "--restarts", "0"], "restarts must be >= 1, got 0"),
        (["norms", "--fixture", "matmul:2", "--restarts", "-1"], "restarts must be >= 1, got -1"),
        (["norms", "--fixture", "matmul:2", "--tol", "nan"], "tol must be finite and >= 0"),
        (["norms", "--fixture", "cube:2"], "unknown fixture 'cube:2'; expected matmul:n"),
        (["norms", "--fixture", "matmul:two"], "bad fixture size in 'matmul:two'"),
        (["demo-recovery", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["decompose", "--input", "missing.htns", "--rank", "0"], "--rank must be >= 1, got 0"),
    ])
    def test_flag_corpus(self, capsys, args, message):
        assert main(args) == 2
        assert message in capsys.readouterr().err

    # the flag is checked while parsing, before any input file is opened
    @pytest.mark.parametrize("command", [
        ["decompose", "--input", "t.htns", "--rank", "2"],
        ["norms", "--fixture", "matmul:2"],
        ["simulate", "--kind", "array", "--scene", "scene.json"],
        ["demo-recovery"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "-70000"])
    def test_negative_seed_named(self, capsys, command, seed):
        # numpy's own message named neither the flag nor the value
        assert main([*command, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert f"argument --seed: must be a non-negative integer, got {seed}" in err


# small JSON values: every integer and finite float within 64 in magnitude,
# so that no generated shape or sample count allocates much memory
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.text(max_size=3)
    | st.floats(-64, 64) | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


class TestFuzz:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["array", "cdma", "fluorescence"]),
           key=st.sampled_from(["positions", "translations", "pulsation", "celerity",
                                "directions", "signals", "gains", "symbols", "codes",
                                "spreading", "impulse", "concentrations", "excitation",
                                "emission"]),
           value=JSON_VALUES)
    def test_scene_field(self, fuzz_dir, kind, key, value):
        base = {"array": _array_scene(), "cdma": CDMA_SCENE,
                "fluorescence": FLUORESCENCE_SCENE}[kind]
        assert _simulate(fuzz_dir, kind, _with(base, key, value)) in (0, 2, 3)

    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(["kind", "n_samples", "norms"]), value=JSON_VALUES)
    def test_signals_field(self, fuzz_dir, key, value):
        doc = _with(_array_scene(), "signals", {"kind": "qpsk", "n_samples": 8, key: value})
        assert _simulate(fuzz_dir, "array", doc) in (0, 2, 3)

    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=JSON_VALUES | st.builds(lambda atoms: {"atoms": atoms}, JSON_VALUES))
    def test_dictionary(self, fuzz_dir, doc):
        assert _woga(fuzz_dir, doc) in (0, 2, 3)


# HTNS inputs of every command that reads one
HTNS_COMMANDS = [["coherence", "--input"], ["check", "--r", "2", "--factors"],
                 ["norms", "--no-search", "--input"], ["decompose", "--rank", "1", "--input"],
                 ["decompose", "--rank", "1", "--method", "oga", "--input"]]


def _malformed(kind: str, lines: list, junk: str) -> list:
    """A valid HTNS1 text (header and entry lines) broken in one way."""
    header, entries = lines[:2], lines[2:]
    if kind == "drop_entry":
        return header + entries[:-1]
    if kind == "extra_entry":
        return lines + ["1 2"]
    if kind == "junk_token":
        return header + [f"1 {junk}"] + entries[1:]
    if kind == "arity":
        return header + ["1 2 3" if len(junk) % 2 else "1"] + entries[1:]
    if kind == "non_finite":
        return header + ["nan 0" if len(junk) % 2 else "0 -inf"] + entries[1:]
    if kind == "order":
        return [str(len(header[1].split()) + 1)] + lines[1:]
    if kind == "dims":
        return [header[0], " ".join(["0"] + header[1].split()[1:])] + entries
    if kind == "junk_dim":
        return [header[0], " ".join([junk] + header[1].split()[1:])] + entries
    return header[:1]  # truncated header


class TestHtnsFuzz:
    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           kind=st.sampled_from(["drop_entry", "extra_entry", "junk_token", "arity",
                                 "non_finite", "order", "dims", "junk_dim", "header"]),
           junk=st.text(alphabet="xyz#,;[]{}", min_size=1, max_size=4),
           command=st.sampled_from(HTNS_COMMANDS))
    def test_malformed_file_exits_2(self, fuzz_dir, capsys, shape, kind, junk, command):
        lines = dump_htns(np.full(shape, 0.5 + 0.25j)).splitlines()
        path = fuzz_dir / "bad.htns"
        path.write_text("\n".join(_malformed(kind, lines, junk)) + "\n")
        capsys.readouterr()
        assert main([*command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    # a well-formed tensor of 1-3 modes of size 1-3 through every HTNS
    # command and every ALS regime: a one-mode tensor and a cap on a mode of
    # size 1 once escaped as a traceback or as LAPACK's parameter warning
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           zero=st.booleans(), seed=st.integers(0, 2 ** 16), rank=st.integers(1, 3))
    def test_valid_file_exits_0_2_or_3(self, fuzz_dir, capfd, shape, zero, seed, rank):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = fuzz_dir / "valid.htns"
        write_htns(path, np.zeros(shape, dtype=complex) if zero else t)
        als = ["decompose", "--rank", str(rank), "--max-iter", "50", "--input", str(path)]
        commands = [*([*command, str(path)] for command in HTNS_COMMANDS),
                    [*als, "--caps", ",".join(["0.5"] * len(shape))],
                    [*als, "--ortho", "per-mode"], [*als, "--ortho", "separable"],
                    [*als, "--tychonoff", "0.1"]]
        capfd.readouterr()
        for command in commands:
            assert main([*command, "--out", str(fuzz_dir / "r.json")]) in (0, 2, 3)
        out, err = capfd.readouterr()
        assert "LASCL" not in out + err

    @settings(deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=st.binary(max_size=64) | st.text(alphabet="0123456789 .-+e\nnaif", max_size=64),
           command=st.sampled_from(HTNS_COMMANDS))
    def test_arbitrary_file_never_escapes(self, fuzz_dir, raw, command):
        path = fuzz_dir / "any.htns"
        if isinstance(raw, bytes):
            path.write_bytes(raw)
        else:
            path.write_text(raw)
        assert main([*command, str(path), "--out", str(fuzz_dir / "r.json")]) in (0, 2, 3)
