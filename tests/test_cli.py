import json

import numpy as np
import pytest

from symidx.cli import main
from symidx.io import dump_family, dump_path
from symidx.splin import SymmetricFamily, rotation_path
from test_io import MALFORMED, malformed, valid_documents


@pytest.fixture
def quarter_path(tmp_path):
    f = tmp_path / "quarter.json"
    f.write_text(json.dumps(dump_path(rotation_path(1, np.pi / 2))))
    return str(f)


@pytest.fixture
def full_loop(tmp_path):
    f = tmp_path / "loop.json"
    f.write_text(json.dumps(dump_path(rotation_path(1, 2 * np.pi))))
    return str(f)


@pytest.fixture
def sphere_file(tmp_path):
    f = tmp_path / "s2.json"
    f.write_text(json.dumps({
        "generators": [{"id": "m", "doubled_degree": 0},
                       {"id": "M", "doubled_degree": 4}],
        "boundary": [],
    }))
    return str(f)


@pytest.fixture
def harmonic_file(tmp_path):
    f = tmp_path / "harmonic.json"
    f.write_text(json.dumps({"phase_space": "plane",
                             "hamiltonian": {"builtin": "harmonic"}}))
    return str(f)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestIndexCommand:
    def test_cz_quarter_rotation(self, capsys, quarter_path):
        code, out = run(capsys, ["index", "cz", "--input", quarter_path])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["doubled_index"] == 2
        assert doc["result"]["doubled_index_canonical"] == -2
        assert quarter_path in doc["inputs"]

    def test_maslov_loop(self, capsys, full_loop):
        code, out = run(capsys, ["index", "maslov", "--input", full_loop])
        assert code == 0
        assert json.loads(out)["result"]["doubled_index"] == 2

    def test_rs_loop(self, capsys, full_loop):
        code, out = run(capsys, ["index", "rs", "--input", full_loop])
        assert code == 0
        assert json.loads(out)["result"]["doubled_index"] == 4

    def test_winding(self, capsys, quarter_path):
        code, out = run(capsys, ["index", "winding", "--input", quarter_path])
        assert code == 0
        iv = json.loads(out)["result"]["winding_interval"]
        assert abs(iv["lower"] - 0.25) < 1e-6

    def test_sf_sampled_cubic_family(self, capsys, tmp_path):
        # A(s) = diag((s - 1/2)^3, 1) on 2001 samples: near s = 1/2 the
        # interpolated eigenvalue has slope about 1e-6, so the crossing is
        # nearly degenerate, but the ends fix the flow at 1
        ss = np.linspace(0.0, 1.0, 2001)
        fam = SymmetricFamily(ss, np.stack([np.diag([(s - 0.5) ** 3, 1.0]) for s in ss]))
        f = tmp_path / "cubic.json"
        f.write_text(json.dumps(dump_family(fam)))
        code, out = run(capsys, ["index", "sf", "--input", str(f)])
        assert code == 0
        assert json.loads(out)["result"]["spectral_flow"] == 1

    def test_degenerate_endpoint_is_domain_error(self, capsys, full_loop):
        code, out = run(capsys, ["index", "cz", "--input", full_loop])
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["error"] == "endpoint-degenerate"

    def test_family_input(self, capsys, tmp_path):
        fam = SymmetricFamily(np.array([0.0, 1.0]),
                              np.stack([0.5 * np.eye(2)] * 2))
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(dump_family(fam)))
        code, out = run(capsys, ["index", "cz", "--input", str(f)])
        assert code == 0
        assert json.loads(out)["result"]["doubled_index"] == 2


class TestErrorFields:
    """The extra fields of an error object reach the JSON document."""

    def test_resolution_interval(self, capsys, tmp_path):
        f = tmp_path / "coarse.json"
        f.write_text(json.dumps(dump_path(rotation_path(1, 6 * np.pi, samples=9))))
        code, out = run(capsys, ["index", "maslov", "--input", str(f)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["error"] == "resolution"
        assert err["interval"] == [0.625, 0.75]

    def test_d_squared_witness(self, capsys, tmp_path):
        f = tmp_path / "dd.json"
        f.write_text(json.dumps({
            "generators": [{"id": "a", "doubled_degree": 0}, {"id": "b", "doubled_degree": 2},
                           {"id": "c", "doubled_degree": 4}],
            "boundary": [["b", "a"], ["c", "b"]],
        }))
        code, out = run(capsys, ["chain", "homology", "--input", str(f)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["error"] == "d-squared-nonzero"
        assert err["witness"] == "c"


class TestFamilyArity:
    @pytest.mark.parametrize("algorithm, kind, words", [
        ("sf", "family2", "one-parameter family"),
        ("cz", "family2", "one-parameter input"),
        ("loop-sf", "family1", "two-parameter family"),
    ])
    def test_wrong_family_is_file_format_error(self, capsys, tmp_path, algorithm, kind, words):
        if kind == "family1":
            doc = dump_family(SymmetricFamily(np.array([0.0, 1.0]), np.stack([np.eye(2)] * 2)))
        else:
            doc = valid_documents()["family2"][1]
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, ["index", algorithm, "--input", str(f)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["error"] == "file-format" and words in err["message"]


COMMAND_OF_KIND = {
    "path": ["index", "cz"],
    "family2": ["index", "loop-sf"],
    "clutching": ["chern"],
    "system": ["dyn", "integrate", "--T", "0.1"],
    "complex": ["chain", "homology"],
    "morse-bott": ["chain", "cascade"],
}


@pytest.mark.parametrize("kind, where, value", MALFORMED)
def test_wrong_type_in_file_is_file_format_error(capsys, tmp_path, kind, where, value):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(malformed(kind, where, value)[1]))
    code, out = run(capsys, COMMAND_OF_KIND[kind] + ["--input", str(f)])
    assert code == 1
    assert "Traceback" not in out
    err = json.loads(out)["error"]
    assert err["error"] == "file-format" and where[-1] in err["message"]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["index", "frobnicate", "--input", "x"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv, words", [
        (["index", "frobnicate", "--input", "x"], "invalid choice: 'frobnicate'"),
        ([], "required: command"),
        (["index", "cz"], "required: --input"),
        (["dyn", "orbit", "--T", "six"], "invalid float value: 'six'"),
        (["--format", "xml", "axioms"], "invalid choice: 'xml'"),
        (["--format", "human", "demo", "unit-sphere"], "invalid choice: 'human'"),
        (["demo", "pendulum"], "invalid choice: 'pendulum'"),
    ])
    def test_usage_error_is_json_error_object(self, capsys, argv, words):
        code, out = run(capsys, argv)
        assert code == 2
        err = json.loads(out, parse_constant=pytest.fail)["error"]
        assert err["error"] == "usage"
        assert words in err["message"]

    def test_help_is_text_and_exit_0(self, capsys):
        code, out = run(capsys, ["--help"])
        assert code == 0
        assert out.startswith("usage: symidx")

    def test_negative_exponent_value_reaches_the_tol_check(self, capsys, quarter_path):
        # "-1e-9" is the value of --tol, not an unknown option
        code, out = run(capsys, ["--tol", "-1e-9", "index", "cz", "--input", quarter_path])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["error"] == "parameter"
        assert "-1e-09" in err["message"]

    @pytest.mark.parametrize("case", ["array", "ragged", "nan", "n=1.5"])
    def test_malformed_file_is_file_format_error(self, capsys, tmp_path, case):
        doc = dump_path(rotation_path(1, np.pi / 2))
        if case == "array":
            doc = [doc]
        elif case == "ragged":
            doc["samples"][1]["matrix"][1] = [1.0]
        elif case == "nan":
            doc["samples"][1]["matrix"][0][0] = float("nan")
        else:
            doc["n"] = 1.5
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, ["index", "cz", "--input", str(f)])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "file-format"

    def test_unknown_j_convention_is_parameter_error(self, capsys, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"phase_space": "plane", "j_convention": "bogus",
                                 "hamiltonian": {"polynomial": {"n": 1, "terms": [
                                     {"coeff": 0.5, "powers": [2, 0]}]}}}))
        code, out = run(capsys, ["dyn", "integrate", "--input", str(f), "--T", "0.1"])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"

    @pytest.mark.parametrize("flag, value", [("starts_at_identity", "false"), ("closed", 0)])
    def test_non_boolean_flag_is_file_format_error(self, capsys, tmp_path, flag, value):
        doc = dump_path(rotation_path(1, np.pi / 2))
        doc[flag] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, ["index", "cz", "--input", str(f)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["error"] == "file-format" and flag in err["message"]

    def test_bad_file_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{}")
        code, out = run(capsys, ["index", "cz", "--input", str(f)])
        assert code == 1


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys, quarter_path):
        _, out1 = run(capsys, ["index", "cz", "--input", quarter_path])
        _, out2 = run(capsys, ["index", "cz", "--input", quarter_path])
        assert out1 == out2

    def test_axioms_deterministic(self, capsys):
        _, out1 = run(capsys, ["axioms", "--seed", "3", "--count", "2"])
        _, out2 = run(capsys, ["axioms", "--seed", "3", "--count", "2"])
        assert out1 == out2
        assert json.loads(out1)["result"]["all_passed"]

    def test_output_file(self, tmp_path, quarter_path, capsys):
        dst = tmp_path / "out.json"
        code = main(["--output", str(dst), "index", "cz",
                     "--input", quarter_path])
        capsys.readouterr()
        assert code == 0
        assert json.loads(dst.read_text())["result"]["doubled_index"] == 2


class TestTolEnv:
    def test_env_tol_used(self, capsys, quarter_path, monkeypatch):
        # an absurdly loose tolerance makes the endpoint look degenerate
        monkeypatch.setenv("SYMIDX_TOL", "10.0")
        code, out = run(capsys, ["index", "cz", "--input", quarter_path])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "endpoint-degenerate"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1.0", "0"])
    def test_tol_flag_must_be_finite_positive(self, capsys, quarter_path, tol):
        code, out = run(capsys, ["--tol", tol, "index", "cz", "--input", quarter_path])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"

    @pytest.mark.parametrize("tol", ["nan", "-1", "tight"])
    def test_env_tol_must_be_finite_positive(self, capsys, quarter_path, monkeypatch, tol):
        monkeypatch.setenv("SYMIDX_TOL", tol)
        code, out = run(capsys, ["index", "cz", "--input", quarter_path])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"

    def test_flag_overrides_env(self, capsys, quarter_path, monkeypatch):
        monkeypatch.setenv("SYMIDX_TOL", "1e-2")
        code, out = run(capsys, ["--tol", "1e-9", "index", "cz",
                                 "--input", quarter_path])
        assert code == 0
        assert json.loads(out)["config"]["tol"] == 1e-9


class TestChainCommand:
    def test_homology_keys_are_true_degrees(self, capsys, sphere_file):
        code, out = run(capsys, ["chain", "homology", "--input", sphere_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["betti"] == {"0": 1, "2": 1}
        assert doc["result"]["cobetti"] == {"0": 1, "2": 1}

    def test_cascade(self, capsys, tmp_path):
        f = tmp_path / "mb.json"
        f.write_text(json.dumps({"components": [
            {"id": "lo", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
             "morse_points": [{"id": "p", "morse_index": 0}]},
            {"id": "hi", "dim": 0, "action": 1.0, "rs_trans_doubled": 4,
             "morse_points": [{"id": "q", "morse_index": 0}]},
        ]}))
        code, out = run(capsys, ["chain", "cascade", "--input", str(f)])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lacunary"]
        assert doc["result"]["betti"] == {"0": 1, "2": 1}


    @pytest.mark.parametrize("command, doc", [
        ("cascade", {"intra": [["q"]]}),
        ("cascade", {"intra": [["q", "p", "x"]]}),
        ("homology", {"generators": [{"id": "a", "doubled_degree": 2},
                                     {"id": "b", "doubled_degree": 0}],
                      "boundary": [["a", "b", "one"]]}),
    ])
    def test_malformed_entry_is_file_format_error(self, capsys, tmp_path, command, doc):
        if command == "cascade":
            doc["components"] = [
                {"id": "c", "dim": 0, "action": 0.0, "rs_trans_doubled": 0,
                 "morse_points": [{"id": "p", "morse_index": 0},
                                  {"id": "q", "morse_index": 1}]}]
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(doc))
        code, out = run(capsys, ["chain", command, "--input", str(f)])
        assert code == 1
        assert "Traceback" not in out
        assert json.loads(out)["error"]["error"] == "file-format"


class TestChernCommand:
    def test_c1(self, capsys, tmp_path):
        f = tmp_path / "cl.json"
        f.write_text(json.dumps({
            "rank": 2, "genus": 0,
            "loops": [dump_path(rotation_path(1, 2 * np.pi * 3))],
        }))
        code, out = run(capsys, ["chern", "--input", str(f)])
        assert code == 0
        assert json.loads(out)["result"]["c1"] == 3

    def test_string_loop_is_file_format_error(self, capsys, tmp_path, monkeypatch, full_loop):
        # full_loop is tmp_path / "loop.json": the string must not name it
        f = tmp_path / "cl.json"
        f.write_text(json.dumps({"rank": 2, "genus": 0, "loops": ["loop.json"]}))
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, ["chern", "--input", str(f)])
        assert code == 1
        assert "Traceback" not in out
        err = json.loads(out)["error"]
        assert err["error"] == "file-format" and "loop 0" in err["message"]


class TestDynCommand:
    def test_integrate(self, capsys, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"phase_space": "plane",
                                 "hamiltonian": {"builtin": "harmonic"}}))
        code, out = run(capsys, ["dyn", "integrate", "--input", str(f),
                                 "--z0", "1.0,0.0", "--T", "1.0"])
        assert code == 0
        assert json.loads(out)["result"]["energy_drift"] < 1e-10

    def test_twist(self, capsys):
        code, out = run(capsys, ["dyn", "twist", "--epsilon", "0.1",
                                 "--grid", "24"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["count"] >= 2
        assert not doc["result"]["is_curve"]


    def test_twist_grid_below_one_is_parameter_error(self, capsys):
        code, out = run(capsys, ["dyn", "twist", "--grid", "0"])
        assert code == 1
        assert "NaN" not in out
        assert json.loads(out)["error"]["error"] == "parameter"

    @pytest.mark.parametrize("action, flag", [
        ("orbit", "--dt=0"),
        ("orbit", "--T=nan"),
        ("monodromy", "--T=inf"),
        ("monodromy", "--T=-1.0"),
        ("integrate", "--dt=nan"),
    ])
    def test_bad_time_or_step_is_parameter_error(self, capsys, harmonic_file, action, flag):
        code, out = run(capsys, ["dyn", action, "--input", harmonic_file, flag])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"

    def test_monodromy_flag_agrees_with_the_index_endpoint_test(self, capsys, tmp_path):
        # sigma_min(Psi(1) - I) is 7.1e-7 here while |det(Psi(1) - I)| is
        # about 1e-5: a degenerate orbit, not an endpoint-degenerate error
        f = tmp_path / "pend.json"
        f.write_text(json.dumps({"phase_space": "cylinder",
                                 "hamiltonian": {"builtin": "pendulum"}}))
        code, out = run(capsys, ["dyn", "monodromy", "--input", str(f), "--z0=0.8,0.0",
                                 "--T=1.3457695675791859", "--dt", "0.01"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["nondegenerate"] is False
        assert "doubled_index" not in result

    @pytest.mark.parametrize("action", ["integrate", "orbit", "monodromy"])
    @pytest.mark.parametrize("n, z0", [(1, "1"), (1, "1,0,0"), (1, "nan,0"), (2, "1,0")])
    def test_wrong_phase_point_is_parameter_error(self, capsys, tmp_path, action, n, z0):
        # the harmonic oscillator, a plane system for n = 1 and r2n for n = 2
        terms = [{"coeff": 0.5, "powers": [2 * (j == i) for j in range(2 * n)]}
                 for i in range(2 * n)]
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"phase_space": "plane" if n == 1 else "r2n",
                                 "hamiltonian": {"polynomial": {"n": n, "terms": terms}}}))
        code, out = run(capsys, ["dyn", action, "--input", str(f), "--z0", z0, "--T", "6"])
        assert code == 1
        assert "Traceback" not in out
        err = json.loads(out)["error"]
        assert err["error"] == "parameter" and "coordinates" in err["message"]

    def test_integrate_without_input_is_domain_error(self, capsys):
        code, out = run(capsys, ["dyn", "integrate", "--T", "1"])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"

    def test_non_finite_result_is_never_printed(self, capsys, monkeypatch):
        import symidx.cli as cli

        monkeypatch.setattr(cli, "_cmd_twist", lambda args: {"rotation_lower": float("nan")})
        with pytest.raises(ValueError):
            main(["dyn", "twist"])
        assert capsys.readouterr().out == ""


class TestAxiomsCommand:
    def test_negative_count_is_parameter_error(self, capsys):
        code, out = run(capsys, ["axioms", "--count", "-1"])
        assert code == 1
        assert json.loads(out)["error"]["error"] == "parameter"


class TestDemo:
    def test_unit_sphere(self, capsys):
        code, out = run(capsys, ["demo", "unit-sphere", "--n", "4",
                                 "--window", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["lacunary"]
        assert doc["result"]["betti"]["1/2"] == 1
        assert doc["result"]["betti"]["-1/2"] == 1
