"""Golden CLI results: the ``result`` object of fixed invocations, byte for byte.

Each case rebuilds its input from a seed, writes it to a temporary file,
runs the CLI in-process and compares the strict-JSON dump of ``result``
with the one in ``golden_cli.json``.  The input file's digest is
compared too, so a change in how the input is generated shows as such
and not as a changed index.  The ``inputs`` block itself is not
compared, because it names the temporary path.

The ``dyn`` cases run the implicit-midpoint integrator, periodic-orbit
shooting and the monodromy index on the builtin systems; they pin the
floating-point results of the flow, not only its indices.

The index cases use inputs on which every index algorithm agrees
(``cz_rs``, ``rs_index``, ``cz_winding`` and ``cz_degree_sp2`` on Sp(2)
paths; the loop-operator flow and the CZ difference of its slices), so
a golden value is a correct value and not only a recorded one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symidx import axioms
from symidx.cli import _build_parser, main
from symidx.io import dump_family, dump_path, file_digest
from symidx.splin import SymmetricFamily, random_symmetric_family

GOLDEN = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parent.parent / "src"


def make_input(spec: dict) -> dict:
    """The input document described by ``spec`` (kind, seed, n, ...).

    A ``system`` spec carries its system file itself: every key but
    ``kind`` is the document.
    """
    if spec["kind"] == "system":
        return {k: v for k, v in spec.items() if k != "kind"}
    rng = np.random.default_rng(spec["seed"])
    n = spec["n"]
    if spec["kind"] == "path":
        return dump_path(axioms.random_admissible_path(rng, n, spec["scale"]))
    if spec["kind"] == "loop":
        return dump_path(axioms.conjugated_rotation_loop(rng, n, spec["turns"]))
    if spec["kind"] == "family":
        return dump_family(random_symmetric_family(n, rng, modes=2, scale=spec["scale"]))
    if spec["kind"] == "pencil":
        A, B = (0.5 * (X + X.T) for X in rng.normal(size=(2, 2 * n, 2 * n)))
        return dump_family(SymmetricFamily(np.array([0.0, 1.0]), np.stack([A, B])))
    if spec["kind"] == "family2":
        rows = [dump_family(random_symmetric_family(n, rng, modes=2, scale=spec["scale"]))
                for _ in range(2)]
        return {"n": n, "kind": "symmetric_family",
                "samples_2d": [{"s": s, "rows": r["samples"]}
                               for s, r in zip((0.0, 1.0), rows)]}
    raise ValueError("unknown input kind %r" % spec["kind"])


def run_case(case: dict, tmp_path: Path, capsys) -> tuple[dict, str | None]:
    """(output document, input digest or None) of one golden case."""
    argv = list(case["argv"])
    digest = None
    if "input" in case:
        f = tmp_path / "input.json"
        f.write_text(json.dumps(make_input(case["input"])))
        digest = file_digest(f)
        argv += ["--input", str(f)]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, doc
    return doc, digest


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, indent=2, allow_nan=False)


CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_result_matches_golden(name, tmp_path, capsys):
    case = CASES[name]
    doc, digest = run_case(case, tmp_path, capsys)
    assert digest == case.get("digest"), "the generated input changed"
    assert canonical(doc["result"]) == canonical(case["result"])


def run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m symidx argv`` in a fresh interpreter, with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "symidx", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_symidx_prints_the_in_process_document(tmp_path, capsys):
    case = CASES["winding-path-n1-seed15"]
    doc, _ = run_case(case, tmp_path, capsys)
    proc = run_module(list(case["argv"]) + ["--input", str(tmp_path / "input.json")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert canonical(json.loads(proc.stdout)["result"]) == canonical(case["result"])


def test_python_m_symidx_bad_flag_is_a_usage_error():
    proc = run_module(["--format", "xml", "axioms"])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["error"] == "usage"


@pytest.fixture(scope="module")
def usage_and_valid_calls(tmp_path_factory):
    """A usage error and a valid call on one input file, each with the
    (exit code, stdout) of a fresh ``python -m symidx`` process."""
    f = tmp_path_factory.mktemp("calls") / "harmonic.json"
    f.write_text(json.dumps(make_input(CASES["dyn-integrate-harmonic-T3"]["input"])))
    calls = {
        "usage": ["dyn", "integrate", "--input", str(f), "--T", "soon"],
        "valid": ["dyn", "integrate", "--input", str(f), "--z0=0.7,-0.4", "--T=0.5"],
    }
    fresh = {}
    for name, argv in calls.items():
        proc = run_module(argv)
        fresh[name] = (proc.returncode, proc.stdout)
    assert fresh["usage"][0] == 2 and fresh["valid"][0] == 0
    return calls, fresh


@pytest.mark.parametrize("order", [("usage", "valid"), ("valid", "usage")])
def test_one_parser_per_process_prints_what_a_fresh_process_prints(
        usage_and_valid_calls, order, capsys):
    calls, fresh = usage_and_valid_calls
    _build_parser.cache_clear()
    for name in order:
        code = main(calls[name])
        assert (code, capsys.readouterr().out) == fresh[name], name
    assert _build_parser.cache_info().misses == 1
