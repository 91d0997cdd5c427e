"""Tests of the benchmark itself: every check rejects a wrong value.

    python3 -m pytest bench/test_bench.py -q

Real outputs come from the quick round of each workload; each test shows
that the check accepts the real output and rejects it once it is made
wrong by the amount a fault would plausibly cause.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_symidx()

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from tracing import LAYERS, Tracer, metric_specs  # noqa: E402


def _quick_outputs(name, workdir):
    wl = workloads.WORKLOADS[name](run.DEFAULT_SEEDS[name], workdir, quick=True)
    return {op.kind: (op, op.run()) for op in wl.round(0)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("inputs")
    return {name: _quick_outputs(name, workdir) for name in workloads.WORKLOADS}


def _rejects(check, out):
    with pytest.raises(CheckError):
        check(out)


def _with_result(out, **changes):
    """CLI output (code, text) with fields of its result replaced."""
    code, text = out
    doc = json.loads(text)
    doc["result"].update(changes)
    return code, json.dumps(doc)


# ---- a doubled index off by 2 ----


def test_sp2_index_off_by_two(outputs):
    (op, out), = outputs["sp2-three-algorithms"].values()
    op.check(out)
    for key in ("cz_rs", "cz_winding", "cz_degree_sp2"):
        _rejects(op.check, dict(out, **{key: out[key] + 2}))


def test_sp2_interval_and_parity(outputs):
    (op, out), = outputs["sp2-three-algorithms"].values()
    _rejects(op.check, dict(out, upper=out["lower"] + 0.5))
    with pytest.raises(CheckError):
        checks.parity(out["cz_rs"] + 2, 1, out["endpoint"])


def test_axiom_identities_reject_any_index_off_by_two(outputs):
    checked = 0
    for kind, (op, out) in outputs["axiom-sweep"].items():
        if op.fault is not None:
            continue
        op.check(out)
        for key, value in out.items():
            if isinstance(value, int):
                _rejects(op.check, dict(out, **{key: value + 2}))
                checked += 1
    assert checked >= 12


def test_maslov_closed_form_and_rs_zero():
    checks.maslov_closed_form(12, 2, 3)
    with pytest.raises(CheckError):
        checks.maslov_closed_form(10, 2, 3)
    checks.rs_zero(0)
    with pytest.raises(CheckError):
        checks.rs_zero(-2)


def test_equilibrium_index_off_by_two(outputs):
    for kind in ("equilibrium/saddle", "equilibrium/centre"):
        op, out = outputs["periodic-orbits"][kind]
        op.check(out)
        value = json.loads(out[1])["result"]["doubled_index_canonical"]
        _rejects(op.check, _with_result(out, doubled_index_canonical=value + 2))


# ---- a period off by 1e-4 ----


def test_libration_period_off_by_1e_4(outputs):
    op, out = outputs["periodic-orbits"]["libration-orbit/a=0.1"]
    op.check(out)
    period = json.loads(out[1])["result"]["period"]
    for delta in (1e-4, -1e-4):
        _rejects(op.check, _with_result(out, period=period + delta))


def test_harmonic_period_off_by_1e_4():
    checks.harmonic_period(2 * math.pi + 5.2e-7)  # the midpoint error at dt = 1e-3
    for delta in (1e-4, -1e-4):
        with pytest.raises(CheckError):
            checks.harmonic_period(2 * math.pi + delta)


def test_nonconstant_orbit_reported_nondegenerate():
    with pytest.raises(CheckError):
        checks.degenerate_orbit(True)


# ---- NaN in CLI JSON ----


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_rejected(outputs, token):
    op, out = outputs["periodic-orbits"]["equilibrium/centre"]
    code, text = out
    bad = text.replace('"residual": 0.0', '"residual": %s' % token)
    assert bad != text
    _rejects(op.check, (code, bad))


def test_cli_error_and_garbage_rejected():
    with pytest.raises(CheckError):
        checks.cli_result(1, '{"error": {"error": "step-failure"}}')
    with pytest.raises(CheckError):
        checks.cli_result(0, "Traceback (most recent call last):")


# ---- a backward-integration endpoint off by 1e-6 ----


def test_backward_endpoint_off_by_1e_6(outputs):
    op, out = outputs["periodic-orbits"]["integrate-backward"]
    op.check(out)
    end = json.loads(out[1])["result"]["endpoint"]
    for i in range(2):
        moved = list(end)
        moved[i] += 1e-6
        _rejects(op.check, _with_result(out, endpoint=moved))


def test_energy_off_quadratic_level_rejected(outputs):
    op, out = outputs["periodic-orbits"]["integrate-energy/harmonic"]
    op.check(out)
    end = np.array(json.loads(out[1])["result"]["endpoint"])
    _rejects(op.check, _with_result(out, endpoint=(end * (1 + 1e-9)).tolist()))


# ---- an eigenvalue count off by one ----


def test_flow_off_by_one(outputs):
    (op, out), = outputs["loop-spectral-flow"].values()
    op.check(out)
    for key in ("loop_flow", "matrix_flow"):
        for delta in (1, -1):
            _rejects(op.check, dict(out, **{key: out[key] + delta}))


# ---- the harness ----


def test_first_step_crossing_flags_paths_the_scan_gets_wrong():
    """These Sp(2) paths cross before t = 1/192, their first grid step; cz_rs misses it."""
    from symidx import axioms, index

    for key, scale in (([113, 3, 3], 2.0), ([77, 40, 40], 4.0)):
        P = axioms.random_admissible_path(np.random.default_rng(key), 1, scale)
        assert workloads.crossing_in_first_step(P)
        assert index.cz_rs(P).doubled != index.cz_winding(P)[0].doubled
    P = axioms.random_admissible_path(np.random.default_rng([5, 1, 1]), 1, 1.6)
    assert not workloads.crossing_in_first_step(P)


def test_screens_flag_identities_the_scan_gets_wrong():
    """A direct sum whose summands cross together, and a loop product that
    ends near the Maslov cycle: on both, cz_rs breaks the identity."""
    from symidx import axioms, index

    def cz(P):
        return index.cz_rs(P).doubled

    g = np.random.default_rng([501, 9, 102, 0])
    P1, P2 = axioms.random_admissible_path(g, 2), axioms.random_admissible_path(g, 1)
    assert workloads.crossings_coincide(P1, P2)
    assert cz(P1.direct_sum(P2)) != cz(P1) + cz(P2)

    g = np.random.default_rng([106, 21, 12, 0])
    Phi, P = axioms.conjugated_rotation_loop(g, 2, -1), axioms.random_admissible_path(g, 2)
    assert workloads.end_near_cycle(Phi.product(P))
    assert cz(Phi.product(P)) != 2 * index.maslov_loop(Phi).doubled + cz(P)

    g = np.random.default_rng([5, 1, 3])  # crossings in cells 34 and 3
    P1, P2 = axioms.random_admissible_path(g, 1), axioms.random_admissible_path(g, 1)
    assert not workloads.crossings_coincide(P1, P2)
    assert not workloads.end_near_cycle(P1) and not workloads.end_near_cycle(P2)


def test_quick_runs_are_correct_with_only_named_faults():
    expected_faults = {"sp2-three-algorithms": 0, "axiom-sweep": 1,
                       "loop-spectral-flow": 0, "periodic-orbits": 1}
    for name, faults in expected_faults.items():
        result = run.run(name, run.DEFAULT_SEEDS[name], 0.0, False, quick=True)
        assert result["correct"], name
        assert result["failed"] == faults, name
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_named_fault_counts_failed_not_incorrect():
    op = workloads.Op("fault", lambda: -2, checks.rs_zero, fault=workloads.FAULT_RS_ZERO)
    phase = run.Phase()
    run._settle(op, op.run(), None, phase)
    assert phase.failed == 1 and not phase.incorrect
    op = workloads.Op("plain", lambda: -2, checks.rs_zero)
    run._settle(op, op.run(), None, phase)
    assert phase.failed == 1 and phase.incorrect


def test_tracer_wraps_imported_names_and_restores_them():
    from symidx import chern, hamdyn, index, splin

    originals = (splin.rho, index.rho, chern.rho, hamdyn.cz_rs, splin.SymplecticPath.at)
    path = splin.rotation_path(1, 1.0)
    tracer = Tracer()
    with tracer:
        assert index.rho is not originals[1] and chern.rho is index.rho
        index.cz_rs(path)
        index.maslov_loop(splin.rotation_path(1, 2 * math.pi))
    assert (splin.rho, index.rho, chern.rho, hamdyn.cz_rs,
            splin.SymplecticPath.at) == originals
    assert not tracer.missing
    m = tracer.layer_metrics(ops=2, overhead_s=0.0)
    assert m["index.cz_rs.calls"] == 1 and m["index.maslov_loop.calls"] == 1
    assert m["splin.rho.calls"] > 0 and m["index.locate_crossings.calls"] == 1
    # self times partition the traced time of the outermost spans
    a = tracer.arrays()
    top = a["parent"] < 0
    total = float(np.sum(a["end"][top] - a["start"][top]))
    selfs = sum(m[name + ".self_s"] for name in LAYERS)
    assert selfs == pytest.approx(total, rel=1e-9)
    assert set(m) == {name for name, _, _ in metric_specs()}


def test_bare_directory_refuses_to_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "axiom-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in metric_specs()]
    assert spec["paths"] == ["bench"]
