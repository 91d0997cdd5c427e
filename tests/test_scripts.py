"""Smoke tests of the example scripts: each runs, exits 0 and prints its table."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_pendulum_demo():
    lines = run_script("pendulum_demo.py", "--T", "1")
    drift = re.fullmatch(r"generic start \(0\.3, 0\.2\): T=1 dt=0\.001  energy drift (\S+)",
                         lines[0])
    assert drift and float(drift.group(1)) < 1e-5
    rows = {}
    for line in lines[1:]:
        m = re.fullmatch(r"(\w+) \S+\s+Morse index (\d)  nondegenerate=(\w+)  "
                         r"CZcan=(-?\d+)  \(n - IND = (-?\d+)\)", line)
        assert m, line
        rows[m.group(1)] = m.groups()[1:]
    # CZcan = n - Morse index at both equilibria
    assert rows == {"saddle": ("1", "True", "0", "0"), "center": ("0", "True", "1", "1")}


def test_rfh_table():
    lines = run_script("rfh_table.py", "--n", "4", "--window", "1")
    assert lines[0] == "S*S^4, window K=1, lacunary=True"
    assert lines[1].split() == ["degree", "dim"]
    degrees = [line.split()[0] for line in lines[2:-1]]
    assert degrees == ["-19/2", "-13/2", "-11/2", "-7/2", "-5/2", "-1/2",
                       "1/2", "5/2", "7/2", "11/2", "13/2", "19/2"]
    assert all(line.split()[1] == "1" for line in lines[2:-1])
    assert lines[-1] == "period of the degree pattern: 6"


def test_run_axiom_suite():
    lines = run_script("run_axiom_suite.py", "--seed", "7", "--count", "1")
    names = [line.split()[0] for line in lines[:-1]]
    assert names == ["product", "loop", "inverse", "naturality", "determinant",
                     "signature", "direct-sum", "cross-algorithm"]
    assert all(line.split()[1:] == ["1", "trials", "ok"] for line in lines[:-1])
    assert re.fullmatch(r"total: \d+\.\d s, all_passed=True", lines[-1])
