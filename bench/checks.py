"""Correctness checks on symidx outputs.

Every check compares an output with a value the benchmark computes on
its own (numpy determinants and eigenvalues, closed forms, elliptic
integrals) or with a property the method must have.  None compares with
a stored copy of an earlier output.  A check raises ``CheckError`` on a
wrong value and returns nothing otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import ellipk

HARMONIC_PERIOD_TOL = 1e-6
RETURN_TOL = 1e-9  # the midpoint rule is symmetric: backward undoes forward
ENERGY_TOL = 1e-11  # relative; a quadratic H is conserved up to round-off


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str, *args):
    if not ok:
        raise CheckError(message % args)


def _reject_constant(token: str):
    raise CheckError("non-finite number %s in strict JSON output" % token)


def strict_json(text: str) -> dict:
    """Parse CLI output, rejecting NaN and Infinity."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CheckError("output is not JSON: %s" % e) from None
    _require(isinstance(doc, dict), "output is not a JSON object")
    return doc


def cli_result(code: int, text: str) -> dict:
    """The ``result`` object of a successful CLI call."""
    _require(code == 0, "exit code %d: %s", code, text.strip()[:200])
    doc = strict_json(text)
    _require("result" in doc, "no result object in CLI output")
    return doc["result"]


# ---- indices of symplectic paths (all values doubled) ----


def same_index(**doubled: int):
    """Different algorithms give one index."""
    _require(len(set(doubled.values())) == 1, "algorithms disagree: %s", doubled)


def winding_interval_short(lower: float, upper: float):
    _require(upper - lower < 0.5, "winding interval [%g, %g] not shorter than 1/2",
             lower, upper)


def parity(cz_doubled: int, n: int, endpoint: np.ndarray):
    """(-1)^(n - CZ) = sign det(I - Psi(1)), the determinant taken here."""
    _require(cz_doubled % 2 == 0, "CZ %s/2 is not an integer", cz_doubled)
    det = float(np.linalg.det(np.eye(2 * n) - np.asarray(endpoint)))
    _require(det != 0.0, "degenerate endpoint")
    _require((-1) ** (n - cz_doubled // 2) == np.sign(det),
             "parity of CZ %d disagrees with sign det(I - Psi(1)) = %g",
             cz_doubled // 2, det)


def maslov_closed_form(doubled: int, turns: int, n: int):
    """A k-turn conjugated rotation loop in Sp(2n) has Maslov index k n."""
    _require(doubled == 2 * turns * n, "Maslov index %s/2 of a %d-turn loop, n=%d",
             doubled, turns, n)


def product_identity(mu1: int, mu2: int, mu12: int):
    _require(mu12 == mu1 + mu2, "mu(L1 L2) = %d != %d + %d", mu12, mu1, mu2)


def loop_identity(cz_loop_path: int, mu_loop: int, cz_path: int):
    """CZ(Phi Psi) = 2 mu(Phi) + CZ(Psi)."""
    _require(cz_loop_path == 2 * mu_loop + cz_path,
             "CZ(Phi Psi) = %d != 2 * %d + %d", cz_loop_path, mu_loop, cz_path)


def inverse_identity(value: int, value_of_inverse: int):
    _require(value_of_inverse == -value, "index of the inverse %d != -%d",
             value_of_inverse, value)


def naturality(cz_path: int, cz_conjugated: int):
    _require(cz_conjugated == cz_path, "conjugation changed CZ: %d -> %d",
             cz_path, cz_conjugated)


def direct_sum_identity(cz1: int, cz2: int, cz_sum: int):
    _require(cz_sum == cz1 + cz2, "CZ of the direct sum %d != %d + %d",
             cz_sum, cz1, cz2)


def rs_zero(doubled: int):
    """Robbin-Salamon zero axiom: a constant path has index 0."""
    _require(doubled == 0, "RS index %s/2 of a constant path", doubled)


# ---- spectral flow ----


def loop_flow(flow: int, cz0_doubled: int, cz1_doubled: int):
    """Loop-operator flow = CZ(Psi^0) - CZ(Psi^1)."""
    expect = (cz0_doubled - cz1_doubled) // 2
    _require(flow == expect, "loop spectral flow %d != CZ difference %d", flow, expect)


def matrix_flow(flow: int, start: np.ndarray, end: np.ndarray):
    """Flow = negative eigenvalues at the start minus those at the end."""
    expect = int(np.sum(np.linalg.eigvalsh(start) < 0)
                 - np.sum(np.linalg.eigvalsh(end) < 0))
    _require(flow == expect, "spectral flow %d != eigenvalue count difference %d",
             flow, expect)


# ---- periodic orbits and integration ----


def harmonic_period(period: float):
    _require(abs(period - 2 * math.pi) <= HARMONIC_PERIOD_TOL,
             "harmonic period %.12f is not 2 pi", period)


def libration_period_exact(amplitude: float) -> float:
    """Period of H = v^2/2 + cos(2 pi q) at amplitude a about q = 1/2."""
    return 2.0 / math.pi * float(ellipk(math.sin(math.pi * amplitude) ** 2))


def libration_period(period: float, amplitude: float, dt: float):
    """Within the implicit-midpoint period error, O((omega dt)^2).

    For small amplitudes the relative error is (omega dt)^2 / 12 with
    omega = 2 pi; the bound allows three times that.
    """
    exact = libration_period_exact(amplitude)
    rel_tol = (2 * math.pi * dt) ** 2 / 4
    _require(abs(period - exact) <= rel_tol * exact,
             "libration period %.10f, exact %.10f (amplitude %g)",
             period, exact, amplitude)


def equilibrium_index(doubled_canonical: int, n: int, morse_index: int):
    """At an equilibrium CZcan = n - Morse index."""
    _require(doubled_canonical == 2 * (n - morse_index),
             "canonical CZ %s/2 at an equilibrium of Morse index %d",
             doubled_canonical, morse_index)


def degenerate_orbit(nondegenerate: bool):
    """The flow direction of a nonconstant autonomous orbit has eigenvalue 1."""
    _require(nondegenerate is False, "nonconstant periodic orbit reported nondegenerate")


def returns_to(z_back, z0):
    gap = float(np.max(np.abs(np.asarray(z_back, dtype=float) - np.asarray(z0))))
    _require(gap <= RETURN_TOL, "backward integration misses z0 by %.3e", gap)


def harmonic_energy(z) -> float:
    z = np.asarray(z, dtype=float)
    return 0.5 * float(z @ z)


def energy_conserved(z0, z1):
    e0, e1 = harmonic_energy(z0), harmonic_energy(z1)
    _require(abs(e1 - e0) <= ENERGY_TOL * max(1.0, e0),
             "energy %.17g -> %.17g on a quadratic Hamiltonian", e0, e1)
