"""Randomized axiom suite for the index algorithms.

Used both by the test suite and the ``symidx axioms`` subcommand.  Every
trial is fully determined by the seed; loops with known Maslov index are
built as constant conjugates of rotation loops (conjugation is a
homotopy, so the index is the rotation count times n).
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError
from .index import cz_degree_sp2, cz_rs, cz_winding, maslov_loop
from .splin import (
    SymmetricFamily,
    SymplecticPath,
    _stacked,
    path_from_symmetric,
    random_symmetric_family,
    random_symplectic,
    standard_j,
)

PATH_STEPS = 192


def random_admissible_path(rng: np.random.Generator, n: int,
                           scale: float = 1.6) -> SymplecticPath:
    """Identity-based path with endpoint safely off the Maslov cycle."""
    for _ in range(50):
        fam = random_symmetric_family(n, rng, modes=2, scale=scale)
        P = path_from_symmetric(fam, steps=PATH_STEPS)
        end = P.endpoint()
        sv = np.linalg.svd(end - np.eye(2 * n), compute_uv=False)
        if sv[-1] > 1e-3:
            return P
    raise RuntimeError("could not draw an admissible path")


def conjugated_rotation_loop(rng: np.random.Generator, n: int,
                             turns: int) -> SymplecticPath:
    """Loop M e^{2 pi k t J0} M^-1 with Maslov index k n."""
    M = random_symplectic(n, rng, spread=0.4)
    Minv = np.linalg.inv(M)
    J = standard_j(n)
    eye = np.eye(2 * n)

    @_stacked
    def call(t):
        a = 2 * np.pi * turns * t
        return M @ (np.cos(a)[:, None, None] * eye + np.sin(a)[:, None, None] * J) @ Minv

    ts = np.linspace(0.0, 1.0, 257)
    mats = call(ts)
    return SymplecticPath(ts, mats, True, True, 1e-9, call)


def random_conjugating_path(rng: np.random.Generator, n: int) -> SymplecticPath:
    fam = random_symmetric_family(n, rng, modes=2, scale=1.0)
    return path_from_symmetric(fam, steps=PATH_STEPS)


def random_symmetric_bounded(rng: np.random.Generator, n: int,
                             norm_bound: float = 2 * np.pi) -> np.ndarray:
    """Nondegenerate symmetric matrix with spectral norm < norm_bound."""
    for _ in range(100):
        A = rng.normal(size=(2 * n, 2 * n))
        S = 0.5 * (A + A.T)
        w = np.linalg.eigvalsh(S)
        top = np.max(np.abs(w))
        S = S * (0.85 * norm_bound / top)
        w = np.linalg.eigvalsh(S)
        if np.min(np.abs(w)) > 0.05:
            return S
    raise RuntimeError("could not draw a bounded nondegenerate form")


def constant_family(S: np.ndarray) -> SymmetricFamily:
    ts = np.array([0.0, 1.0])
    call = _stacked(lambda t: np.repeat(S[None], len(t), axis=0))
    return SymmetricFamily(ts, call(ts), matrix_at=call)


# ---------------------------------------------------------------------------
# individual axioms; each returns (passed, detail)


def axiom_product(rng):
    n = int(rng.integers(1, 3))
    k1, k2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
    L1 = conjugated_rotation_loop(rng, n, k1)
    L2 = conjugated_rotation_loop(rng, n, k2)
    m1 = maslov_loop(L1).as_int()
    m2 = maslov_loop(L2).as_int()
    m12 = maslov_loop(L1.product(L2)).as_int()
    ok = m12 == m1 + m2 == n * (k1 + k2)
    return ok, "n=%d k=(%d,%d) mu=(%d,%d) product=%d" % (n, k1, k2, m1, m2, m12)


def axiom_loop(rng):
    n = int(rng.integers(1, 3))
    k = int(rng.integers(-2, 3))
    Phi = conjugated_rotation_loop(rng, n, k)
    P = random_admissible_path(rng, n)
    lhs = cz_rs(Phi.product(P)).as_int()
    rhs = 2 * maslov_loop(Phi).as_int() + cz_rs(P).as_int()
    return lhs == rhs, "n=%d k=%d lhs=%d rhs=%d" % (n, k, lhs, rhs)


def axiom_inverse(rng):
    n = int(rng.integers(1, 3))
    P = random_admissible_path(rng, n)
    a = cz_rs(P).as_int()
    b = cz_rs(P.inverse()).as_int()
    k = int(rng.integers(-3, 4))
    L = conjugated_rotation_loop(rng, n, k)
    m = maslov_loop(L).as_int()
    mi = maslov_loop(L.inverse()).as_int()
    return (a == -b) and (m == -mi), "cz=(%d,%d) maslov=(%d,%d)" % (a, b, m, mi)


def axiom_naturality(rng):
    n = int(rng.integers(1, 3))
    P = random_admissible_path(rng, n)
    Theta = random_conjugating_path(rng, n)
    a = cz_rs(P).as_int()
    b = cz_rs(P.conjugate_by(Theta)).as_int()
    return a == b, "cz=%d conjugated=%d" % (a, b)


def axiom_determinant(rng):
    n = int(rng.integers(1, 4))
    P = random_admissible_path(rng, n)
    c = cz_rs(P).as_int()
    det = np.linalg.det(np.eye(2 * n) - P.endpoint())
    ok = (-1.0) ** (n - c) == np.sign(det)
    return ok, "n=%d cz=%d sign(det)=%g" % (n, c, np.sign(det))


def axiom_signature(rng):
    n = int(rng.integers(1, 4))
    S = random_symmetric_bounded(rng, n)
    w = np.linalg.eigvalsh(S)
    half_sign_doubled = int(np.sum(w > 0) - np.sum(w < 0))  # 2 * (sign/2)
    P = path_from_symmetric(constant_family(S), steps=256)
    got = cz_rs(P)
    return got.doubled == half_sign_doubled, (
        "n=%d sign=%d got=%s" % (n, half_sign_doubled, got.value)
    )


def axiom_direct_sum(rng):
    P1 = random_admissible_path(rng, 1)
    P2 = random_admissible_path(rng, int(rng.integers(1, 3)))
    a = cz_rs(P1).as_int()
    b = cz_rs(P2).as_int()
    c = cz_rs(P1.direct_sum(P2)).as_int()
    return c == a + b, "parts=(%d,%d) sum=%d" % (a, b, c)


def axiom_cross_algorithm(rng):
    P = random_admissible_path(rng, 1)
    a = cz_rs(P).as_int()
    b, interval = cz_winding(P)
    c = cz_degree_sp2(P)
    ok = a == b.as_int() == c.as_int() and (interval.upper - interval.lower) < 0.5
    return ok, "rs=%d winding=%d degree=%d |I|=%.4f" % (
        a, b.as_int(), c.as_int(), interval.upper - interval.lower
    )


AXIOMS = {
    "product": axiom_product,
    "loop": axiom_loop,
    "inverse": axiom_inverse,
    "naturality": axiom_naturality,
    "determinant": axiom_determinant,
    "signature": axiom_signature,
    "direct-sum": axiom_direct_sum,
    "cross-algorithm": axiom_cross_algorithm,
}


def run_axiom_suite(seed: int, count: int, axioms=None) -> dict:
    """Run ``count`` seeded trials of each axiom; returns a report dict."""
    if count < 0:
        raise ParameterError("trial count must be non-negative, got %d" % count)
    names = list(AXIOMS) if axioms is None else list(axioms)
    report = {"seed": seed, "count": count, "axioms": {}}
    for name in names:
        fn = AXIOMS[name]
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        failures = []
        for trial in range(count):
            try:
                ok, detail = fn(rng)
            except Exception as e:  # noqa: BLE001 - report, don't crash the suite
                ok, detail = False, "%s: %s" % (type(e).__name__, e)
            if not ok:
                failures.append({"trial": trial, "detail": detail})
        report["axioms"][name] = {
            "trials": count,
            "failures": failures,
            "passed": not failures,
        }
    report["all_passed"] = all(v["passed"] for v in report["axioms"].values())
    return report
