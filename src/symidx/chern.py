"""First Chern numbers of symplectic vector bundles from clutching data.

A bundle over a closed oriented surface is represented by the loops of
symplectic overlap maps along the splitting circles; its first Chern
number is the sum of their Maslov indices.  Genus is carried as metadata
for the normalization test only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidPathError, NotLagrangianError
from .index import maslov_loop
from .splin import SymplecticPath, rho


@dataclass
class ClutchingData:
    rank: int  # 2n
    genus: int
    overlap_loops: Sequence[SymplecticPath] = field(default_factory=list)

    def __post_init__(self):
        for L in self.overlap_loops:
            if not L.closed:
                raise InvalidPathError("clutching loops must be closed")
            if L.dim != self.rank:
                raise InvalidPathError(
                    "loop rank %d does not match bundle rank %d" % (L.dim, self.rank)
                )


def c1_from_clutching(D: ClutchingData) -> int:
    """Sum of Maslov indices of the overlap loops."""
    return sum(maslov_loop(L).as_int() for L in D.overlap_loops)


def c1_lagrangian_loop(L: SymplecticPath) -> int:
    """Maslov index of a loop preserving a Lagrangian subbundle: always 0.

    Precondition: rho is real along the loop (det(X + iY) of the
    complex-linear part has negligible phase).  A nonzero degree under
    this precondition would be an internal inconsistency and is raised.
    """
    if not L.closed:
        raise InvalidPathError("need a closed loop")
    imag = np.abs(rho(L.mats).imag)
    off = np.flatnonzero(imag > 1e-7)
    if len(off):
        raise NotLagrangianError(
            "rho has imaginary part %.3e; loop does not preserve a "
            "Lagrangian subbundle" % imag[off[0]]
        )
    deg = maslov_loop(L).as_int()
    if deg != 0:
        raise NotLagrangianError(
            "real-determinant loop produced nonzero degree %d" % deg
        )
    return 0


def lagrangian_frame_loop(frames: Sequence[np.ndarray],
                          matrix_at=None) -> SymplecticPath:
    """Loop t -> diag(A(t), (A(t)^T)^-1) from a loop of GL(n, R) frames."""
    frames = [np.asarray(A, dtype=float) for A in frames]
    n = frames[0].shape[0]

    def block(A):
        M = np.zeros((2 * n, 2 * n))
        M[:n, :n] = A
        M[n:, n:] = np.linalg.inv(A).T
        return M

    ts = np.linspace(0.0, 1.0, len(frames))
    mats = np.stack([block(A) for A in frames])
    call = None if matrix_at is None else (lambda t: block(np.asarray(matrix_at(t))))
    return SymplecticPath(ts, mats, False, True, 1e-9, call)


def check_c1_axioms(seed: int = 0) -> dict:
    """Verify additivity, functoriality, and normalization on generated data.

    Returns a report dict {axiom: {"passed": bool, "detail": str}}.
    """
    from .splin import rotation_path

    report = {}

    def record(axiom: str, failures: list):
        report[axiom] = {"passed": not failures, "detail": "; ".join(failures)}

    # additivity: c1(E1 + E2) = c1(E1) + c1(E2) via direct sums of loops
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(5):
        d1, d2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
        L1 = rotation_path(1, 2 * np.pi * d1)
        L2 = rotation_path(1, 2 * np.pi * d2)
        got = c1_from_clutching(ClutchingData(4, 0, [L1.direct_sum(L2)]))
        if got != d1 + d2:
            failures.append("direct sum of degrees (%d, %d) gave %d" % (d1, d2, got))
    record("additivity", failures)

    # functoriality: degree-d covering reparametrization multiplies c1 by d
    failures = []
    for d in (1, 2, 3, -1):
        L = rotation_path(1, 4 * np.pi)  # c1 = 2
        cov = L.reparametrize(lambda t, d=d: (d * t) % 1.0, samples=257 * abs(d))
        cov.closed = True
        got = c1_from_clutching(ClutchingData(2, 0, [cov]))
        if got != 2 * d:
            failures.append("degree-%d cover gave %d, wanted %d" % (d, got, 2 * d))
    record("functoriality", failures)

    # normalization: tangent-bundle data of a genus-g surface has c1 = 2 - 2g
    failures = []
    for g in (0, 1, 2, 3):
        L = rotation_path(1, 2 * np.pi * (2 - 2 * g))
        got = c1_from_clutching(ClutchingData(2, g, [L]))
        if got != 2 - 2 * g:
            failures.append("genus %d gave %d" % (g, got))
    record("normalization", failures)

    # vanishing on a loop with a Lagrangian subbundle
    def call(t):
        return np.array(
            [[np.cos(2 * np.pi * t) + 2.0, 0.3 * np.sin(2 * np.pi * t)],
             [0.1 * np.sin(4 * np.pi * t), np.cos(2 * np.pi * t) + 3.0]]
        )

    failures = []
    frames = [call(t) for t in np.linspace(0.0, 1.0, 257)]
    try:
        c1_lagrangian_loop(lagrangian_frame_loop(frames, call))
    except NotLagrangianError as e:
        failures.append(str(e))
    record("lagrangian-vanishing", failures)
    report["all_passed"] = all(v["passed"] for v in report.values())
    return report
