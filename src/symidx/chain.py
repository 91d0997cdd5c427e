"""GF(2) chain complexes: Morse homology, continuation algebra, and the
cascade Morse-Bott complex with the Rabinowitz grading.

Gradings are stored doubled (as integers) so half-integer values are
exact; a boundary entry must lower the doubled degree by exactly 2.
All linear algebra is over GF(2) with deterministic lowest-index
pivoting, so every run produces identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ActionRuleError,
    ComplexValidationError,
    DegreeRuleError,
    DSquaredError,
    ParameterError,
    UnsupportedError,
)


# ---------------------------------------------------------------------------
# GF(2) linear algebra


def gf2_rref(A: np.ndarray):
    """Row echelon form over GF(2) with lowest-index pivoting.

    Returns (R, pivot_columns).
    """
    R = (np.asarray(A, dtype=np.uint8) % 2).copy()
    if R.size == 0:
        return R, []
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        sub = np.nonzero(R[r:, c])[0]
        if len(sub) == 0:
            continue
        p = r + sub[0]
        if p != r:
            R[[r, p]] = R[[p, r]]
        hit = np.nonzero(R[:, c])[0]
        hit = hit[hit != r]
        R[hit] ^= R[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def gf2_rank(A: np.ndarray) -> int:
    return len(gf2_rref(A)[1])


def gf2_nullspace(A: np.ndarray) -> np.ndarray:
    """Columns form a basis of ker A over GF(2)."""
    A = np.asarray(A, dtype=np.uint8) % 2
    if A.size == 0:
        return np.eye(A.shape[1] if A.ndim == 2 else 0, dtype=np.uint8)
    R, pivots = gf2_rref(A)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    for j, fc in enumerate(free):
        basis[fc, j] = 1
        for r, pc in enumerate(pivots):
            if R[r, fc]:
                basis[pc, j] = 1
    return basis


# ---------------------------------------------------------------------------
# chain complexes


@dataclass(frozen=True)
class Generator:
    id: str
    doubled_degree: int
    action: Optional[float] = None


@dataclass
class ChainComplex:
    generators: list[Generator]
    boundary: np.ndarray  # GF(2); boundary[i, j] = 1 iff gen i appears in d(gen j)

    def __post_init__(self):
        m = len(self.generators)
        self.boundary = np.asarray(self.boundary, dtype=np.uint8) % 2
        if self.boundary.shape != (m, m):
            raise ComplexValidationError("boundary matrix shape mismatch")
        ids = [g.id for g in self.generators]
        if len(set(ids)) != m:
            raise ComplexValidationError("duplicate generator ids")
        self._index = {g.id: k for k, g in enumerate(self.generators)}
        self._degs = np.array([g.doubled_degree for g in self.generators])

    def index_of(self, gid: str) -> int:
        return self._index[gid]

    def degrees(self) -> list[int]:
        return sorted({g.doubled_degree for g in self.generators})

    def validate(self) -> "ChainComplex":
        degs = self._degs
        rows, cols = np.nonzero(self.boundary)
        for i, j in zip(rows, cols):
            if degs[j] - degs[i] != 2:
                raise DegreeRuleError(
                    "boundary entry %s -> %s changes doubled degree by %d, not 2"
                    % (self.generators[j].id, self.generators[i].id,
                       degs[j] - degs[i])
                )
        sq = (self.boundary.astype(np.int64) @ self.boundary.astype(np.int64)) % 2
        bad = np.nonzero(np.any(sq, axis=0))[0]
        if len(bad):
            raise DSquaredError(
                "d^2 != 0 on generator %s" % self.generators[bad[0]].id,
                witness=self.generators[bad[0]].id,
            )
        return self

    def _block(self, d: int) -> np.ndarray:
        """Boundary restricted to degree-d generators (rows: degree d-2)."""
        rows = np.nonzero(self._degs == d - 2)[0]
        cols = np.nonzero(self._degs == d)[0]
        return self.boundary[np.ix_(rows, cols)]


def build_complex(generators: Sequence[tuple], entries: Sequence[tuple]) -> ChainComplex:
    """Assemble and validate a complex.

    generators: (id, doubled_degree[, action]) tuples; entries: (from_id,
    to_id[, count]) with counts taken mod 2 (repeats accumulate).
    """
    gens = []
    for g in generators:
        gens.append(Generator(g[0], int(g[1]), g[2] if len(g) > 2 else None))
    C = ChainComplex(gens, np.zeros((len(gens), len(gens)), dtype=np.uint8))
    for e in entries:
        src, dst = e[0], e[1]
        count = int(e[2]) if len(e) > 2 else 1
        if src not in C._index or dst not in C._index:
            raise ComplexValidationError("boundary entry references unknown id")
        C.boundary[C.index_of(dst), C.index_of(src)] ^= count % 2
    return C.validate()


def homology(C: ChainComplex) -> dict[int, int]:
    """Doubled degree -> GF(2) Betti number."""
    out = {}
    for d in C.degrees():
        nd = int(np.sum(C._degs == d))
        out[d] = nd - gf2_rank(C._block(d)) - gf2_rank(C._block(d + 2))
    return out


def cohomology(C: ChainComplex) -> dict[int, int]:
    """Betti numbers of the transposed (upward-flow) complex, by degree."""
    out = {}
    for d in C.degrees():
        nd = int(np.sum(C._degs == d))
        up = C._block(d + 2).T      # coboundary out of degree d
        down = C._block(d).T        # coboundary into degree d
        out[d] = nd - gf2_rank(up) - gf2_rank(down)
    return out


# ---------------------------------------------------------------------------
# chain maps and continuation


@dataclass
class ChainMap:
    source: ChainComplex
    target: ChainComplex
    matrix: np.ndarray  # GF(2), shape (len(target), len(source))

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.uint8) % 2
        shape = (len(self.target.generators), len(self.source.generators))
        if self.matrix.shape != shape:
            raise ComplexValidationError("chain-map matrix shape mismatch")

    def validate(self) -> "ChainMap":
        rows, cols = np.nonzero(self.matrix)
        for i, j in zip(rows, cols):
            if self.target._degs[i] != self.source._degs[j]:
                raise ComplexValidationError(
                    "chain map does not preserve degree on %s -> %s"
                    % (self.source.generators[j].id, self.target.generators[i].id)
                )
        lhs = (self.target.boundary.astype(np.int64) @ self.matrix) % 2
        rhs = (self.matrix.astype(np.int64) @ self.source.boundary) % 2
        if np.any(lhs != rhs):
            raise ComplexValidationError("map does not commute with boundaries")
        return self


def identity_map(C: ChainComplex) -> ChainMap:
    return ChainMap(C, C, np.eye(len(C.generators), dtype=np.uint8))


def _induced_zero_on_homology(phi: ChainMap) -> bool:
    """Does phi send every cycle to a boundary?  The images phi Z of a
    basis Z of the cycles lie in the span of B iff rank [B | phi Z] = rank B."""
    B = phi.target.boundary
    images = (phi.matrix.astype(np.int64) @ gf2_nullspace(phi.source.boundary)) % 2
    return gf2_rank(np.hstack([B, images])) == gf2_rank(B)


def check_chain_homotopy(psi0: ChainMap, psi1: ChainMap, T: np.ndarray) -> bool:
    """Exact GF(2) check of psi1 + psi0 = dT + Td."""
    T = np.asarray(T, dtype=np.uint8) % 2
    lhs = (psi0.matrix ^ psi1.matrix).astype(np.int64)
    rhs = (psi0.target.boundary.astype(np.int64) @ T
           + T.astype(np.int64) @ psi0.source.boundary) % 2
    return bool(np.all(lhs % 2 == rhs))


def verify_continuation(phi_ba: ChainMap, phi_cb: ChainMap, phi_ca: ChainMap,
                        homotopy: Optional[tuple] = None) -> dict:
    """Continuation-law report.

    Checks phi_cb o phi_ba = phi_ca on homology; if ``homotopy`` is a
    triple (psi0, psi1, T) the chain-homotopy identity is checked exactly
    over GF(2) as well.
    """
    for m in (phi_ba, phi_cb, phi_ca):
        m.validate()
    comp = ChainMap(
        phi_ba.source, phi_cb.target,
        (phi_cb.matrix.astype(np.int64) @ phi_ba.matrix) % 2,
    )
    diff = ChainMap(phi_ca.source, phi_ca.target, comp.matrix ^ phi_ca.matrix)
    report = {"composition_on_homology": _induced_zero_on_homology(diff)}
    if homotopy is not None:
        psi0, psi1, T = homotopy
        report["chain_homotopy"] = check_chain_homotopy(psi0, psi1, T)
    return report


# ---------------------------------------------------------------------------
# cascade Morse-Bott complexes


@dataclass(frozen=True)
class MorsePoint:
    id: str
    morse_index: int


@dataclass(frozen=True)
class BottComponent:
    id: str
    dim: int
    action: float
    rs_trans_doubled: int
    morse_points: tuple[MorsePoint, ...]


@dataclass
class MorseBottData:
    components: list[BottComponent]
    cascades: list[tuple] = field(default_factory=list)  # (from_id, to_id, count)
    intra: list[tuple] = field(default_factory=list)


def _mu_doubled(comp: BottComponent, pt: MorsePoint) -> int:
    # mu = RS_trans + (IND - dim/2); everything doubled
    return comp.rs_trans_doubled + 2 * pt.morse_index - comp.dim


def cascade_complex(D: MorseBottData) -> tuple[ChainComplex, bool]:
    """Build the cascade complex; returns (complex, lacunary flag).

    Generators are the Morse points, graded by mu = RS_trans + IND - dim/2
    of their component; actions are inherited.  An entry with an odd count
    must name known points, and a cascade must strictly drop the action and
    an intra entry stay in its component; even counts are zero mod 2 and
    skipped unchecked.  The lacunary flag is set when the supplied counts
    give no boundary and no pair of points on distinct components with a
    strict action drop has mu-difference 1: the boundary is then forced to
    vanish.  Data that is not lacunary and supplies no counts raises
    UnsupportedError.
    """
    gens, comp_of = [], {}
    for comp in D.components:
        for pt in comp.morse_points:
            gens.append((pt.id, _mu_doubled(comp, pt), comp.action))
            comp_of[pt.id] = comp
    odd = []
    for entries, cross in ((D.cascades, True), (D.intra, False)):
        for e in entries:
            if (int(e[2]) if len(e) > 2 else 1) % 2 == 0:
                continue
            if e[0] not in comp_of or e[1] not in comp_of:
                raise ComplexValidationError("cascade entry references unknown point")
            src, dst = comp_of[e[0]], comp_of[e[1]]
            if cross and not src.action > dst.action:
                raise ActionRuleError("cascade %s -> %s does not decrease action (%g -> %g)"
                                      % (e[0], e[1], src.action, dst.action))
            if not cross and src.id != dst.id:
                raise ComplexValidationError("intra entry %s -> %s joins distinct components"
                                             % (e[0], e[1]))
            odd.append(e[:2])
    C = build_complex(gens, odd)

    # admissible[i, j]: mu drops by 1 from i to j across a strict action drop
    mu = C._degs
    action = np.array([g.action for g in C.generators], dtype=float)
    comp_id = np.array([comp_of[g.id].id for g in C.generators], dtype=object)
    admissible = ((mu[:, None] - mu[None, :] == 2) & (action[:, None] > action[None, :])
                  & (comp_id[:, None] != comp_id[None, :]))
    lacunary = not np.any(C.boundary) and not np.any(admissible)
    if not lacunary and not D.cascades and not D.intra:
        raise UnsupportedError(
            "data is not lacunary and no cascade counts were supplied: "
            "the boundary cannot be computed"
        )
    return C, lacunary


# ---------------------------------------------------------------------------
# unit cotangent bundles of spheres


def sphere_bundle_morse_indices(n: int) -> tuple[int, int, int, int]:
    """Morse indices of a perfect Morse function on S*S^n."""
    return (0, n - 1, n, 2 * n - 1)


def rs_trans_unit_sphere(n: int, k: int) -> int:
    """Transverse Robbin-Salamon index of the k-fold geodesic component.

    For the k-fold great circle on the round S^n, each of the n-1
    directions transverse to the closed-geodesic manifold contributes a
    rotation index 2k (the normal variational equation is a rotation with
    k full turns; equivalently the k-fold circle carries 2k-1 interior
    conjugate points per normal direction plus the final one), giving
    k(2n-2) in total, with the odd-iterate sign handled by k < 0.
    """
    return k * (2 * n - 2)


def conjugate_point_count(n: int, k: int) -> int:
    """Independent oracle: conjugate points of the Jacobi equation.

    Along a k-fold great circle of the unit round sphere the normal
    Jacobi equation is w'' + w = 0 per direction; this counts its zeros
    on (0, 2 pi k], on 20000 points, and multiplies by the n-1 normal
    directions.
    """
    if k <= 0:
        raise ParameterError("oracle defined for positive k")
    ts = np.linspace(0.0, 2 * np.pi * k, 20000)
    w = np.sin(ts)  # Jacobi field vanishing at t=0
    zeros = 0
    for i in range(1, len(ts) - 1):
        if w[i] == 0.0 or w[i] * w[i + 1] < 0.0:
            zeros += 1
    if abs(w[-1]) < 1e-9:
        zeros += 1
    return (n - 1) * zeros


def unit_sphere_bott_data(n: int, K: int) -> MorseBottData:
    if n < 4:
        raise UnsupportedError(
            "lacunary computation needs n >= 4 (grading gaps close for n < 4)"
        )
    if K < 0:
        raise ParameterError("window K must be >= 0")
    comps = []
    d = 2 * n - 1
    for k in range(-K, K + 1):
        pts = tuple(
            MorsePoint("k%+d_i%d" % (k, i), i)
            for i in sphere_bundle_morse_indices(n)
        )
        comps.append(
            BottComponent(
                id="tower_k%+d" % k,
                dim=d,
                action=2 * np.pi * k,
                rs_trans_doubled=2 * rs_trans_unit_sphere(n, k),
                morse_points=pts,
            )
        )
    return MorseBottData(comps)


def rfh_unit_sphere(n: int, K: int) -> dict:
    """Graded GF(2) Betti table of the cascade complex for S*S^n.

    Returns {"betti": {doubled mu: dim}, "lacunary": bool,
    "support_doubled": sorted list}.
    """
    data = unit_sphere_bott_data(n, K)
    C, lacunary = cascade_complex(data)
    betti = homology(C)
    support = sorted(d for d, b in betti.items() if b > 0)
    return {"betti": betti, "lacunary": lacunary, "support_doubled": support}


def action_spectrum(prime_speeds: Sequence[float],
                    k_range: tuple[int, int]) -> list[tuple[float, int]]:
    """Multiset {k sigma : sigma prime speed, k in range, k != 0} u {0}.

    Returned sorted as (value, multiplicity) pairs; near-identical values
    (within 1e-12 relative) are merged.
    """
    for s in prime_speeds:
        if not s > 0:
            raise ParameterError("prime speeds must be positive")
    kmin, kmax = int(k_range[0]), int(k_range[1])
    vals = [0.0]
    for s in prime_speeds:
        for k in range(kmin, kmax + 1):
            if k != 0:
                vals.append(k * float(s))
    vals.sort()
    merged: list[tuple[float, int]] = []
    for v in vals:
        if merged and abs(v - merged[-1][0]) <= 1e-12 * max(1.0, abs(v)):
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((v, 1))
    return merged
