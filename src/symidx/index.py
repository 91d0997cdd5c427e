"""Path and loop indices of symplectic paths.

Implemented here:

* ``maslov_loop``     -- winding number of rho along a closed loop;
* ``cz_rs``           -- Conley-Zehnder index of an identity-based path
                         with nondegenerate end, via crossing forms;
* ``rs_index``        -- half-integer index for arbitrary endpoints,
                         crossings at the boundary weighted 1/2;
* ``cz_winding``      -- winding-interval algorithm, Sp(2) only;
* ``cz_degree_sp2``   -- extension-to-normal-form degree algorithm, Sp(2);
* ``spectral_flow_matrix``      -- finite-dimensional spectral flow;
* ``loop_operator_spectral_flow`` -- Fourier-truncated first-order loop
                         operator -J0 d/dt - S(s,.).

Both spectral flows are n_-(A(0)) - n_-(A(1)) for nondegenerate ends
(Robbin-Salamon, Bull. LMS 27 (1995), section 4); no crossing is searched
for.  Each end's loop operator is assembled once, from one FFT, at cutoff
2K; the nested Fourier basis makes the cutoff-K operator its leading block.

Indices are returned as ``IndexValue`` storing twice the value as an
integer, so half-integers are exact.  The ``standard`` normalization
gives a counter-clockwise 2 pi rotation index +2; ``canonical`` is its
negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    EndpointDegenerateError,
    ExtensionError,
    InvalidPathError,
    IrregularCrossingError,
    ParameterError,
    ResolutionError,
)
from .splin import (
    SymmetricFamily,
    SymmetricFamily2,
    SymplecticPath,
    _piecewise,
    _stacked,
    rho,
    standard_j,
)

# sign relating the truncated loop-operator spectral flow (negative
# eigenvalue count at s=0 minus at s=1) to CZ(Psi^0) - CZ(Psi^1); fixed
# once by the constant-rotation calibration family (see tests)
LOOP_SF_CALIBRATION = 1

KERNEL_SVD_FACTOR = 1e-7  # singular values below this times the matrix
#                           scale span the crossing kernel
BISECT_TOL = 1e-10
BISECT_LEVELS = 4  # bracket halvings evaluated per evaluator call
FORM_REG_TOL = 1e-6  # crossing-form eigenvalues below this (relative)
#                      make the crossing irregular
PERTURB_DELTAS = tuple(1e-4 * 0.5**k for k in range(8))
WINDING_BLOCK = 128  # fan directions per pass: keeps the (t, s) arrays in cache
WINDING_TOL = 1e-9  # turns: directions this close to an extreme are summed exactly


@dataclass(frozen=True)
class IndexValue:
    """An index value stored as twice its value (exact half-integers)."""

    doubled: int
    normalization: str = "standard"

    def __post_init__(self):
        if self.normalization not in ("standard", "canonical"):
            raise ParameterError("unknown normalization %r" % self.normalization)

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def as_int(self) -> int:
        if self.doubled % 2:
            raise ParameterError("index %s is not an integer" % self.value)
        return self.doubled // 2

    def in_normalization(self, normalization: str) -> "IndexValue":
        if normalization == self.normalization:
            return self
        return IndexValue(-self.doubled, normalization)

    def __repr__(self):
        return "IndexValue(%s, %s)" % (self.value, self.normalization)


@dataclass(frozen=True)
class Crossing:
    t: float
    kernel_dim: int
    signature: int
    is_endpoint: bool


@dataclass(frozen=True)
class CrossingReport:
    crossings: tuple[Crossing, ...]
    total_doubled: int  # twice the weighted signature sum


@dataclass(frozen=True)
class WindingInterval:
    lower: float
    upper: float
    index: int


# ---------------------------------------------------------------------------
# phase unwrapping and degrees


def _unwrapped_phases(path: SymplecticPath):
    """Continuous phase of rho along the path; refines until jumps < pi/2."""
    m = max(257, len(path.ts))
    for _ in range(9):  # the first grid and up to 8 doublings
        if path.matrix_at is None:
            # no exact evaluator: the stored samples are all the data there is
            ts, mats = path.ts, path.mats
        else:
            ts = np.linspace(0.0, 1.0, m)
            mats = path.at_many(ts)
        phases = np.angle(rho(mats))
        jumps = np.angle(np.exp(1j * np.diff(phases)))
        if len(jumps) == 0 or np.max(np.abs(jumps)) < 0.5 * np.pi:
            return ts, phases[0] + np.concatenate([[0.0], np.cumsum(jumps)])
        if path.matrix_at is None:
            j = int(np.argmax(np.abs(jumps)))
            raise ResolutionError(
                "phase jump %.3f >= pi/2 between t=%.6f and t=%.6f; "
                "supply a finer sampling or an exact evaluator"
                % (abs(jumps[j]), ts[j], ts[j + 1]),
                (ts[j], ts[j + 1]),
            )
        m = 2 * m - 1
    raise ResolutionError("phase unwrapping did not stabilize under refinement")


def maslov_loop(L: SymplecticPath) -> IndexValue:
    """Winding number of t -> rho(L(t)) around the circle for a closed loop."""
    if not L.closed:
        raise InvalidPathError("maslov index needs a closed loop")
    L.validate()
    _, phases = _unwrapped_phases(L)
    total = (phases[-1] - phases[0]) / (2.0 * np.pi)
    w = int(np.round(total))
    if abs(total - w) > 1e-6:
        raise ResolutionError("winding %.8f is not an integer" % total)
    return IndexValue(2 * w)


# ---------------------------------------------------------------------------
# crossings of the Maslov cycle


def _matrix_scale(M: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(M, 2)))


def _kernel_of_crossing(M: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis of ker(M - I), or None if 1 is not an eigenvalue."""
    A = M - np.eye(len(M))
    _, sv, Vt = np.linalg.svd(A)
    thresh = KERNEL_SVD_FACTOR * _matrix_scale(M)
    mask = sv < thresh
    if not np.any(mask):
        return None
    return Vt[mask].T


def _dets_minus_id(path: SymplecticPath, ts) -> np.ndarray:
    """det(Psi(t) - I) at every t of ``ts``."""
    return np.linalg.det(path.at_many(ts) - np.eye(path.dim))


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Midpoints of BISECT_LEVELS halvings of [lo, hi]: a full binary tree
    in heap order, whose node j has the halves 2j + 1 (left) and 2j + 2."""
    halves, mids = [(lo, hi)], []
    for j in range(2**BISECT_LEVELS - 1):
        lo, hi = halves[j]
        m = 0.5 * (lo + hi)
        mids.append(m)
        halves += [(lo, m), (m, hi)]
    return mids


def _bisect_together(a, fa, b, dets) -> list[float]:
    """Midpoints of the brackets [a_i, b_i], with det(Psi - I) = fa_i at
    a_i, halved until narrower than BISECT_TOL.

    ``dets(ts)`` is det(Psi(t) - I) at every t of ``ts``.  One call per
    pass evaluates the midpoints of BISECT_LEVELS halvings of every live
    bracket (``_midpoint_tree``).  Each bracket then walks its tree by the
    rule of a one-bracket bisection, taking the left half where
    fa * fm <= 0, and stops once b - a <= BISECT_TOL.  A node's midpoint
    is 0.5 * (lo + hi) of its parent's half, the recursion a one-bracket
    bisection runs, and a row of a stacked evaluation is a one-point
    evaluation, so every bracket visits the midpoints and values of its
    own bisection and ends on its bits.  The few brackets of a path are
    walked on Python floats, which round as float64 arrays do.
    """
    brackets = [list(br) for br in zip(a.tolist(), fa.tolist(), b.tolist())]
    live = [br for br in brackets if br[2] - br[0] > BISECT_TOL]
    while live:
        trees = [_midpoint_tree(lo, hi) for lo, _, hi in live]
        values = dets(np.ravel(trees)).reshape(len(live), -1).tolist()
        for br, mids, fms in zip(live, trees, values):
            j = 0
            for _ in range(BISECT_LEVELS):
                if not br[2] - br[0] > BISECT_TOL:
                    break
                if br[1] * fms[j] <= 0.0:
                    br[2], j = mids[j], 2 * j + 1
                else:
                    br[0], br[1], j = mids[j], fms[j], 2 * j + 2
        live = [br for br in live if br[2] - br[0] > BISECT_TOL]
    return [0.5 * (lo + hi) for lo, _, hi in brackets]


def _bounded_minimum(f, a: float, b: float, xatol: float) -> float:
    """A minimizer of f on [a, b] by Brent's bounded search (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).

    A port of scipy.optimize's ``minimize_scalar(method="bounded")``: the
    same golden-section steps and parabolic fits in the same float
    operations and order, the same stopping test and at most 500
    evaluations, so the same x.  Brent's names: x is the best point so
    far, w the second best, v the previous w and u the new trial point.
    """
    sqrt_eps = np.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    rat = e = 0.0
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(x - xm) > tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                rat = p / q
                u = x + rat
                if u - a < tol2 or b - u < tol2:
                    rat = tol1 if xm >= x else -tol1
        if not parabolic:
            e = (a if x >= xm else b) - x
            rat = golden * e
        step = max(abs(rat), tol1)
        u = x + step if rat >= 0.0 else x - step
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _sign_changes(ts: np.ndarray, d: np.ndarray):
    """(a, det at a, b) of every cell [ts[.., j], ts[.., j + 1]] across which
    ``d`` changes sign, along the last axis."""
    k = np.nonzero(d[..., :-1] * d[..., 1:] < 0.0)
    right = k[:-1] + (k[-1] + 1,)
    return ts[k], d[k], ts[right]


def _locate_crossings(path: SymplecticPath) -> list[float]:
    """Parameters in (0,1) where 1 is an eigenvalue of path(t).

    det(Psi(t)-I) is scanned on the path's grid (its stored samples when
    there are at least 129) and every cell is classified at once by array
    masks:

    * a sign change is a bracket;
    * a cell bordered by a near-zero determinant (typically the identity
      start) can hide a sign change behind the 0 * x = 0 product, so its 8
      interior points are sub-scanned;
    * a small local minimum of |det| without a sign change (a dip) can
      hide a close pair of transversal zeros, so 65 points across its two
      cells are sub-scanned.

    The sub-grids of all those cells and dips go to the evaluator in one
    call, and their sign changes become brackets too.  All brackets are
    bisected together (``_bisect_together``).  A dip whose sub-grid has no
    sign change is an even-order zero candidate: a bounded scalar
    minimization of |det| (``_bounded_minimum``) finds it and a
    singular-value test confirms it.
    Each step computes the values a cell-by-cell scan computes, so the
    result has its bits.
    """
    if len(path.ts) >= 129:
        # dense sample grid: batch the determinant scan over stored samples
        ts = path.ts
        d = np.linalg.det(path.mats - np.eye(path.dim))
    else:
        ts = np.linspace(0.0, 1.0, 257)
        d = _dets_minus_id(path, ts)
    absd = np.abs(d)
    scale = max(1e-12, float(np.max(absd)))
    starts = ts[:-1]
    found = starts[(d[:-1] == 0.0) & (0.0 < starts) & (starts < 1.0)].tolist()
    brackets = [_sign_changes(ts, d)]

    sign_change = d[:-1] * d[1:] < 0.0
    zero_thresh = 1e-13 * scale
    bordered = np.flatnonzero(
        ~sign_change & ((absd[:-1] <= zero_thresh) | (absd[1:] <= zero_thresh)))
    inner = absd[1:-1]
    dips = 1 + np.flatnonzero((inner <= absd[:-2]) & (inner <= absd[2:])
                              & (inner < 1e-3 * scale) & ~(d[:-2] * d[2:] < 0.0))
    cell_subs = np.linspace(ts[bordered], ts[bordered + 1], 10, axis=-1)[:, 1:-1]
    dip_subs = np.linspace(ts[dips - 1], ts[dips + 1], 65, axis=-1)
    if cell_subs.size or dip_subs.size:
        fs = _dets_minus_id(path, np.concatenate([cell_subs.ravel(), dip_subs.ravel()]))
        cell_fs = fs[:cell_subs.size].reshape(cell_subs.shape)
        dip_fs = fs[cell_subs.size:].reshape(dip_subs.shape)
        brackets += [_sign_changes(cell_subs, cell_fs), _sign_changes(dip_subs, dip_fs)]
        # a dip with no sign change on its sub-grid: a tangential zero?
        for k in dips[~np.any(dip_fs[:, :-1] * dip_fs[:, 1:] < 0.0, axis=1)]:
            t0 = float(_bounded_minimum(lambda t: abs(_dets_minus_id(path, [t])[0]),
                                        ts[k - 1], ts[k + 1], BISECT_TOL))
            if 0.0 < t0 < 1.0 and _kernel_of_crossing(path.at(t0)) is not None:
                found.append(t0)

    a, fa, b = (np.concatenate(col) for col in zip(*brackets))
    found += _bisect_together(a, fa, b, lambda t: _dets_minus_id(path, t))
    found.sort()
    merged: list[float] = []
    for t in found:
        if not merged or t - merged[-1] > 1e-8:
            merged.append(t)
    return [t for t in merged if 1e-9 < t < 1.0 - 1e-9]


def _crossings_at(path: SymplecticPath, ts, is_endpoint: bool) -> list[Crossing]:
    """Crossing form data at parameters where 1 is an eigenvalue.

    One evaluation of the path at t + 1e-6, t - 1e-6 (clamped to [0, 1])
    and t for every t gives Psi(t) and the crossing form, the symmetric
    part of -J0 Psi'(t) Psi(t)^-1 by central differences.  The kernel and
    the form's eigenvalues are then taken crossing by crossing, in order,
    so the first irregular crossing raises ``IrregularCrossingError``.
    """
    ts = np.asarray(ts, dtype=float)
    if not len(ts):
        return []
    t0, t1 = np.maximum(0.0, ts - 1e-6), np.minimum(1.0, ts + 1e-6)
    A1, A0, At = np.split(path.at_many(np.concatenate([t1, t0, ts])), 3)
    dPsi = (A1 - A0) / (t1 - t0)[:, None, None]
    M = -standard_j(path.n) @ dPsi @ np.linalg.inv(At)
    forms = 0.5 * (M + np.swapaxes(M, 1, 2))
    crossings = []
    for t, Psi, S in zip(ts, At, forms):
        V = _kernel_of_crossing(Psi)
        if V is None:
            raise IrregularCrossingError("no kernel at reported crossing t=%g" % t)
        Q = V.T @ S @ V
        w = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        reg = FORM_REG_TOL * max(1.0, float(np.max(np.abs(w))) if len(w) else 1.0)
        if np.any(np.abs(w) <= reg):
            raise IrregularCrossingError(
                "degenerate crossing form at t=%g (eigenvalues %s)" % (t, w)
            )
        sig = int(np.sum(w > 0) - np.sum(w < 0))
        crossings.append(Crossing(float(t), V.shape[1], sig, is_endpoint))
    return crossings


def _crossing_sum(path: SymplecticPath, ends=None) -> CrossingReport:
    """All crossings of the path, endpoints weighted 1/2; ``ends`` holds
    Psi(0) and Psi(1) when the caller has read them."""
    if ends is None:
        ends = path.at_many([0.0, 1.0])
    ends = [t for t, M in zip((0.0, 1.0), ends) if _kernel_of_crossing(M) is not None]
    crossings = _crossings_at(path, ends, True)
    crossings += _crossings_at(path, _locate_crossings(path), False)
    crossings.sort(key=lambda c: c.t)
    total2 = sum(c.signature if c.is_endpoint else 2 * c.signature for c in crossings)
    return CrossingReport(tuple(crossings), total2)


def _perturbed(path: SymplecticPath, delta: float) -> SymplecticPath:
    """Right-multiply the path by e^{-delta t J0} (regularizes crossings),
    on parameter stacks."""
    J = standard_j(path.n)
    eye = np.eye(path.dim)

    def rot(t):
        a = -delta * t
        return np.cos(a)[:, None, None] * eye + np.sin(a)[:, None, None] * J

    f = path.matrix_at
    call = None if f is None else _stacked(lambda t: f(t) @ rot(t))
    return SymplecticPath(path.ts.copy(), path.mats @ rot(path.ts), path.starts_at_identity,
                          False, path.tol, call)


def _crossing_sum_robust(path: SymplecticPath, ends=None) -> CrossingReport:
    try:
        return _crossing_sum(path, ends)
    except IrregularCrossingError:
        pass
    prev = None
    for delta in PERTURB_DELTAS:
        try:
            rep = _crossing_sum(_perturbed(path, delta))
        except IrregularCrossingError:
            prev = None
            continue
        if prev is not None and prev.total_doubled == rep.total_doubled:
            return rep
        prev = rep
    raise IrregularCrossingError(
        "crossing forms stayed irregular (or unstable) under the "
        "perturbation sequence"
    )


def endpoint_degeneracy(M: np.ndarray, tol: float) -> tuple[bool, float]:
    """(whether 1 is an eigenvalue of the endpoint M, sigma_min(M - I)): the
    one test of an endpoint against the Maslov cycle, sigma_min(M - I) <=
    max(tol, KERNEL_SVD_FACTOR) * max(1, ||M||_2)."""
    smin = float(np.linalg.svd(M - np.eye(len(M)), compute_uv=False)[-1])
    return smin <= max(tol, KERNEL_SVD_FACTOR) * _matrix_scale(M), smin


def _check_endpoint_nondegenerate(M: np.ndarray, tol: float):
    degenerate, smin = endpoint_degeneracy(M, tol)
    if degenerate:
        raise EndpointDegenerateError(
            "1 is an eigenvalue of the endpoint within tolerance "
            "(smallest singular value %.3e)" % smin
        )


def cz_rs(P: SymplecticPath, tol: float = 1e-9) -> IndexValue:
    """Conley-Zehnder index by crossing forms (reference algorithm, any n).

    Sum of crossing-form signatures over interior crossings plus half the
    start signature; the path must start at the identity and end off the
    Maslov cycle.
    """
    P.validate()
    if not P.starts_at_identity:
        raise InvalidPathError("Conley-Zehnder index needs an identity-based path")
    ends = P.at_many([0.0, 1.0])
    _check_endpoint_nondegenerate(ends[1], tol)
    rep = _crossing_sum_robust(P, ends)
    if rep.total_doubled % 2:
        raise ConvergenceError(
            "crossing sum %s is not an integer; crossings were missed"
            % Fraction(rep.total_doubled, 2)
        )
    return IndexValue(rep.total_doubled)


def rs_index(P: SymplecticPath) -> IndexValue:
    """Half-integer index for arbitrary endpoints (endpoint weight 1/2)."""
    P.validate()
    rep = _crossing_sum_robust(P)
    return IndexValue(rep.total_doubled)


def crossing_report(P: SymplecticPath) -> CrossingReport:
    return _crossing_sum_robust(P)


# ---------------------------------------------------------------------------
# winding-interval algorithm (n = 1)


def _sample_count(name: str, count) -> int:
    """``count`` if it is an integer >= 2, else a ParameterError."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 2:
        raise ParameterError("%s must be an integer >= 2, got %r" % (name, count))
    return int(count)


def _fan_directions(s_samples: int) -> np.ndarray:
    """Unit vectors v_s at angles 2 pi s, s on [0, 1/2): shape (s_samples, 2)."""
    ss = np.linspace(0.0, 0.5, s_samples, endpoint=False)
    return np.column_stack([np.cos(2 * np.pi * ss), np.sin(2 * np.pi * ss)])


def _fan_grids(P: SymplecticPath):
    """Path samples on time grids of 2^k (m - 1) + 1 points, m = max(513,
    len(P.ts)); the next grid is taken when the previous one was too coarse."""
    m = max(513, len(P.ts))
    for level in range(8):
        if level and P.matrix_at is None:
            raise ResolutionError("path too coarse for vector winding")
        yield P.at_many(np.linspace(0.0, 1.0, m))  # (m, 2, 2)
        m = 2 * m - 1
    raise ResolutionError("vector winding did not stabilize")


def _fan_sums(mats: np.ndarray, v0: np.ndarray) -> Optional[np.ndarray]:
    """Summed angular jumps (radians) of t -> Psi(t) v for every row v of
    ``v0``, or None if a jump is not below pi/2.

    The directions are worked through WINDING_BLOCK at a time; every
    direction's sum has the same bits in any block of two or more.
    """
    sums = []
    # near-equal blocks: a block of one direction would be summed in
    # another order (pairwise instead of row by row)
    for v in np.array_split(v0, -(-len(v0) // WINDING_BLOCK)):
        # Psi(t) v_s for every (t, s), written out so that the two
        # products are summed in a fixed order (a matmul may reorder them)
        x = mats[:, 0, 0, None] * v[:, 0]
        x += mats[:, 0, 1, None] * v[:, 1]
        y = mats[:, 1, 0, None] * v[:, 0]
        y += mats[:, 1, 1, None] * v[:, 1]
        ang = np.arctan2(y, x)
        jumps = np.angle(np.exp(1j * np.diff(ang, axis=0)))
        if not np.max(np.abs(jumps)) < 0.5 * np.pi:
            return None
        sums.append(np.sum(jumps, axis=0))
    return np.concatenate(sums)


def _windings_all_s(P: SymplecticPath, s_samples: int) -> np.ndarray:
    """Winding (in turns) of t -> Psi(t) v_s for a whole fan of unit vectors.

    Antipodal vectors wind equally, so s runs over half the circle.
    Refines the time grid until every angular jump is below pi/2.  This
    is the full fan: the reference for ``winding_interval`` and what it
    computes on a grid that fails the turning certificate.
    """
    v0 = _fan_directions(s_samples)
    for mats in _fan_grids(P):
        sums = _fan_sums(mats, v0)
        if sums is not None:
            return sums / (2.0 * np.pi)


def _turns_certified(mats: np.ndarray) -> bool:
    """Whether every direction turns by less than 60 degrees on every step
    of the grid, with the fan's rounding far inside WINDING_TOL.

    With M_k = Psi(t_{k+1}) adj Psi(t_k), a positive multiple of
    Psi(t_{k+1}) Psi(t_k)^-1 when det Psi(t_k) > 0, the angle from u to
    M_k u is at most arccos(lambda_min(sym M_k) / |M_k|_F), so
    lambda_min > |M_k|_F / 2 bounds the turn by 60 degrees.  A computed
    angle of Psi v is within about 4 eps |Psi|_F^2 / det Psi of the exact
    one, and summing m jumps adds m eps times their total size: together
    a first-order bound on the rounding of every fan sum and of the
    end-angle estimate.  NaN steps fail every comparison.
    """
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    det = a * d - b * c
    m00 = a[1:] * d[:-1] - b[1:] * c[:-1]
    m01 = b[1:] * a[:-1] - a[1:] * b[:-1]
    m10 = c[1:] * d[:-1] - d[1:] * c[:-1]
    m11 = d[1:] * a[:-1] - c[1:] * b[:-1]
    lam_min = 0.5 * (m00 + m11) - np.hypot(0.5 * (m00 - m11), 0.5 * (m01 + m10))
    fro = np.sqrt(m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
    if not (np.all(det > 0.0) and np.all(lam_min > 0.5 * fro)):
        return False
    cond = np.sum((a * a + b * b + c * c + d * d) / det)
    turns = np.sum(np.arccos(np.minimum(lam_min / fro, 1.0)))
    err = np.finfo(float).eps * (32.0 * cond + len(mats) * turns)
    # the extreme directions are found if err is below WINDING_TOL / 4
    return bool(err < 0.5 * np.pi * WINDING_TOL)


def _extreme_directions(mats: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Indices of the directions whose winding is within WINDING_TOL of the
    fan's least or greatest, estimated from the grid's ends.

    On a certified grid the winding is continuous in s and equals a
    constant plus Lambda_1(s) - Lambda_0(s), the lifts in s of the angles
    of Psi(1) v_s and Psi(0) v_s.
    """
    ends = mats[[0, -1]]
    x = ends[:, 0, 0, None] * v0[:, 0] + ends[:, 0, 1, None] * v0[:, 1]
    y = ends[:, 1, 0, None] * v0[:, 0] + ends[:, 1, 1, None] * v0[:, 1]
    lift = np.unwrap(np.arctan2(y, x), axis=1)
    est = lift[1] - lift[0]
    tol = 2.0 * np.pi * WINDING_TOL
    return np.flatnonzero((est <= est.min() + tol) | (est >= est.max() - tol))


def winding_interval(P: SymplecticPath, s_samples: int = 1024) -> tuple[float, float]:
    """Least and greatest winding (in turns) over the fan of ``s_samples``
    directions: the min and max of ``_windings_all_s(P, s_samples)``, bit
    for bit.

    On each time grid of the fan a certificate (``_turns_certified``)
    checks that every direction turns by less than 60 degrees per step and
    that the grid is well conditioned.  Then the fan would stop at this
    grid and its windings are continuous in s, so the lift of the grid's
    end angles locates the extreme directions to within rounding
    (``_extreme_directions``), and the fan's own block kernel sums just
    those, in a block of two or more directions.  Each direction's sum
    does not depend on which other directions share its block, so the
    result keeps the full fan's bits.  A grid that fails the certificate
    (NaN, fast-turning or ill-conditioned steps) runs the full fan.
    """
    v0 = _fan_directions(_sample_count("s_samples", s_samples))
    for mats in _fan_grids(P):
        if _turns_certified(mats):
            v = v0[_extreme_directions(mats, v0)]
        else:
            v = v0
        sums = _fan_sums(mats, v)
        if sums is not None:
            vals = sums / (2.0 * np.pi)
            return float(np.min(vals)), float(np.max(vals))


def cz_winding(P: SymplecticPath) -> tuple[IndexValue, WindingInterval]:
    """Winding-interval Conley-Zehnder index; Sp(2) only."""
    P.validate()
    if P.n != 1:
        raise DimensionError("winding-interval algorithm is Sp(2) only")
    if not P.starts_at_identity:
        raise InvalidPathError("needs an identity-based path")
    _check_endpoint_nondegenerate(P.at(1.0), 1e-9)
    lo, hi = winding_interval(P)
    if hi - lo >= 0.5:
        raise ConvergenceError(
            "winding interval [%.6f, %.6f] has length >= 1/2" % (lo, hi)
        )
    for v in (lo, hi):
        if abs(v - round(v)) < 1e-6:
            raise EndpointDegenerateError(
                "winding interval boundary %.8f touches an integer" % v
            )
    c = int(np.ceil(lo))
    if c < hi:  # an integer lies in the interior (at most one: length < 1/2)
        mu = 2 * c
    else:  # interval contained in (floor(lo), floor(lo) + 1)
        mu = 2 * int(np.floor(lo)) + 1
    return IndexValue(2 * mu), WindingInterval(lo, hi, mu)


# ---------------------------------------------------------------------------
# extension-degree algorithm (n = 1)


def _rotations_sp2(phi: np.ndarray) -> np.ndarray:
    """The rotations by the angles ``phi`` (m,), shape (m, 2, 2)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _spd_powers(w: np.ndarray, Q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Q diag(w^c_i) Q^T for every exponent c_i: the powers of the positive
    definite Q diag(w) Q^T, shape (len(c), 2, 2)."""
    return (Q * w ** c[:, None, None]) @ Q.T


def _extension_path_sp2(V: np.ndarray, samples: int) -> SymplecticPath:
    """Path in Sp(2)* from V to the normal form W+ or W- of its component.

    Both branches move along the powers of a positive definite matrix,
    taken in closed form from its eigendecomposition.
    """
    d = float(np.linalg.det(V - np.eye(2)))
    if d > 0.0:
        # elliptic or negative hyperbolic: polar-shrink to a rotation,
        # then rotate the angle to pi inside (0, 2 pi)
        w, Q = np.linalg.eigh(V @ V.T)

        def shrink(u):
            return _spd_powers(w, Q, -0.5 * u) @ V

        U = shrink(np.ones(1))[0]
        phi0 = float(np.angle(rho(U))) % (2.0 * np.pi)
        if phi0 < 1e-8 or phi0 > 2.0 * np.pi - 1e-8:
            raise ExtensionError("retracted endpoint lies on the Maslov cycle")

        def turn(u):
            return _rotations_sp2((2.0 - 2.0 * u) * phi0 + (2.0 * u - 1.0) * np.pi)

        call = _stacked(lambda u: _piecewise(u, u <= 0.5, lambda v: shrink(2.0 * v), turn, 2))

    else:
        # positive hyperbolic: conjugated eigenvalue interpolation to W-
        w, X = np.linalg.eig(V)
        lam = float(np.max(w.real))
        if lam <= 1.0:
            raise ExtensionError("endpoint not positive hyperbolic")
        u_vec = np.real(X[:, int(np.argmax(w.real))])
        v_vec = np.real(X[:, int(np.argmin(w.real))])
        det = u_vec[0] * v_vec[1] - u_vec[1] * v_vec[0]
        if abs(det) < 1e-12:
            raise ExtensionError("eigenbasis degenerate")
        v_vec = v_vec / det  # now det [u | v] = 1, so the basis is in Sp(2)
        T = np.column_stack([u_vec, v_vec])
        # polar data of T for the basis shrink T(u) -> I inside SL(2)
        wP, Q = np.linalg.eigh(T @ T.T)
        R = np.linalg.solve(
            (Q * np.sqrt(wP)) @ Q.T, T
        )  # rotation part, det +1
        alpha = float(np.arctan2(R[1, 0], R[0, 0]))

        @_stacked
        def call(u):
            lam_u = np.exp((1.0 - u) * np.log(lam) + u * np.log(2.0))
            D = np.zeros((len(u), 2, 2))
            D[:, 0, 0], D[:, 1, 1] = lam_u, 1.0 / lam_u
            # T = P^{1/2} R, so Tu runs from T at u = 0 to I at u = 1
            Tu = _spd_powers(wP, Q, 0.5 * (1.0 - u)) @ _rotations_sp2((1.0 - u) * alpha)
            return Tu @ D @ np.linalg.inv(Tu)

    ts = np.linspace(0.0, 1.0, samples)
    mats = call(ts)
    return SymplecticPath(ts, mats, False, False, 1e-7, call)


def cz_degree_sp2(P: SymplecticPath, ext_samples: int = 257) -> IndexValue:
    """Conley-Zehnder index via extension to a normal form; Sp(2) only.

    Extends the path inside the endpoint's nondegenerate component to
    W+ = -I or W- = diag(2, 1/2) and returns the degree of rho^2 along
    the extended path.  The extension is verified post hoc to keep
    det(Psi(t) - I) away from zero, on ``ext_samples`` samples (an
    integer >= 2) and then on four times as many.
    """
    ext_samples = _sample_count("ext_samples", ext_samples)
    P.validate()
    if P.n != 1:
        raise DimensionError("extension-degree algorithm is Sp(2) only")
    if not P.starts_at_identity:
        raise InvalidPathError("needs an identity-based path")
    V = P.at(1.0)
    _check_endpoint_nondegenerate(V, 1e-9)
    sign0 = np.sign(np.linalg.det(V - np.eye(2)))
    for samples in (ext_samples, 4 * ext_samples):
        ext = _extension_path_sp2(V, samples)
        dets = np.linalg.det(ext.mats - np.eye(2))
        if np.all(np.sign(dets) == sign0):
            break
    else:
        raise ExtensionError(
            "extension path crossed the Maslov cycle at every refinement"
        )
    full = P.concatenate(ext)
    _, phases = _unwrapped_phases(full)
    deg = (phases[-1] - phases[0]) / np.pi  # degree of rho^2
    k = int(np.round(deg))
    if abs(deg - k) > 1e-5:
        raise ResolutionError("rho^2 degree %.8f is not an integer" % deg)
    return IndexValue(2 * k)


# ---------------------------------------------------------------------------
# spectral flow


def spectral_flow_matrix(A: SymmetricFamily) -> int:
    """Spectral flow of a family of symmetric matrices over s in [0, 1].

    The difference n_-(A(0)) - n_-(A(1)) of negative-eigenvalue counts
    (Robbin-Salamon, "The spectral flow and the Maslov index", Bull. LMS
    27 (1995), section 4); a singular end raises EndpointDegenerateError.
    """
    A.validate()
    ends = np.linalg.eigvalsh(A.at_many([A.ts[0], A.ts[-1]]))
    for s, w in zip((A.ts[0], A.ts[-1]), ends):
        if np.min(np.abs(w)) <= 1e-9 * max(1.0, np.max(np.abs(w))):
            raise EndpointDegenerateError("family endpoint at s=%g is singular" % s)
    return int(np.sum(ends[0] < 0.0) - np.sum(ends[1] < 0.0))


# ---------------------------------------------------------------------------
# loop-operator spectral flow


@lru_cache(maxsize=8)
def _gram_tables(cutoff: int, grid: int):
    """Read-only tables with (1/grid) sum_t s phi_a phi_b = c1 x[i1] + c2 x[i2].

    x = (c_0 .. c_{grid-1}, d_0 .. d_{grid-1}) holds the means of s cos and
    s sin (2 pi m t) on the grid, and the product-to-sum identities give
    cos_k cos_l = c_{k-l} + c_{k+l}, sin_k sin_l = c_{k-l} - c_{k+l},
    cos_k sin_l = d_{k+l} + d_{l-k}, 1 cos_l = sqrt2 c_l, 1 sin_l = sqrt2 d_l,
    indices mod grid: exact on the grid, so a coarse grid aliases as the
    direct sum does.  c is even and read at |k - l|: the tables are symmetric.
    """
    nb = 2 * cutoff + 1
    i1 = np.zeros((nb, nb), dtype=np.intp)
    i2 = np.zeros((nb, nb), dtype=np.intp)
    c1 = np.ones((nb, nb))
    c2 = np.ones((nb, nb))
    k = np.arange(1, cutoff + 1)
    kk, ll = k[:, None], k[None, :]
    diff, plus = (kk - ll) % grid, (kk + ll) % grid
    cos, sin = slice(1, None, 2), slice(2, None, 2)
    i1[cos, cos] = i1[sin, sin] = abs(kk - ll) % grid
    i2[cos, cos] = i2[sin, sin] = plus
    c2[sin, sin] = -1.0
    i1[cos, sin] = i1[sin, cos] = grid + plus
    i2[cos, sin] = diff.T + grid
    i2[sin, cos] = diff + grid
    # constant row and column: one term
    i1[0, cos] = i1[cos, 0] = k % grid
    i1[0, sin] = i1[sin, 0] = grid + k % grid
    c1[0, 1:] = c1[1:, 0] = np.sqrt(2.0)
    c2[0, :] = c2[:, 0] = 0.0
    for table in (i1, i2, c1, c2):
        table.setflags(write=False)
    return i1, i2, c1, c2


def truncated_loop_operator(S_slice: SymmetricFamily, cutoff: int,
                            grid: int | None = None) -> np.ndarray:
    """Matrix of -J0 d/dt - S(t) in the truncated real Fourier basis.

    Row a*dim + i is basis function a of [1, cos 1, sin 1, ...], component
    i.  The S term comes from one FFT of the symmetric part of S on
    ``grid`` points (default max(256, 8K)), so on one grid the cutoff-K
    matrix is bit for bit the leading block of any larger cutoff's.
    """
    dim = S_slice.dim
    if grid is None:
        grid = max(256, 8 * cutoff)
    nb = 2 * cutoff + 1
    i1, i2, c1, c2 = _gram_tables(cutoff, grid)
    Svals = S_slice.at_many(np.arange(grid) / grid)
    F = np.fft.fft(0.5 * (Svals + np.transpose(Svals, (0, 2, 1))), axis=0) / grid
    # x[i, j] = (c_0 .. c_{grid-1}, d_0 .. d_{grid-1}) of the weight s_ij
    x = np.concatenate([F.real, -F.imag]).transpose(1, 2, 0).copy()
    # -J0 d/dt: <cos_k, sin_k'> = 2 pi k = -<sin_k, cos_k'>
    M = np.zeros((nb * dim, nb * dim))
    blocks = M.reshape(nb, dim, nb, dim)
    c = np.arange(1, nb, 2)  # cos_k, followed by sin_k
    wJ = (np.pi * (c + 1))[:, None, None] * standard_j(dim // 2)
    blocks[c, :, c + 1, :] = -wJ
    blocks[c + 1, :, c, :] = wJ
    # one (i, j) block per upper pair, gathered on its own: the lower
    # blocks mirror the upper ones
    for i in range(dim):
        for j in range(i, dim):
            block = c1 * x[i, j, i1] + c2 * x[i, j, i2]
            M[i::dim, j::dim] -= block
            if j != i:
                M[j::dim, i::dim] -= block
    return M


def loop_operator_spectral_flow(S: SymmetricFamily2, fourier_cutoff: int) -> int:
    """Spectral flow of s -> -J0 d/dt - S(s, .), Fourier-truncated.

    Equal (after the fixed sign calibration) to CZ(Psi^0) - CZ(Psi^1)
    where Psi^s solves the linear system generated by S(s, .); computed as
    n_-(end 0) - n_-(end 1).  Each end is assembled once, at cutoff 2K on
    the grid max(256, 16K), and the cutoff-K operator is its leading
    block.  The value must agree between the two cutoffs.
    """
    if fourier_cutoff < 1:
        raise ParameterError("cutoff must be positive")
    ends = (S.ss[0], S.ss[-1])
    ops = [truncated_loop_operator(S.slice_at(s), 2 * fourier_cutoff) for s in ends]
    vals = []
    for K in (fourier_cutoff, 2 * fourier_cutoff):
        size = (2 * K + 1) * S.dim
        flows = []
        for s, A in zip(ends, ops):
            w = np.linalg.eigvalsh(A[:size, :size])
            if np.min(np.abs(w)) <= 1e-8 * max(1.0, np.max(np.abs(w))):
                raise EndpointDegenerateError(
                    "truncated loop operator singular at s=%g" % s
                )
            flows.append(int(np.sum(w < 0)))
        vals.append(flows[0] - flows[1])
    if vals[0] != vals[1]:
        raise ConvergenceError(
            "spectral flow changed across cutoffs %d -> %d: %s"
            % (fourier_cutoff, 2 * fourier_cutoff, vals)
        )
    return LOOP_SF_CALIBRATION * vals[0]
