"""Symplectic linear algebra over R^{2n}.

Conventions fixed once for the whole library:

* coordinates are ordered (x, y) = (x_1..x_n, y_1..y_n);
* the standard complex structure is the block matrix
  J0 = [[0, -I], [I, 0]], so e^{theta J0} rotates counter-clockwise
  in each (x_j, y_j) plane;
* the bilinear form used for the eigenvalue-kind label is
  omega0(u, v) = u . (J0 v), normalized so that the first-kind
  eigenvalue of a counter-clockwise rotation by theta in (0, pi)
  is e^{i theta} (upper half plane).

Default tolerances: 1e-9 for algebraic identities, 1e-6 for ODE
round-trips.  Every operation accepts an explicit ``tol``.

Paths and families are evaluated on stacks: ``at_many(ts)`` returns one
matrix per parameter, shape (m, dim, dim), from the exact evaluator
``matrix_at`` when there is one and otherwise from one piecewise-linear
interpolator shared by ``SymplecticPath`` and ``SymmetricFamily``; ``at(t)``
is the one-parameter case.  ``rho`` and ``symplecticity_residual`` take
a single matrix or a stack (..., 2n, 2n).

The evaluators the library builds run on stacks: given a parameter array
of shape (m,) they return (m, dim, dim), and given a float one matrix, so
``at_many`` calls them once.  An evaluator supplied by the user is scalar
(one parameter, one matrix) and is called once per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AmbiguousClassificationError,
    DimensionError,
    InvalidPathError,
    NotSymplecticError,
    ParameterError,
)

ALGEBRA_TOL = 1e-9
ODE_TOL = 1e-6

# guard band around classification boundaries: eigenvalues between tol
# and GUARD*tol of a boundary are rejected instead of silently resolved
GUARD = 100.0


def standard_j(n: int) -> np.ndarray:
    """The matrix J0 = [[0, -I], [I, 0]] of half-dimension n."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _half_side(M: np.ndarray) -> int:
    """n for a matrix or stack (..., 2n, 2n); DimensionError for any other shape."""
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError("expected a square matrix, got shape %s" % (M.shape,))
    if M.shape[-1] % 2:
        raise DimensionError("symplectic matrices have even side, got %d" % M.shape[-1])
    return M.shape[-1] // 2


def symplecticity_residual(M: np.ndarray) -> float:
    """max-norm of M^T J0 M - J0, over every matrix of a stack (..., 2n, 2n)."""
    M = np.asarray(M, dtype=float)
    J = standard_j(_half_side(M))
    return float(np.max(np.abs(np.swapaxes(M, -1, -2) @ J @ M - J)))


def is_symplectic(M: np.ndarray, tol: float = ALGEBRA_TOL) -> bool:
    """True iff ||M^T J0 M - J0||_max <= tol."""
    return symplecticity_residual(M) <= tol


@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated element of Sp(2n)."""

    mat: np.ndarray
    tol: float = ALGEBRA_TOL

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        object.__setattr__(self, "mat", mat)
        res = symplecticity_residual(mat)
        if res > self.tol:
            raise NotSymplecticError(
                "symplecticity residual %.3e exceeds tol %.3e" % (res, self.tol)
            )
        det = float(np.linalg.det(mat))
        if abs(det - 1.0) > max(self.tol, 1e3 * self.tol * mat.shape[0]):
            raise NotSymplecticError("det = %.12f is not 1 within tol" % det)

    @property
    def n(self) -> int:
        return self.mat.shape[0] // 2


def _as_matrix(M) -> np.ndarray:
    if isinstance(M, SymplecticMatrix):
        return M.mat
    return np.asarray(M, dtype=float)


def rho(M):
    """The circle-valued map: the phase of det(X + iY), where
    [[X, -Y], [Y, X]] = (M - J0 M J0) / 2 is the complex-linear part of M.

    For the polar split M = P U of a symplectic M this part is
    (P + P^-1)/2 U, whose Hermitian factor has every eigenvalue >= 1: the
    phase is det_C(U) and |det(X + iY)| >= 1, with no factorization.  A
    modulus below 1/2 or not finite raises ``NotSymplecticError``.  A
    complex number for one matrix, an array of them for a stack.
    """
    M = _as_matrix(M)
    n = _half_side(M)  # M = [[A, B], [C, D]]: X = (A + D)/2, Y = (C - B)/2
    A, B = M[..., :n, :n], M[..., :n, n:]
    C, D = M[..., n:, :n], M[..., n:, n:]
    with np.errstate(invalid="ignore"):  # a NaN entry raises below instead
        val = np.linalg.det(0.5 * (A + D) + 0.5j * (C - B))
    mag = np.abs(val)
    bad = np.flatnonzero(~(np.isfinite(mag) & (mag >= 0.5)))
    if len(bad):
        raise NotSymplecticError("|det(X + iY)| = %.6g, where a symplectic M has >= 1"
                                 % np.ravel(mag)[bad[0]])
    # divide the parts separately: the complex-by-real division rounds
    # differently from a real division
    out = val.real / mag + 1j * (val.imag / mag)
    return complex(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# eigenvalue classification


@dataclass(frozen=True)
class SpectrumGroup:
    kind: str  # positive-hyperbolic-pair | negative-hyperbolic-pair |
    #            elliptic-pair | quadruple | unit-root
    members: tuple[complex, ...]
    first_kind: Optional[complex] = None  # for elliptic pairs


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[complex, ...]
    groups: tuple[SpectrumGroup, ...]


def _guard(value: float, tol: float, what: str, offenders):
    if tol < value <= GUARD * tol:
        raise AmbiguousClassificationError(
            "eigenvalue within the guard band of the %s boundary "
            "(distance %.3e, tol %.3e)" % (what, value, tol),
            offenders,
        )


def classify_eigenvalues(M, tol: float = ALGEBRA_TOL) -> SpectrumReport:
    """Group the spectrum of a symplectic matrix.

    Groups: positive/negative hyperbolic pairs {lam, 1/lam}, elliptic
    pairs on the unit circle, generic quadruples, and unit roots +-1
    (which occur with even multiplicity).  For each elliptic pair the
    member with Im omega0(conj xi, xi) > 0 is labeled first kind.
    """
    M = _as_matrix(M)
    if M.shape[0] % 2:
        raise DimensionError("odd dimension")
    J = standard_j(M.shape[0] // 2)
    vals, vecs = np.linalg.eig(M)
    for lam in vals:
        _guard(abs(abs(lam) - 1.0), tol, "unit-circle", [lam])
        for root in (1.0, -1.0):
            _guard(abs(lam - root), tol, "root %+g" % root, [lam])

    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    used = np.zeros(len(vals), dtype=bool)
    groups: list[SpectrumGroup] = []

    def _claim(target: complex) -> int:
        free = np.where(~used)[0]
        if not len(free):
            raise AmbiguousClassificationError(
                "spectrum not closed under inversion/conjugation", [target]
            )
        dist = np.abs(vals[free] - target)
        j = free[int(np.argmin(dist))]
        if dist.min() > max(GUARD * tol, 1e-6 * max(1.0, abs(target))):
            raise AmbiguousClassificationError(
                "no partner for eigenvalue near %s" % target, [target]
            )
        used[j] = True
        return j

    for i in range(len(vals)):
        if used[i]:
            continue
        lam = vals[i]
        used[i] = True
        on_circle = abs(abs(lam) - 1.0) <= tol
        real = abs(lam.imag) <= tol
        if real and on_circle:
            root = 1.0 if lam.real > 0 else -1.0
            j = _claim(root)
            groups.append(SpectrumGroup("unit-root", (complex(lam), complex(vals[j]))))
        elif real:
            j = _claim(1.0 / lam.real)
            kind = "positive-hyperbolic-pair" if lam.real > 0 else "negative-hyperbolic-pair"
            groups.append(SpectrumGroup(kind, (complex(lam), complex(vals[j]))))
        elif on_circle:
            j = _claim(np.conj(lam))
            xi = vecs[:, i]
            kr = complex(np.conj(xi) @ (J @ xi)).imag
            if abs(kr) <= tol:
                raise AmbiguousClassificationError(
                    "degenerate kind form on elliptic pair", [lam]
                )
            first = complex(lam) if kr > 0 else complex(vals[j])
            groups.append(
                SpectrumGroup("elliptic-pair", (complex(lam), complex(vals[j])), first)
            )
        else:
            j1 = _claim(np.conj(lam))
            j2 = _claim(1.0 / lam)
            j3 = _claim(1.0 / np.conj(lam))
            groups.append(
                SpectrumGroup(
                    "quadruple",
                    (complex(lam), complex(vals[j1]), complex(vals[j2]), complex(vals[j3])),
                )
            )
    return SpectrumReport(tuple(complex(v) for v in vals), tuple(groups))


# ---------------------------------------------------------------------------
# paths and symmetric families


@dataclass
class SymplecticPath:
    """Discretized path [0,1] -> Sp(2n).

    ``mats[k]`` is the sample at parameter ``ts[k]``.  An optional exact
    evaluator ``matrix_at`` enables grid refinement (degree computations,
    crossing bisection); without it, evaluation between samples falls
    back to linear interpolation of entries.  Evaluators built by the
    library take a parameter stack (m,) to (m, 2n, 2n) as well as a float
    to one matrix, and ``at_many`` calls them once; a user evaluator maps
    one float to one matrix and is called once per parameter.
    """

    ts: np.ndarray
    mats: np.ndarray
    starts_at_identity: bool = False
    closed: bool = False
    tol: float = ALGEBRA_TOL
    matrix_at: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise InvalidPathError("samples must be a stack of square matrices")
        if self.mats.shape[1] % 2:
            raise DimensionError("odd matrix dimension")
        if len(self.ts) != len(self.mats):
            raise InvalidPathError("grid and sample counts differ")

    @property
    def n(self) -> int:
        return self.mats.shape[1] // 2

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def validate(self, tol: float | None = None, check_samples: bool = True):
        tol = self.tol if tol is None else tol
        if len(self.ts) < 2 or self.ts[0] != 0.0 or self.ts[-1] != 1.0:
            raise InvalidPathError("parameter grid must run from 0 to 1")
        if np.any(np.diff(self.ts) <= 0):
            raise InvalidPathError("parameter grid must be strictly increasing")
        if check_samples:
            worst = symplecticity_residual(self.mats)
            if worst > tol:
                raise NotSymplecticError(
                    "worst sample symplecticity residual %.3e > tol %.3e" % (worst, tol)
                )
        if self.starts_at_identity:
            if np.max(np.abs(self.mats[0] - np.eye(self.dim))) > max(tol, 1e-7):
                raise InvalidPathError("path flagged as identity-start but is not")
        if self.closed:
            if np.max(np.abs(self.mats[-1] - self.mats[0])) > max(tol, 1e-7):
                raise InvalidPathError("path flagged as closed but endpoints differ")
        return self

    def at(self, t: float) -> np.ndarray:
        """Evaluate at parameter t, exactly if possible."""
        if self.matrix_at is not None:
            return np.asarray(self.matrix_at(float(t)), dtype=float)
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        """Evaluate at every parameter of ``ts``; returns shape (m, 2n, 2n)."""
        return _sample(self.matrix_at, self.ts, self.mats, ts)

    def endpoint(self) -> np.ndarray:
        return self.mats[-1]

    # ---- path algebra (pointwise) ----

    def product(self, other: "SymplecticPath") -> "SymplecticPath":
        """Pointwise matrix product t -> self(t) other(t)."""
        return _pointwise(np.matmul, (self, other),
                          self.starts_at_identity and other.starts_at_identity,
                          self.closed and other.closed)

    def inverse(self) -> "SymplecticPath":
        return _pointwise(np.linalg.inv, (self,), self.starts_at_identity, self.closed,
                          ts=self.ts, samples=(self.mats,))

    def conjugate_by(self, theta: "SymplecticPath") -> "SymplecticPath":
        """t -> Theta(t) self(t) Theta(t)^{-1}."""
        return _pointwise(lambda a, th: th @ a @ np.linalg.inv(th), (self, theta),
                          self.starts_at_identity, self.closed)

    def direct_sum(self, other: "SymplecticPath") -> "SymplecticPath":
        n1, n2 = self.n, other.n
        # interleave so the (x, y) split of the sum is preserved
        ix1 = np.r_[0:n1, n1 + n2:2 * n1 + n2][:, None]
        ix2 = np.r_[n1:n1 + n2, 2 * n1 + n2:2 * (n1 + n2)][:, None]

        def block(a, b):
            m = np.zeros((len(a), 2 * (n1 + n2), 2 * (n1 + n2)))
            m[:, ix1, ix1.T] = a
            m[:, ix2, ix2.T] = b
            return m

        return _pointwise(block, (self, other),
                          self.starts_at_identity and other.starts_at_identity,
                          self.closed and other.closed)

    def concatenate(self, other: "SymplecticPath") -> "SymplecticPath":
        """Traverse self on [0, 1/2] and other on [1/2, 1]."""
        ts = np.concatenate([0.5 * self.ts, 0.5 + 0.5 * other.ts[1:]])
        mats = np.concatenate([self.mats, other.mats[1:]])
        fa, fb = self.matrix_at, other.matrix_at
        call = None
        if _is_stacked(fa) and _is_stacked(fb):
            call = _stacked(lambda t: _piecewise(t, t <= 0.5, lambda u: fa(2.0 * u),
                                                 lambda u: fb(2.0 * u - 1.0), self.dim))
        elif fa is not None and fb is not None:
            call = lambda t: (
                np.asarray(fa(2.0 * t)) if t <= 0.5 else np.asarray(fb(2.0 * t - 1.0))
            )
        return SymplecticPath(
            ts, mats, self.starts_at_identity, False, max(self.tol, other.tol), call
        )

    def reparametrize(self, phi: Callable[[float], float], samples: int = 0) -> "SymplecticPath":
        """Precompose with a map phi: [0,1] -> [0,1]."""
        ts = self.ts if not samples else np.linspace(0.0, 1.0, samples)
        return _pointwise(lambda a: a, (self,), self.starts_at_identity, self.closed,
                          ts=ts, phi=phi)


def _stacked(fn):
    """Mark ``fn``, written for a parameter stack (m,) -> (m, d, d), as a
    library evaluator; given a float, the evaluator returns one (d, d)
    matrix, the row of a one-parameter stack."""

    def evaluate(t):
        if np.ndim(t):
            return fn(np.asarray(t, dtype=float))
        return fn(np.array([float(t)]))[0]

    evaluate._stacked = True
    return evaluate


def _is_stacked(matrix_at) -> bool:
    return getattr(matrix_at, "_stacked", False)


def _piecewise(t: np.ndarray, first: np.ndarray, f, g, dim: int) -> np.ndarray:
    """Stack (m, dim, dim) with rows f(t[first]) where ``first`` holds and
    g(t[~first]) elsewhere; each piece is called only on a non-empty part."""
    out = np.empty((len(t), dim, dim))
    for mask, fn in ((first, f), (~first, g)):
        if np.any(mask):
            out[mask] = fn(t[mask])
    return out


def _sample(matrix_at, grid: np.ndarray, mats: np.ndarray, ts) -> np.ndarray:
    """Stack of values at ``ts``: the exact evaluator if any, else interpolation.

    A library evaluator gets the whole stack in one call, a user evaluator
    one parameter at a time.  The piecewise-linear interpolation of the
    samples ``mats`` on ``grid`` clamps parameters to the grid's ends and
    uses the same formula for every parameter, so one row equals a
    one-parameter call.
    """
    if _is_stacked(matrix_at):
        return np.asarray(matrix_at(np.asarray(ts, dtype=float)), dtype=float)
    if matrix_at is not None:
        return np.stack([np.asarray(matrix_at(float(t)), dtype=float) for t in ts])
    k, w = _bracket(grid, ts)
    return (1.0 - w[:, None, None]) * mats[k] + w[:, None, None] * mats[k + 1]


def _bracket(grid: np.ndarray, ts):
    """Cell k (grid[k] <= t <= grid[k + 1], ends clamped) and weight of each t."""
    t = np.clip(np.asarray(ts, dtype=float), grid[0], grid[-1])
    k = np.minimum(np.maximum(np.searchsorted(grid, t, side="right") - 1, 0), len(grid) - 2)
    t0, t1 = grid[k], grid[k + 1]
    return k, np.divide(t - t0, t1 - t0, out=np.zeros_like(t), where=t1 != t0)


def _pointwise(fn, paths, starts_at_identity: bool, closed: bool,
               ts=None, samples=None, phi=None) -> SymplecticPath:
    """The path t -> fn(P1(phi(t)), P2(phi(t)), ...) for a map ``fn`` on stacks.

    Sampled on ``ts`` (default: the union of the source grids) through
    ``at_many``, unless ``samples`` holds the sources' stacks on ``ts``.
    The result has an exact evaluator only when every source has one; it
    runs on stacks when every source's does and there is no ``phi``.
    """
    if ts is None:
        ts = reduce(np.union1d, [P.ts for P in paths])
    if samples is None:
        at = ts if phi is None else [phi(t) for t in ts]
        samples = [P.at_many(at) for P in paths]
    calls = [P.matrix_at for P in paths]
    call = None
    if phi is None and all(_is_stacked(f) for f in calls):

        @_stacked
        def call(t):
            return fn(*(f(t) for f in calls))

    elif all(f is not None for f in calls):
        phi = phi or (lambda t: t)

        def call(t):
            return fn(*(np.asarray(f(phi(t)), dtype=float)[None] for f in calls))[0]

    return SymplecticPath(ts, fn(*samples), starts_at_identity, closed,
                          max(P.tol for P in paths), call)


def rotation_path(n: int, theta: float, samples: int = 257) -> SymplecticPath:
    """t -> e^{t theta J0} in Sp(2n), sampled on a uniform grid."""
    J = standard_j(n)

    @_stacked
    def call(t):
        c, s = np.cos(theta * t), np.sin(theta * t)
        return c[:, None, None] * np.eye(2 * n) + s[:, None, None] * J

    ts = np.linspace(0.0, 1.0, samples)
    mats = call(ts)
    closed = abs(theta % (2 * np.pi)) < 1e-12 or abs(theta % (2 * np.pi) - 2 * np.pi) < 1e-12
    return SymplecticPath(ts, mats, True, closed, ALGEBRA_TOL, call)


def exp_path(S: np.ndarray, samples: int = 257) -> SymplecticPath:
    """t -> e^{t J0 S} for a constant symmetric S."""
    from scipy.linalg import expm

    S = np.asarray(S, dtype=float)
    n = S.shape[0] // 2
    A = standard_j(n) @ S
    call = _stacked(lambda t: expm(t[:, None, None] * A))
    ts = np.linspace(0.0, 1.0, samples)
    mats = call(ts)
    return SymplecticPath(ts, mats, True, False, ALGEBRA_TOL, call)


def constant_path(M: np.ndarray, samples: int = 2) -> SymplecticPath:
    M = _as_matrix(M)
    ts = np.linspace(0.0, 1.0, samples)
    call = _stacked(lambda t: np.repeat(M[None], len(t), axis=0))
    return SymplecticPath(ts, call(ts), bool(np.allclose(M, np.eye(len(M)))), True,
                          ALGEBRA_TOL, call)


@dataclass
class SymmetricFamily:
    """Sampled family S(t) of symmetric matrices on a monotone grid.

    The optional exact evaluator ``matrix_at`` follows the contract of
    ``SymplecticPath``: a library evaluator runs on a parameter stack and
    on a float, a user evaluator on one float per call.  For
    two-parameter families S(s, t) see ``SymmetricFamily2``.
    """

    ts: np.ndarray
    mats: np.ndarray
    tol: float = ALGEBRA_TOL
    matrix_at: Optional[Callable[[float], np.ndarray]] = None
    asymmetry: float = 0.0

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.mats = np.asarray(self.mats, dtype=float)
        if np.any(np.diff(self.ts) <= 0):
            raise ParameterError("grid must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def validate(self, tol: float | None = None):
        tol = self.tol if tol is None else tol
        worst = float(np.max(np.abs(self.mats - np.transpose(self.mats, (0, 2, 1)))))
        if worst > max(tol, 1e-7):
            raise ParameterError("family matrices not symmetric: residual %.3e" % worst)
        return self

    def at(self, t: float) -> np.ndarray:
        if self.matrix_at is not None:
            return np.asarray(self.matrix_at(float(t)), dtype=float)
        return self.at_many([t])[0]

    def at_many(self, ts) -> np.ndarray:
        """Evaluate at every parameter of ``ts``; returns shape (m, dim, dim)."""
        return _sample(self.matrix_at, self.ts, self.mats, ts)


@dataclass
class SymmetricFamily2:
    """Two-parameter family S(s, t): one SymmetricFamily in t per s value."""

    ss: np.ndarray
    slices: Sequence[SymmetricFamily]

    def __post_init__(self):
        self.ss = np.asarray(self.ss, dtype=float)
        if len(self.ss) != len(self.slices):
            raise ParameterError("s grid and slice counts differ")
        if np.any(np.diff(self.ss) <= 0):
            raise ParameterError("s grid must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.slices[0].dim

    def slice_at(self, s: float) -> SymmetricFamily:
        """Linear interpolation between neighbouring s slices on a merged grid."""
        (k,), (w,) = _bracket(self.ss, [s])
        a, b = self.slices[k], self.slices[k + 1]
        ts = np.union1d(a.ts, b.ts)
        if w == 0.0 or w == 1.0:
            # a zero-weight slice adds only signed zeros: skip evaluating it
            mats = (b if w else a).at_many(ts)
        else:
            mats = (1.0 - w) * a.at_many(ts) + w * b.at_many(ts)
        return SymmetricFamily(ts, mats, max(a.tol, b.tol))


# LAPACK gesv with a matrix and with a vector right-hand side: the gufuncs
# numpy.linalg.solve calls after its per-call argument checks
gesv, gesv_vector = _umath_linalg.solve, _umath_linalg.solve1


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def gesv_errstate() -> np.errstate:
    """The error state of ``numpy.linalg.solve``: the invalid value that
    ``gesv`` reports for a singular system raises ``LinAlgError``; other
    floating-point events pass silently."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def cayley_factors(A: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """(I - h A/2, I + h A/2), the two factors of the Cayley map of h A.

    A stack of matrices (m, d, d) gives stacks of factors, with ``h`` a
    float or of shape (m,).
    """
    eye = np.eye(A.shape[-1])
    hA = 0.5 * np.asarray(h)[..., None, None] * A
    return eye - hA, eye + hA


def cayley_step(A: np.ndarray, h: float, Psi: np.ndarray) -> np.ndarray:
    """One implicit-midpoint step of the linear system Psi' = A Psi.

    For a constant A this is the Cayley map (I - h A/2)^{-1} (I + h A/2),
    which is symplectic whenever A is Hamiltonian.  A stack of matrices
    (m, d, d) takes one step per matrix, with ``h`` of shape (m,).
    """
    L, R = cayley_factors(A, h)
    rhs = R @ Psi
    with gesv_errstate():
        return gesv(L, rhs)


def cayley_flow(A: np.ndarray, h) -> np.ndarray:
    """Samples (m + 1, d, d) of Psi' = A(t) Psi, Psi(0) = I, by one Cayley
    step per generator of the stack A (m, d, d), with ``h`` a float or of
    shape (m,); the factors of all steps are built in one call.

    Each step is one call of ``gesv``, the kernel ``numpy.linalg.solve``
    calls, so the samples have its bits; a singular factor raises
    ``LinAlgError`` as it does.  The error state is entered once for the
    whole loop, since no user code runs in it; the products R @ Psi run
    in it too, so in them an overflow passes silently and an invalid
    value raises ``LinAlgError`` (that takes entries beyond about 1e154).
    No faster solve keeps the bits: SciPy's ``lapack.dgesv``, linked to
    another OpenBLAS build, differs on 2 339 of 30 000 seeded 6 x 6
    systems, and solving all steps at once and multiplying the step
    matrices rounds differently.
    """
    L, R = cayley_factors(A, h)
    mats = np.empty((len(A) + 1,) + A.shape[1:])
    mats[0] = np.eye(A.shape[-1])
    with gesv_errstate():
        for Lk, Rk, prev, nxt in zip(L, R, mats[:-1], mats[1:]):
            gesv(Lk, Rk @ prev, out=nxt)
    return mats


def path_from_symmetric(S: SymmetricFamily, steps: int = 256) -> SymplecticPath:
    """Integrate Psi' = J0 S(t) Psi, Psi(0) = I, by the implicit midpoint rule.

    The midpoint rule preserves quadratic invariants, so the samples stay
    close to Sp(2n); the symplecticity residual decreases like steps^-2.
    """
    if steps < 2:
        raise ParameterError("need at least 2 integration steps")
    J = standard_j(S.dim // 2)
    ts = np.linspace(0.0, 1.0, steps + 1)
    mats = cayley_flow(J @ S.at_many(0.5 * (ts[:-1] + ts[1:])), np.diff(ts))
    h = 1.0 / steps

    @_stacked
    def call(t):
        t = np.clip(t, 0.0, 1.0)
        k = np.minimum((t / h).astype(int), steps)
        Psi = mats[k]
        t0 = ts[k]
        sub = t > t0 + 1e-15
        if np.any(sub):
            # one local midpoint substep from the stored sample keeps the
            # evaluator at the integrator's accuracy
            t, t0 = t[sub], t0[sub]
            Psi[sub] = cayley_step(J @ S.at_many(0.5 * (t0 + t)), t - t0, Psi[sub])
        return Psi

    return SymplecticPath(ts, mats, True, False, max(ODE_TOL, 10.0 / steps**2), call)


def recover_symmetric(P: SymplecticPath) -> SymmetricFamily:
    """Recover S(t) = -J0 Psi'(t) Psi(t)^{-1} by central finite differences.

    The result is symmetrized; the pre-symmetrization residual is kept in
    ``asymmetry`` so callers can judge the discretization error.
    """
    if len(P.ts) < 3:
        raise InvalidPathError("need at least 3 samples to differentiate")
    J = standard_j(P.n)
    ts, mats = P.ts, P.mats
    out = np.empty_like(mats)
    for k in range(len(ts)):
        lo = max(k - 1, 0)
        hi = min(k + 1, len(ts) - 1)
        dPsi = (mats[hi] - mats[lo]) / (ts[hi] - ts[lo])
        try:
            inv = np.linalg.inv(mats[k])
        except np.linalg.LinAlgError:
            raise InvalidPathError("non-invertible sample at t = %g" % ts[k])
        out[k] = -J @ dPsi @ inv
    asym = float(np.max(np.abs(out - np.transpose(out, (0, 2, 1)))))
    sym = 0.5 * (out + np.transpose(out, (0, 2, 1)))
    fam = SymmetricFamily(ts.copy(), sym, tol=max(ALGEBRA_TOL, asym))
    fam.asymmetry = asym
    return fam


def _value_and_form(P: SymplecticPath, t: float, h: float = 1e-6):
    """(Psi(t), S(t)) from one evaluation of the path at t + h, t - h and t."""
    J = standard_j(P.n)
    t0 = max(0.0, t - h)
    t1 = min(1.0, t + h)
    A1, A0, At = P.at_many([t1, t0, t])
    dPsi = (A1 - A0) / (t1 - t0)
    M = -J @ dPsi @ np.linalg.inv(At)
    return At, 0.5 * (M + M.T)


def random_symplectic(n: int, rng: np.random.Generator, spread: float = 1.0) -> np.ndarray:
    """Seeded product of Sp(2n) generators e^{J0 S} with random symmetric S."""
    M = np.eye(2 * n)
    from scipy.linalg import expm

    J = standard_j(n)
    for _ in range(3):
        A = rng.normal(scale=spread, size=(2 * n, 2 * n))
        S = 0.5 * (A + A.T)
        M = M @ expm(J @ S)
    return M


def random_symmetric_family(
    n: int,
    rng: np.random.Generator,
    modes: int = 3,
    scale: float = 2.0,
    samples: int = 129,
) -> SymmetricFamily:
    """Random smooth trigonometric-polynomial family S(t) on [0, 1]."""
    dim = 2 * n
    coeffs = []
    for _ in range(2 * modes + 1):
        A = rng.normal(scale=scale / (2 * modes + 1), size=(dim, dim))
        coeffs.append(0.5 * (A + A.T))

    @_stacked
    def call(t):
        out = np.repeat(coeffs[0][None], len(t), axis=0)
        for m in range(1, modes + 1):
            out += np.cos(2 * np.pi * m * t)[:, None, None] * coeffs[2 * m - 1]
            out += np.sin(2 * np.pi * m * t)[:, None, None] * coeffs[2 * m]
        return out

    ts = np.linspace(0.0, 1.0, samples)
    mats = call(ts)
    return SymmetricFamily(ts, mats, ALGEBRA_TOL, call)
