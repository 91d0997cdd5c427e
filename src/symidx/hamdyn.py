"""Hamiltonian dynamics at desk scale.

Sign conventions: the Hamiltonian vector field is X_H = J grad H where J
is the system's chosen complex structure -- the standard J0 by default,
or its negative ("canonical") which matches the convention in which the
constant-orbit index satisfies CZcan = n - Morse index.

Autonomous systems only.  Phase spaces: the plane R^2, the cylinder
S^1 x R with a period-1 angle, and R^{2n}.

Trajectories come from one Newton-solved implicit-midpoint step,
``_midpoint_step``.  In one degree of freedom it iterates on Python
floats: J = +-J0 is applied as a signed swap and the Jacobian is built
entry by entry, in the same operations and order as the array kernel
used for 2n >= 4, so every result has the same bits as that kernel.
The Newton solve is one call of ``splin.gesv_vector``, the LAPACK
``gesv`` gufunc that ``numpy.linalg.solve`` wraps, under the wrapper's
error state (``splin.gesv_errstate``) but without its per-call argument
checks and type resolution: the same kernel on the same operands, so the
same bits, at about half the cost of the wrapper for a 2 x 2 system.
The error state is entered around each solve only, because the user's
gradient and Hessian run in the same loop and keep their own warnings.
No cheaper solve keeps the bits: Gaussian elimination on Python floats
matches ``gesv`` on 76.6 % of 300 000 seeded 2 x 2 systems.  The section
test ``normal @ w`` of the first-return map stays a BLAS dot for the same
reason: ``n0*w0 + n1*w1`` on floats differs on 48 997 of 200 000 seeded
pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    NoOrbitFoundError,
    ParameterError,
    StepFailureError,
)
from .index import cz_rs
from .splin import (
    SymplecticPath,
    cayley_flow,
    gesv_errstate,
    gesv_vector,
    standard_j,
)

PHASE_SPACES = ("plane", "cylinder", "r2n")
FD_GRAD_STEP = 1e-6
FD_HESS_STEP = 1e-5
NEWTON_TOL = 1e-13  # relative residual of the midpoint Newton solve
NEWTON_MAX_ITER = 25


@dataclass
class HamiltonianSystem:
    hamiltonian: Callable[[np.ndarray], float]
    n: int = 1
    phase_space: str = "plane"
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    j_structure: str = "standard"  # "standard" (J0) or "canonical" (-J0)

    def __post_init__(self):
        if self.phase_space not in PHASE_SPACES:
            raise ParameterError("unknown phase space %r" % self.phase_space)
        if self.j_structure not in ("standard", "canonical"):
            raise ParameterError("unknown j_structure %r" % self.j_structure)
        if self.phase_space in ("plane", "cylinder") and self.n != 1:
            raise ParameterError("plane/cylinder phase spaces have n = 1")

    @property
    def J(self) -> np.ndarray:
        J = standard_j(self.n)
        return J if self.j_structure == "standard" else -J

    def grad(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.gradient is not None:
            return np.asarray(self.gradient(z), dtype=float)
        h = FD_GRAD_STEP * max(1.0, float(np.max(np.abs(z))))
        g = np.empty_like(z)
        for i in range(len(z)):
            e = np.zeros_like(z)
            e[i] = h
            g[i] = (self.hamiltonian(z + e) - self.hamiltonian(z - e)) / (2 * h)
        return g

    def hess(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.hessian is not None:
            H = np.asarray(self.hessian(z), dtype=float)
        else:
            h = FD_HESS_STEP * max(1.0, float(np.max(np.abs(z))))
            d = len(z)
            H = np.empty((d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                H[:, i] = (self.grad(z + e) - self.grad(z - e)) / (2 * h)
        return 0.5 * (H + H.T)

    def check_gradient(self, rng: np.random.Generator, probes: int = 10,
                       rel_tol: float = 1e-5) -> bool:
        """Analytic gradient vs central differences on random probe points."""
        if self.gradient is None:
            return True
        for _ in range(probes):
            z = rng.normal(size=2 * self.n)
            ana = np.asarray(self.gradient(z), dtype=float)
            num = HamiltonianSystem(
                self.hamiltonian, self.n, "r2n" if self.n > 1 else "plane"
            ).grad(z)
            if np.max(np.abs(ana - num)) > rel_tol * max(1.0, np.max(np.abs(ana))):
                return False
        return True


def harmonic_system(j_structure: str = "standard") -> HamiltonianSystem:
    """H(z) = |z|^2 / 2 on the plane."""
    eye = np.eye(2)
    eye.flags.writeable = False
    return HamiltonianSystem(
        hamiltonian=lambda z: 0.5 * float(z @ z),
        gradient=lambda z: np.asarray(z, dtype=float),
        hessian=lambda z: eye,
        n=1, phase_space="plane", j_structure=j_structure,
    )


def pendulum_system(j_structure: str = "standard",
                    scale: float = 1.0) -> HamiltonianSystem:
    """H(q, v) = v^2 / 2 + cos(2 pi q) on the cylinder, optionally scaled.

    Equilibria: saddle of H at (0, 0) (Morse index 1) and minimum at
    (1/2, 0) (Morse index 0).
    """
    c = scale
    zero = c * 0.0  # the off-diagonal of c * diag(...), sign included

    def H(z):
        return c * (0.5 * z[1] ** 2 + np.cos(2 * np.pi * z[0]))

    def G(z):
        return np.array([c * (-2 * np.pi * np.sin(2 * np.pi * z[0])), c * z[1]])

    def Hs(z):
        return np.array([[c * (-4 * np.pi**2 * np.cos(2 * np.pi * z[0])), zero],
                         [zero, c]])

    return HamiltonianSystem(H, 1, "cylinder", G, Hs, j_structure)


def ham_vector_field(sys: HamiltonianSystem, z: np.ndarray) -> np.ndarray:
    """X_H(z) = J grad H(z)."""
    return sys.J @ sys.grad(np.asarray(z, dtype=float))


@dataclass
class Trajectory:
    ts: np.ndarray
    zs: np.ndarray  # shape (N, 2n)

    def energy_drift(self, sys: HamiltonianSystem) -> float:
        e = np.array([sys.hamiltonian(z) for z in self.zs])
        return float(np.max(np.abs(e - e[0])))


def _midpoint_step(sys: HamiltonianSystem, J: np.ndarray, eye: np.ndarray,
                   z0: np.ndarray, dt: float, t: float) -> np.ndarray:
    """One implicit-midpoint step z1 = z0 + dt X((z0+z1)/2), X = J grad H, by Newton.

    In one degree of freedom the iteration runs on Python floats, with
    the same operations in the same order as the array kernel below, so
    both give the same bits; only the 2 x 2 solve stays in LAPACK.
    """
    if len(z0) == 2:
        # J = s J0 with s = +-1 maps v to (0.0 - s v1, 0.0 + s v0); the 0.0
        # keeps the signed zeros of NumPy's +0-initialised matmul
        s = float(J[1, 0])
        a0, a1 = z0.tolist()
        v0, v1 = sys.grad(z0).tolist()
        b0, b1 = a0 + dt * (0.0 - s * v1), a1 + dt * (0.0 + s * v0)  # Euler predictor
        half = 0.5 * dt
        for _ in range(NEWTON_MAX_ITER):
            mid = np.array([0.5 * (a0 + b0), 0.5 * (a1 + b1)])
            v0, v1 = sys.grad(mid).tolist()
            r0 = b0 - a0 - dt * (0.0 - s * v1)
            r1 = b1 - a1 - dt * (0.0 + s * v0)
            bound = NEWTON_TOL * max(1.0, abs(b0), abs(b1))
            if abs(r0) < bound and abs(r1) < bound:  # a NaN is not converged
                return np.array([b0, b1])
            (h00, h01), (h10, h11) = sys.hess(mid).tolist()
            Jac = [[1.0 - half * (0.0 - s * h10), 0.0 - half * (0.0 - s * h11)],
                   [0.0 - half * (0.0 + s * h00), 1.0 - half * (0.0 + s * h01)]]
            try:
                with gesv_errstate():
                    d0, d1 = gesv_vector(np.array(Jac), np.array([r0, r1])).tolist()
            except np.linalg.LinAlgError:
                raise StepFailureError("singular Newton system at t=%g" % t, t)
            b0, b1 = b0 - d0, b1 - d1
        raise StepFailureError("midpoint Newton stalled at t=%g" % t, t)

    z1 = z0 + dt * (J @ sys.grad(z0))  # explicit Euler predictor
    for _ in range(NEWTON_MAX_ITER):
        mid = 0.5 * (z0 + z1)
        g = z1 - z0 - dt * (J @ sys.grad(mid))
        if np.abs(g).max() < NEWTON_TOL * max(1.0, np.abs(z1).max()):
            return z1
        Jac = eye - 0.5 * dt * (J @ sys.hess(mid))
        try:
            with gesv_errstate():
                dz = gesv_vector(Jac, g)
        except np.linalg.LinAlgError:
            raise StepFailureError("singular Newton system at t=%g" % t, t)
        z1 = z1 - dz
    raise StepFailureError("midpoint Newton stalled at t=%g" % t, t)


def _flow(sys: HamiltonianSystem, z0, T: float, steps: int) -> Trajectory:
    """``steps`` implicit-midpoint steps of size T / steps from z0."""
    h = T / steps
    J, eye = sys.J, np.eye(2 * sys.n)
    zs = np.empty((steps + 1, 2 * sys.n))
    zs[0] = np.asarray(z0, dtype=float)
    for k in range(steps):
        zs[k + 1] = _midpoint_step(sys, J, eye, zs[k], h, k * h)
    return Trajectory(np.linspace(0.0, T, steps + 1), zs)


def integrate(sys: HamiltonianSystem, z0, T: float, dt: float) -> Trajectory:
    """Implicit-midpoint trajectory from z0 over [0, T]."""
    if not (dt > 0 and np.isfinite(T)):
        raise ParameterError("need dt > 0 and finite T")
    return _flow(sys, z0, T, max(1, int(np.ceil(abs(T) / dt))))


@dataclass
class PeriodicOrbit:
    """A closed orbit; ``monodromy_and_cz`` linearizes along ``trajectory``."""
    z0: np.ndarray
    period: float
    trajectory: Trajectory
    residual: float


def _offset(sys: HamiltonianSystem, z: np.ndarray, anchor: np.ndarray):
    """(z - anchor, turns).

    On the cylinder the angle difference d is taken as d - round(d),
    which is exact while |d| < 1/2, and turns = round(d); elsewhere
    turns is 0.
    """
    w = z - anchor
    if sys.phase_space != "cylinder":
        return w, 0.0
    turns = np.rint(w[0])  # NaN-safe, ties to even like round
    w[0] -= turns
    return w, turns


def _first_return(sys: HamiltonianSystem, z0: np.ndarray, normal: np.ndarray,
                  anchor: np.ndarray, T_guess: float, dt: float):
    """Poincare return of z0 to the section through ``anchor``.

    Steps towards 1.6 T_guess, refines each same-direction section
    crossing by a secant solve inside its bracketing step and keeps the
    one closest to T_guess, stopping once no later one can be closer.
    On the cylinder the section is taken modulo whole turns of the
    angle, so rotation orbits return to it; a sign change on a step
    where the turn count changes is the jump of the wrapped angle at
    half a turn, not a crossing, and is ignored.
    Returns (return point, return time).
    """
    horizon = 1.6 * T_guess
    steps = max(64, int(np.ceil(horizon / dt)))
    h = horizon / steps
    J, eye = sys.J, np.eye(2 * sys.n)

    def section(z):
        w, turns = _offset(sys, z, anchor)
        return float(normal @ w), turns

    z = z0.copy()
    prev, prev_turns = section(z)
    best = None  # (return time, return point, distance to T_guess)
    for k in range(steps):
        z_next = _midpoint_step(sys, J, eye, z, h, k * h)
        cur, turns = section(z_next)
        if prev < 0.0 <= cur and turns == prev_turns and k * h > 10 * dt:
            # same-direction crossing inside (k h, (k+1) h): secant on tau
            a, fa = 0.0, prev
            b, fb = h, cur
            za = z
            for _ in range(60):
                tau = a - fa * (b - a) / (fb - fa)
                zm = _midpoint_step(sys, J, eye, za, tau - a, k * h) if tau > a else za
                fm = section(zm)[0]
                if abs(fm) < 1e-13 or b - a < 1e-14:
                    break
                if fa * fm <= 0.0:
                    b, fb = tau, fm
                else:
                    za, a, fa = zm, tau, fm
            t_c = k * h + tau
            if best is None or abs(t_c - T_guess) < best[2]:
                best = (t_c, zm, abs(t_c - T_guess))
        if best is not None and (k + 1) * h - T_guess >= best[2]:
            break
        z = z_next
        prev, prev_turns = cur, turns
    if best is None:
        raise NoOrbitFoundError("no section return before t = %.3g" % horizon)
    return best[1], best[0]


def find_periodic_orbit(sys: HamiltonianSystem, z_guess, T_guess: float,
                        dt: float = 1e-3, shoot_tol: float = 1e-8,
                        max_iter: int = 50) -> PeriodicOrbit:
    """Poincare-section Newton shooting for a periodic orbit.

    The initial point is confined to the hyperplane through z_guess
    orthogonal to the flow there (removing the time-shift degeneracy) and
    Newton runs on the section coordinates of the first-return map; the
    return time is the period of the branch selected by T_guess.
    Equilibria short-circuit to constant orbits.
    """
    if not (np.isfinite(dt) and dt > 0 and np.isfinite(T_guess) and T_guess > 0):
        raise ParameterError("need finite dt > 0 and finite T_guess > 0")
    z = np.asarray(z_guess, dtype=float)
    dim = 2 * sys.n
    X0 = ham_vector_field(sys, z)
    if np.linalg.norm(X0) < 1e-10:
        traj = _flow(sys, z, T_guess, max(64, int(np.ceil(T_guess / dt))))
        return PeriodicOrbit(z, float(T_guess), traj, 0.0)

    normal = X0 / np.linalg.norm(X0)
    anchor = z.copy()
    # orthonormal basis of the section (complement of the normal)
    Q, _ = np.linalg.qr(np.column_stack([normal, np.eye(dim)])[:, :dim])
    E = Q[:, 1:]

    def gap_of(point):
        zT, T = _first_return(sys, point, normal, anchor, T_guess, dt)
        g = zT - point
        if sys.phase_space == "cylinder":
            g[0] = (g[0] + 0.5) % 1.0 - 0.5
        return g, T

    y = np.zeros(dim - 1)
    for _ in range(max_iter):
        point = anchor + E @ y
        g, T = gap_of(point)
        if np.linalg.norm(g) < shoot_tol:
            traj = _flow(sys, point, T, max(64, int(np.ceil(T / dt))))
            return PeriodicOrbit(point, float(T), traj,
                                 float(np.linalg.norm(_offset(sys, traj.zs[-1], point)[0])))
        F = E.T @ g
        hfd = 1e-6 * max(1.0, float(np.max(np.abs(y))))
        Jc = np.empty((dim - 1, dim - 1))
        for j in range(dim - 1):
            dy = np.zeros(dim - 1)
            dy[j] = hfd
            gp, _ = gap_of(anchor + E @ (y + dy))
            Jc[:, j] = (E.T @ gp - F) / hfd
        try:
            y = y - np.linalg.solve(Jc, F)
        except np.linalg.LinAlgError:
            raise NoOrbitFoundError("singular section-return Jacobian")
        if not np.all(np.isfinite(y)):
            raise NoOrbitFoundError("shooting iteration diverged")
    raise NoOrbitFoundError("Newton shooting did not converge in %d iterations"
                            % max_iter)


def monodromy_and_cz(sys: HamiltonianSystem, orbit: PeriodicOrbit,
                     tol: float = 1e-6):
    """(monodromy path, nondegenerate?, indices or None).

    The monodromy path is the linearized flow along the orbit's stored
    trajectory: one Cayley step of J Hess H at each step's midpoint, at
    the trajectory's step size, on the unit time grid.  Nondegenerate iff
    1 is not an eigenvalue of the time-1 monodromy; in that case both
    normalizations of the Conley-Zehnder index of the monodromy path are
    returned as {"standard": .., "canonical": ..}.
    """
    zs = orbit.trajectory.zs
    h = orbit.period / (len(zs) - 1)
    J, eye = sys.J, np.eye(2 * sys.n)
    Hs = np.array([sys.hess(mid) for mid in 0.5 * (zs[:-1] + zs[1:])])
    path = SymplecticPath(np.linspace(0.0, 1.0, len(zs)), cayley_flow(J @ Hs, h),
                          True, False, 1e-6)
    path.validate(check_samples=False)
    nondeg = abs(np.linalg.det(path.endpoint() - eye)) > tol
    if not nondeg:
        return path, False, None
    std = cz_rs(path)
    return path, True, {"standard": std, "canonical": std.in_normalization("canonical")}


@dataclass
class PeriodReport:
    kind: str  # "constant" | "periodic" | "none"
    period: Optional[float] = None


def prime_period(traj: Trajectory, tol: float = 1e-6) -> PeriodReport:
    """Classify a uniformly sampled trajectory by its period group.

    Returns constant (period group R), periodic with the prime period tau
    (first full-state return, refined parabolically), or no period found
    on the window.
    """
    zs = traj.zs
    ts = traj.ts
    spread = float(np.max(np.abs(zs - zs[0])))
    if spread < tol:
        return PeriodReport("constant")
    d = np.linalg.norm(zs - zs[0], axis=1)
    scale = float(np.max(d))
    # first local minimum of the return distance that is a genuine return
    for k in range(2, len(d) - 1):
        if d[k] <= d[k - 1] and d[k] <= d[k + 1] and d[k] < max(tol, 0.05 * scale):
            denom = d[k - 1] - 2 * d[k] + d[k + 1]
            shift = 0.0 if denom <= 0 else 0.5 * (d[k - 1] - d[k + 1]) / denom
            tau = ts[k] + shift * (ts[1] - ts[0])
            return PeriodReport("periodic", float(tau))
    return PeriodReport("none")


# ---------------------------------------------------------------------------
# annulus twist maps


@dataclass
class TwistReport:
    fixed_points: list
    is_curve: bool
    rotation_lower: float
    rotation_upper: float


def _theta_gap(a: float, b: float) -> float:
    return (a - b + 0.5) % 1.0 - 0.5


def twist_fixed_points(map_fn, r_range: tuple[float, float],
                       grid: int = 48, tol: float = 1e-10) -> TwistReport:
    """Fixed points of an annulus map (theta mod 1, r in [a, b]).

    Grid-seeded Newton on (wrapped theta shift, r shift); deduplicated.
    Also reports the mean angular shift on each boundary circle so the
    caller can check the twist condition, and flags an apparent curve of
    fixed points when they are dense along the angle.
    """
    if grid < 1:
        raise ParameterError("twist grid must be at least 1, got %d" % grid)
    a, b = r_range

    def F(p):
        q = np.asarray(map_fn(p), dtype=float)
        return np.array([_theta_gap(q[0], p[0]), q[1] - p[1]])

    found = []
    thetas = np.arange(grid) / grid
    rs = np.linspace(a, b, grid)
    for th in thetas:
        for r in rs:
            p = np.array([th, r])
            if np.linalg.norm(F(p)) > 0.2:
                continue
            ok = True
            for _ in range(40):
                f = F(p)
                if np.linalg.norm(f) < tol:
                    break
                h = 1e-7
                Jc = np.column_stack([
                    (F(p + [h, 0]) - F(p - [h, 0])) / (2 * h),
                    (F(p + [0, h]) - F(p - [0, h])) / (2 * h),
                ])
                # least squares so rank-deficient Jacobians (curves of
                # fixed points) still converge onto the fixed set
                step, *_ = np.linalg.lstsq(Jc, f, rcond=None)
                if not np.all(np.isfinite(step)):
                    ok = False
                    break
                p = p - step
                p[0] = p[0] % 1.0
            else:
                ok = False
            if not ok or not (a - 1e-9 <= p[1] <= b + 1e-9):
                continue
            if np.linalg.norm(F(p)) > 1e-8:
                continue
            if all(
                abs(_theta_gap(p[0], q[0])) + abs(p[1] - q[1]) > 1e-5
                for q in found
            ):
                found.append(p.copy())

    rot_lo = float(np.mean([_theta_gap(np.asarray(map_fn([t, a]))[0], t)
                            for t in thetas]))
    rot_hi = float(np.mean([_theta_gap(np.asarray(map_fn([t, b]))[0], t)
                            for t in thetas]))
    # a curve of fixed points shows up as fixed points densely filling the
    # angle direction; isolated fixed points occupy only a few angles
    distinct_thetas = {round(p[0], 3) for p in found}
    is_curve = len(distinct_thetas) >= max(8, grid // 2)
    return TwistReport([p for p in found], is_curve, rot_lo, rot_hi)
