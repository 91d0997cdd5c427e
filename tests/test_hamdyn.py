import math

import numpy as np
import pytest
from scipy.integrate import quad

from symidx import hamdyn, io
from symidx.errors import NoOrbitFoundError, ParameterError, StepFailureError
from symidx.hamdyn import (
    HamiltonianSystem,
    PeriodicOrbit,
    find_periodic_orbit,
    ham_vector_field,
    harmonic_system,
    integrate,
    monodromy_and_cz,
    pendulum_system,
    prime_period,
    twist_fixed_points,
)
from symidx.splin import cayley_step


def standard_map(eps):
    def f(p):
        th, r = p
        return np.array([th + r, r + eps * np.sin(2 * np.pi * (th + r))])
    return f


class TestVectorField:
    def test_harmonic_rotation_field(self):
        sys = harmonic_system()
        # X_H(x, y) = J0 (x, y) = (-y, x)
        assert np.allclose(ham_vector_field(sys, [1.0, 0.0]), [0.0, 1.0])
        assert np.allclose(ham_vector_field(sys, [0.0, 1.0]), [-1.0, 0.0])

    def test_field_annihilates_dh(self):
        rng = np.random.default_rng(17)
        sys = pendulum_system()
        for _ in range(10):
            z = rng.normal(size=2)
            assert abs(sys.grad(z) @ ham_vector_field(sys, z)) < 1e-12

    def test_check_gradient(self):
        rng = np.random.default_rng(18)
        assert harmonic_system().check_gradient(rng)
        assert pendulum_system().check_gradient(rng)
        bad = HamiltonianSystem(
            hamiltonian=lambda z: 0.5 * float(z @ z),
            gradient=lambda z: 2.0 * np.asarray(z),
        )
        assert not bad.check_gradient(rng)

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            HamiltonianSystem(lambda z: 0.0, phase_space="torus")
        with pytest.raises(ParameterError):
            HamiltonianSystem(lambda z: 0.0, n=2, phase_space="plane")


class TestIntegrate:
    def test_harmonic_circle(self):
        traj = integrate(harmonic_system(), [1.0, 0.0], 2 * np.pi, 1e-3)
        assert np.linalg.norm(traj.zs[-1] - [1.0, 0.0]) < 1e-5
        assert traj.energy_drift(harmonic_system()) < 1e-12

    def test_pendulum_center_start_no_drift(self):
        sys = pendulum_system()
        traj = integrate(sys, [0.5, 0.0], 20.0, 1e-3)
        assert traj.energy_drift(sys) < 1e-10

    def test_pendulum_drift_scaling(self):
        # implicit midpoint: energy drift O(dt^2) from a generic start
        sys = pendulum_system()
        d1 = integrate(sys, [0.3, 0.2], 5.0, 2e-3).energy_drift(sys)
        d2 = integrate(sys, [0.3, 0.2], 5.0, 1e-3).energy_drift(sys)
        assert d2 < d1 / 3.0

    def test_pendulum_off_equilibrium_drift_is_second_order(self):
        # from (0.3, 0.1) the drift is 8.0e-7 at dt = 1e-3 and four times
        # that at dt = 2e-3: bounded, and shrinking like dt^2
        sys = pendulum_system()
        fine = integrate(sys, [0.3, 0.1], 10.0, 1e-3).energy_drift(sys)
        coarse = integrate(sys, [0.3, 0.1], 10.0, 2e-3).energy_drift(sys)
        assert 0.0 < fine < 2e-6
        assert 3.5 <= coarse / fine <= 4.5

    def test_bad_dt(self):
        with pytest.raises(ParameterError):
            integrate(harmonic_system(), [1.0, 0.0], 1.0, 0.0)


class TestPeriodicOrbit:
    def test_harmonic_orbit(self):
        orbit = find_periodic_orbit(harmonic_system(), [1.1, 0.1], 6.0)
        assert abs(orbit.period - 2 * np.pi) < 1e-6
        assert orbit.residual < 1e-6

    def test_harmonic_monodromy_degenerate(self):
        orbit = find_periodic_orbit(harmonic_system(), [1.0, 0.0], 6.0)
        _, nondeg, idx = monodromy_and_cz(harmonic_system(), orbit)
        assert not nondeg and idx is None

    def test_equilibrium_constant_orbit(self):
        orbit = find_periodic_orbit(pendulum_system(), [0.5, 0.0], 1.0)
        assert orbit.residual == 0.0
        assert np.max(np.abs(orbit.trajectory.zs - orbit.z0)) < 1e-12

    def test_pendulum_libration(self):
        # small oscillation about the center has period ~ 1 (linearization)
        sys = pendulum_system()
        orbit = find_periodic_orbit(sys, [0.5 + 0.02, 0.0], 1.0, dt=2e-4)
        assert abs(orbit.period - 1.0) < 5e-3

    def test_no_orbit_for_short_horizon(self):
        with pytest.raises(NoOrbitFoundError):
            find_periodic_orbit(harmonic_system(), [1.0, 0.0], 0.5)

    def test_guess_near_second_return_selects_it(self):
        orbit = find_periodic_orbit(harmonic_system(), [1.0, 0.0], 10.0)
        assert abs(orbit.period - 4 * np.pi) < 1e-5

    def test_first_return_stops_after_nearest_crossing(self, monkeypatch):
        # the crossing at 2 pi is the nearest to T_guess = 6 once the flow
        # passes 2 pi; stepping on towards 1.6 T_guess = 9.6 would be waste
        steps = []
        step = hamdyn._midpoint_step

        def counted(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(hamdyn, "_midpoint_step", counted)
        sys, z0, dt = harmonic_system(), np.array([1.0, 0.0]), 1e-3
        normal = ham_vector_field(sys, z0)
        _, T = hamdyn._first_return(sys, z0, normal, z0.copy(), 6.0, dt)
        assert abs(T - 2 * np.pi) < 1e-5
        assert len(steps) <= math.ceil(2 * np.pi / dt) + 64

    @pytest.mark.parametrize("T_guess, dt", [
        (6.0, 0.0), (6.0, -1e-3), (6.0, float("nan")), (6.0, float("inf")),
        (0.0, 1e-3), (-6.0, 1e-3), (float("nan"), 1e-3), (float("inf"), 1e-3),
    ])
    def test_bad_guess_or_step_is_parameter_error(self, T_guess, dt):
        with pytest.raises(ParameterError):
            find_periodic_orbit(harmonic_system(), [1.0, 0.0], T_guess, dt=dt)

    def test_monodromy_is_the_linearized_stored_flow(self):
        # the harmonic flow is a rotation; its midpoint linearization is the
        # Cayley rotation at the trajectory's step, sample by sample
        orbit = find_periodic_orbit(harmonic_system(), [1.0, 0.0], 6.0)
        path, _, _ = monodromy_and_cz(harmonic_system(), orbit)
        steps = len(orbit.trajectory.zs) - 1
        assert len(path.mats) == steps + 1 and path.starts_at_identity
        h = orbit.period / steps
        A = harmonic_system().J
        C = np.linalg.solve(np.eye(2) - 0.5 * h * A, np.eye(2) + 0.5 * h * A)
        assert np.allclose(path.mats[1], C, atol=1e-15)
        assert np.allclose(path.endpoint(), np.eye(2), atol=1e-8)

    def test_equilibrium_cz_matches_morse(self):
        # CZcan(constant orbit) = n - Morse index in the canonical structure
        eps = 0.05
        sys = pendulum_system("canonical", scale=eps)
        for z, morse in (([0.0, 0.0], 1), ([0.5, 0.0], 0)):
            orbit = find_periodic_orbit(sys, np.array(z), 1.0)
            _, nondeg, idx = monodromy_and_cz(sys, orbit)
            assert nondeg
            assert idx["canonical"].as_int() == 1 - morse


def rotation_period(E):
    """Period of the pendulum rotation orbit of energy E > 1 (one turn)."""
    return quad(lambda q: 1.0 / math.sqrt(2.0 * (E - math.cos(2 * math.pi * q))), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-13)[0]


class TestCylinderOrbits:
    @pytest.mark.parametrize("j_structure, z", [
        ("standard", [0.0, 3.0]), ("standard", [0.2, -2.5]),
        ("canonical", [0.2, 3.0]),
    ])
    def test_rotation_orbit_is_found(self, j_structure, z):
        # the angle grows by one per turn; the section is taken modulo turns
        sys = pendulum_system(j_structure)
        orbit = find_periodic_orbit(sys, np.array(z), 0.34)
        exact = rotation_period(sys.hamiltonian(orbit.z0))
        assert abs(orbit.period - exact) < 2e-6  # O(dt^2) at dt = 1e-3
        assert orbit.residual < 1e-7
        assert abs(abs(orbit.trajectory.zs[-1, 0] - orbit.z0[0]) - 1.0) < 1e-7

    def test_rotation_period_converges_like_dt_squared(self):
        sys = pendulum_system()
        exact = rotation_period(sys.hamiltonian(np.array([0.0, 3.0])))
        coarse = find_periodic_orbit(sys, np.array([0.0, 3.0]), 0.34, dt=2e-3)
        fine = find_periodic_orbit(sys, np.array([0.0, 3.0]), 0.34, dt=1e-3)
        assert 3.0 < abs(coarse.period - exact) / abs(fine.period - exact) < 5.0

    def test_libration_started_off_its_turning_point(self):
        # through the center with speed 0.3, and from the turning point of
        # the same energy: one orbit, one period
        sys = pendulum_system()
        E = 0.5 * 0.3**2 - 1.0
        q_turn = 1.0 - math.acos(E) / (2 * math.pi)
        moving = find_periodic_orbit(sys, np.array([0.5, 0.3]), 1.0)
        resting = find_periodic_orbit(sys, np.array([q_turn, 0.0]), 1.0)
        assert abs(moving.period - resting.period) < 1e-8
        assert moving.residual < 1e-7

    def test_wide_libration_ignores_the_half_turn_jump(self):
        # from (0.5, 1.8) the angle swings over more than half a turn
        orbit = find_periodic_orbit(pendulum_system(), np.array([0.5, 1.8]), 1.2)
        zs = orbit.trajectory.zs
        assert zs[:, 0].max() - zs[:, 0].min() > 0.5
        assert orbit.residual < 1e-7 and 1.2 < orbit.period < 1.6


# The array Newton kernel that the one-degree-of-freedom float kernel
# replaced; it is still the kernel for 2n >= 4.
def reference_midpoint_step(sys, J, eye, z0, dt, t):
    z1 = z0 + dt * (J @ sys.grad(z0))
    for _ in range(hamdyn.NEWTON_MAX_ITER):
        mid = 0.5 * (z0 + z1)
        g = z1 - z0 - dt * (J @ sys.grad(mid))
        if np.abs(g).max() < hamdyn.NEWTON_TOL * max(1.0, np.abs(z1).max()):
            return z1
        Jac = eye - 0.5 * dt * (J @ sys.hess(mid))
        try:
            z1 = z1 - np.linalg.solve(Jac, g)
        except np.linalg.LinAlgError:
            raise StepFailureError("singular Newton system at t=%g" % t, t)
    raise StepFailureError("midpoint Newton stalled at t=%g" % t, t)


# The per-step Cayley loop that precomputed factors replaced.
def reference_monodromy(sys, orbit):
    zs = orbit.trajectory.zs
    h = orbit.period / (len(zs) - 1)
    J = sys.J
    Ms = [np.eye(2 * sys.n)]
    for k in range(len(zs) - 1):
        Ms.append(cayley_step(J @ sys.hess(0.5 * (zs[k] + zs[k + 1])), h, Ms[-1]))
    return np.array(Ms)


def same_bits(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def both_kernels(monkeypatch, run):
    """run() with the current kernel, then with the reference kernel; a
    step failure gives its message."""
    def outcome():
        try:
            return run()
        except StepFailureError as e:
            return str(e)

    new = outcome()
    with monkeypatch.context() as m:
        m.setattr(hamdyn, "_midpoint_step", reference_midpoint_step)
        old = outcome()
    return new, old


def quartic_system(j_structure="standard"):
    """H = y^2/2 + x^4/4 - x^2/2 on the plane, derivatives by differences."""
    return HamiltonianSystem(lambda z: 0.5 * z[1] ** 2 + 0.25 * z[0] ** 4 - 0.5 * z[0] ** 2,
                             j_structure=j_structure)


def coupled_polynomial_system(j_structure="standard"):
    # H = (x1^2 + y1^2)/2 + (x2^2 + y2^2)/sqrt(2) + x1^2 x2 / 10, z = (x1, x2, y1, y2)
    c = 1.0 / math.sqrt(2.0)
    return io.load_system({
        "phase_space": "r2n", "j_convention": j_structure,
        "hamiltonian": {"polynomial": {"n": 2, "terms": [
            {"coeff": 0.5, "powers": [2, 0, 0, 0]}, {"coeff": 0.5, "powers": [0, 0, 2, 0]},
            {"coeff": c, "powers": [0, 2, 0, 0]}, {"coeff": c, "powers": [0, 0, 0, 2]},
            {"coeff": 0.1, "powers": [2, 1, 0, 0]},
        ]}}})


class TestKernelsBitForBit:
    """The float kernel and the precomputed Cayley factors change no bit."""

    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    @pytest.mark.parametrize("scale", [1.0, -0.7])
    def test_pendulum_trajectories(self, monkeypatch, j_structure, scale):
        sys = pendulum_system(j_structure, scale)
        for z0 in ([0.3, 0.2], [0.0, 0.0], [-0.0, -0.0], [0.5, -0.0], [-0.0, 1.0]):
            new, old = both_kernels(
                monkeypatch, lambda: integrate(sys, np.array(z0), 1.5, 1e-3).zs)
            assert same_bits(new, old), z0

    @pytest.mark.parametrize("make", [harmonic_system, quartic_system])
    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    def test_plane_trajectories(self, monkeypatch, make, j_structure):
        # the quartic stalls from (-0, 0.7): its differenced gradient is
        # too coarse for the Newton tolerance; both kernels stall alike
        sys = make(j_structure)
        for z0 in ([1.0, -0.0], [-0.0, 0.7], [0.0, 0.0]):
            new, old = both_kernels(
                monkeypatch, lambda: integrate(sys, np.array(z0), 2.0, 1e-3).zs)
            assert same_bits(new, old), z0

    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    def test_coupled_polynomial_trajectory(self, monkeypatch, j_structure):
        sys = coupled_polynomial_system(j_structure)
        z0 = np.array([0.5, 0.2, -0.0, 0.1])
        new, old = both_kernels(monkeypatch, lambda: integrate(sys, z0, 0.5, 1e-3).zs)
        assert same_bits(new, old)
        traj = hamdyn.Trajectory(np.linspace(0.0, 0.5, len(new)), new)
        orbit = PeriodicOrbit(z0, 0.5, traj, 0.0)
        path, _, _ = monodromy_and_cz(sys, orbit)
        assert same_bits(path.mats, reference_monodromy(sys, orbit))

    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    @pytest.mark.parametrize("sys_args, z, T", [
        (("harmonic",), [1.1, 0.1], 6.0),
        (("pendulum", 1.0), [0.6, 0.0], 1.1),
        (("pendulum", -0.7), [0.45, -0.0], 1.3),
        (("pendulum", 0.05), [0.0, 0.0], 1.0),
        (("pendulum", 1.0), [0.0, 3.0], 0.34),
    ])
    def test_orbits_and_monodromy(self, monkeypatch, j_structure, sys_args, z, T):
        if sys_args[0] == "harmonic":
            sys = harmonic_system(j_structure)
        else:
            sys = pendulum_system(j_structure, sys_args[1])
        new, old = both_kernels(
            monkeypatch, lambda: find_periodic_orbit(sys, np.array(z), T))
        assert same_bits(new.trajectory.zs, old.trajectory.zs)
        assert same_bits([new.period, new.residual], [old.period, old.residual])
        path, _, _ = monodromy_and_cz(sys, new)
        assert same_bits(path.mats, reference_monodromy(sys, new))

    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    @pytest.mark.parametrize("gradient", [
        lambda z: np.array([np.nan, 1.0]),
        lambda z: np.array([1.0, np.inf]),
        lambda z: np.array([-np.inf, 0.0]),
        # finite until y has moved by 0.05 from its start
        lambda z: np.array([1.0, np.inf if abs(z[1] - 0.45) > 0.05 else 0.0]),
        lambda z: np.array([1.0, np.nan if abs(z[1] - 0.45) > 0.05 else z[0]]),
    ])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_fails_as_before(self, monkeypatch, j_structure, gradient):
        sys = HamiltonianSystem(lambda z: 0.0, gradient=gradient,
                                hessian=lambda z: np.eye(2), j_structure=j_structure)
        msgs = []
        for step in (hamdyn._midpoint_step, reference_midpoint_step):
            monkeypatch.setattr(hamdyn, "_midpoint_step", step)
            with pytest.raises(StepFailureError) as err:
                integrate(sys, np.array([0.3, 0.45]), 1.0, 0.01)
            msgs.append((str(err.value), err.value.t))
        assert msgs[0] == msgs[1]

    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    def test_singular_newton_system_fails_as_before(self, monkeypatch, j_structure):
        # Hess = diag(2/dt, -2/dt) makes I - dt/2 J Hess = [[1, -+1], [-+1, 1]]
        dt = 0.25
        sys = HamiltonianSystem(
            lambda z: (z[0] ** 2 - z[1] ** 2) / dt,
            gradient=lambda z: np.array([2.0 * z[0], -2.0 * z[1]]) / dt,
            hessian=lambda z: np.diag([2.0 / dt, -2.0 / dt]), j_structure=j_structure)
        msgs = []
        for step in (hamdyn._midpoint_step, reference_midpoint_step):
            monkeypatch.setattr(hamdyn, "_midpoint_step", step)
            with pytest.raises(StepFailureError) as err:
                integrate(sys, np.array([1.0, 0.5]), 1.0, dt)
            msgs.append(str(err.value))
        assert msgs[0] == msgs[1] == "singular Newton system at t=0"


class TestPrimePeriod:
    def test_constant(self):
        traj = integrate(pendulum_system(), [0.5, 0.0], 5.0, 1e-2)
        assert prime_period(traj).kind == "constant"

    def test_harmonic(self):
        traj = integrate(harmonic_system(), [1.0, 0.0], 10.0, 1e-3)
        rep = prime_period(traj)
        assert rep.kind == "periodic"
        assert abs(rep.period - 2 * np.pi) < 1e-3

    def test_cover_keeps_prime_period(self):
        # a window of three full turns still reports one turn
        traj = integrate(harmonic_system(), [1.0, 0.0], 20.0, 1e-3)
        rep = prime_period(traj)
        assert rep.kind == "periodic"
        assert abs(rep.period - 2 * np.pi) < 1e-3

    def test_none_on_short_window(self):
        traj = integrate(harmonic_system(), [1.0, 0.0], 2.0, 1e-3)
        assert prime_period(traj).kind == "none"


class TestTwist:
    def test_unperturbed_fixed_circle(self):
        rep = twist_fixed_points(standard_map(0.0), (-np.pi, np.pi), grid=32)
        assert rep.is_curve
        # fixed set is a union of circles at integer r (theta is mod 1)
        assert all(abs(p[1] - round(p[1])) < 1e-8 for p in rep.fixed_points)
        assert rep.rotation_lower < 0 < rep.rotation_upper

    def test_perturbed_isolated_points(self):
        rep = twist_fixed_points(standard_map(0.1), (-np.pi, np.pi), grid=32)
        assert not rep.is_curve
        assert len(rep.fixed_points) >= 2
        f = standard_map(0.1)
        for p in rep.fixed_points:
            q = f(p)
            assert abs((q[0] - p[0] + 0.5) % 1.0 - 0.5) < 1e-7
            assert abs(q[1] - p[1]) < 1e-7

    def test_rigid_rotation_no_fixed_points(self):
        def rot(p):
            return np.array([p[0] + 0.3, p[1]])

        rep = twist_fixed_points(rot, (-1.0, 1.0), grid=16)
        assert len(rep.fixed_points) == 0
        assert not rep.is_curve
