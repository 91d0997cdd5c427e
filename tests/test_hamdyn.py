import math

import numpy as np
import pytest

from symidx import hamdyn
from symidx.errors import NoOrbitFoundError, ParameterError
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
