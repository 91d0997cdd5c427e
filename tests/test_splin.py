import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symidx import axioms, hamdyn, index, splin
from symidx.errors import (
    AmbiguousClassificationError,
    DimensionError,
    InvalidPathError,
    NotSymplecticError,
    ParameterError,
    StepFailureError,
)
from symidx.splin import (
    SymmetricFamily,
    SymmetricFamily2,
    SymplecticMatrix,
    SymplecticPath,
    classify_eigenvalues,
    constant_path,
    is_symplectic,
    path_from_symmetric,
    random_symmetric_family,
    random_symplectic,
    recover_symmetric,
    rho,
    exp_path,
    rotation_path,
    standard_j,
)


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestIsSymplectic:
    def test_j0(self):
        assert is_symplectic(standard_j(1), tol=1e-12)
        assert is_symplectic(standard_j(3), tol=1e-12)

    def test_identity(self):
        assert is_symplectic(np.eye(4))

    def test_diag22_not(self):
        assert not is_symplectic(np.diag([2.0, 2.0]))

    def test_odd_dimension(self):
        with pytest.raises(DimensionError):
            is_symplectic(np.eye(3))

    def test_validated_wrapper(self):
        SymplecticMatrix(np.diag([2.0, 0.5]))
        with pytest.raises(Exception):
            SymplecticMatrix(np.diag([2.0, 2.0]))


class TestRho:
    def test_rotation(self):
        for theta in (0.3, 1.2, 2.9, 4.4):
            assert abs(rho(rot2(theta)) - np.exp(1j * theta)) < 1e-12

    def test_w_plus(self):
        for n in (1, 2, 3):
            assert abs(rho(-np.eye(2 * n)) - (-1.0) ** n) < 1e-12

    def test_w_minus(self):
        for n in (1, 2, 3):
            d = np.ones(2 * n)
            d[0], d[n] = 2.0, 0.5
            d[1:n] = -1.0
            d[n + 1:] = -1.0
            assert abs(rho(np.diag(d)) - (-1.0) ** (n - 1)) < 1e-12

    def test_unit_modulus_random(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            val = rho(random_symplectic(n, rng))
            assert abs(abs(val) - 1.0) < 1e-9


def polar_rho(M):
    """rho through the orthogonal polar factor W V^T of the SVD M = W S V^T."""
    n = len(M) // 2
    W, _, Vt = np.linalg.svd(M)
    U = W @ Vt
    val = np.linalg.det(U[:n, :n] + 1j * U[n:, :n])
    return val / abs(val)


class TestRhoComplexLinearPart:
    def test_matches_the_polar_factor(self):
        for n in (1, 2, 3, 4):
            for spread in (0.5, 1.0, 1.5):
                rng = np.random.default_rng([n, int(10 * spread)])
                for _ in range(25):
                    M = random_symplectic(n, rng, spread)
                    bound = 1e-14 * max(1.0, np.linalg.norm(M, 2))
                    assert abs(rho(M) - polar_rho(M)) < bound

    def test_ill_conditioned_draw_stays_on_the_circle(self):
        # norm 1187: the eigendecomposition of M M^T left |rho| = 0.999967
        M = random_symplectic(4, np.random.default_rng(7153827))
        assert np.linalg.norm(M, 2) > 1000
        assert abs(abs(rho(M)) - 1.0) <= 1e-15

    def test_stack_equals_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            Ms = np.stack([random_symplectic(n, rng, 1.2) for _ in range(9)])
            each = np.array([rho(M) for M in Ms])
            assert rho(Ms).tobytes() == each.tobytes()

    def test_odd_or_non_square_input_raises_dimension_error(self):
        for M in (np.eye(3), np.ones((2, 4)), np.ones(4)):
            with pytest.raises(DimensionError):
                rho(M)

    def test_non_symplectic_input_raises(self):
        # complex-linear part 0: det(X + iY) = 0
        with pytest.raises(NotSymplecticError):
            rho(np.diag([1.0, -1.0]))

    def test_nan_entry_raises_without_warning(self):
        M = np.eye(4)
        M[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymplecticError):
                rho(M)


class TestClassify:
    def test_elliptic_first_kind(self):
        rep = classify_eigenvalues(rot2(np.pi / 3))
        (g,) = rep.groups
        assert g.kind == "elliptic-pair"
        # counter-clockwise rotation: first kind in the upper half plane
        assert g.first_kind.imag > 0
        assert abs(g.first_kind - np.exp(1j * np.pi / 3)) < 1e-9

    def test_positive_hyperbolic(self):
        rep = classify_eigenvalues(np.diag([2.0, 0.5]))
        assert rep.groups[0].kind == "positive-hyperbolic-pair"

    def test_negative_hyperbolic(self):
        rep = classify_eigenvalues(np.diag([-2.0, -0.5]))
        assert rep.groups[0].kind == "negative-hyperbolic-pair"

    def test_quadruple(self):
        # real normal form of eigenvalue 1.2 e^{i pi/5}: block diag(A, (A^T)^-1)
        A = 1.2 * rot2(np.pi / 5)
        M = np.zeros((4, 4))
        M[:2, :2] = A
        M[2:, 2:] = np.linalg.inv(A).T
        assert is_symplectic(M)
        rep = classify_eigenvalues(M)
        assert rep.groups[0].kind == "quadruple"
        got = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
        lam = 1.2 * np.exp(1j * np.pi / 5)
        expect = sorted([lam, np.conj(lam), 1 / lam, 1 / np.conj(lam)],
                        key=lambda z: (z.real, z.imag))
        # independent oracle: roots of the characteristic polynomial
        roots = sorted(np.roots(np.poly(M)), key=lambda z: (z.real, z.imag))
        for g, e, r in zip(got, expect, roots):
            assert abs(g - e) < 1e-9
            assert abs(g - r) < 1e-9

    def test_unit_root(self):
        rep = classify_eigenvalues(np.eye(2))
        assert rep.groups[0].kind == "unit-root"

    def test_ambiguous_guard_band(self):
        eps = 5e-8  # inside (tol, 100 tol] for tol = 1e-9... scaled to land there
        M = np.diag([1.0 + eps, 1.0 / (1.0 + eps)])
        with pytest.raises(AmbiguousClassificationError) as err:
            classify_eigenvalues(M, tol=1e-9)
        assert err.value.eigenvalues


class TestPathFromSymmetric:
    def test_constant_identity_form(self):
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([np.eye(2)] * 2))
        P = path_from_symmetric(fam, steps=10_000)
        assert np.max(np.abs(P.endpoint() - rot2(1.0))) < 1e-8

    def test_zero_form(self):
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([np.zeros((2, 2))] * 2))
        P = path_from_symmetric(fam, steps=16)
        assert np.max(np.abs(P.mats - np.eye(2))) < 1e-14

    def test_step_count_error(self):
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([np.eye(2)] * 2))
        with pytest.raises(ParameterError):
            path_from_symmetric(fam, steps=1)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        fam = random_symmetric_family(1, rng, modes=2, scale=1.0, samples=513)
        P = path_from_symmetric(fam, steps=512)
        rec = recover_symmetric(P)
        worst = max(
            np.max(np.abs(rec.at(t) - fam.at(t)))
            for t in np.linspace(0.05, 0.95, 19)
        )
        assert worst < 1e-4  # central differences are O(h^2), h = 1/512

    def test_symplectic_residual_machine_level(self):
        # the midpoint rule preserves quadratic invariants: residual stays
        # at round-off independent of the step count
        rng = np.random.default_rng(9)
        fam = random_symmetric_family(2, rng, modes=2, scale=1.5)
        J = standard_j(2)
        P = path_from_symmetric(fam, steps=64)
        assert max(np.max(np.abs(m.T @ J @ m - J)) for m in P.mats) < 1e-12

    def test_solution_error_order(self):
        from scipy.linalg import expm

        S = np.array([[1.3, 0.4], [0.4, -0.8]])
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([S, S]),
                              matrix_at=lambda t: S)
        exact = expm(standard_j(1) @ S)

        def err(steps):
            return np.max(np.abs(path_from_symmetric(fam, steps).endpoint() - exact))

        e1, e2 = err(64), err(128)
        assert e2 < e1 / 2.5  # second-order integrator


# The per-step Cayley loop that precomputed factors replaced.
def reference_cayley_step(A, h, Psi):
    eye = np.eye(A.shape[-1])
    hA = 0.5 * np.asarray(h)[..., None, None] * A
    return np.linalg.solve(eye - hA, (eye + hA) @ Psi)


def reference_path_samples(S, steps):
    J = standard_j(S.dim // 2)
    ts = np.linspace(0.0, 1.0, steps + 1)
    As = J @ S.at_many(0.5 * (ts[:-1] + ts[1:]))
    mats = np.empty((steps + 1, S.dim, S.dim))
    mats[0] = np.eye(S.dim)
    for k in range(steps):
        mats[k + 1] = reference_cayley_step(As[k], ts[k + 1] - ts[k], mats[k])
    return mats


class TestCayleyFactorsBitForBit:
    @pytest.mark.parametrize("n, steps, samples", [(1, 64, 33), (2, 48, 17), (3, 16, 9)])
    def test_path_from_symmetric_samples(self, n, steps, samples):
        # with the exact evaluator, and interpolated from its samples
        exact = random_symmetric_family(n, np.random.default_rng(40 + n), samples=samples)
        for fam in (exact, SymmetricFamily(exact.ts, exact.mats)):
            P = path_from_symmetric(fam, steps)
            ref = reference_path_samples(fam, steps)
            assert P.mats.tobytes() == ref.tobytes()

    def test_sampled_family_with_signed_zeros(self):
        S = np.array([[[1.0, -0.0], [-0.0, -2.0]], [[0.0, 0.5], [0.5, -0.0]]])
        fam = SymmetricFamily(np.array([0.0, 1.0]), S)
        P = path_from_symmetric(fam, 32)
        assert P.mats.tobytes() == reference_path_samples(fam, 32).tobytes()

    def test_stacked_step_and_evaluator(self):
        rng = np.random.default_rng(7)
        fam = random_symmetric_family(2, rng)
        J = standard_j(2)
        ts = rng.uniform(0.0, 1.0, 9)
        A = J @ fam.at_many(ts)
        Psi = np.stack([random_symplectic(2, rng) for _ in ts])
        h = rng.uniform(0.0, 0.01, 9)
        assert splin.cayley_step(A, h, Psi).tobytes() == \
            reference_cayley_step(A, h, Psi).tobytes()
        for k in range(len(ts)):
            assert splin.cayley_step(A[k], h[k], Psi[k]).tobytes() == \
                reference_cayley_step(A[k], h[k], Psi[k]).tobytes()


@pytest.mark.filterwarnings("error")
class TestGesvKernel:
    """``gesv`` / ``gesv_vector`` under ``gesv_errstate`` is numpy.linalg.solve."""

    @pytest.mark.parametrize("d", [2, 4, 6])
    @pytest.mark.parametrize("near_identity", [True, False])
    def test_same_bits_as_numpy_solve(self, d, near_identity):
        rng = np.random.default_rng([1502, d, near_identity])
        A = rng.normal(size=(400, d, d))
        if near_identity:  # the Newton and Cayley systems: I + O(step)
            A = np.eye(d) + 1e-3 * A
        B = rng.normal(size=(400, d, d))
        with splin.gesv_errstate():
            stacked = splin.gesv(A, B)
            for k in range(len(A)):
                x = splin.gesv_vector(A[k], B[k, :, 0])
                X = splin.gesv(A[k], B[k])
                assert x.tobytes() == np.linalg.solve(A[k], B[k, :, 0]).tobytes()
                assert X.tobytes() == np.linalg.solve(A[k], B[k]).tobytes()
        assert stacked.tobytes() == np.linalg.solve(A, B).tobytes()

    def test_singular_cayley_factor_raises(self):
        # h A / 2 = diag(1, -1) at the second step makes I - h A / 2 singular
        h = 0.5
        A = np.stack([np.diag([0.3, -0.3]), np.diag([2.0 / h, -2.0 / h])])
        with pytest.raises(np.linalg.LinAlgError):
            splin.cayley_flow(A, h)
        with pytest.raises(np.linalg.LinAlgError):
            splin.cayley_step(A[1], h, np.eye(2))

    @staticmethod
    def constant_family(a):
        # J0 S = diag(-a, a): the Cayley factor I - h J0 S / 2 is singular at h = 2 / a
        S = np.array([[0.0, a], [a, 0.0]])
        return SymmetricFamily([0.0, 1.0], [S, S])

    def test_singular_flow_step_is_step_failure(self):
        with pytest.raises(StepFailureError, match=r"^singular Cayley factor") as err:
            path_from_symmetric(self.constant_family(512.0))
        assert err.value.t == 0.0

    def test_overflowing_flow_is_step_failure(self):
        # h J0 S / 2 = diag(-0.98, 0.98) at h = 1/256: no factor is singular,
        # but the flow grows 99-fold per step and overflows after step 154
        with pytest.raises(StepFailureError, match=r"^non-finite sample") as err:
            path_from_symmetric(self.constant_family(501.76))
        assert err.value.t == 154 / 256

    def test_singular_evaluator_substep_is_step_failure(self):
        # the 1/256 steps are regular at a = 1024; a substep of 1/512 is not
        P = path_from_symmetric(self.constant_family(1024.0))
        with pytest.raises(StepFailureError, match=r"step from t=0.25$") as err:
            P.at_many([0.25, 0.25 + 1.0 / 512.0])
        assert err.value.t == 0.25

    def test_cayley_failure_without_a_singular_factor(self):
        err = splin.cayley_failure(np.zeros((3, 2, 2)), 0.5, [0.0, 0.5, 1.0])
        assert isinstance(err, StepFailureError) and err.t is None
        assert "non-finite" in str(err)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("j_structure", ["standard", "canonical"])
    def test_singular_newton_system_raises(self, n, j_structure):
        # Hess = (2/dt) diag(I, -I) makes I - dt/2 J Hess = [[I, -+I], [-+I, I]]
        dt = 0.25
        d = np.repeat([2.0 / dt, -2.0 / dt], n)
        sys_ = hamdyn.HamiltonianSystem(
            lambda z: 0.5 * float(d @ z**2), n, "plane" if n == 1 else "r2n",
            gradient=lambda z: d * z, hessian=lambda z: np.diag(d),
            j_structure=j_structure)
        with pytest.raises(StepFailureError, match=r"^singular Newton system at t=0$"):
            hamdyn.integrate(sys_, np.linspace(1.0, 0.5, 2 * n), 1.0, dt)


class TestRecoverSymmetric:
    def test_rotation(self):
        P = rotation_path(1, 1.0, samples=513)
        rec = recover_symmetric(P)
        assert np.max(np.abs(rec.mats - np.eye(2))) < 1e-4

    def test_constant(self):
        P = constant_path(np.eye(2), samples=9)
        rec = recover_symmetric(P)
        assert np.max(np.abs(rec.mats)) < 1e-12

    def test_too_few_samples(self):
        P = constant_path(np.eye(2), samples=2)
        with pytest.raises(InvalidPathError):
            recover_symmetric(P)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def scalar_interpolation(fam, t):
    """Reference: linear interpolation of the samples at one parameter."""
    t = float(np.clip(t, fam.ts[0], fam.ts[-1]))
    k = int(np.searchsorted(fam.ts, t, side="right")) - 1
    k = min(max(k, 0), len(fam.ts) - 2)
    t0, t1 = fam.ts[k], fam.ts[k + 1]
    w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    return (1.0 - w) * fam.mats[k] + w * fam.mats[k + 1]


class TestSymmetricFamilyAtMany:
    # grid points, interior points, the ends and points outside [0, 1]
    TS = np.concatenate([np.linspace(0.0, 1.0, 37), [-0.5, 1e-9, 0.123456789,
                                                     1.0 - 1e-12, 1.7]])

    @staticmethod
    def _families():
        fam = random_symmetric_family(2, np.random.default_rng(5), samples=17)
        sampled = SymmetricFamily(fam.ts, fam.mats)
        uneven = SymmetricFamily(np.array([0.0, 0.1, 0.55, 1.0]), fam.mats[:4])
        return fam, sampled, uneven

    def test_matches_pointwise_bit_for_bit(self):
        fam, sampled, uneven = self._families()
        ref = np.stack([fam.matrix_at(t) for t in self.TS])
        assert _bits(fam.at_many(self.TS)) == _bits(ref)
        for F in (sampled, uneven, SymmetricFamily(np.array([0.0]), fam.mats[:1])):
            ref = np.stack([scalar_interpolation(F, t) for t in self.TS])
            assert _bits(F.at_many(self.TS)) == _bits(ref)
            assert _bits(np.stack([F.at(t) for t in self.TS])) == _bits(ref)

    def test_slice_at_unchanged(self):
        # reference: the pointwise blend of the two neighbouring slices
        fam, sampled, uneven = self._families()
        for a, b in ((fam, uneven), (uneven, sampled)):
            F = SymmetricFamily2(np.array([0.0, 1.0]), [a, b])
            ts = np.union1d(a.ts, b.ts)
            for s in (0.0, 0.3, 1.0):
                ref = np.stack([(1.0 - s) * a.at(t) + s * b.at(t) for t in ts])
                got = F.slice_at(s)
                assert np.array_equal(got.ts, ts)
                assert _bits(got.mats) == _bits(ref)


def _library_evaluators():
    """(name, path or family) for every evaluator the library builds."""
    rng = np.random.default_rng(17)
    fam = random_symmetric_family(2, rng, samples=33)
    P = path_from_symmetric(random_symmetric_family(1, rng), steps=64)
    Q = path_from_symmetric(random_symmetric_family(1, rng), steps=48)
    R = rotation_path(1, 2.5, samples=65)
    L = axioms.conjugated_rotation_loop(rng, 1, 2)
    S = axioms.random_symmetric_bounded(rng, 1)
    yield "random_symmetric_family", fam
    yield "constant_family", axioms.constant_family(S)
    yield "path_from_symmetric", P
    yield "path_from_constant_family", path_from_symmetric(axioms.constant_family(S), 32)
    yield "rotation_path", R
    yield "exp_path", exp_path(S, samples=33)
    yield "constant_path", constant_path(random_symplectic(1, rng, 0.3), samples=5)
    yield "conjugated_rotation_loop", L
    yield "product", L.product(P)
    yield "inverse", P.inverse()
    yield "conjugate_by", P.conjugate_by(Q)
    yield "direct_sum", P.direct_sum(R)
    yield "concatenate", P.concatenate(R)
    yield "extension_elliptic", index._extension_path_sp2(np.diag([2.0, 0.5]) @ rot2(2.0), 33)
    yield "extension_hyperbolic", index._extension_path_sp2(
        R.at(0.3) @ np.diag([3.0, 1.0 / 3.0]) @ R.at(-0.3), 33)


def _scalar_only(t):
    """A user evaluator that accepts one float and nothing else."""
    if not isinstance(t, float):
        raise TypeError("scalar evaluator called with %r" % type(t))
    return rot2(3.0 * t)


class TestEvaluatorContract:
    # interior points, both ends, the middle and points outside [0, 1]
    TS = np.array([0.0, 1e-9, 0.123456789, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.999,
                   1.0 - 1e-12, 1.0, -0.5, 1.7])

    @pytest.mark.parametrize("name, F", list(_library_evaluators()))
    def test_stack_equals_pointwise_bit_for_bit(self, name, F):
        assert splin._is_stacked(F.matrix_at), name
        ts = np.concatenate([F.ts[::4], self.TS])  # grid nodes first
        ref = np.stack([F.matrix_at(float(t)) for t in ts])
        assert _bits(F.at_many(ts)) == _bits(ref)
        assert _bits(np.stack([F.at(t) for t in ts])) == _bits(ref)
        assert F.matrix_at(0.25).shape == (F.dim, F.dim)
        assert F.at(0.25).shape == (F.dim, F.dim)

    def test_user_scalar_evaluator(self):
        ts = np.linspace(0.0, 1.0, 9)
        U = SymplecticPath(ts, np.stack([_scalar_only(t) for t in ts]), True, False,
                           1e-9, _scalar_only)
        # adapted on construction to a stack evaluator with the same rows
        assert splin._is_stacked(U.matrix_at)
        ref = np.stack([_scalar_only(float(t)) for t in self.TS])
        assert _bits(U.at_many(self.TS)) == _bits(ref)
        R = rotation_path(1, 2.5, samples=33)
        for C in (U.concatenate(R), R.concatenate(U), U.product(R)):
            assert splin._is_stacked(C.matrix_at)
            ref = np.stack([C.matrix_at(float(t)) for t in self.TS])
            assert _bits(C.at_many(self.TS)) == _bits(ref)
        C = R.concatenate(U)
        assert np.allclose(C.at(0.75), rot2(1.5), atol=1e-15)

        # the user function gets one Python float per parameter, whichever
        # operation evaluates it
        calls = []

        def scalar(t):
            assert type(t) is float, type(t)
            calls.append(t)
            return rot2(3.0 * t)

        U = SymplecticPath(ts, np.stack([rot2(3.0 * t) for t in ts]), True, False,
                           1e-9, scalar)
        TS = self.TS.tolist()

        def params(make):
            calls.clear()
            make()
            return list(calls)

        assert params(lambda: U.at(0.3)) == [0.3]
        assert params(lambda: U.at_many(self.TS)) == TS
        UR, RU = U.concatenate(R), R.concatenate(U)
        assert params(lambda: UR.at_many(self.TS)) == [2.0 * t for t in TS if t <= 0.5]
        assert params(lambda: RU.at_many(self.TS)) == [2.0 * t - 1.0 for t in TS if t > 0.5]
        assert params(lambda: U.product(R)) == np.union1d(U.ts, R.ts).tolist()
        UxR = U.product(R)
        assert params(lambda: UxR.at_many(self.TS)) == TS

        def phi(t):
            return t * t

        assert params(lambda: U.reparametrize(phi)) == [phi(t) for t in ts]
        V = U.reparametrize(phi)
        assert params(lambda: V.at_many(self.TS)) == [phi(t) for t in TS]
        assert params(lambda: index._perturbed(U, 0.37)) == []
        Q = index._perturbed(U, 0.37)
        assert params(lambda: Q.at_many(self.TS)) == TS

    def test_user_scalar_family(self):
        S = np.array([[1.3, 0.4], [0.4, -0.8]])
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([S, S]),
                              matrix_at=lambda t: float(t) * S)
        P = path_from_symmetric(fam, steps=16)
        assert splin._is_stacked(P.matrix_at)
        ref = np.stack([P.matrix_at(float(t)) for t in self.TS])
        assert _bits(P.at_many(self.TS)) == _bits(ref)


class TestPathAlgebra:
    def test_validate_flags(self):
        P = rotation_path(1, 2 * np.pi)
        P.validate()
        bad = SymplecticPath(P.ts, P.mats, True, False)
        bad.mats = bad.mats.copy()
        bad.mats[0] = np.diag([2.0, 0.5])
        with pytest.raises(InvalidPathError):
            bad.validate()

    def test_validate_rejects_a_nan_sample(self):
        P = rotation_path(1, 1.0)
        P.mats[100, 1, 1] = np.nan
        with pytest.raises(NotSymplecticError, match="nan"):
            P.validate()

    def test_product_inverse(self):
        rng = np.random.default_rng(13)
        fam = random_symmetric_family(1, rng)
        P = path_from_symmetric(fam, steps=64)
        Q = P.product(P.inverse())
        assert np.max(np.abs(Q.mats - np.eye(2))) < 1e-10

    def test_direct_sum_block_structure(self):
        P = rotation_path(1, 0.5)
        Q = rotation_path(1, 1.5)
        D = P.direct_sum(Q)
        assert D.n == 2
        assert is_symplectic(D.at(0.7), tol=1e-9)

    def test_concatenate_endpoints(self):
        P = rotation_path(1, 1.0)
        Q = SymplecticPath(P.ts, np.stack([P.at(1.0) @ P.at(t) for t in P.ts]),
                           False, False, 1e-9)
        C = P.concatenate(Q)
        assert np.allclose(C.at(0.0), np.eye(2))
        assert np.allclose(C.at(1.0), rot2(2.0), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4))
def test_random_symplectic_invariants(seed, n):
    rng = np.random.default_rng(seed)
    M = random_symplectic(n, rng)
    assert is_symplectic(M, tol=1e-7)
    vals = np.linalg.eigvals(M)
    # spectrum closed under inversion and conjugation
    for lam in vals:
        assert np.min(np.abs(vals - 1.0 / lam)) < 1e-5 * max(1, abs(1 / lam))
        assert np.min(np.abs(vals - np.conj(lam))) < 1e-6
    assert abs(abs(rho(M)) - 1.0) < 1e-9
