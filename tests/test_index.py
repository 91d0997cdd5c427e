import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from symidx.axioms import (
    conjugated_rotation_loop,
    constant_family,
    random_admissible_path,
    random_symmetric_bounded,
)
from symidx.errors import (
    DimensionError,
    EndpointDegenerateError,
    InvalidPathError,
    ParameterError,
    ResolutionError,
)
from symidx.index import (
    IndexValue,
    crossing_report,
    cz_degree_sp2,
    cz_rs,
    cz_winding,
    loop_operator_spectral_flow,
    maslov_loop,
    rs_index,
    spectral_flow_matrix,
    truncated_loop_operator,
    winding_interval,
)
from symidx import index
from symidx.splin import (
    SymmetricFamily,
    SymmetricFamily2,
    SymplecticPath,
    constant_path,
    exp_path,
    path_from_symmetric,
    random_symmetric_family,
    rotation_path,
    standard_j,
)


class TestIndexValue:
    def test_half_integer_exact(self):
        v = IndexValue(3)
        assert float(v.value) == 1.5
        with pytest.raises(Exception):
            v.as_int()

    def test_canonical_negates(self):
        v = IndexValue(4)
        assert v.in_normalization("canonical").doubled == -4
        assert v.in_normalization("canonical").in_normalization("standard") == v


class TestMaslov:
    def test_normalization(self):
        assert maslov_loop(rotation_path(1, 2 * np.pi)).as_int() == 1

    def test_constant_loop(self):
        assert maslov_loop(constant_path(np.eye(4), samples=16)).as_int() == 0

    def test_direct_sum_of_two_and_three(self):
        L = rotation_path(1, 4 * np.pi).direct_sum(rotation_path(1, 6 * np.pi))
        assert maslov_loop(L).as_int() == 5

    def test_needs_closed(self):
        with pytest.raises(InvalidPathError):
            maslov_loop(rotation_path(1, 1.0))

    @pytest.mark.parametrize("seed, n, turns, doubled", [
        ([3, 57], 3, (3, 3), 36),         # 18 + 18, norms where rho used to raise
        ([603, 0, 2, 0], 2, (1, 3), 16),  # 4 + 12, sample norms up to 1169
    ])
    def test_ill_conditioned_loop_products(self, seed, n, turns, doubled):
        g = np.random.default_rng(seed)
        L1, L2 = (conjugated_rotation_loop(g, n, k) for k in turns)
        assert maslov_loop(L1.product(L2)).doubled == doubled

    def test_undersampled_without_evaluator(self):
        P = rotation_path(1, 2 * np.pi, samples=4)
        P.matrix_at = None
        with pytest.raises(ResolutionError) as err:
            maslov_loop(P)
        assert err.value.interval is not None


class TestCzRs:
    def test_signature_half_identity(self):
        assert cz_rs(exp_path(0.5 * np.eye(2))).as_int() == 1

    def test_signature_indefinite(self):
        assert cz_rs(exp_path(np.diag([1.0, -1.0]))).as_int() == 0

    def test_signature_n2_negative(self):
        assert cz_rs(exp_path(-0.5 * np.eye(4))).as_int() == -2

    def test_degenerate_endpoint(self):
        with pytest.raises(EndpointDegenerateError):
            cz_rs(rotation_path(1, 2 * np.pi))

    def test_needs_identity_start(self):
        P = constant_path(np.diag([2.0, 0.5]), samples=8)
        with pytest.raises(InvalidPathError):
            cz_rs(P)

    def test_canonical_rotation(self):
        # clockwise rotation path e^{-t J0} has canonical index +1
        P = rotation_path(1, -1.0)
        assert cz_rs(P).in_normalization("canonical").as_int() == 1

    def test_interior_crossings_counted(self):
        # theta in (2 pi k, 2 pi (k+1)) passes k interior crossings
        assert cz_rs(rotation_path(1, 3 * np.pi)).as_int() == 3
        assert cz_rs(rotation_path(1, 5 * np.pi)).as_int() == 5


class TestRsIndex:
    def test_full_rotation(self):
        assert float(rs_index(rotation_path(1, 2 * np.pi)).value) == 2

    def test_constant_hyperbolic(self):
        assert float(rs_index(constant_path(np.diag([2.0, 0.5]), samples=8)).value) == 0

    def test_half_rotation(self):
        # only the start crossing: kernel dim 2, form pi I, half weight
        assert float(rs_index(rotation_path(1, np.pi)).value) == 1

    def test_concatenation_additive(self):
        # full rotation split at theta = pi: 1 + 1 = 2
        full = rotation_path(1, 2 * np.pi)
        half1 = rotation_path(1, np.pi)
        ts = np.linspace(0.0, 1.0, 257)

        def second(t):
            th = np.pi * (1.0 + t)
            c, s = np.cos(th), np.sin(th)
            return np.array([[c, -s], [s, c]])

        half2 = SymplecticPath(ts, np.stack([second(t) for t in ts]),
                               False, False, 1e-9, matrix_at=second)
        total = float(rs_index(full).value)
        assert total == float(rs_index(half1).value) + float(rs_index(half2).value)

    def test_reparametrization_invariant(self):
        rng = np.random.default_rng(22)
        P = random_admissible_path(rng, 1)
        # strictly increasing: phi'(t) = 1 + 0.4 cos(2 pi t) > 0
        Q = P.reparametrize(lambda t: t + 0.4 * np.sin(2 * np.pi * t) / (2 * np.pi))
        assert rs_index(P).doubled == rs_index(Q).doubled


class TestCrossingReport:
    def test_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            P = random_admissible_path(rng, 1)
            rep = crossing_report(P)
            ts = [c.t for c in rep.crossings]
            assert ts == sorted(ts)
            for c in rep.crossings:
                assert abs(c.signature) <= c.kernel_dim
                assert (c.signature - c.kernel_dim) % 2 == 0


class TestWinding:
    def test_quarter_rotation(self):
        iv, interval = cz_winding(rotation_path(1, np.pi / 2))
        assert iv.as_int() == 1
        assert interval.upper - interval.lower < 0.5
        assert abs(interval.lower - 0.25) < 1e-6

    def test_positive_hyperbolic_even(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(30):
            P = random_admissible_path(rng, 1)
            end = P.endpoint()
            if np.linalg.det(end - np.eye(2)) < -1e-6:  # positive hyperbolic
                iv, _ = cz_winding(P)
                assert iv.as_int() % 2 == 0
                found += 1
        assert found >= 3

    def test_matches_cz_rs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            P = random_admissible_path(rng, 1)
            iv, _ = cz_winding(P)
            assert iv.as_int() == cz_rs(P).as_int()

    def test_sp2_only(self):
        rng = np.random.default_rng(43)
        with pytest.raises(DimensionError):
            cz_winding(random_admissible_path(rng, 2))

    def test_interval_length_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            lo, hi = winding_interval(random_admissible_path(rng, 1))
            assert hi - lo < 0.5


class TestDegreeSp2:
    def test_rotations_first_window(self):
        for theta in (0.5, 2.0, 5.0):
            assert cz_degree_sp2(rotation_path(1, theta)).as_int() == 1

    def test_rotations_second_window(self):
        for theta in (7.0, 9.0, 12.0):
            assert cz_degree_sp2(rotation_path(1, theta)).as_int() == 3

    def test_hyperbolic_zero(self):
        # e^{t J0 S}, S = diag(a, -a): ends positive hyperbolic, no
        # interior crossings, start signature 0
        P = exp_path(np.diag([1.0, -1.0]))
        assert cz_degree_sp2(P).as_int() == 0

    def test_matches_cz_rs(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            P = random_admissible_path(rng, 1)
            assert cz_degree_sp2(P).as_int() == cz_rs(P).as_int()

    def test_hyperbolic_extension_starts_at_endpoint(self):
        rng = np.random.default_rng(52)
        found = 0
        for _ in range(30):
            V = random_admissible_path(rng, 1, 3.0).endpoint()
            if np.linalg.det(V - np.eye(2)) < 0.0:  # positive hyperbolic
                ext = index._extension_path_sp2(V, 65)
                assert np.max(np.abs(ext.at(0.0) - V)) <= 1e-12 * np.linalg.norm(V)
                assert np.max(np.abs(ext.at(1.0) - np.diag([2.0, 0.5]))) <= 1e-12
                found += 1
        assert found >= 5

    def test_hyperbolic_endpoint_at_scale_6(self):
        # the extension used to start off V, so the concatenated path jumped
        # at t = 1/2 and phase unwrapping ran out of refinements
        P = random_admissible_path(np.random.default_rng([77, 60, 10]), 1, 6.0)
        assert cz_degree_sp2(P).doubled == cz_winding(P)[0].doubled == 0


class TestSpectralFlowMatrix:
    def test_single_upward_crossing(self):
        fam = SymmetricFamily(
            np.array([0.0, 1.0]),
            np.stack([np.diag([-0.5, 1.0]), np.diag([0.5, 1.0])]),
            matrix_at=lambda s: np.diag([s - 0.5, 1.0]),
        )
        assert spectral_flow_matrix(fam) == 1

    def test_constant_family(self):
        S = np.diag([1.0, -2.0, 3.0, 4.0])
        fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([S, S]))
        assert spectral_flow_matrix(fam) == 0

    def test_endpoint_count_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            fam = random_symmetric_family(2, rng, modes=2, scale=2.0)
            A0, A1 = fam.at(0.0), fam.at(1.0)
            if min(np.min(np.abs(np.linalg.eigvalsh(A0))),
                   np.min(np.abs(np.linalg.eigvalsh(A1)))) < 1e-3:
                continue
            expect = int(np.sum(np.linalg.eigvalsh(A0) < 0)
                         - np.sum(np.linalg.eigvalsh(A1) < 0))
            assert spectral_flow_matrix(fam) == expect

    def test_singular_endpoint_rejected(self):
        fam = SymmetricFamily(
            np.array([0.0, 1.0]),
            np.stack([np.diag([0.0, 1.0]), np.diag([1.0, 1.0])]),
        )
        with pytest.raises(EndpointDegenerateError):
            spectral_flow_matrix(fam)


def first_entry_family(f):
    """diag(f(s), 1) with its exact evaluator."""
    return SymmetricFamily(
        np.array([0.0, 1.0]),
        np.stack([np.diag([f(0.0), 1.0]), np.diag([f(1.0), 1.0])]),
        matrix_at=lambda s: np.diag([f(s), 1.0]),
    )


class TestSpectralFlowEndpointInertia:
    """The flow is n_-(A(0)) - n_-(A(1)), however the crossings look."""

    def test_cubic_crossing(self):
        # crossing form 0 at s = 1/2, yet the eigenvalue changes sign once
        assert spectral_flow_matrix(first_entry_family(lambda s: (s - 0.5) ** 3)) == 1

    def test_tangential_touch(self):
        assert spectral_flow_matrix(first_entry_family(lambda s: (s - 0.5) ** 2)) == 0

    def test_close_pair_inside_one_cell(self):
        # two sign changes 2e-4 apart, well inside one cell of a 1025-point grid
        fam = first_entry_family(lambda s: (s - 0.5001) * (s - 0.5003))
        assert spectral_flow_matrix(fam) == 0

    def test_singular_end_still_rejected(self):
        with pytest.raises(EndpointDegenerateError):
            spectral_flow_matrix(first_entry_family(lambda s: s ** 3))


def theta_interpolation_family(theta0, theta1, n=1):
    ss = np.linspace(0.0, 1.0, 5)
    slices = []
    for s in ss:
        th = (1 - s) * theta0 + s * theta1
        S = th * np.eye(2 * n)
        slices.append(SymmetricFamily(np.array([0.0, 1.0]), np.stack([S, S])))
    return SymmetricFamily2(ss, slices)


class TestLoopOperatorSF:
    def test_constant_in_s(self):
        fam = theta_interpolation_family(0.7, 0.7)
        assert loop_operator_spectral_flow(fam, 16) == 0

    def test_calibration_example(self):
        # theta: -pi/2 -> pi/2; lattice oracle: the double eigenvalue -theta
        # crosses zero downward once, so the flow is -2 = CZ0 - CZ1
        fam = theta_interpolation_family(-np.pi / 2, np.pi / 2)
        assert loop_operator_spectral_flow(fam, 16) == -2
        P0 = path_from_symmetric(SymmetricFamily(
            np.array([0.0, 1.0]), np.stack([-np.pi / 2 * np.eye(2)] * 2)), 256)
        P1 = path_from_symmetric(SymmetricFamily(
            np.array([0.0, 1.0]), np.stack([np.pi / 2 * np.eye(2)] * 2)), 256)
        assert loop_operator_spectral_flow(fam, 16) == (
            cz_rs(P0).as_int() - cz_rs(P1).as_int()
        )

    def test_random_matches_cz_difference(self):
        rng = np.random.default_rng(71)
        done = 0
        while done < 5:
            f0 = random_symmetric_family(1, rng, modes=2, scale=1.5)
            f1 = random_symmetric_family(1, rng, modes=2, scale=1.5)
            fam2 = SymmetricFamily2(np.array([0.0, 1.0]), [f0, f1])
            P0 = path_from_symmetric(f0, steps=256)
            P1 = path_from_symmetric(f1, steps=256)
            try:
                expect = cz_rs(P0).as_int() - cz_rs(P1).as_int()
                got = loop_operator_spectral_flow(fam2, 16)
            except EndpointDegenerateError:
                continue
            assert got == expect
            done += 1


def fourier_basis(cutoff, grid):
    """Orthonormal real trig basis values on the uniform grid, (grid, 2K+1)."""
    t = np.arange(grid) / grid
    cols = [np.ones(grid)]
    for k in range(1, cutoff + 1):
        cols.append(np.sqrt(2.0) * np.cos(2 * np.pi * k * t))
        cols.append(np.sqrt(2.0) * np.sin(2 * np.pi * k * t))
    return np.column_stack(cols)


def derivative_pairing(cutoff):
    """G[a, b] = integral of phi_a phi_b' over the period (antisymmetric)."""
    nb = 2 * cutoff + 1
    G = np.zeros((nb, nb))
    for k in range(1, cutoff + 1):
        c, s = 2 * k - 1, 2 * k
        G[c, s] = 2 * np.pi * k   # <cos_k, d/dt sin_k>
        G[s, c] = -2 * np.pi * k
    return G


def einsum_loop_operator(S_slice, cutoff, grid=None):
    """Reference assembly: the whole S term as one three-operand einsum."""
    dim = S_slice.dim
    if grid is None:
        grid = max(256, 8 * cutoff)
    B = fourier_basis(cutoff, grid)
    Svals = np.stack([S_slice.at(t) for t in np.arange(grid) / grid])
    term1 = -np.kron(derivative_pairing(cutoff), standard_j(dim // 2))
    term2 = -np.einsum("ma,mb,mij->aibj", B, B, Svals).reshape(
        B.shape[1] * dim, B.shape[1] * dim) / grid
    M = term1 + term2
    return 0.5 * (M + M.T)


def loop_test_families(n, cutoff):
    fam = random_symmetric_family(n, np.random.default_rng([n, cutoff]), samples=33)
    # a sampled family that is symmetric only to 1e-9, as loaded files are
    noise = 1e-9 * np.random.default_rng(3).normal(size=fam.mats.shape)
    return fam, SymmetricFamily(fam.ts, fam.mats + noise)


class TestTruncatedLoopOperator:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cutoff", [2, 5, 32])
    def test_matches_einsum_reference(self, n, cutoff):
        # grid 37 is coarser than the cutoff's frequencies: at cutoff 32
        # the sums k + l wrap around the grid, and the assembly must alias
        # exactly as the direct quadrature does
        for F in loop_test_families(n, cutoff):
            for grid in (None, 37):
                got = truncated_loop_operator(F, cutoff, grid)
                ref = einsum_loop_operator(F, cutoff, grid)
                assert got.shape == ref.shape == ((2 * cutoff + 1) * 2 * n,) * 2
                assert np.max(np.abs(got - ref)) <= 1e-13
                assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cutoff", [2, 16, 32])
    def test_cutoff_block_of_doubled_operator_bit_for_bit(self, n, cutoff):
        size = (2 * cutoff + 1) * 2 * n
        for F in loop_test_families(n, cutoff):
            big = truncated_loop_operator(F, 2 * cutoff)
            small = truncated_loop_operator(F, cutoff, grid=max(256, 16 * cutoff))
            assert big[:size, :size].tobytes() == small.tobytes()

    def test_cached_tables_are_read_only(self):
        truncated_loop_operator(loop_test_families(1, 4)[0], 4)
        for table in index._gram_tables(4, 256):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_one_assembly_per_end(self, monkeypatch):
        calls = []
        real = index.truncated_loop_operator

        def counted(S_slice, cutoff, grid=None):
            calls.append((cutoff, grid))
            return real(S_slice, cutoff, grid)

        monkeypatch.setattr(index, "truncated_loop_operator", counted)
        assert loop_operator_spectral_flow(theta_interpolation_family(0.7, 0.7), 8) == 0
        assert calls == [(16, None), (16, None)]


def einsum_windings(P, s_samples, t_samples=513):
    """Reference winding fan: Psi(t) v_s through one einsum per time grid."""
    ss = np.linspace(0.0, 0.5, s_samples, endpoint=False)
    v0 = np.column_stack([np.cos(2 * np.pi * ss), np.sin(2 * np.pi * ss)])
    m = max(t_samples, len(P.ts))
    while True:
        ts = np.linspace(0.0, 1.0, m)
        vecs = np.einsum("tij,sj->tsi", np.stack([P.at(t) for t in ts]), v0)
        ang = np.arctan2(vecs[..., 1], vecs[..., 0])
        jumps = np.angle(np.exp(1j * np.diff(ang, axis=0)))
        if np.max(np.abs(jumps)) < 0.5 * np.pi:
            return np.sum(jumps, axis=0) / (2.0 * np.pi)
        m = 2 * m - 1


@pytest.mark.parametrize("seed", range(4))
def test_winding_fan_matches_einsum_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 4])
    P = random_admissible_path(rng, 1, 0.8 + 0.8 * seed)
    got = index._windings_all_s(P, 256)
    assert got.tobytes() == einsum_windings(P, 256).tobytes()


def serial_locate_crossings(path, grid_size=257):
    """Reference crossing scan: each sign-change bracket bisected on its own."""
    if len(path.ts) >= 129:
        ts = path.ts
        d = np.linalg.det(path.mats - np.eye(path.dim))
    else:
        ts = np.linspace(0.0, 1.0, grid_size)
        d = index._dets_minus_id(path, ts)
    scale = max(1e-12, float(np.max(np.abs(d))))
    found = []

    def bisect(a, fa, b):
        while b - a > index.BISECT_TOL:
            m = 0.5 * (a + b)
            fm = index._dets_minus_id(path, [m])[0]
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
        found.append(0.5 * (a + b))

    for k in range(len(ts) - 1):
        if d[k] == 0.0 and 0.0 < ts[k] < 1.0:
            found.append(ts[k])
        if d[k] * d[k + 1] < 0.0:
            bisect(ts[k], d[k], ts[k + 1])
        elif abs(d[k]) <= 1e-13 * scale or abs(d[k + 1]) <= 1e-13 * scale:
            sub = np.linspace(ts[k], ts[k + 1], 10)[1:-1]
            fs = index._dets_minus_id(path, sub)
            for j in range(len(sub) - 1):
                if fs[j] * fs[j + 1] < 0.0:
                    bisect(sub[j], fs[j], sub[j + 1])
    absd = np.abs(d)
    for k in range(1, len(ts) - 1):
        if absd[k] <= absd[k - 1] and absd[k] <= absd[k + 1] and absd[k] < 1e-3 * scale:
            if d[k - 1] * d[k + 1] < 0.0:
                continue
            sub = np.linspace(ts[k - 1], ts[k + 1], 65)
            fs = index._dets_minus_id(path, sub)
            pair = False
            for j in range(len(sub) - 1):
                if fs[j] * fs[j + 1] < 0.0:
                    bisect(sub[j], fs[j], sub[j + 1])
                    pair = True
            if pair:
                continue
            res = minimize_scalar(lambda t: abs(index._dets_minus_id(path, [t])[0]),
                                  bounds=(ts[k - 1], ts[k + 1]), method="bounded",
                                  options={"xatol": index.BISECT_TOL})
            t0 = float(res.x)
            if 0.0 < t0 < 1.0 and index._kernel_of_crossing(path.at(t0)) is not None:
                found.append(t0)
    found.sort()
    merged = []
    for t in found:
        if not merged or t - merged[-1] > 1e-8:
            merged.append(t)
    return [t for t in merged if 1e-9 < t < 1.0 - 1e-9]


def first_cell_loop_product():
    """A loop times a path, crossing the Maslov cycle inside the first cell.

    The path's generator -4 pi I + diag(t - tau, 1) cancels the rotation
    loop's 4 pi I up to diag(t - tau, 1), so det(Psi(t) - I) changes sign
    near t = 2 tau = 1/512, inside the first grid cell [0, 1/256], where
    only the sub-scan of a cell bordered by a zero determinant finds it.
    """
    tau = 0.5 / 512
    base = -4 * np.pi * np.eye(2)
    fam = SymmetricFamily(np.array([0.0, 1.0]),
                          np.stack([base + np.diag([-tau, 1.0]),
                                    base + np.diag([1.0 - tau, 1.0])]))
    return rotation_path(1, 4 * np.pi).product(path_from_symmetric(fam, 256))


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 1), (2, 0), (2, 3)])
def test_one_pass_bisection_matches_serial(n, seed):
    P = random_admissible_path(np.random.default_rng([seed, 8]), n, 3.0)
    got = index._locate_crossings(P)
    assert len(got) >= 2
    assert got == serial_locate_crossings(P)


def test_one_pass_bisection_first_cell_bracket():
    Q = first_cell_loop_product()
    got = index._locate_crossings(Q)
    assert len(got) == 1 and 0.0 < got[0] < Q.ts[1]
    assert got == serial_locate_crossings(Q)


@pytest.mark.parametrize("s_samples", [129, 257])
def test_winding_fan_blocks_match_einsum(s_samples):
    # fans that do not fill whole blocks of WINDING_BLOCK directions
    P = random_admissible_path(np.random.default_rng([0, 4]), 1, 2.4)
    got = index._windings_all_s(P, s_samples)
    assert got.tobytes() == einsum_windings(P, s_samples).tobytes()


# ---------------------------------------------------------------------------
# winding interval from the endpoint lift; extension by closed-form powers


def sampled(P, m):
    """P's values on m uniform samples, without an evaluator."""
    ts = np.linspace(0.0, 1.0, m)
    return SymplecticPath(ts, P.at_many(ts), True, False, P.tol, None)


def loop_product(seed):
    """A conjugated rotation loop of -3..3 turns times an admissible path."""
    g = np.random.default_rng([seed, 6])
    L = conjugated_rotation_loop(g, 1, int(g.integers(-3, 4)))
    return L.product(random_admissible_path(g, 1, 2.0))


def winding_cases():
    for scale in (0.8, 1.6, 2.4, 3.0, 4.0, 6.0):
        g = np.random.default_rng([int(10 * scale), 12])
        for i in range(6):
            yield "scale %g #%d" % (scale, i), random_admissible_path(g, 1, scale)
    g = np.random.default_rng([5, 12])
    for i in range(3):
        P = random_admissible_path(g, 1, 1.0 + 1.5 * i)
        for m in (129, 193, 1025):
            yield "sampled %d #%d" % (m, i), sampled(P, m)
    for theta in (0.5, np.pi / 2, 7.0, 12.0):
        yield "rotation %g" % theta, rotation_path(1, theta)
    g = np.random.default_rng([6, 12])
    for i in range(6):
        yield "exp #%d" % i, exp_path(random_symmetric_bounded(g, 1, 3.0 * (1 + i % 4)))
    for seed in (0, 1, 32, 92):
        yield "loop product %d" % seed, loop_product(seed)


def test_winding_interval_is_min_max_of_full_fan_bit_for_bit():
    for name, P in winding_cases():
        vals = index._windings_all_s(P, 1024)
        expect = float(np.min(vals)), float(np.max(vals))
        got = winding_interval(P)
        assert [v.hex() for v in got] == [v.hex() for v in expect], name


@pytest.mark.parametrize("seed", [32, 92])
def test_loop_products_fail_the_certificate_and_keep_the_fan(seed):
    P = loop_product(seed)
    assert not index._turns_certified(P.at_many(np.linspace(0.0, 1.0, 513)))
    vals = index._windings_all_s(P, 1024)
    assert winding_interval(P) == (float(np.min(vals)), float(np.max(vals)))


def test_certified_path_sums_only_extreme_directions(monkeypatch):
    P = random_admissible_path(np.random.default_rng([16, 12]), 1, 1.6)
    vals = index._windings_all_s(P, 1024)
    widths = []
    real = index._fan_sums

    def counted(mats, v0):
        widths.append(len(v0))
        return real(mats, v0)

    monkeypatch.setattr(index, "_fan_sums", counted)
    assert winding_interval(P) == (float(np.min(vals)), float(np.max(vals)))
    assert len(widths) == 1 and 2 <= widths[0] <= 4


def test_coarse_sampled_path_raises_the_fan_error():
    # the interpolant from I to -diag(2, 1/2) is singular at t = 1/6 and
    # flips the direction (1, 0)
    W = -np.diag([2.0, 0.5])
    P = SymplecticPath(np.array([0.0, 0.5, 1.0]), np.stack([np.eye(2), W, W]),
                       True, False, 1e-9, None)
    with pytest.raises(ResolutionError) as fan:
        index._windings_all_s(P, 1024)
    with pytest.raises(ResolutionError) as got:
        winding_interval(P)
    assert str(got.value) == str(fan.value) == "path too coarse for vector winding"


def test_two_directions_are_enough():
    P = random_admissible_path(np.random.default_rng([17, 12]), 1, 2.4)
    vals = index._windings_all_s(P, 2)
    assert winding_interval(P, 2) == (float(np.min(vals)), float(np.max(vals)))


@pytest.mark.parametrize("s_samples", [0, -3, 2.5, 1, True])
def test_winding_interval_rejects_bad_sample_counts(s_samples):
    with pytest.raises(ParameterError, match="s_samples"):
        winding_interval(rotation_path(1, np.pi / 2), s_samples)


@pytest.mark.parametrize("ext_samples", [-1, 0, 1, 2.5])
def test_cz_degree_rejects_bad_sample_counts(ext_samples):
    with pytest.raises(ParameterError, match="ext_samples"):
        cz_degree_sp2(rotation_path(1, np.pi / 2), ext_samples=ext_samples)


@pytest.mark.parametrize("scale", [3.0, 4.0, 6.0])
def test_winding_and_degree_agree_at_large_scales(scale):
    rng = np.random.default_rng([int(scale), 40])
    for _ in range(40):
        P = random_admissible_path(rng, 1, scale)
        assert cz_winding(P)[0].doubled == cz_degree_sp2(P).doubled


def test_spd_powers_match_expm_of_the_log():
    from scipy.linalg import expm

    rng = np.random.default_rng(12)
    c = np.array([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])
    for _ in range(20):
        V = random_admissible_path(rng, 1, 3.0).endpoint()
        w, Q = np.linalg.eigh(V @ V.T)
        ref = expm(c[:, None, None] * ((Q * np.log(w)) @ Q.T))
        err = np.max(np.abs(index._spd_powers(w, Q, c) - ref), axis=(1, 2))
        assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))


def test_spectral_flow_matrix_on_non_periodic_families():
    # A0 + s (A1 - A0) + s (1 - s) B: the ends differ, so flows are not all 0
    rng = np.random.default_rng(1211)
    flows = []
    for n in (1, 2, 3):
        for _ in range(20):
            A0, A1, B = (0.5 * (X + X.T) for X in rng.normal(size=(3, 2 * n, 2 * n)))

            def at(s, A0=A0, A1=A1, B=B):
                return A0 + s * (A1 - A0) + s * (1.0 - s) * B

            fam = SymmetricFamily(np.array([0.0, 1.0]), np.stack([at(0.0), at(1.0)]),
                                  matrix_at=at)
            w0, w1 = np.linalg.eigvalsh(fam.at(0.0)), np.linalg.eigvalsh(fam.at(1.0))
            if min(np.min(np.abs(w0)), np.min(np.abs(w1))) < 1e-3:
                continue
            flows.append(spectral_flow_matrix(fam))
            assert flows[-1] == int(np.sum(w0 < 0) - np.sum(w1 < 0))
    assert len(flows) >= 50
    assert sum(f != 0 for f in flows) >= 20


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_inverse_property(seed):
    rng = np.random.default_rng(seed)
    P = random_admissible_path(rng, 1)
    assert cz_rs(P.inverse()).as_int() == -cz_rs(P).as_int()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(-3, 3))
def test_loop_shift_property(seed, k):
    rng = np.random.default_rng(seed)
    Phi = conjugated_rotation_loop(rng, 1, k)
    P = random_admissible_path(rng, 1)
    assert cz_rs(Phi.product(P)).as_int() == 2 * k + cz_rs(P).as_int()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 3))
def test_determinant_property(seed, n):
    rng = np.random.default_rng(seed)
    P = random_admissible_path(rng, n)
    c = cz_rs(P).as_int()
    det = np.linalg.det(np.eye(2 * n) - P.endpoint())
    assert (-1.0) ** (n - c) == np.sign(det)


# ---------------------------------------------------------------------------
# known wrong answers of cz_rs's crossing scan, kept as strict xfails: the
# one index core of ROADMAP item 1 is to make each of them pass


CROSSING_SCAN = pytest.mark.xfail(strict=True, raises=AssertionError,
                               reason="ROADMAP item 1: cz_rs crossing scan")


@CROSSING_SCAN
@pytest.mark.parametrize("seed", [499, 3237])
def test_loop_shift_drawn_seeds(seed):
    # inputs test_loop_shift_property drew at k = 0: cz_rs gives doubled 2 to
    # the product and 0 to the path (seed 499) or the reverse (seed 3237)
    rng = np.random.default_rng(seed)
    Phi = conjugated_rotation_loop(rng, 1, 0)
    P = random_admissible_path(rng, 1)
    assert cz_winding(P)[0].doubled == 0
    assert cz_rs(Phi.product(P)).doubled == cz_rs(P).doubled == 0


@CROSSING_SCAN
@pytest.mark.parametrize("seed", [7461, 17648])
def test_determinant_drawn_seeds(seed):
    # inputs test_determinant_property drew at n = 3: cz_rs gives doubled 2,
    # an odd index, where det(I - Psi(1)) < 0 requires an even one
    P = random_admissible_path(np.random.default_rng(seed), 3)
    det = np.linalg.det(np.eye(6) - P.endpoint())
    doubled = cz_rs(P).doubled
    assert det < 0
    assert doubled % 2 == 0 and (-1.0) ** (3 - doubled // 2) == np.sign(det)


@CROSSING_SCAN
def test_sampled_rotation_past_two_turns():
    # the interpolant c R(theta), c < 1, of rotation_path(1, 2.5 pi) never
    # meets the Maslov cycle, and the dips of det(Psi - I) near theta = 2 pi
    # stay above the kernel threshold: cz_rs gives doubled 2
    R = rotation_path(1, 2.5 * np.pi)
    ts = np.linspace(0.0, 1.0, 257)
    C = SymplecticPath(ts, R.at_many(ts), True, False, 1e-9, None)
    assert cz_winding(C)[0].doubled == cz_degree_sp2(C).doubled == 6
    assert cz_rs(C).doubled == 6
