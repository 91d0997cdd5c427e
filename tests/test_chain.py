import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symidx.chain import (
    BottComponent,
    ChainComplex,
    ChainMap,
    Generator,
    MorseBottData,
    MorsePoint,
    action_spectrum,
    build_complex,
    cascade_complex,
    check_chain_homotopy,
    cohomology,
    conjugate_point_count,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    homology,
    identity_map,
    rfh_unit_sphere,
    rs_trans_unit_sphere,
    sphere_bundle_morse_indices,
    unit_sphere_bott_data,
    verify_continuation,
)
from symidx.errors import (
    ActionRuleError,
    ComplexValidationError,
    DegreeRuleError,
    DSquaredError,
    ParameterError,
    UnsupportedError,
)


class TestGF2:
    def test_rank_examples(self):
        assert gf2_rank(np.array([[1, 1], [1, 1]])) == 1
        assert gf2_rank(np.eye(3, dtype=np.uint8)) == 3
        assert gf2_rank(np.zeros((2, 3), dtype=np.uint8)) == 0

    def test_nullspace_is_kernel(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
            N = gf2_nullspace(A)
            assert N.shape[1] == 6 - gf2_rank(A)
            assert not np.any((A.astype(int) @ N.astype(int)) % 2)

    def test_rref_pivots_deterministic(self):
        A = np.array([[0, 1, 1], [1, 1, 0], [1, 0, 1]], dtype=np.uint8)
        _, p1 = gf2_rref(A)
        _, p2 = gf2_rref(A)
        assert p1 == p2 == [0, 1]


def sphere_complex():
    # S^2: min (deg 0), max (deg 2), no boundary
    return build_complex([("m", 0), ("M", 4)], [])


def torus_complex():
    # T^2 with the standard perfect Morse function; all counts even
    return build_complex(
        [("m", 0), ("a", 2), ("b", 2), ("M", 4)],
        [("a", "m", 2), ("b", "m", 2), ("M", "a", 2), ("M", "b", 2)],
    )


def rp2_complex():
    # RP^2 over GF(2): chain of single generators with zero mod-2 counts
    return build_complex(
        [("x0", 0), ("x1", 2), ("x2", 4)],
        [("x1", "x0", 2), ("x2", "x1", 2)],
    )


class TestHomology:
    def test_sphere(self):
        assert homology(sphere_complex()) == {0: 1, 4: 1}

    def test_torus(self):
        assert homology(torus_complex()) == {0: 1, 2: 2, 4: 1}

    def test_rp2(self):
        assert homology(rp2_complex()) == {0: 1, 2: 1, 4: 1}

    def test_cohomology_matches_over_field(self):
        for C in (sphere_complex(), torus_complex(), rp2_complex()):
            assert cohomology(C) == homology(C)

    def test_interval_collapses(self):
        # d(b) = a kills both generators
        C = build_complex([("a", 0), ("b", 2)], [("b", "a")])
        assert homology(C) == {0: 0, 2: 0}


class TestValidation:
    def test_degree_rule(self):
        with pytest.raises(DegreeRuleError):
            build_complex([("a", 0), ("b", 3)], [("b", "a")])

    def test_d_squared_witness(self):
        with pytest.raises(DSquaredError) as err:
            build_complex(
                [("a", 0), ("b", 2), ("c", 4)],
                [("b", "a"), ("c", "b")],
            )
        assert err.value.witness == "c"

    def test_unknown_id(self):
        with pytest.raises(ComplexValidationError):
            build_complex([("a", 0)], [("a", "zz")])

    def test_duplicate_ids(self):
        with pytest.raises(ComplexValidationError):
            build_complex([("a", 0), ("a", 2)], [])

    def test_boundary_shape_mismatch(self):
        with pytest.raises(ComplexValidationError, match="shape"):
            ChainComplex([Generator("a", 0)], np.zeros((2, 2), dtype=np.uint8))

    def test_chain_map_shape_mismatch(self):
        C = sphere_complex()
        with pytest.raises(ComplexValidationError, match="shape"):
            ChainMap(C, C, np.zeros((2, 3), dtype=np.uint8))


class TestContinuation:
    def test_identity_triangle(self):
        C = torus_complex()
        i = identity_map(C)
        rep = verify_continuation(i, i, i)
        assert rep["composition_on_homology"]

    def test_zero_homotopy(self):
        C = torus_complex()
        i = identity_map(C)
        Z = np.zeros_like(i.matrix)
        rep = verify_continuation(i, i, i, homotopy=(i, i, Z))
        assert rep["chain_homotopy"]

    def test_composition_differs_on_homology(self):
        # identity after identity is not the zero map on H(S^2) != 0
        C = sphere_complex()
        i = identity_map(C)
        zero = ChainMap(C, C, np.zeros_like(i.matrix))
        assert verify_continuation(i, i, zero) == {"composition_on_homology": False}

    def test_composition_agrees_up_to_a_boundary(self):
        # on the collapsing interval every cycle is a boundary, so any two
        # maps agree on homology
        C = build_complex([("a", 0), ("b", 2)], [("b", "a")])
        i = identity_map(C)
        zero = ChainMap(C, C, np.zeros_like(i.matrix))
        assert verify_continuation(i, i, zero)["composition_on_homology"]

    def test_homotopy_detects_mismatch(self):
        C = sphere_complex()
        i = identity_map(C)
        zero = ChainMap(C, C, np.zeros_like(i.matrix))
        # identity and zero are not chain homotopic on a complex with homology
        T = np.zeros_like(i.matrix)
        assert not check_chain_homotopy(i, zero, T)

    def test_degree_violating_map_rejected(self):
        C = sphere_complex()
        bad = ChainMap(C, C, np.array([[0, 1], [0, 0]], dtype=np.uint8))
        with pytest.raises(ComplexValidationError):
            bad.validate()


class TestCascade:
    def _two_towers(self, mu_hi, cascades):
        lo = BottComponent("lo", 0, 0.0, 0, (MorsePoint("p", 0),))
        hi = BottComponent("hi", 0, 1.0, mu_hi, (MorsePoint("q", 0),))
        return MorseBottData([lo, hi], cascades)

    def test_grading_formula(self):
        comp = BottComponent("c", 3, 1.0, 10, (MorsePoint("x", 2),))
        C, _ = cascade_complex(MorseBottData([comp]))
        # mu = RS_trans + IND - dim/2 = 5 + 2 - 3/2, doubled: 10 + 4 - 3
        assert C.generators[0].doubled_degree == 11

    def test_action_rule_enforced(self):
        data = self._two_towers(2, [("p", "q")])  # action 0 -> 1 increases
        with pytest.raises(ActionRuleError):
            cascade_complex(data)

    def test_gap_two_boundary(self):
        data = self._two_towers(2, [("q", "p")])
        C, lacunary = cascade_complex(data)
        assert not lacunary
        assert homology(C) == {0: 0, 2: 0}

    def test_lacunary_forces_zero(self):
        # mu gap 4: no admissible pair differs by 1, boundary forced to 0
        data = self._two_towers(4, [])
        C, lacunary = cascade_complex(data)
        assert lacunary
        assert not np.any(C.boundary)
        assert homology(C) == {0: 1, 4: 1}

    def test_supplied_count_breaks_lacunarity(self):
        lo = BottComponent("lo", 1, 0.0, 0,
                           (MorsePoint("p0", 0), MorsePoint("p1", 1)))
        data = MorseBottData([lo], intra=[("p1", "p0")])
        C, lacunary = cascade_complex(data)
        assert not lacunary

    def test_non_lacunary_without_counts_unsupported(self):
        # mu gap 1 across a strict action drop, but no counts supplied
        data = self._two_towers(2, [])
        with pytest.raises(UnsupportedError):
            cascade_complex(data)

    def test_even_count_entry_is_skipped(self):
        # an even count is zero mod 2: it is neither checked nor added, even
        # when it raises the action or names an unknown point
        data = self._two_towers(2, [("q", "p", 2), ("p", "q", 4), ("q", "zz", 2)])
        C, lacunary = cascade_complex(data)
        assert not lacunary
        assert not np.any(C.boundary)
        assert homology(C) == {0: 1, 2: 1}

    def test_odd_counts_accumulate(self):
        data = self._two_towers(2, [("q", "p", 3), ("q", "p")])
        C, _ = cascade_complex(data)
        assert not np.any(C.boundary)

    @pytest.mark.parametrize("key, entry", [
        ("cascades", ("q", "zz")), ("cascades", ("zz", "p", 1)), ("intra", ("q", "zz", 3)),
    ])
    def test_unknown_point_rejected(self, key, entry):
        data = self._two_towers(2, [])
        setattr(data, key, [entry])
        with pytest.raises(ComplexValidationError, match="unknown point"):
            cascade_complex(data)

    def test_cascade_degree_rule_enforced(self):
        # action drops, but mu drops by 2 (doubled 4): not a boundary entry
        data = self._two_towers(4, [("q", "p")])
        with pytest.raises(DegreeRuleError):
            cascade_complex(data)

    def test_equal_action_across_components_is_lacunary(self):
        # mu-difference 1, but no strict action drop: no admissible pair
        lo = BottComponent("lo", 0, 1.0, 0, (MorsePoint("p", 0),))
        hi = BottComponent("hi", 0, 1.0, 2, (MorsePoint("q", 0),))
        C, lacunary = cascade_complex(MorseBottData([lo, hi]))
        assert lacunary and homology(C) == {0: 1, 2: 1}

    def test_within_component_pair_is_lacunary(self):
        # mu-difference 1 inside one component with no supplied count
        lo = BottComponent("lo", 1, 0.0, 0, (MorsePoint("p0", 0), MorsePoint("p1", 1)))
        _, lacunary = cascade_complex(MorseBottData([lo]))
        assert lacunary

    def test_intra_entry_across_components_rejected(self):
        data = self._two_towers(2, [])
        data.intra = [("q", "p")]
        with pytest.raises(ComplexValidationError):
            cascade_complex(data)


class TestUnitSphere:
    def test_morse_indices(self):
        assert sphere_bundle_morse_indices(4) == (0, 3, 4, 7)

    def test_rs_trans_matches_conjugate_point_oracle(self):
        for n, k in ((4, 1), (4, 2), (5, 1), (5, 3)):
            assert rs_trans_unit_sphere(n, k) == conjugate_point_count(n, k)

    def test_rs_trans_odd(self):
        assert rs_trans_unit_sphere(4, -2) == -12

    def test_n4_window2(self):
        table = rfh_unit_sphere(4, 2)
        assert table["lacunary"]
        assert all(b == 1 for b in table["betti"].values())
        base = [-7, -1, 1, 7]  # doubled {-n+1/2, -1/2, 1/2, n-1/2}
        expect = sorted(d + 12 * k for k in (-2, -1, 0, 1, 2) for d in base)
        assert table["support_doubled"] == expect

    def test_n5_window1(self):
        table = rfh_unit_sphere(5, 1)
        assert table["lacunary"]
        base = [-9, -1, 1, 9]
        expect = sorted(d + 16 * k for k in (-1, 0, 1) for d in base)
        assert table["support_doubled"] == expect

    def test_low_dimension_rejected(self):
        with pytest.raises(UnsupportedError):
            rfh_unit_sphere(3, 1)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            unit_sphere_bott_data(4, -1)


class TestActionSpectrum:
    def test_single_speed(self):
        spec = action_spectrum([2 * np.pi], (-2, 2))
        assert spec == [(-4 * np.pi, 1), (-2 * np.pi, 1), (0.0, 1),
                        (2 * np.pi, 1), (4 * np.pi, 1)]

    def test_resonant_speeds_merge(self):
        spec = action_spectrum([1.0, 2.0], (1, 2))
        # values 1, 2, 2, 4 -> 2 has multiplicity 2
        assert spec == [(0.0, 1), (1.0, 1), (2.0, 2), (4.0, 1)]

    def test_bad_speed(self):
        with pytest.raises(ParameterError):
            action_spectrum([0.0], (1, 2))


# ---------------------------------------------------------------------------
# properties


def random_complex(rng):
    """Random two-level complex with d^2 = 0 by construction."""
    n0 = int(rng.integers(1, 5))
    n1 = int(rng.integers(1, 5))
    n2 = int(rng.integers(1, 5))
    d1 = rng.integers(0, 2, size=(n0, n1)).astype(np.uint8)
    # choose d2 with columns in ker(d1) so that d1 d2 = 0
    N = gf2_nullspace(d1)
    if N.shape[1] == 0:
        d2 = np.zeros((n1, n2), dtype=np.uint8)
    else:
        coef = rng.integers(0, 2, size=(N.shape[1], n2)).astype(np.uint8)
        d2 = (N.astype(int) @ coef.astype(int) % 2).astype(np.uint8)
    gens = (
        [("a%d" % i, 0) for i in range(n0)]
        + [("b%d" % i, 2) for i in range(n1)]
        + [("c%d" % i, 4) for i in range(n2)]
    )
    entries = []
    for i in range(n0):
        for j in range(n1):
            if d1[i, j]:
                entries.append(("b%d" % j, "a%d" % i))
    for i in range(n1):
        for j in range(n2):
            if d2[i, j]:
                entries.append(("c%d" % j, "b%d" % i))
    return build_complex(gens, entries)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_euler_characteristic_property(seed):
    rng = np.random.default_rng(seed)
    C = random_complex(rng)
    betti = homology(C)
    counts = {}
    for g in C.generators:
        counts[g.doubled_degree] = counts.get(g.doubled_degree, 0) + 1
    chi_chain = sum((-1) ** (d // 2) * c for d, c in counts.items())
    chi_homology = sum((-1) ** (d // 2) * b for d, b in betti.items())
    assert chi_chain == chi_homology
    assert all(0 <= betti[d] <= counts[d] for d in counts)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_cohomology_duality_property(seed):
    rng = np.random.default_rng(seed)
    C = random_complex(rng)
    assert cohomology(C) == homology(C)


def lacunary_by_pairs(D):
    """Reference for count-free data: no pair of Morse points on distinct
    components with a strict action drop has mu-difference 1."""
    pts = [(c, c.rs_trans_doubled + 2 * p.morse_index - c.dim)
           for c in D.components for p in c.morse_points]
    return not any(cx.id != cy.id and cx.action > cy.action and mx - my == 2
                   for cx, mx in pts for cy, my in pts)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_lacunarity_matches_pair_loop(seed):
    rng = np.random.default_rng(seed)
    comps = [BottComponent("c%d" % int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                           float(rng.integers(0, 3)), int(rng.integers(-2, 4)),
                           tuple(MorsePoint("p%d_%d" % (k, j), int(rng.integers(0, 3)))
                                 for j in range(int(rng.integers(0, 4)))))
             for k in range(int(rng.integers(0, 5)))]
    D = MorseBottData(comps)
    if lacunary_by_pairs(D):
        C, lacunary = cascade_complex(D)
        assert lacunary and not np.any(C.boundary)
    else:
        with pytest.raises(UnsupportedError):
            cascade_complex(D)
