"""Tests for Bredon (co)homology with constant coefficients and the graded
reduction rules."""

import pytest

from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep, trivial_rep
from bredonkit.errors import MissingBasepoint, UnsupportedGrading
from bredonkit.exact_linalg import GroupPresentation
from bredonkit.gcw_complex import (
    Cell,
    GCWComplex,
    based_zero_sphere,
    minimal_rep_sphere,
    plus_point,
    rep_sphere,
    smash,
    sphere_of_rep,
)
from bredonkit.mackey_bredon import (
    BredonComplex,
    CohomologyClass,
    MackeyCoefficients,
    bredon_cohomology,
    bredon_homology,
    euler_action,
    is_zero_sphere,
    ro_graded_cohomology,
)
from test_acceptance import bredon_dd_vanishes

Z = GroupPresentation.integral
F = GroupPresentation.mod_p


def test_constant_functor_maps():
    # three arcs between two fixed points of C_6, one orbit with stabilizer
    # of order 2: the chains weight the arcs by the transfer index
    # [C_6 : C_2] = 3, the cochains by the restriction, the identity
    g = CyclicGroup(6)
    x = GCWComplex(g, [Cell("v", 0, 6), Cell("w", 0, 6), Cell("e", 1, 2)],
                   {"e": [("v", (-1,)), ("w", (1,))]})
    b = BredonComplex(x, MackeyCoefficients(g, "Z"))
    assert b.boundary_matrix(1).data == [[-3], [3]]
    assert b.cochain_matrix(0).data == [[-1, 1]]
    assert bredon_homology(x, MackeyCoefficients(g, "Z"), 0) == Z(1, (3,))
    # five free arcs over C_5: the transfer 5 is 0 mod 5
    g5 = CyclicGroup(5)
    x5 = GCWComplex(g5, [Cell("v", 0, 5), Cell("w", 0, 5), Cell("e", 1, 1)],
                    {"e": [("v", (-1,)), ("w", (1,))]})
    assert bredon_homology(x5, MackeyCoefficients(g5, ("F", 5)), 0) == F(5, 2)
    assert bredon_homology(x5, MackeyCoefficients(g5, "Z"), 0) == Z(1, (5,))


def test_rotation_square_sphere_over_c6():
    # S^(xi^2) over C_6: top reduced cohomology is Z, bottom reduced homology Z/3
    g = CyclicGroup(6)
    m = MackeyCoefficients(g, "Z")
    x = rep_sphere(irrep(g, 2))
    assert bredon_cohomology(x, m, 2, reduced=True) == Z(1)
    assert bredon_cohomology(x, m, 1, reduced=True) == Z(0)
    assert bredon_cohomology(x, m, 0, reduced=True) == Z(0)
    assert bredon_homology(x, m, 0, reduced=True) == Z(0, (3,))
    assert bredon_homology(x, m, 1, reduced=True) == Z(0)
    assert bredon_homology(x, m, 2, reduced=True) == Z(1)


def test_two_point_sphere_reduced():
    for n in (2, 3, 6):
        g = CyclicGroup(n)
        x = based_zero_sphere(g)
        assert is_zero_sphere(x)
        m = MackeyCoefficients(g, "Z")
        assert bredon_cohomology(x, m, 0, reduced=True) == Z(1)
        assert bredon_cohomology(x, m, 1, reduced=True) == Z(0)
        assert bredon_homology(x, m, 0, reduced=True) == Z(1)


def test_free_circle_plus_basepoint_mod_3():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    x = plus_point(sphere_of_rep(irrep(g, 1)))
    assert bredon_cohomology(x, m, 0, reduced=True) == F(3, 1)
    assert bredon_cohomology(x, m, 1, reduced=True) == F(3, 1)
    assert bredon_cohomology(x, m, 2, reduced=True) == F(3, 0)


def test_reduced_needs_basepoint():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, "Z")
    with pytest.raises(MissingBasepoint):
        bredon_cohomology(sphere_of_rep(irrep(g, 1)), m, 0, reduced=True)


def test_negative_degree_is_zero():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, "Z")
    x = based_zero_sphere(g)
    assert bredon_cohomology(x, m, -1, reduced=True) == Z(0)
    assert bredon_homology(x, m, -2, reduced=True) == Z(0)


def test_bredon_differentials_square_to_zero():
    g = CyclicGroup(6)
    x = rep_sphere(VirtualRep(g, {1: 1, 3: 1}))
    for ring in ("Z", ("F", 3)):
        m = MackeyCoefficients(g, ring)
        for reduced in (False, True):
            assert bredon_dd_vanishes(BredonComplex(x, m, reduced=reduced))


def test_graded_point_positive_cone():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    s0 = based_zero_sphere(g)
    # the Euler class generator in grading xi
    assert ro_graded_cohomology(s0, m, VirtualRep(g, {1: 1})) == F(3, 1)
    assert ro_graded_cohomology(s0, m, (0, 1)) == F(3, 1)
    assert ro_graded_cohomology(s0, m, (0, 0)) == F(3, 1)
    assert ro_graded_cohomology(s0, m, (-2, 1)) == F(3, 1)
    assert ro_graded_cohomology(s0, m, (-1, 0)) == F(3, 0)


def test_graded_point_negative_cone():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    s0 = based_zero_sphere(g)
    # first nonzero class of the negative cone sits in grading 2 - xi
    assert ro_graded_cohomology(s0, m, (2, -1)) == F(3, 1)
    assert ro_graded_cohomology(s0, m, VirtualRep(g, {0: 1, 1: -2})) == F(3, 0)
    assert ro_graded_cohomology(s0, m, (3, -2)) == F(3, 1)
    assert ro_graded_cohomology(s0, m, (1, -1)) == F(3, 0)


def test_graded_free_sphere_quotient_periodicity():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    x = sphere_of_rep(VirtualRep(g, {1: 3}))  # free, quotient is a lens space
    assert ro_graded_cohomology(x, m, VirtualRep(g, {0: 1, 1: 1})) == F(3, 1)
    assert ro_graded_cohomology(x, m, (0, 3)) == F(3, 0)  # above the quotient dim
    assert ro_graded_cohomology(x, m, (0, 2)) == F(3, 1)


def test_graded_refusals():
    g = CyclicGroup(5)
    m = MackeyCoefficients(g, "Z")
    s0 = based_zero_sphere(g)
    with pytest.raises(UnsupportedGrading):
        ro_graded_cohomology(s0, m, VirtualRep(g, {1: 1, 2: -1}))
    x = rep_sphere(irrep(CyclicGroup(6), 2))
    m6 = MackeyCoefficients(CyclicGroup(6), "Z")
    with pytest.raises(UnsupportedGrading):
        # positive direction on a non-free complex with fixed cells
        ro_graded_cohomology(x, m6, (0, 1))


def test_graded_integer_slice_matches_bredon():
    g = CyclicGroup(6)
    m = MackeyCoefficients(g, "Z")
    x = rep_sphere(irrep(g, 2))
    for k in range(3):
        assert ro_graded_cohomology(x, m, (k, 0)) == bredon_cohomology(
            x, m, k, reduced=True)


def test_trivial_suspension_shifts_degree():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    x = plus_point(sphere_of_rep(irrep(g, 1)))
    sx = smash(rep_sphere(trivial_rep(g)), x)
    for k in range(4):
        assert bredon_cohomology(sx, m, k + 1, reduced=True) == \
            bredon_cohomology(x, m, k, reduced=True)


def test_suspension_consistency_across_rules():
    # H~^(m + n.xi)(X) == H~^(m + (n+1).xi)(S^xi smash X) on overlaps
    g = CyclicGroup(3)
    sxi = minimal_rep_sphere(3, 1)
    spaces = [based_zero_sphere(g), plus_point(sphere_of_rep(irrep(g, 1)))]
    for ring in (("F", 3), "Z"):
        m = MackeyCoefficients(g, ring)
        for x in spaces:
            sx = smash(sxi, x)
            for mm in range(-6, 7):
                for nn in range(-3, 1):
                    can_lift = nn + 1 <= 0 or (ring != "Z" and sx.is_free())
                    if not can_lift:
                        continue
                    a = ro_graded_cohomology(x, m, (mm, nn))
                    b = ro_graded_cohomology(sx, m, (mm, nn + 1))
                    assert a == b, (ring, mm, nn)


def test_euler_action_trivial_summand_kills():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    s0 = based_zero_sphere(g)
    one = CohomologyClass((0, 0), (1,), ro_graded_cohomology(s0, m, (0, 0)))
    out = euler_action(s0, m, one, VirtualRep(g, {0: 1, 1: 1}))
    assert out.is_zero() and out.grading == (1, 1)


def test_euler_action_point_cone():
    g = CyclicGroup(3)
    m = MackeyCoefficients(g, ("F", 3))
    s0 = based_zero_sphere(g)
    one = CohomologyClass((0, 0), (1,), ro_graded_cohomology(s0, m, (0, 0)))
    a1 = euler_action(s0, m, one, irrep(g, 1))
    assert not a1.is_zero() and a1.grading == (0, 1)
    a2 = euler_action(s0, m, a1, irrep(g, 1))
    assert not a2.is_zero() and a2.grading == (0, 2)
    below = CohomologyClass((2, -1), (1,), ro_graded_cohomology(s0, m, (2, -1)))
    with pytest.raises(UnsupportedGrading):
        euler_action(s0, m, below, irrep(g, 1))

