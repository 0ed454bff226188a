"""Free-complex cohomology: quotient tables and the u/a/kappa actions."""

import random

import numpy as np
import pytest

from bredonkit.cyclic_reps import CyclicGroup, irrep, trivial_rep
from bredonkit.errors import (InvariantViolation, KappaUnsupported, NotFree,
                              NotPrime)
from bredonkit.free_space import (FreeSpaceCohomology, euler_action_free,
                                  free_cohomology, module_action,
                                  skeletal_range_check, unit_class)
from bredonkit.gcw_complex import (GCWComplex, Cell, conf2_model, ecp_skeleton,
                                   free_points, join, load_gcw,
                                   periodic_free_model, plus_point, rep_sphere,
                                   save_gcw, sphere_of_rep)
from bredonkit.mackey_bredon import (CohomologyClass, MackeyCoefficients,
                                     euler_action, ro_graded_cohomology)

from test_exact_linalg import fp_kernel

C2 = CyclicGroup(2)
C3 = CyclicGroup(3)
C5 = CyclicGroup(5)
C7 = CyclicGroup(7)


def test_quotient_tables():
    # lens space L^5(3): one dimension in every degree 0..5
    tab = free_cohomology(ecp_skeleton(3, 3))
    assert tab.dims() == (1, 1, 1, 1, 1, 1)
    assert tab.groups[0].describe() == "F_3"
    assert tab.dim(6) == 0 and tab.dim(-1) == 0
    # circle quotient of the free circle
    assert free_cohomology(sphere_of_rep(irrep(C3, 1))).dims() == (1, 1)
    # two free orbits: two quotient points
    assert free_cohomology(free_points(C3, 2)).dims() == (2,)
    # real projective 3-space
    assert free_cohomology(conf2_model(4)).dims() == (1, 1, 1, 1)


def test_unit_class_and_quotient_table():
    x = ecp_skeleton(3, 2)
    tab = free_cohomology(x)
    one = unit_class(x)
    assert one.grading == (0, 0) and one.vector == (1,)
    assert not one.is_zero()
    assert tab.dims() == (1, 1, 1, 1)
    # the periodicity unit shifts the grading by (-2, 1) for odd p and by
    # (-1, 1) for p = 2, keeping the vector
    assert module_action(x, "u", one).grading == (-2, 1)
    y = conf2_model(3)
    assert module_action(y, "u", unit_class(y)).grading == (-1, 1)


def test_graded_reads_depend_only_on_underlying_degree():
    # u-periodicity: dimension in grading (m, n) is a function of m + 2n
    x = sphere_of_rep(irrep(C3, 1))
    tab = free_cohomology(x)
    seen = {}
    for m in range(-2, 5):
        for n in range(-1, 3):
            d = tab.graded(m, n).dim
            s = m + 2 * n
            assert seen.setdefault(s, d) == d
    assert seen[0] == 1 and seen[1] == 1 and seen[2] == 0 and seen[-1] == 0


def test_euler_powers_truncate_on_lens_skeleton():
    x = ecp_skeleton(3, 3)
    c = unit_class(x)
    for k in (1, 2):
        c = module_action(x, "a", c)
        assert not c.is_zero()
        assert c.grading == (0, k)
    assert module_action(x, "a", c).is_zero()
    # the circle quotient has nothing in degree 2
    circ = sphere_of_rep(irrep(C3, 1))
    assert module_action(circ, "a", unit_class(circ)).is_zero()


def test_euler_powers_mod_two():
    x = conf2_model(4)
    c = unit_class(x)
    for k in (1, 2, 3):
        c = module_action(x, "a", c)
        assert not c.is_zero() and c.grading == (0, k)
        assert c.vector == (1,)
    assert module_action(x, "a", c).is_zero()


def test_euler_vectors_are_pinned():
    # exact coordinates: the other tests check identities between classes
    # from the same Euler step, which an error on both sides (a scaled fiber
    # sum, say) keeps
    cases = (
        (sphere_of_rep(irrep(C3, 1) * 2), [(0, 0, 2, 0, 2, 0)]),
        (sphere_of_rep(irrep(C5, 1) + irrep(C5, 2)),
         [(0, 0, 0, 0, 4, 0, 4, 4, 4, 0)]),
        (periodic_free_model(2, 9), [(1,)] * 9),
    )
    for x, vectors in cases:
        c = unit_class(x)
        for k, want in enumerate(vectors, start=1):
            c = module_action(x, "a", c)
            assert c.grading == (0, k) and c.vector == want
        assert module_action(x, "a", c).is_zero()
    x = ecp_skeleton(5, 3)
    e = euler_action_free(x, None, unit_class(x), irrep(C5, 1) + irrep(C5, 2))
    assert e.grading == (0, 2) and e.vector == (2,)
    # every single character, one step at a time until the class dies
    chains = (
        (sphere_of_rep(irrep(C5, 1) * 2),
         {1: [(0, 0, 0, 0, 4, 0, 0, 0, 4, 0)],
          2: [(0, 0, 0, 0, 3, 0, 0, 0, 3, 0)]}),
        (sphere_of_rep(irrep(C5, 1) + irrep(C5, 2)),
         {1: [(0, 0, 0, 0, 4, 0, 4, 4, 4, 0)],
          2: [(0, 0, 0, 0, 3, 0, 3, 3, 3, 0)]}),
        (sphere_of_rep(irrep(C7, 1) * 2),
         {1: [(0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 6, 0)],
          2: [(0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 5, 0)],
          3: [(0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 4, 0)]}),
        (periodic_free_model(5, 9),
         {1: [(4,), (1,), (4,), (1,)],
          2: [(3,), (4,), (2,), (1,)]}),
    )
    for x, by_label in chains:
        assert tuple(by_label) == x.group.nontrivial_labels()
        for j, vectors in by_label.items():
            c = unit_class(x)
            for k, want in enumerate(vectors, start=1):
                c = euler_action_free(x, None, c, irrep(x.group, j))
                assert c.grading == (0, k) and c.vector == want, (x, j, k)
            assert euler_action_free(x, None, c, irrep(x.group, j)).is_zero()


def test_periodicity_unit_is_invertible():
    x = ecp_skeleton(3, 2)
    one = unit_class(x)
    up = module_action(x, "u", one)
    assert up.grading == (-2, 1) and up.vector == one.vector
    assert module_action(x, "u^-1", up) == one
    down = module_action(x, "u^-1", one)
    assert down.grading == (2, -1)
    assert module_action(x, "u", down) == one


def test_kappa_squares_to_zero():
    x = ecp_skeleton(3, 3)
    one = unit_class(x)
    k1 = module_action(x, "kappa", one)
    assert not k1.is_zero() and k1.grading == (-1, 1)
    assert module_action(x, "kappa", k1).is_zero()
    # odd classes die, even classes move up one degree
    a1 = module_action(x, "a", one)
    ka = module_action(x, "kappa", a1)
    assert not ka.is_zero() and ka.grading == (-1, 2)


def test_kappa_needs_a_known_ring():
    circ = sphere_of_rep(irrep(C3, 1))
    with pytest.raises(KappaUnsupported):
        module_action(circ, "kappa", unit_class(circ))
    rp = conf2_model(3)
    with pytest.raises(KappaUnsupported):
        module_action(rp, "kappa", unit_class(rp))


def test_kappa_survives_a_save_and_load():
    # periodic skeleta are recognised by their cells and words, not by tags
    x = periodic_free_model(3, 4)
    want = module_action(x, "kappa", unit_class(x))
    assert not want.is_zero()
    for y in (load_gcw(save_gcw(x)), plus_point(x)):
        assert module_action(y, "kappa", unit_class(y)) == want
    # a look-alike with one cell renamed is not the periodic skeleton
    renamed = load_gcw(save_gcw(x).replace("e03", "f03"))
    assert free_cohomology(renamed).dims() == free_cohomology(x).dims()
    with pytest.raises(KappaUnsupported):
        module_action(renamed, "kappa", unit_class(renamed))


def test_euler_action_commutes_with_periodicity():
    x = ecp_skeleton(3, 3)
    one = unit_class(x)
    assert (module_action(x, "a", module_action(x, "u", one))
            == module_action(x, "u", module_action(x, "a", one)))


def test_euler_operator_is_y_times_u():
    x = ecp_skeleton(3, 3)
    one = unit_class(x)
    y1 = module_action(x, "y", one)
    assert y1.grading == (2, 0) and not y1.is_zero()
    assert module_action(x, "u", y1) == module_action(x, "a", one)


def test_multi_character_action_is_the_composite():
    x = ecp_skeleton(3, 3)
    mk = MackeyCoefficients(C3, ("F", 3))
    one = unit_class(x)
    both = euler_action_free(x, mk, one, irrep(C3, 1) + irrep(C3, 1))
    assert both == module_action(x, "a", module_action(x, "a", one))
    # mixed characters on C_5: order of the factors does not matter
    x5 = ecp_skeleton(5, 2)
    mk5 = MackeyCoefficients(C5, ("F", 5))
    one5 = unit_class(x5)
    v = irrep(C5, 1) + irrep(C5, 2)
    mixed = euler_action_free(x5, mk5, one5, v)
    step12 = euler_action_free(x5, mk5,
                               euler_action_free(x5, mk5, one5, irrep(C5, 1)),
                               irrep(C5, 2))
    step21 = euler_action_free(x5, mk5,
                               euler_action_free(x5, mk5, one5, irrep(C5, 2)),
                               irrep(C5, 1))
    assert mixed == step12 == step21


def test_nonstandard_characters_scale_the_euler_class():
    # e(xi^k) = k . e(xi) on the quotient ring
    x = ecp_skeleton(5, 2)
    mk = MackeyCoefficients(C5, ("F", 5))
    one = unit_class(x)
    base = euler_action_free(x, mk, one, irrep(C5, 1)).vector[0]
    other = euler_action_free(x, mk, one, irrep(C5, 2)).vector[0]
    assert other % 5 == (2 * base) % 5


def test_euler_action_delegates_from_the_graded_engine():
    x = ecp_skeleton(3, 2)
    mk = MackeyCoefficients(C3, ("F", 3))
    one = unit_class(x)
    via_engine = euler_action(x, mk, one, irrep(C3, 1))
    assert via_engine == module_action(x, "a", one)
    # a trivial summand kills the class before any fiber integration
    dead = euler_action(x, mk, one, trivial_rep(C3) + irrep(C3, 1))
    assert dead.is_zero() and dead.grading == (1, 1)


def test_euler_step_is_well_defined_up_to_coboundary():
    # a quotient with a genuinely nonzero mod-3 differential
    x = join(sphere_of_rep(irrep(C3, 1)), free_points(C3, 1))
    assert x.is_free()
    q = x.quotient()
    mk = MackeyCoefficients(C3, ("F", 3))
    db0 = np.array(q.boundary(1).data, dtype=np.int64).T % 3   # B^0 -> B^1
    db1 = np.array(q.boundary(2).data, dtype=np.int64).T % 3   # B^1 -> B^2
    kernel = fp_kernel(db1, 3)
    assert kernel.shape[1] >= 1 and np.any(db0)
    rng = random.Random(7)
    home = ro_graded_cohomology(x, mk, (1, 0))
    hits = 0
    for _ in range(20):
        u = kernel @ np.array([rng.randrange(3) for _ in range(kernel.shape[1])])
        u %= 3
        w = np.array([rng.randrange(3) for _ in range(q.size(0))])
        shifted = (u + db0 @ w) % 3
        if np.array_equal(shifted, u):
            continue
        c1 = CohomologyClass((1, 0), u, home)
        c2 = CohomologyClass((1, 0), shifted, home)
        r1 = euler_action_free(x, mk, c1, irrep(C3, 1))
        r2 = euler_action_free(x, mk, c2, irrep(C3, 1))
        assert r1 == r2
        hits += 1
    assert hits >= 10


def test_skeletal_range_reports():
    rep = skeletal_range_check(ecp_skeleton(3, 3), 4)
    assert rep["largest_k"] == 2 and rep["ok"] and rep["required_max"] == 2
    rep = skeletal_range_check(ecp_skeleton(2, 4), 3)
    assert rep["largest_k"] == 3 and rep["ok"]
    assert [e["nonzero"] for e in rep["entries"]] == [True, True, True]
    rep = skeletal_range_check(free_points(C3, 1), 1)
    assert rep["largest_k"] == 0 and rep["entries"] == []
    # an under-sized skeleton fails the requested range
    rep = skeletal_range_check(ecp_skeleton(3, 2), 6)
    assert rep["largest_k"] == 1 and not rep["ok"]


def test_rejects_fixed_points_and_composite_orders():
    cone = rep_sphere(irrep(C3, 1))
    with pytest.raises(NotFree) as info:
        free_cohomology(cone)
    assert "stabilizer" in str(info.value)
    with pytest.raises(NotFree):
        module_action(cone, "a", CohomologyClass((0, 0), (1,), None))
    with pytest.raises(NotPrime):
        free_cohomology(free_points(CyclicGroup(6), 1))
    with pytest.raises(ValueError):
        module_action(ecp_skeleton(3, 2), "b", unit_class(ecp_skeleton(3, 2)))


def test_unit_needs_honest_edges():
    # a free 1-cell whose boundary word has nonzero augmentation mod 3
    x = GCWComplex(C3, [Cell("v", 0, 1), Cell("e", 1, 1)],
                   {"e": [("v", (1, 1, 0))]})
    with pytest.raises(InvariantViolation):
        unit_class(x)
