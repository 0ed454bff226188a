"""Acceptance gate: eight exact checks covering the package's public claims.

Each check records one PASS/FAIL line (with its runtime) on the session
scoreboard, printed after the run, so every test run shows the verdicts.
Checks with a stated time budget assert it.
"""

import itertools
import json
import math
import random
import time

from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep, trivial_rep
from bredonkit.free_space import (euler_action_free, free_cohomology,
                                  module_action, unit_class)
from bredonkit.gcw_complex import (based_zero_sphere, conf2_model,
                                   ecp_skeleton, free_points, join,
                                   minimal_rep_sphere, periodic_free_model,
                                   plus_point, rep_sphere, smash,
                                   sphere_of_rep)
from bredonkit.mackey_bredon import (BredonComplex, CohomologyClass,
                                     MackeyCoefficients, euler_action,
                                     is_zero_sphere, ro_graded_cohomology)
from bredonkit.obstruction import (certify, conf2_problem,
                                   lemma_cohsphere_check, recheck,
                                   surrogate_problem)
from bredonkit.point_algebra import (euler_order,
                                     euler_reduced_regular_vanishes,
                                     mp_group)


def criterion(num, budget=None):
    """Time the check, record its PASS/FAIL line, enforce the budget."""
    def wrap(fn):
        def run(scoreboard):
            t0 = time.monotonic()
            try:
                detail = fn()
            except BaseException as err:
                scoreboard.append("FAIL criterion %d: %s" % (num, err))
                raise
            dt = time.monotonic() - t0
            if budget is not None and dt >= budget:
                scoreboard.append("FAIL criterion %d: took %.1fs, budget %.0fs"
                                  % (num, dt, budget))
                raise AssertionError("criterion %d took %.1fs, budget %.0fs"
                                     % (num, dt, budget))
            scoreboard.append("PASS criterion %d: %s [%.1fs]" % (num, detail, dt))
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return wrap


@criterion(1, budget=60.0)
def test_criterion_1_point_table_methods_agree():
    checked = 0
    for p in (3, 5):
        for m in range(-8, 9):
            for n in range(-4, 5):
                a, b, c = (mp_group(p, (m, n), tag) for tag in "abc")
                assert (a.dim, a.labels) == (b.dim, b.labels), (p, m, n)
                assert (a.dim, a.labels) == (c.dim, c.labels), (p, m, n)
                assert a.describe() == c.describe(), (p, m, n)
                checked += 1
    return "three methods agree on %d gradings for p in {3, 5}" % checked


@criterion(2, budget=30.0)
def test_criterion_2_euler_orders_match_the_quotient_formula():
    checked = 0
    for n in range(2, 31):
        group = CyclicGroup(n)
        for k in group.nontrivial_labels():
            order = euler_order(group, k)
            assert order == n // math.gcd(n, k), (n, k, order)
            assert order > 1, (n, k)
            checked += 1
    return "%d characters: computed order equals n/gcd(n,k), all nontrivial" % checked


@criterion(3, budget=60.0)
def test_criterion_3_regular_euler_class_vanishing_by_order():
    for n in (6, 10, 12, 15, 30):
        assert euler_reduced_regular_vanishes(CyclicGroup(n))["vanishes"], n
    for n in (2, 3, 5, 7, 9, 4):
        assert not euler_reduced_regular_vanishes(CyclicGroup(n))["vanishes"], n
    return "vanishes on {6,10,12,15,30}, not on {2,3,5,7,9,4}"


@criterion(4, budget=120.0)
def test_criterion_4_target_sphere_groups_all_vanish():
    checked = 0
    for p in (3, 5):
        group = CyclicGroup(p)
        labels = group.nontrivial_labels()
        for size in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(labels, size):
                v = VirtualRep(group, {})
                for k in combo:
                    v = v + irrep(group, k)
                for w in (v, v + trivial_rep(group), v + irrep(group, 1)):
                    assert lemma_cohsphere_check(p, v, w).dim == 0, (p, combo, w)
                    checked += 1
    return "%d (V, W) pairs, every containing-grading group is zero" % checked


@criterion(5, budget=12.0)
def test_criterion_5_truncated_free_sphere_table():
    checked = 0
    for p in (3, 5):
        group = CyclicGroup(p)
        for m in (2, 3):
            x = sphere_of_rep(irrep(group, 1) * m)
            tab = free_cohomology(x)
            top = 2 * m - 1
            assert len(tab.dims()) == top + 1
            for s in range(0, top - 1 + 1):
                assert tab.dim(s) == 1, (p, m, s)
            # every grading read in a total-degree class gives the same answer
            for mm in range(-4, top):
                for nn in range(-2, 4):
                    s = mm + 2 * nn
                    if 0 <= s <= top - 1:
                        assert tab.graded(mm, nn).dim == 1, (p, m, mm, nn)
                        checked += 1
    return "one dimension per degree class through 2m-2 (%d graded reads)" % checked


@criterion(6, budget=5.0)
def test_criterion_6_euler_operator_identity_and_threshold():
    for p in (3, 5):
        group = CyclicGroup(p)
        for m in (2, 3):
            x = sphere_of_rep(irrep(group, 1) * m)
            c = unit_class(x)
            k = 0
            while not c.is_zero():
                # chain-level Euler operator equals y then the periodicity unit
                via_yu = module_action(x, "u", module_action(x, "y", c))
                assert module_action(x, "a", c) == via_yu, (p, m, k)
                c = module_action(x, "a", c)
                k += 1
                assert k <= m, (p, m)
            assert k == m, (p, m, k)  # a^k . 1 != 0 exactly for k <= m-1
    return "a = y.u at the chain level; powers of a die exactly past m-1"


@criterion(7, budget=120.0)
def test_criterion_7_certificates_issue_and_recheck():
    problems = [conf2_problem(d) for d in (2, 3, 4, 5)]
    problems += [surrogate_problem(3, 2), surrogate_problem(3, 3),
                 surrogate_problem(5, 2)]
    for problem in problems:
        cert = certify(problem)
        assert cert["rechecked"] is True
        expected = 0 if problem.kind == "conf2-model" else 1
        assert len(cert["assumptions"]) == expected
        assert recheck(json.loads(cert.to_json())) is True
    return "7 certificates issued; every serialized copy re-verifies"


def _fuzz_complex(rng):
    group = CyclicGroup(rng.randint(2, 7))
    kind = rng.randrange(7)
    if kind == 0:
        return free_points(group, rng.randint(1, 3))
    if kind == 1:
        mult = {k: rng.randint(0, 1) for k in group.nontrivial_labels()}
        mult[0] = rng.randint(0, 1)
        v = VirtualRep(group, {k: c for k, c in mult.items() if c})
        if not v.is_actual:
            v = irrep(group, 1)
        return rep_sphere(v)
    if kind == 2:
        nontrivial = group.nontrivial_labels()
        v = irrep(group, rng.choice(nontrivial))
        for _ in range(rng.randint(0, 2)):
            v = v + irrep(group, rng.choice(nontrivial))
        return sphere_of_rep(v)
    if kind == 3:
        return minimal_rep_sphere(rng.choice((2, 3, 5, 7)), rng.randint(1, 3))
    if kind == 4:
        return periodic_free_model(rng.choice((2, 3, 5)), rng.randint(1, 5))
    if kind == 5:
        k = rng.choice(group.nontrivial_labels())
        return join(sphere_of_rep(irrep(group, k)),
                    free_points(group, rng.randint(1, 2)))
    p = rng.choice((2, 3, 5))
    return smash(minimal_rep_sphere(p, 1), minimal_rep_sphere(p, rng.randint(1, 2)))


def bredon_dd_vanishes(b):
    """d o d = 0 in every degree of a BredonComplex, over Z (exact ints),
    for both the transfer-weighted chains and the cochains."""
    for k in range(1, b.dim + 1):
        if not b.boundary_matrix(k).mul(b.boundary_matrix(k + 1)).is_zero():
            return False
        if not b.cochain_matrix(k).mul(b.cochain_matrix(k - 1)).is_zero():
            return False
    return True


@criterion(8)
def test_criterion_8_structural_property_suites():
    # boundaries square to zero on a fuzzed corpus
    rng = random.Random(20260814)
    built = 0
    for i in range(520):
        x = _fuzz_complex(rng)
        assert x.verify_dd(), x
        if i % 10 == 0:
            assert bredon_dd_vanishes(
                BredonComplex(x, MackeyCoefficients(x.group, "Z")))
        built += 1
    assert built >= 500

    # suspension by one character agrees wherever two reduction routes exist
    g = CyclicGroup(3)
    sxi = minimal_rep_sphere(3, 1)
    spaces = [based_zero_sphere(g), plus_point(sphere_of_rep(irrep(g, 1)))]
    compared = 0
    for ring in (("F", 3), "Z"):
        mackey = MackeyCoefficients(g, ring)
        for x in spaces:
            sx = smash(sxi, x)

            def liftable(space, n):
                return (n <= 0 or is_zero_sphere(space)
                        or (ring != "Z" and space.is_free()))

            for mm in range(-6, 7):
                for nn in range(-3, 4):
                    if not (liftable(x, nn) and liftable(sx, nn + 1)):
                        continue
                    assert (ro_graded_cohomology(x, mackey, (mm, nn))
                            == ro_graded_cohomology(sx, mackey, (mm, nn + 1))), \
                        (ring, mm, nn)
                    compared += 1

    # the Euler action of a sum is the composite of the actions
    for p, reps in ((3, (1, 1)), (5, (1, 1)), (5, (1, 2)), (5, (2, 2))):
        group = CyclicGroup(p)
        mackey = MackeyCoefficients(group, ("F", p))
        x = ecp_skeleton(p, 3)
        one = unit_class(x)
        va, vb = irrep(group, reps[0]), irrep(group, reps[1])
        joint = euler_action_free(x, mackey, one, va + vb)
        step = euler_action_free(x, mackey,
                                 euler_action_free(x, mackey, one, va), vb)
        assert joint == step, (p, reps)
        assert not joint.is_zero(), (p, reps)
    s0 = based_zero_sphere(CyclicGroup(3))
    mackey = MackeyCoefficients(CyclicGroup(3), ("F", 3))
    one = CohomologyClass((0, 0), (1,), ro_graded_cohomology(s0, mackey, (0, 0)))
    xi = irrep(CyclicGroup(3), 1)
    assert (euler_action(s0, mackey, one, xi + xi)
            == euler_action(s0, mackey, euler_action(s0, mackey, one, xi), xi))

    return ("d.d = 0 on %d complexes; %d suspension overlaps agree; "
            "sum actions split" % (built, compared))
