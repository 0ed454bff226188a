import random

import pytest

from bredonkit.cyclic_reps import (
    CyclicGroup,
    RestrictedGrading,
    VirtualRep,
    canonicalize,
    dim,
    fixed_dim,
    format_rep,
    irrep,
    parse_grading,
    parse_rep,
    reduced_regular,
    trivial_rep,
)
from bredonkit.errors import NotASubgroup, NotPrime


def test_group_and_labels():
    g = CyclicGroup(6)
    assert g.subgroup_orders() == (1, 2, 3, 6)
    assert g.nontrivial_labels() == (1, 2, 3)
    assert g.label_dim(0) == 1
    assert g.label_dim(1) == 2
    assert g.label_dim(3) == 1  # sign character
    with pytest.raises(ValueError):
        CyclicGroup(1)
    with pytest.raises(ValueError):
        g.label_dim(4)


def test_dim_and_fixed_dim_examples():
    c5 = CyclicGroup(5)
    rr5 = reduced_regular(c5)
    assert dim(rr5) == 4
    assert fixed_dim(rr5, 5) == 0
    t = trivial_rep(c5)
    assert dim(t) == 1 and fixed_dim(t, 5) == 1
    c6 = CyclicGroup(6)
    assert fixed_dim(irrep(c6, 2), 2) == 2  # g^3 acts trivially on xi^2
    assert fixed_dim(irrep(c6, 2), 3) == 0
    with pytest.raises(NotASubgroup):
        fixed_dim(t, 4)


def test_reduced_regular_examples():
    c3 = CyclicGroup(3)
    assert reduced_regular(c3).mult == {1: 1}
    assert dim(reduced_regular(c3)) == 2
    c2 = CyclicGroup(2)
    assert reduced_regular(c2).mult == {1: 1}
    assert dim(reduced_regular(c2)) == 1
    c6 = CyclicGroup(6)
    assert reduced_regular(c6).mult == {1: 1, 2: 1, 3: 1}
    assert dim(reduced_regular(c6)) == 5
    # regular rep property: reduced_regular + trivial has dim n
    assert dim(reduced_regular(c6) + trivial_rep(c6)) == 6


def test_canonicalize_examples():
    c5 = CyclicGroup(5)
    assert canonicalize(irrep(c5, 2), 5) == (0, 1)
    assert canonicalize(trivial_rep(c5, 3), 5) == (3, 0)
    assert canonicalize(reduced_regular(c5), 5) == (0, 2)
    with pytest.raises(NotPrime):
        canonicalize(irrep(CyclicGroup(6), 2), 6)


def test_canonicalize_preserves_dimensions():
    # dim and fixed dim match those of the collapsed form m + n*xi
    rng = random.Random(3)
    for p in (3, 5, 7):
        g = CyclicGroup(p)
        for _ in range(25):
            v = VirtualRep(g, {k: rng.randint(-3, 3) for k in (0,) + g.nontrivial_labels()})
            m, n = canonicalize(v, p)
            w = trivial_rep(g, m) + n * irrep(g, 1) if m or n else VirtualRep(g)
            assert dim(w) == dim(v)
            assert fixed_dim(w, p) == fixed_dim(v, p)


def test_canonicalize_additive():
    rng = random.Random(11)
    g = CyclicGroup(5)
    for _ in range(30):
        v = VirtualRep(g, {k: rng.randint(-3, 3) for k in (0,) + g.nontrivial_labels()})
        w = VirtualRep(g, {k: rng.randint(-3, 3) for k in (0,) + g.nontrivial_labels()})
        a, b = canonicalize(v, 5), canonicalize(w, 5)
        c = canonicalize(v + w, 5)
        assert (c.m, c.n) == (a.m + b.m, a.n + b.n)


def test_virtual_rep_arithmetic_and_parts():
    g = CyclicGroup(6)
    v = parse_rep("xi^2 + 2*xi^1 + 1", g)
    assert v.mult == {0: 1, 1: 2, 2: 1}
    assert (v - v).is_zero
    w = v - 3 * irrep(g, 3)
    assert w.negative_part().mult == {3: 3}
    assert w.positive_part() == v
    assert v.contains(irrep(g, 1)) and not irrep(g, 1).contains(v)
    assert v.summands() == [1, 1, 2]
    assert not v.is_fixed_point_free()  # trivial summand
    assert (2 * irrep(g, 1)).is_fixed_point_free()
    assert not irrep(g, 2).is_fixed_point_free()  # g^3 fixes the xi^2 plane


def test_parse_and_format_round_trip():
    g = CyclicGroup(6)
    assert parse_rep("xi", g).mult == {1: 1}
    assert parse_rep(" xi ^ 2 ".replace(" ", ""), g).mult == {2: 1}
    assert parse_rep("2 - xi^3", g).mult == {0: 2, 3: -1}
    assert format_rep(parse_rep("xi^2+2*xi+1", g)) == "xi^2 + 2*xi + 1"
    v = parse_rep("3*xi^2 - 2", g)
    assert parse_rep(format_rep(v), g) == v
    with pytest.raises(ValueError):
        parse_rep("xi^9", g)
    with pytest.raises(ValueError):
        parse_rep("bogus", g)


def test_parse_grading():
    assert parse_grading("2-3*xi") == (2, -3)
    assert parse_grading("xi") == (0, 1)
    assert parse_grading("-4") == (-4, 0)
    assert parse_grading("0+1*xi") == (0, 1)
    g = RestrictedGrading(1, -2)
    assert parse_grading("%d%+d*xi" % tuple(g)) == g
    with pytest.raises(ValueError):
        parse_grading("xi^2")
    with pytest.raises(ValueError):
        parse_grading("")
