"""Tests for G-CW complexes: sphere constructors, joins, smashes, quotients,
the periodic free models, and the text file format."""

import random

import pytest

from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep, reduced_regular, trivial_rep
from bredonkit.errors import (
    EmptyRepresentation,
    InvariantViolation,
    MissingBasepoint,
    ParseError,
    StabilizerMismatch,
)
from bredonkit.exact_linalg import GroupPresentation, homology_at
from bredonkit.gcw_complex import (
    Cell,
    GCWComplex,
    based_zero_sphere,
    conf2_model,
    ecp_skeleton,
    free_points,
    join,
    load_gcw,
    minimal_rep_sphere,
    periodic_free_model,
    plus_point,
    rep_sphere,
    save_gcw,
    smash,
    sphere_of_rep,
)

from test_shared_complexes import reference_join_one_skeleton

Z = GroupPresentation.integral


def homology_list(plain, coeff="Z"):
    return [homology_at(plain.boundary(k + 1), plain.boundary(k), coeff)
            for k in range(plain.dim + 1)]


def test_circle_sphere():
    g = CyclicGroup(3)
    x = sphere_of_rep(irrep(g, 1))
    assert sorted((c.id, c.dim, c.stab) for c in x.cells) == [
        ("e0", 1, 1), ("v0", 0, 1)]
    # one free loop of edges: e0 runs from v0 to g.v0
    assert x.boundary_of("e0") == (("v0", (-1, 1, 0)),)
    x.verify_dd()
    assert x.cell_count() == (3, 3)
    assert homology_list(x.expand()) == [Z(1), Z(1)]


def test_circle_sphere_nonunit_character():
    # S(xi^2) over C_5: edge word uses the inverse rotation count
    g = CyclicGroup(5)
    x = sphere_of_rep(irrep(g, 2))
    (tid, word), = x.boundary_of("e0")
    assert tid == "v0"
    c = word.index(1)
    assert (2 * c) % 5 == 1 and word[0] == -1
    assert homology_list(x.expand()) == [Z(1), Z(1)]


def test_sign_and_trivial_spheres():
    g6 = CyclicGroup(6)
    s = sphere_of_rep(irrep(g6, 3))
    assert [(c.dim, c.stab) for c in s.cells] == [(0, 3)]
    t = sphere_of_rep(trivial_rep(g6))
    assert sorted((c.id, c.dim, c.stab) for c in t.cells) == [
        ("ta", 0, 6), ("tb", 0, 6)]
    circle = sphere_of_rep(trivial_rep(g6, 2))
    assert circle.cell_count() == (4, 4)
    assert homology_list(circle.expand()) == [Z(1), Z(1)]


def test_sphere_rejects_empty_and_virtual():
    g = CyclicGroup(3)
    with pytest.raises(EmptyRepresentation):
        sphere_of_rep(VirtualRep(g, {}))
    with pytest.raises(EmptyRepresentation):
        sphere_of_rep(irrep(g, 1) - trivial_rep(g))


def test_join_of_two_circles_census():
    g = CyclicGroup(3)
    x = sphere_of_rep(irrep(g, 1) + irrep(g, 1))
    assert x.cell_count() == (6, 15, 18, 9)
    x.verify_dd()
    # underlying space is S^3
    assert homology_list(x.expand()) == [Z(1), Z(0), Z(0), Z(1)]


def test_sphere_of_rep_is_iterated_join():
    g = CyclicGroup(3)
    v = irrep(g, 1)
    assert sphere_of_rep(v + v) == join(sphere_of_rep(v), sphere_of_rep(v))


def test_join_over_c6_mixed_stabilizers():
    g = CyclicGroup(6)
    x = join(sphere_of_rep(irrep(g, 2)), sphere_of_rep(irrep(g, 3)))
    x.verify_dd()
    # S(xi^2) * S(xi^3) = S(xi^2 + xi^3), underlying S^2
    assert homology_list(x.expand()) == [Z(1), Z(0), Z(1)]
    assert x == sphere_of_rep(irrep(g, 2) + irrep(g, 3))


def test_rep_sphere_of_regular_c6():
    g = CyclicGroup(6)
    x = rep_sphere(reduced_regular(g))
    assert x.dim == 5
    assert x.is_based
    fixed = [c.id for c in x.cells if c.stab == 6]
    assert sorted(fixed) == ["b:b:b:ta", "b:b:b:tb"]
    assert x.basepoint == "b:b:b:tb"
    x.verify_dd()


def test_rep_sphere_zero_is_based_two_points():
    g = CyclicGroup(4)
    x = rep_sphere(VirtualRep(g, {}))
    assert x.cell_count() == (2,)
    assert x.is_based and x.basepoint == "tb"


def test_minimal_rep_sphere_census_and_words():
    x = minimal_rep_sphere(3, 1)
    assert sorted((c.id, c.dim, c.stab) for c in x.cells) == [
        ("a", 0, 3), ("b", 0, 3), ("w01", 1, 1), ("w02", 2, 1)]
    assert x.basepoint == "b"
    assert x.boundary_of("w01") == (("a", (1,)), ("b", (-1,)))
    assert x.boundary_of("w02") == (("w01", (-1, 1, 0)),)
    x.verify_dd()
    assert homology_list(x.expand()) == [Z(1), Z(0), Z(1)]


def test_minimal_rep_sphere_underlying_spheres():
    x = minimal_rep_sphere(3, 2)
    assert homology_list(x.expand()) == [Z(1), Z(0), Z(0), Z(0), Z(1)]
    y = minimal_rep_sphere(2, 3)
    assert homology_list(y.expand()) == [Z(1), Z(0), Z(0), Z(1)]
    (tid, word), = y.boundary_of("w03")
    assert tid == "w02" and word == (1, 1)


def test_quotient_of_periodic_model_is_lens_space():
    x = ecp_skeleton(3, 3)
    q = x.quotient()
    assert [len(layer) for layer in q.layers] == [1, 1, 1, 1, 1, 1]
    assert homology_list(q) == [Z(1), Z(0, (3,)), Z(0), Z(0, (3,)), Z(0), Z(1)]


def test_quotient_of_join_sphere_matches_lens_space():
    g = CyclicGroup(3)
    x = sphere_of_rep(VirtualRep(g, {1: 3}))
    x.verify_dd()
    q = x.quotient()
    assert homology_list(q) == [Z(1), Z(0, (3,)), Z(0), Z(0, (3,)), Z(0), Z(1)]


def test_ecp_skeleton_structure():
    x = ecp_skeleton(3, 1)
    assert sorted((c.id, c.dim, c.stab) for c in x.cells) == [
        ("e00", 0, 1), ("e01", 1, 1)]
    assert x.boundary_of("e01") == (("e00", (-1, 1, 0)),)
    y = ecp_skeleton(2, 2)
    assert y.is_free()
    assert homology_list(y.quotient()) == [Z(1), Z(0, (2,)), Z(0), Z(1)]


def test_ecp_skeleton_connectivity():
    for p in (3, 5):
        for m in (2, 3):
            x = ecp_skeleton(p, m)
            assert x.is_free()
            hs = homology_list(x.expand())
            assert hs[0] == Z(1)
            assert all(h == Z(0) for h in hs[1:2 * m - 1])
            assert hs[2 * m - 1] == Z(1)


def test_conf2_models():
    x = conf2_model(3)
    assert x.group.order == 2 and x.is_free()
    assert homology_list(x.quotient()) == [Z(1), Z(0, (2,)), Z(0)]
    y = conf2_model(4)
    assert homology_list(y.quotient()) == [Z(1), Z(0, (2,)), Z(0), Z(1)]
    assert homology_list(y.expand()) == [Z(1), Z(0), Z(0), Z(1)]


def test_free_points_and_plus_point():
    g = CyclicGroup(3)
    x = free_points(g, 2)
    assert x.is_free() and x.cell_count() == (6,)
    assert homology_list(x.quotient()) == [Z(2)]
    based = plus_point(x)
    assert based.basepoint == "+" and based.by_id["+"].stab == 3


def test_smash_of_spheres_is_sphere():
    g = CyclicGroup(3)
    s1 = rep_sphere(trivial_rep(g))
    sxi = rep_sphere(irrep(g, 1))
    sm = smash(s1, sxi)
    sm.verify_dd()
    assert sm.basepoint == "*"
    # S^1 smash S^xi has underlying space S^3
    assert homology_list(sm.expand()) == [Z(1), Z(0), Z(0), Z(1)]


def test_smash_requires_basepoints():
    g = CyclicGroup(3)
    with pytest.raises(MissingBasepoint):
        smash(sphere_of_rep(irrep(g, 1)), rep_sphere(irrep(g, 1)))


def test_join_one_skeleton_connectivity():
    g = CyclicGroup(6)
    pieces = [sphere_of_rep(irrep(g, k)) for k in (1, 2, 3)]
    pieces.append(sphere_of_rep(trivial_rep(g)))
    sk = reference_join_one_skeleton(pieces)
    sk.verify_dd()
    assert sk.dim == 1
    assert homology_list(sk.expand())[0] == Z(1)


def test_based_zero_sphere():
    x = based_zero_sphere(CyclicGroup(5))
    assert x.cell_count() == (2,) and x.basepoint == "b"


def test_invalid_complexes_rejected():
    g = CyclicGroup(4)
    with pytest.raises(InvariantViolation):
        # boundary raises dimension
        GCWComplex(g, [Cell("a", 0, 4), Cell("c", 1, 4)],
                   {"c": [("c", (1,))]})
    with pytest.raises(StabilizerMismatch):
        # word length must be the target orbit size
        GCWComplex(g, [Cell("a", 0, 1), Cell("c", 1, 1)],
                   {"c": [("a", (1, -1))]})
    with pytest.raises(StabilizerMismatch):
        # stabilizers may not shrink along the boundary
        GCWComplex(g, [Cell("a", 0, 1), Cell("c", 1, 2)],
                   {"c": [("a", (1, -1, 0, 0))]})
    with pytest.raises(InvariantViolation):
        GCWComplex(g, [Cell("a", 0, 4)], {}, basepoint="missing")
    with pytest.raises(InvariantViolation):
        # basepoint must be fixed
        GCWComplex(g, [Cell("a", 0, 1)], {}, basepoint="a")
    with pytest.raises(InvariantViolation):
        GCWComplex(g, [Cell("a", 0, 4), Cell("b", 0, 4)], {"b": [("a", (1,))]})


def test_save_load_roundtrip():
    g = CyclicGroup(5)
    x = sphere_of_rep(irrep(g, 1) + irrep(g, 2))
    text = save_gcw(x)
    y = load_gcw(text)
    assert y == x
    based = rep_sphere(irrep(g, 1))
    z = load_gcw(save_gcw(based))
    assert z == based and z.basepoint == based.basepoint


def test_save_refuses_ids_the_format_cannot_carry():
    g = CyclicGroup(3)
    for bad in ("", "v 0", "v\t0", "v#0", "v[0", "v;0"):
        x = GCWComplex(g, [Cell(bad, 0, 1)], {})
        with pytest.raises(InvariantViolation) as err:
            save_gcw(x)
        assert repr(bad) in str(err.value)
    # a bad id in a boundary target is refused the same way
    x = GCWComplex(g, [Cell("v 0", 0, 1), Cell("e", 1, 1)],
                   {"e": [("v 0", (-1, 1, 0))]})
    with pytest.raises(InvariantViolation, match="'v 0'"):
        save_gcw(x)
    # the separators the format does allow round-trip
    y = GCWComplex(g, [Cell("a:b]0,", 0, 1)], {})
    assert load_gcw(save_gcw(y)) == y


def test_load_parses_comments_and_words():
    text = """
# a hand-built free circle over C_3
group cyclic 3
cell v dim 0 stab 1
cell e dim 1 stab 1
bd e : v [-1,1,0]
"""
    x = load_gcw(text)
    assert x.boundary_of("e") == (("v", (-1, 1, 0)),)


def test_words_to_one_target_are_summed():
    head = "group cyclic 3\ncell v dim 0 stab 1\ncell e dim 1 stab 1\n"
    cancelled = load_gcw(head + "bd e : v [-1,1,0] ; v [1,-1,0]\n")
    assert cancelled == load_gcw(head)
    assert cancelled.boundary_of("e") == ()
    assert save_gcw(cancelled) == save_gcw(load_gcw(head))
    split = load_gcw(head + "bd e : v [-1,0,0] ; v [0,1,0]\n")
    whole = load_gcw(head + "bd e : v [-1,1,0]\n")
    assert split == whole
    assert split.boundary_of("e") == (("v", (-1, 1, 0)),)
    assert save_gcw(split) == save_gcw(whole)
    with pytest.raises(StabilizerMismatch):
        load_gcw(head + "bd e : v [-1,1,0] ; v [1]\n")


def test_load_errors():
    with pytest.raises(ParseError):
        load_gcw("cell a dim 0 stab 1\n")  # missing header
    with pytest.raises(ParseError) as err:
        load_gcw("group cyclic 3\nwibble a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        load_gcw("group cyclic 3\ncell a dim 0\n")
    with pytest.raises(ParseError):
        load_gcw("group cyclic 3\ncell v dim 0 stab 1\ncell e dim 1 stab 1\n"
                 "bd e : v [-1,x,0]\n")
    with pytest.raises(StabilizerMismatch):
        load_gcw("group cyclic 3\ncell v dim 0 stab 1\ncell e dim 1 stab 1\n"
                 "bd e : v [-1,1]\n")
    with pytest.raises(InvariantViolation):
        # d.d != 0: square of the degree-2 attachment misses the norm relation
        load_gcw("group cyclic 3\ncell v dim 0 stab 1\ncell e dim 1 stab 1\n"
                 "cell f dim 2 stab 1\n"
                 "bd e : v [-1,1,0]\nbd f : e [1,1,0]\n")


def test_hand_file_two_fixed_poles():
    # rotation sphere with two fixed poles, free equator and free hemispheres
    text = """
group cyclic 2
cell n dim 0 stab 2
cell s dim 0 stab 2
cell m dim 1 stab 1
cell f dim 2 stab 1
bd m : n [1] ; s [-1]
bd f : m [1,-1]
"""
    x = load_gcw(text)
    g = CyclicGroup(2)
    ref = rep_sphere(irrep(g, 1) + irrep(g, 1))
    assert homology_list(x.expand()) == homology_list(ref.expand())
    assert homology_list(x.quotient()) == homology_list(ref.quotient())
    assert sum(1 for c in x.cells if c.stab == 2) == 2


def test_expand_matches_quotient_for_trivial_action():
    g = CyclicGroup(3)
    x = sphere_of_rep(trivial_rep(g, 2))
    assert homology_list(x.expand()) == homology_list(x.quotient())


def _random_actual_rep(rng, group, max_irreps, allow_trivial=True):
    labels = [0, *group.nontrivial_labels()] if allow_trivial else list(group.nontrivial_labels())
    mult = {}
    for _ in range(rng.randint(1, max_irreps)):
        k = rng.choice(labels)
        mult[k] = mult.get(k, 0) + 1
    return VirtualRep(group, mult)


def test_boundary_squares_to_zero_on_fuzzed_complexes():
    # invariant: d.d = 0 for every constructor output (>= 500 cases)
    rng = random.Random(20260814)
    built = 0
    while built < 520:
        n = rng.choice([2, 3, 4, 5, 6])
        g = CyclicGroup(n)
        p = rng.choice([2, 3, 5])
        kind = rng.randrange(6)
        if kind == 0:
            x = sphere_of_rep(_random_actual_rep(rng, g, 3))
        elif kind == 1:
            x = rep_sphere(_random_actual_rep(rng, g, 2))
        elif kind == 2:
            x = periodic_free_model(p, rng.randint(0, 4))
        elif kind == 3:
            x = minimal_rep_sphere(p, rng.randint(1, 2))
        elif kind == 4:
            x = join(sphere_of_rep(_random_actual_rep(rng, g, 1)),
                     sphere_of_rep(_random_actual_rep(rng, g, 1)))
        else:
            x = smash(rep_sphere(_random_actual_rep(rng, g, 1)),
                      rep_sphere(_random_actual_rep(rng, g, 1)))
        assert x.verify_dd()
        built += 1
    assert built >= 500
