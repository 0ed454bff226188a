"""Tests for the point computation (three methods), Euler orders, and the
composite-order vanishing of the reduced-regular Euler class."""

import math
import random
import time

import pytest

from bredonkit import point_algebra
from bredonkit.cyclic_reps import CyclicGroup, irrep
from bredonkit.errors import NotPrime, TrivialCharacter
from bredonkit.exact_linalg import IntMatrix, order_in_cokernel
from bredonkit.gcw_complex import Cell, GCWComplex, load_gcw, rep_sphere, save_gcw
from bredonkit.point_algebra import (
    euler_order,
    euler_reduced_regular_vanishes,
    mp_group,
    negative_label,
    positive_label,
    render_label,
)

from test_shared_complexes import reduced_regular_pieces, reference_join_one_skeleton


def dims(p, m, n):
    return [mp_group(p, (m, n), method=t).dim for t in "abc"]


def labels(p, m, n, method="c"):
    return mp_group(p, (m, n), method=method).labels


def test_point_unit_and_generators():
    for p in (3, 5):
        assert dims(p, 0, 0) == [1, 1, 1]
        assert labels(p, 0, 0) == ("a^0 k^0 u^0",)
        assert labels(p, -2, 1) == ("a^0 k^0 u^1",)   # u
        assert labels(p, 0, 1) == ("a^1 k^0 u^0",)    # a
        assert labels(p, -1, 1) == ("a^0 k^1 u^0",)   # kappa
        assert dims(p, -1, 0) == [0, 0, 0]


def test_point_negative_cone_first_classes():
    # the negative cone starts at m = 2: gradings (2, -1) and (3, -2) are
    # one-dimensional, while (1, -2) is empty
    for p in (3, 5):
        assert dims(p, 1, -2) == [0, 0, 0]
        assert dims(p, 2, -1) == [1, 1, 1]
        assert labels(p, 2, -1) == ("S-1 k^1 a-0 u-2",)
        assert labels(p, 3, -2) == ("S-1 k^0 a-0 u-2",)
        assert dims(p, 1, -1) == [0, 0, 0]
        assert dims(p, 2, -2) == [1, 1, 1]
        assert labels(p, 2, -2) == ("S-1 k^1 a-1 u-2",)


def test_point_mod_2_cones():
    assert labels(2, 0, 0) == ("a^0 u^0",)
    assert labels(2, -1, 1) == ("a^0 u^1",)
    assert labels(2, 0, 2) == ("a^2 u^0",)
    assert dims(2, -1, 0) == [0, 0, 0]
    # negative cone: first class at (2, -2), nothing at (1, -1)
    assert dims(2, 1, -1) == [0, 0, 0]
    assert labels(2, 2, -2) == ("a-0 u-2",)
    assert labels(2, 3, -3) == ("a-0 u-3",)
    assert labels(2, 2, -3) == ("a-1 u-2",)
    assert dims(2, 2, -1) == [0, 0, 0]


def test_three_methods_agree_odd():
    for p in (3, 5):
        for m in range(-8, 9):
            for n in range(-4, 5):
                a = mp_group(p, (m, n), "a")
                b = mp_group(p, (m, n), "b")
                c = mp_group(p, (m, n), "c")
                assert a.dim == b.dim == c.dim, (p, m, n)
                assert a.dim <= 1
                if a.dim:
                    assert a.labels == b.labels == c.labels, (p, m, n)


def test_three_methods_agree_mod_2():
    for m in range(-6, 7):
        for n in range(-3, 4):
            a, b, c = (mp_group(2, (m, n), t) for t in "abc")
            assert a.dim == b.dim == c.dim, (m, n)
            if a.dim:
                assert a.labels == b.labels == c.labels


def test_no_square_kappa_labels():
    # kappa^2 = 0: every basis label carries exponent 0 or 1 on k
    for p in (3, 5):
        for m in range(-8, 9):
            for n in range(-4, 5):
                for lab in labels(p, m, n):
                    assert "k^0" in lab or "k^1" in lab
    pos = positive_label(3, -2, 2)
    assert pos == (1, 0, 1)  # grading of kappa^2 is held by a*u instead
    assert render_label(3, "positive", pos) == "a^1 k^0 u^1"


def test_label_formula_consistency():
    # gradings recompute from exponents
    for p in (2, 3):
        for m in range(-6, 7):
            for n in range(-4, 5):
                pos = positive_label(p, m, n)
                if pos:
                    i, e, j = pos
                    d = 1 if p == 2 else 2
                    assert (-(d * j + e), i + j + e) == (m, n)
                neg = negative_label(p, m, n)
                if neg:
                    e, j, k = neg
                    if p == 2:
                        assert (k, -j - k) == (m, n)
                    else:
                        assert (2 * k - e - 1, e - j - k) == (m, n)


def test_mp_group_input_validation():
    with pytest.raises(NotPrime):
        mp_group(6, (0, 0))
    with pytest.raises(ValueError):
        mp_group(3, (0, 0), method="x")


def test_euler_order_primes():
    for p in (2, 3, 5, 7):
        assert euler_order(CyclicGroup(p), irrep(CyclicGroup(p), 1)) == p


def test_euler_order_c6():
    g = CyclicGroup(6)
    assert euler_order(g, irrep(g, 1)) == 6
    assert euler_order(g, irrep(g, 2)) == 3
    assert euler_order(g, irrep(g, 3)) == 2
    with pytest.raises(TrivialCharacter):
        euler_order(g, irrep(g, 0))


def test_euler_order_divides_group_order():
    for n in range(2, 13):
        g = CyclicGroup(n)
        for k in g.nontrivial_labels():
            order = euler_order(g, k)
            assert n % order == 0
            assert (order == n) == (math.gcd(n, k) == 1)


def test_cone_point_is_found_from_the_structure(monkeypatch):
    seen = []
    order = point_algebra._cone_class_order

    def recording(x):
        seen.append(point_algebra._cone_point(x))
        return order(x)
    monkeypatch.setattr(point_algebra, "_cone_class_order", recording)
    for n in range(2, 31):
        g = CyclicGroup(n)
        for k in g.nontrivial_labels():
            euler_order(g, k)
            assert seen.pop() == "b:ta"
        # the reduced regular join: the trivial piece, last, with its cone
        # point renamed and listed first, gives the same order
        pieces = reduced_regular_pieces(n)
        renamed = GCWComplex(g, [Cell("apex", 0, n), Cell("tb", 0, n)], {})
        assert (point_algebra._join_cone_class_order(pieces[:-1] + [renamed])
                == point_algebra._join_cone_class_order(pieces))
    # a second fixed 0-cell besides the basepoint, in any piece, is refused
    pieces = reduced_regular_pieces(6)
    extra = GCWComplex(pieces[0].group, [Cell("fix", 0, 6)], {})
    for where in (0, len(pieces) - 1):
        with pytest.raises(ValueError):
            point_algebra._join_cone_class_order(
                pieces[:where] + [extra] + pieces[where:])


def test_cone_class_order_survives_a_save_and_load():
    for n in range(2, 13):
        g = CyclicGroup(n)
        for k in g.nontrivial_labels():
            x = load_gcw(save_gcw(rep_sphere(irrep(g, k))))
            assert point_algebra._cone_class_order(x) == n // math.gcd(n, k)


def test_reduced_regular_vanishing_composite():
    out = euler_reduced_regular_vanishes(CyclicGroup(6))
    assert out["vanishes"] is True and out["order"] == 1
    pairs = {(w["character"], w["order"]) for w in out["witnesses"]}
    assert pairs == {(3, 2), (2, 3)}
    out15 = euler_reduced_regular_vanishes(CyclicGroup(15))
    pairs15 = {(w["character"], w["order"]) for w in out15["witnesses"]}
    assert out15["vanishes"] is True
    assert pairs15 == {(5, 3), (3, 5)}


def test_reduced_regular_nonvanishing_prime_power():
    out3 = euler_reduced_regular_vanishes(CyclicGroup(3))
    assert out3["vanishes"] is False and out3["order"] == 3
    assert out3["witnesses"] == []
    out4 = euler_reduced_regular_vanishes(CyclicGroup(4))
    assert out4["vanishes"] is False and out4["witnesses"] == []
    out2 = euler_reduced_regular_vanishes(CyclicGroup(2))
    assert out2["vanishes"] is False and out2["order"] == 2


def skeleton_order(pieces):
    """_cone_class_order on the built join 1-skeleton, based at the last tb."""
    sk = reference_join_one_skeleton(pieces)._rebased("p%d:tb" % (len(pieces) - 1))
    return point_algebra._cone_class_order(sk)


def test_reduced_regular_join_matches_its_built_one_skeleton():
    for n in range(2, 37):
        pieces = reduced_regular_pieces(n)
        assert point_algebra._join_cone_class_order(pieces) == skeleton_order(pieces), n


def test_join_of_random_point_pieces_matches_its_built_one_skeleton():
    # pieces of 0-cells with random stabilizers, several to a piece, and the
    # trivial piece last: two-term columns without a unit entry stay behind
    rng = random.Random(20261020)
    for _ in range(300):
        n = rng.randint(2, 36)
        g = CyclicGroup(n)
        proper = [h for h in g.subgroup_orders() if h < n]
        pieces = [GCWComplex(g, [Cell("x%d" % j, 0, rng.choice(proper))
                                 for j in range(rng.randint(1, 3))], {})
                  for _ in range(rng.randint(1, 4))]
        pieces.append(GCWComplex(g, [Cell("ta", 0, n), Cell("tb", 0, n)], {}))
        assert point_algebra._join_cone_class_order(pieces) == skeleton_order(pieces)


def test_two_term_reduction_matches_the_dense_cokernel():
    # random two-term columns, streamed, against the dense reduced matrix
    rng = random.Random(20261021)
    finite = 0
    for _ in range(400):
        size = rng.randint(2, 7)
        base, target = rng.randrange(size), rng.randrange(size)
        cols = [((rng.randrange(size), rng.choice((-3, -2, -1, 1, 2, 3, 4))),
                 (rng.randrange(size), rng.choice((-6, -2, -1, 0, 1, 3, 5))))
                for _ in range(rng.randint(0, 8))]
        dense = [[0] * len(cols) for _ in range(size)]
        for j, col in enumerate(cols):
            for r, c in col:
                dense[r][j] += c
        rows = [r for r in range(size) if r != base]
        want = order_in_cokernel([int(r == target) for r in rows],
                                 IntMatrix.from_rows([dense[r] for r in rows]))
        got = point_algebra._order_mod_two_term(size, base, target, iter(cols))
        assert got == want, (size, base, target, cols)
        finite += want is not None
    assert 100 < finite < 400


# every order up to 64, then prime powers and composites up to 1024
SWEEP = list(range(2, 65)) + [81, 100, 121, 125, 128, 210, 243, 256, 343, 512, 1024]


def test_reduced_regular_sweep_to_1024():
    t0 = time.monotonic()
    for n in SWEEP:
        out = euler_reduced_regular_vanishes(CyclicGroup(n))
        q = min(d for d in range(2, n + 1) if n % d == 0)
        rest = n
        while rest % q == 0:
            rest //= q
        if rest == 1:
            assert out == {"vanishes": False, "order": q, "witnesses": []}, n
        else:
            assert out["vanishes"] is True and out["order"] == 1, n
    assert time.monotonic() - t0 < 2.0
