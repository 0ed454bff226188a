"""Tests for the point computation (three methods), Euler orders, and the
composite-order vanishing of the reduced-regular Euler class."""

import math

import pytest

from bredonkit import point_algebra
from bredonkit.cyclic_reps import CyclicGroup, irrep
from bredonkit.errors import NotPrime, TrivialCharacter
from bredonkit.gcw_complex import load_gcw, rep_sphere, save_gcw
from bredonkit.point_algebra import (
    euler_order,
    euler_reduced_regular_vanishes,
    mp_group,
    negative_label,
    positive_label,
    render_label,
)


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
        euler_reduced_regular_vanishes(g)
        # the trivial piece comes last, after one piece per nontrivial label
        assert seen.pop() == "p%d:ta" % len(g.nontrivial_labels())


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
