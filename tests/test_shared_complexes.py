"""Derived and cached complexes share what was already built and validated.

plus_point, rep_sphere and the re-based join 1-skeleton (built by the
reference constructor here) must equal what the full GCWComplex
constructor builds from the same cells and words, while sharing the
parent's boundary words; cached sphere models must be built once per
(p, q) and stay equal to fresh ones.
"""

import json
import random
from math import gcd

import pytest

from bredonkit import mackey_bredon, point_algebra
from bredonkit.cli import main
from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep, trivial_rep
from bredonkit.errors import InvariantViolation, NotFree
from bredonkit.free_space import free_cohomology
from bredonkit.gcw_complex import (Cell, GCWComplex, _pair_orbit_count,
                                   based_zero_sphere, minimal_rep_sphere,
                                   plus_point, rep_sphere, save_gcw,
                                   sphere_of_rep)

from test_acceptance import _fuzz_complex


def fuzz_corpus():
    rng = random.Random(20260814)
    return [_fuzz_complex(rng) for _ in range(520)]


def reduced_regular_pieces(n):
    """The joinands of S(reduced regular + 1) over C_n, the trivial piece last."""
    group = CyclicGroup(n)
    pieces = [sphere_of_rep(irrep(group, k)) for k in group.nontrivial_labels()]
    return pieces + [sphere_of_rep(trivial_rep(group))]


def reference_join_one_skeleton(pieces):
    """Cells of dimensions 0 and 1 of the iterated join of pieces.

    Piece cells are prefixed p<i>:; one product 1-cell j:p<i>:<x>:<dr>:p<j>:<y>
    for each dr joins 0-cells x, y of distinct pieces, with boundary
    g^dr.y - x.  Every word goes through GCWComplex(...).
    """
    group = pieces[0].group
    n = group.order
    cells = []
    boundary = {}
    for i, x in enumerate(pieces):
        pref = "p%d:" % i
        for c in x.cells:
            if c.dim <= 1:
                cells.append(Cell(pref + c.id, c.dim, c.stab))
            if c.dim == 1:
                boundary[pref + c.id] = [(pref + tid, word)
                                         for tid, word in x.boundary_of(c.id)]
    for i, x in enumerate(pieces):
        for j, y in enumerate(pieces[i + 1:], start=i + 1):
            for cx in x.cells:
                for cy in y.cells:
                    if cx.dim or cy.dim:
                        continue
                    hx, hy = cx.stab, cy.stab
                    for dr in range(_pair_orbit_count(n, hx, hy)):
                        pid = "j:p%d:%s:%d:p%d:%s" % (i, cx.id, dr, j, cy.id)
                        cells.append(Cell(pid, 1, gcd(hx, hy)))
                        wy = [0] * (n // hy)
                        wy[dr] = 1
                        wx = [0] * (n // hx)
                        wx[0] = -1
                        boundary[pid] = [("p%d:%s" % (j, cy.id), wy),
                                         ("p%d:%s" % (i, cx.id), wx)]
    return GCWComplex(group, cells, boundary)


def skeleton_corpus():
    return [reference_join_one_skeleton(reduced_regular_pieces(n))
            for n in range(2, 9)]


def rep_corpus():
    out = []
    for n in range(2, 8):
        group = CyclicGroup(n)
        labels = group.nontrivial_labels()
        for k in labels:
            out.append(irrep(group, k))
            out.append(irrep(group, k) + trivial_rep(group))
        out.append(VirtualRep(group, {k: 1 for k in labels}))
        out.append(irrep(group, labels[0]) + irrep(group, labels[-1]))
    return out


def assert_same(got, want):
    assert got == want
    assert got.basepoint == want.basepoint
    assert got.by_id == want.by_id
    assert [c.id for c in got.cells] == [c.id for c in want.cells]
    got._validate()


def test_plus_point_matches_the_full_constructor():
    corpus = fuzz_corpus() + skeleton_corpus()
    for x in corpus:
        y = plus_point(x)
        full = GCWComplex(x.group, list(x.cells) + [Cell("+", 0, x.group.order)],
                          x.boundary, basepoint="+")
        assert_same(y, full)
        assert y.boundary is x.boundary
        assert y.by_id is not x.by_id
        with pytest.raises(InvariantViolation, match="duplicate cell id"):
            plus_point(y)
    # the parents are left as they were
    assert all("+" not in x.by_id for x in corpus)


def test_rep_sphere_matches_the_full_constructor():
    for v in rep_corpus():
        x = sphere_of_rep(v + trivial_rep(v.group))
        nest = "b:" * (len(v.summands()) + v.multiplicity(0))
        full = GCWComplex(x.group, x.cells, x.boundary, basepoint=nest + "tb")
        assert_same(rep_sphere(v), full)


def test_rebased_skeleton_matches_the_full_constructor():
    for sk in skeleton_corpus():
        # based at the far cone point of the trivial piece, the last one
        base = "p%d:tb" % len(sk.group.nontrivial_labels())
        full = GCWComplex(sk.group, sk.cells, sk.boundary, basepoint=base)
        assert_same(sk._rebased(base), full)


def test_rebase_checks_the_new_basepoint():
    x = sphere_of_rep(irrep(CyclicGroup(3), 1))
    with pytest.raises(InvariantViolation, match="does not exist"):
        x._rebased("missing")
    with pytest.raises(InvariantViolation, match="fixed 0-cell"):
        x._rebased("v0")


def sorted_first_fixed_cell(x, ignore_basepoint):
    for c in sorted(x.cells, key=lambda c: c.id):
        if ignore_basepoint and c.id == x.basepoint:
            continue
        if c.stab > 1:
            return c.id
    return None


def test_first_fixed_cell_matches_the_sorted_scan():
    based = unbased = 0
    for x in fuzz_corpus() + skeleton_corpus():
        for y in (x, plus_point(x)):
            based += y.is_based
            unbased += not y.is_based
            for ignore in (True, False):
                assert (y.first_fixed_cell(ignore)
                        == sorted_first_fixed_cell(y, ignore)), (y, ignore)
    assert based and unbased


def test_not_free_names_the_cell_and_its_stabilizer():
    cone = rep_sphere(irrep(CyclicGroup(3), 1))
    with pytest.raises(NotFree, match=r"cell 'b:ta' has stabilizer of order 3"):
        free_cohomology(cone)


def test_point_window_builds_each_sphere_model_once(monkeypatch, capsys):
    built = []

    def counting(p, q):
        x = minimal_rep_sphere(p, q)
        built.append(((p, q), x))
        return x

    monkeypatch.setattr(mackey_bredon, "minimal_rep_sphere", counting)
    mackey_bredon._minimal_sphere.cache_clear()
    try:
        argv = ["point", "--p", "5", "--m-range", "0:9", "--n-range", "-8:-1",
                "--coeff", "z"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)["rows"]
        assert len(built) <= 8
        # a second window reads the cached models and answers the same
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == first
        assert len(built) <= 8
        # the fp table reads the same shared models through method a
        assert main(["point", "--p", "5", "--m-range", "0:9",
                     "--n-range", "-8:-1"]) == 0
        assert len(built) <= 8
    finally:
        mackey_bredon._minimal_sphere.cache_clear()
    # no caller mutated a shared model
    for (p, q), x in built:
        fresh = minimal_rep_sphere(p, q)
        assert_same(x, fresh)
        assert save_gcw(x) == save_gcw(fresh)
    zero = point_algebra._zero_sphere(5)
    assert_same(zero, based_zero_sphere(CyclicGroup(5)))
