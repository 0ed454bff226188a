"""Derived and cached complexes share what was already built and validated.

plus_point, rep_sphere and the re-based join skeleton must equal what the
full GCWComplex constructor builds from the same cells and words, while
sharing the parent's boundary words; cached sphere models must be built
once per (p, q) and stay equal to fresh ones.
"""

import json
import random

import pytest

from bredonkit import mackey_bredon, point_algebra
from bredonkit.cli import main
from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep, trivial_rep
from bredonkit.errors import InvariantViolation, NotFree
from bredonkit.free_space import free_cohomology
from bredonkit.gcw_complex import (Cell, GCWComplex, based_zero_sphere,
                                   join_one_skeleton, minimal_rep_sphere,
                                   plus_point, rep_sphere, save_gcw,
                                   sphere_of_rep)

from test_acceptance import _fuzz_complex


def fuzz_corpus():
    rng = random.Random(20260814)
    return [_fuzz_complex(rng) for _ in range(520)]


def skeleton_corpus():
    out = []
    for n in range(2, 9):
        group = CyclicGroup(n)
        pieces = [sphere_of_rep(irrep(group, k)) for k in group.nontrivial_labels()]
        pieces.append(sphere_of_rep(trivial_rep(group)))
        out.append(join_one_skeleton(pieces))
    return out


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
