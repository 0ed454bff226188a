"""Product complexes write canonical words and are refused when too large.

join and smash build their boundary words in canonical form and skip the
constructor's normalization.  Each output must equal what the reference
constructors below build through GCWComplex(...), which normalizes every
word, and must pass the full validation.  The reference constructors are
the straightforward versions kept for this comparison.  The products must
also hold one string per cell id and one tuple per distinct word.
"""

import time
from math import gcd

import pytest

import test_acceptance
from bredonkit import gcw_complex
from bredonkit.cli import main
from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, irrep
from bredonkit.errors import ComplexTooLarge, InvariantViolation
from bredonkit.gcw_complex import (Cell, GCWComplex, _join_cell_count,
                                   _normalize_pair, _pair_orbit_count,
                                   _sphere_pieces, join, minimal_rep_sphere,
                                   plus_point, rep_sphere, smash, sphere_of_rep)
from bredonkit.obstruction import target_rep

from test_shared_complexes import fuzz_corpus


# ---------------------------------------------------------------------------
# reference constructors: every word goes through GCWComplex(...)

class _Words:
    def __init__(self):
        self.entries = {}

    def add(self, tid, length, pos, coeff):
        w = self.entries.setdefault(tid, [0] * length)
        w[pos % length] += coeff

    def packed(self):
        return [(tid, tuple(w)) for tid, w in self.entries.items() if any(w)]


def reference_join(x, y):
    n = x.group.order
    cells = [Cell("a:" + c.id, c.dim, c.stab) for c in x.cells]
    cells += [Cell("b:" + c.id, c.dim, c.stab) for c in y.cells]
    boundary = {}
    for cid, entries in x.boundary.items():
        boundary["a:" + cid] = [("a:" + tid, word) for tid, word in entries]
    for cid, entries in y.boundary.items():
        boundary["b:" + cid] = [("b:" + tid, word) for tid, word in entries]
    for cx in x.cells:
        for cy in y.cells:
            hx, hy = cx.stab, cy.stab
            for dr in range(_pair_orbit_count(n, hx, hy)):
                pid = "j:%s:%d:%s" % (cx.id, dr, cy.id)
                cells.append(Cell(pid, cx.dim + cy.dim + 1, gcd(hx, hy)))
                wb = _Words()
                if cx.dim == 0:
                    wb.add("b:" + cy.id, n // hy, dr, 1)
                else:
                    for tid, word in x.boundary_of(cx.id):
                        ht = x.by_id[tid].stab
                        for i, coeff in enumerate(word):
                            if coeff:
                                ndr, e = _normalize_pair(n, ht, hy, i, dr)
                                wb.add("j:%s:%d:%s" % (tid, ndr, cy.id),
                                       n // gcd(ht, hy), e, coeff)
                s = -1 if cx.dim % 2 == 0 else 1
                if cy.dim == 0:
                    wb.add("a:" + cx.id, n // hx, 0, s)
                else:
                    for tid, word in y.boundary_of(cy.id):
                        ht = y.by_id[tid].stab
                        for i, coeff in enumerate(word):
                            if coeff:
                                ndr, e = _normalize_pair(n, hx, ht, 0, dr + i)
                                wb.add("j:%s:%d:%s" % (cx.id, ndr, tid),
                                       n // gcd(hx, ht), e, s * coeff)
                boundary[pid] = wb.packed()
    return GCWComplex(x.group, cells, boundary)


def reference_smash(x, y):
    n = x.group.order
    cells = [Cell("*", 0, n)]
    boundary = {}
    for cx in x.cells:
        if cx.id == x.basepoint:
            continue
        for cy in y.cells:
            if cy.id == y.basepoint:
                continue
            hx, hy = cx.stab, cy.stab
            for dr in range(_pair_orbit_count(n, hx, hy)):
                pid = "s:%s:%d:%s" % (cx.id, dr, cy.id)
                dim = cx.dim + cy.dim
                cells.append(Cell(pid, dim, gcd(hx, hy)))
                if dim == 0:
                    continue
                wb = _Words()
                for tid, word in x.boundary_of(cx.id):
                    ht = x.by_id[tid].stab
                    for i, coeff in enumerate(word):
                        if not coeff:
                            continue
                        if tid == x.basepoint:
                            if cy.dim == 0:
                                wb.add("*", 1, 0, coeff)
                            continue
                        ndr, e = _normalize_pair(n, ht, hy, i, dr)
                        wb.add("s:%s:%d:%s" % (tid, ndr, cy.id),
                               n // gcd(ht, hy), e, coeff)
                s = 1 if cx.dim % 2 == 0 else -1
                for tid, word in y.boundary_of(cy.id):
                    ht = y.by_id[tid].stab
                    for i, coeff in enumerate(word):
                        if not coeff:
                            continue
                        if tid == y.basepoint:
                            if cx.dim == 0:
                                wb.add("*", 1, 0, s * coeff)
                            continue
                        ndr, e = _normalize_pair(n, hx, ht, 0, dr + i)
                        wb.add("s:%s:%d:%s" % (cx.id, ndr, tid),
                               n // gcd(hx, ht), e, s * coeff)
                boundary[pid] = wb.packed()
    return GCWComplex(x.group, cells, boundary, basepoint="*")


@pytest.fixture
def reference_products(monkeypatch):
    """Route sphere_of_rep, rep_sphere and the fuzz corpus through the references."""
    monkeypatch.setattr(gcw_complex, "join", reference_join)
    monkeypatch.setattr(test_acceptance, "join", reference_join)
    monkeypatch.setattr(test_acceptance, "smash", reference_smash)


def assert_same(got, want):
    assert got.group == want.group
    assert got.cells == want.cells
    assert got.boundary == want.boundary
    assert got.basepoint == want.basepoint
    assert all(type(c) is int for entries in got.boundary.values()
               for _, word in entries for c in word)
    got._validate()


def based(x):
    return x if x.is_based else plus_point(x)


# ---------------------------------------------------------------------------
# differential tests

def test_fuzz_corpus_matches_the_references(request):
    got = fuzz_corpus()
    request.getfixturevalue("reference_products")
    want = fuzz_corpus()
    for x, y in zip(got, want):
        assert_same(x, y)


def test_products_of_corpus_neighbours_match_the_references():
    corpus = fuzz_corpus()
    pairs = 0
    for x, y in zip(corpus, corpus[1:]):
        if x.group != y.group or _join_cell_count((x, y)) > 1000:
            continue
        assert_same(join(x, y), reference_join(x, y))
        bx, by = based(x), based(y)
        assert_same(smash(bx, by), reference_smash(bx, by))
        pairs += 1
    assert pairs >= 80


CERTIFICATE_SPHERES = [(p, d) for p in (2, 3, 5, 7) for d in range(2, 11)
                       if (p - 1) * (d - 1) <= 8]


@pytest.mark.parametrize("p,d", CERTIFICATE_SPHERES)
def test_certificate_spheres_match_the_references(request, p, d):
    v = target_rep(p, d)
    got = sphere_of_rep(v)
    request.getfixturevalue("reference_products")
    assert_same(got, sphere_of_rep(v))


# the spaces that the graded-reads benchmark saves: (order, {label: mult}, based)
GRADED_SPACES = [
    (3, {1: 2}, False), (3, {1: 3}, False), (5, {1: 2}, False),
    (5, {1: 1, 2: 1}, False), (5, {1: 3}, False), (7, {1: 2}, False),
    (7, {1: 1, 2: 1}, False), (4, {1: 2, 2: 1}, True),
    (6, {1: 1, 2: 1, 3: 1}, True),
]


def test_smashes_with_graded_spaces_match_the_references():
    for order, mult, is_onept in GRADED_SPACES:
        v = VirtualRep(CyclicGroup(order), mult)
        x = rep_sphere(v) if is_onept else plus_point(sphere_of_rep(v))
        spheres = [rep_sphere(irrep(v.group, 1))]
        if order in (3, 5, 7):
            spheres += [minimal_rep_sphere(order, q) for q in (1, 2)]
        for s in spheres:
            assert_same(smash(s, x), reference_smash(s, x))


# ---------------------------------------------------------------------------
# canonical-form checks of the helper that stores words as given

def canonical(boundary):
    group = CyclicGroup(3)
    cells = [Cell("u", 0, 1), Cell("v", 0, 1), Cell("e", 1, 1)]
    return GCWComplex._canonical(group, cells, boundary)


def test_canonical_words_are_stored_as_given():
    entries = (("u", (1, 0, 0)), ("v", (0, -1, 0)))
    x = canonical({"e": entries})
    assert x.boundary["e"] is entries
    assert x == GCWComplex(x.group, x.cells, {"e": list(reversed(entries))})


@pytest.mark.parametrize("boundary,match", [
    ({"e": (("v", (0, -1, 0)), ("u", (1, 0, 0)))}, "not strictly ascending"),
    ({"e": (("u", (1, 0, 0)), ("u", (0, -1, 0)))}, "not strictly ascending"),
    ({"e": (("u", (1, 0, 0)), ("v", (0, 0, 0)))}, "zero word"),
    ({"f": (("u", (1, 0, 0)),)}, "unknown cell"),
    ({"e": ()}, "empty boundary"),
])
def test_non_canonical_words_are_refused(boundary, match):
    with pytest.raises(InvariantViolation, match=match):
        canonical(boundary)


# ---------------------------------------------------------------------------
# oversized products

def test_predicted_cell_counts_match_built_spheres():
    reps = [target_rep(p, d) for p, d in CERTIFICATE_SPHERES]
    for n in range(2, 8):
        group = CyclicGroup(n)
        labels = group.nontrivial_labels()
        reps.append(VirtualRep(group, {k: 1 for k in labels}) + irrep(group, 1))
        reps.append(VirtualRep(group, {0: 2, labels[-1]: 2}))
    for v in reps:
        assert _join_cell_count(_sphere_pieces(v)) == len(sphere_of_rep(v).cells), v
    assert _join_cell_count(_sphere_pieces(target_rep(5, 4))) == 354312
    assert _join_cell_count(_sphere_pieces(target_rep(7, 3))) == 1627232


def test_products_past_the_limit_are_refused(monkeypatch):
    x = sphere_of_rep(irrep(CyclicGroup(5), 1) * 2)
    y = sphere_of_rep(irrep(CyclicGroup(5), 2))
    size = len(join(x, y).cells)
    bx, by = plus_point(x), rep_sphere(irrep(CyclicGroup(5), 2))
    smash_size = len(smash(bx, by).cells)
    monkeypatch.setattr(gcw_complex, "MAX_ORBIT_CELLS", size)
    join(x, y)
    monkeypatch.setattr(gcw_complex, "MAX_ORBIT_CELLS", size - 1)
    with pytest.raises(ComplexTooLarge, match="%d orbit cells" % size):
        join(x, y)
    monkeypatch.setattr(gcw_complex, "MAX_ORBIT_CELLS", smash_size)
    smash(bx, by)
    monkeypatch.setattr(gcw_complex, "MAX_ORBIT_CELLS", smash_size - 1)
    with pytest.raises(ComplexTooLarge, match="%d orbit cells" % smash_size):
        smash(bx, by)


def test_sphere_is_refused_before_its_first_join(monkeypatch):
    calls = []
    monkeypatch.setattr(gcw_complex, "join",
                        lambda x, y: calls.append(1) or join(x, y))
    with pytest.raises(ComplexTooLarge):
        sphere_of_rep(target_rep(7, 3))
    assert calls == []


def test_oversized_obstruct_exits_1_at_once(capsys):
    t0 = time.monotonic()
    assert main(["obstruct", "--p", "7", "--d", "3"]) == 1
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert "1627232 orbit cells" in err and "1000000" in err


# ---------------------------------------------------------------------------
# one copy of each id and each word

def assert_shared(x):
    """Each boundary target is its cell's id object; equal words are one tuple."""
    entries = [e for es in x.boundary.values() for e in es]
    assert all(x.by_id[tid].id is tid for tid, _ in entries)
    words = [w for _, w in entries]
    assert len({id(w) for w in words}) == len(set(words))


@pytest.mark.parametrize("p,d", CERTIFICATE_SPHERES)
def test_certificate_spheres_share_ids_and_words(p, d):
    assert_shared(sphere_of_rep(target_rep(p, d)))


def test_smashes_with_graded_spaces_share_ids_and_words():
    for order, mult, is_onept in GRADED_SPACES:
        v = VirtualRep(CyclicGroup(order), mult)
        x = rep_sphere(v) if is_onept else plus_point(sphere_of_rep(v))
        spheres = [rep_sphere(irrep(v.group, 1))]
        if order in (3, 5, 7):
            spheres += [minimal_rep_sphere(order, q) for q in (1, 2)]
        for s in spheres:
            assert_shared(smash(s, x))


# ---------------------------------------------------------------------------
# the reduced regular Euler class reads 0-cell pairs, counted before any build

def test_reduced_regular_euler_at_512_answers_at_once(capsys):
    t0 = time.monotonic()
    assert main(["euler", "--n", "512", "--reduced-regular",
                 "--format", "csv"]) == 0
    assert time.monotonic() - t0 < 1.0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "512,False,2,[]"


def test_oversized_reduced_regular_euler_exits_1_at_once(capsys):
    t0 = time.monotonic()
    assert main(["euler", "--n", "100000", "--reduced-regular"]) == 1
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert ("the reduced regular join of C_100000 would have 1250075000 "
            "pairs of 0-cells in distinct pieces") in err and "1000000" in err
    assert "Traceback" not in err
