"""The orbit chain builder: quotient, expand and the Bredon (co)chains all
come from one PlainComplex that builds each matrix when it is first asked
for.  The eager builders it replaced are kept here as oracles."""

import itertools

from bredonkit.cyclic_reps import CyclicGroup, irrep
from bredonkit.exact_linalg import GroupPresentation, IntMatrix, is_prime
from bredonkit.gcw_complex import (
    GCWComplex,
    minimal_rep_sphere,
    periodic_free_model,
    plus_point,
    rep_sphere,
    smash,
    sphere_of_rep,
)
from bredonkit.mackey_bredon import (
    BredonComplex,
    MackeyCoefficients,
    ro_graded_cohomology,
)


# -- oracles: the eager builders, every degree at once -------------------------

def cells_of_dim(x, k, reduced=False):
    out = [c for c in x.cells if c.dim == k]
    if reduced and x.basepoint is not None:
        out = [c for c in out if c.id != x.basepoint]
    out.sort(key=lambda c: c.id)
    return out


def eager_quotient(x, drop_basepoint=False):
    """(layers, [d_1 .. d_dim]) of X/G, built as quotient() once did."""
    def keep(c):
        return not (drop_basepoint and c.id == x.basepoint)
    layers = [[c.id for c in cells_of_dim(x, k) if keep(c)]
              for k in range(x.dim + 1)]
    mats = []
    for k in range(1, x.dim + 1):
        index = {cid: i for i, cid in enumerate(layers[k - 1])}
        m = IntMatrix(len(layers[k - 1]), len(layers[k]))
        for j, cid in enumerate(layers[k]):
            for tid, word in x.boundary_of(cid):
                if tid in index:
                    m.data[index[tid]][j] += sum(word)
        mats.append(m)
    return layers, mats


def eager_expand(x):
    """(layers, [d_1 .. d_dim]) of the underlying complex, as expand() once did."""
    n = x.group.order
    layers = []
    for k in range(x.dim + 1):
        layer = []
        for c in cells_of_dim(x, k):
            layer.extend("%s@%d" % (c.id, i) for i in range(n // c.stab))
        layers.append(layer)
    mats = []
    for k in range(1, x.dim + 1):
        index = {cid: i for i, cid in enumerate(layers[k - 1])}
        m = IntMatrix(len(layers[k - 1]), len(layers[k]))
        col = 0
        for c in cells_of_dim(x, k):
            for i in range(n // c.stab):
                for tid, word in x.boundary_of(c.id):
                    sz = n // x.by_id[tid].stab
                    for a, coeff in enumerate(word):
                        if coeff:
                            row = index["%s@%d" % (tid, (i + a) % sz)]
                            m.data[row][col] += coeff
                col += 1
        mats.append(m)
    return layers, mats


def eager_bredon_boundary(x, reduced, k):
    """Transfer-weighted d_k, as BredonComplex.boundary_matrix once built it."""
    basis = lambda j: [c.id for c in cells_of_dim(x, j, reduced=reduced)]
    rows, cols = basis(k - 1), basis(k)
    index = {cid: i for i, cid in enumerate(rows)}
    m = IntMatrix(len(rows), len(cols))
    for j, cid in enumerate(cols):
        hc = x.by_id[cid].stab
        for tid, word in x.boundary_of(cid):
            if tid in index:
                weight = x.by_id[tid].stab // hc
                m.data[index[tid]][j] += sum(word) * weight
    return m


def eager_bredon_cochain(x, reduced, k):
    """delta^k, as BredonComplex.cochain_matrix once built it."""
    basis = lambda j: [c.id for c in cells_of_dim(x, j, reduced=reduced)]
    rows, cols = basis(k + 1), basis(k)
    index = {cid: j for j, cid in enumerate(cols)}
    m = IntMatrix(len(rows), len(cols))
    for i, cid in enumerate(rows):
        for tid, word in x.boundary_of(cid):
            if tid in index:
                m.data[i][index[tid]] += sum(word)
    return m


def eager_boundary(layers, mats, k):
    if 1 <= k < len(layers):
        return mats[k - 1]
    size = lambda j: len(layers[j]) if 0 <= j < len(layers) else 0
    return IntMatrix(size(k - 1), size(k))


def models():
    """(label, complex) over C_2 .. C_6: joins, compactifications, smashes,
    adjoined basepoints, and the minimal and periodic models."""
    for n in range(2, 7):
        g = CyclicGroup(n)
        labels = g.nontrivial_labels()
        for k1, k2 in itertools.combinations_with_replacement(labels, 2):
            s = sphere_of_rep(irrep(g, k1) + irrep(g, k2))
            yield "C_%d S(xi^%d+xi^%d)" % (n, k1, k2), s
            yield "C_%d S(xi^%d+xi^%d)_+" % (n, k1, k2), plus_point(s)
        for k in labels:
            yield "C_%d S^(xi^%d)" % (n, k), rep_sphere(irrep(g, k))
            yield "C_%d S^(xi^%d+1)" % (n, k), rep_sphere(irrep(g, k) + irrep(g, 0))
            yield "C_%d S(xi^%d+1)" % (n, k), sphere_of_rep(irrep(g, k) + irrep(g, 0))
        k1, k2 = labels[0], labels[-1]
        yield ("C_%d S^(xi^%d) ^ S(xi^%d)_+" % (n, k1, k2),
               smash(rep_sphere(irrep(g, k1)), plus_point(sphere_of_rep(irrep(g, k2)))))
        if is_prime(n):
            for q in (1, 2):
                yield "C_%d minimal S^%d" % (n, q), minimal_rep_sphere(n, q)
            yield "C_%d periodic 4" % n, periodic_free_model(n, 4)
            yield "C_%d periodic 3_+" % n, plus_point(periodic_free_model(n, 3))


def check_plain(label, plain, layers, mats):
    assert plain.layers == layers, label
    assert plain.dim == len(layers) - 1, label
    degrees = range(-1, plain.dim + 3)
    # ask for the cochains first, so each orientation is built on its own
    for k in degrees:
        assert plain.coboundary(k) == eager_boundary(layers, mats, k + 1).transpose(), \
            (label, k)
    for k in degrees:
        assert plain.boundary(k) == eager_boundary(layers, mats, k), (label, k)
        assert plain.coboundary(k) == plain.boundary(k + 1).transpose(), (label, k)


def test_quotient_and_expand_match_the_eager_builders():
    count = 0
    for label, x in models():
        for drop in (False, True):
            if drop and not x.is_based:
                continue
            check_plain("%s drop=%s" % (label, drop), x.quotient(drop_basepoint=drop),
                        *eager_quotient(x, drop))
            count += 1
        check_plain(label + " expand", x.expand(), *eager_expand(x))
    assert count > 100


def test_bredon_matrices_match_the_eager_builders():
    for label, x in models():
        mackey = MackeyCoefficients(x.group, "Z")
        for reduced in (False, True):
            if reduced and not x.is_based:
                continue
            b = BredonComplex(x, mackey, reduced=reduced)
            assert b.bases == [[c.id for c in cells_of_dim(x, k, reduced=reduced)]
                               for k in range(x.dim + 1)], label
            for k in range(-1, b.dim + 3):
                tag = (label, reduced, k)
                assert b.cochain_matrix(k) == eager_bredon_cochain(x, reduced, k), tag
                assert b.boundary_matrix(k) == eager_bredon_boundary(x, reduced, k), tag
                assert b.cochain_matrix(k) == b.orbits.boundary(k + 1).transpose(), tag


def test_graded_read_past_the_top_reads_no_boundary_word(monkeypatch):
    """A free join model has nothing above its top degree, so the positive
    graded read there needs no matrix and touches no boundary word."""
    g = CyclicGroup(5)
    x = sphere_of_rep(irrep(g, 1) + irrep(g, 2))
    assert x.is_free() and x.dim == 3
    mackey = MackeyCoefficients(g, ("F", 5))
    reads = []
    boundary_of = GCWComplex.boundary_of

    def counted(self, cid):
        reads.append(cid)
        return boundary_of(self, cid)
    monkeypatch.setattr(GCWComplex, "boundary_of", counted)
    # grading (0, 2) reads degree 0 + 2 * 2 = 4 of the quotient
    assert ro_graded_cohomology(x, mackey, (0, 2)) == GroupPresentation.mod_p(5, 0)
    assert reads == []
    # the top degree itself (grading (-1, 2), degree 3) does read words
    assert ro_graded_cohomology(x, mackey, (-1, 2)) == GroupPresentation.mod_p(5, 1)
    assert reads
