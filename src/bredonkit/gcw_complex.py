"""Finite G-CW complexes for cyclic groups.

A complex stores one representative cell per orbit.  Boundary data lives in
group-ring words: the boundary entry of cell c at target t is a length
n/h_t integer vector, index i holding the coefficient of g^i (mod the
target's stabilizer).  Constructors cover unit spheres of representations
(iterated joins of circles, sign pairs and point pairs), one-point
compactifications, minimal two-cone-point sphere models, free periodic
models (lens-type skeleta), smashes, joins and quotients, plus a
line-oriented text format for ingestion of hand-built complexes.

Dense boundary matrices (quotient, expand, the Bredon (co)chains) are all
built by PlainComplex from the terms of each differential, on demand.
"""

import re
from collections import Counter
from math import gcd
from operator import itemgetter

from .errors import (
    ComplexTooLarge,
    EmptyRepresentation,
    InvariantViolation,
    MissingBasepoint,
    ParseError,
    StabilizerMismatch,
)
from .exact_linalg import IntMatrix, check_prime, homology_at
from .cyclic_reps import CyclicGroup, format_rep, trivial_rep


class Cell:
    __slots__ = ("id", "dim", "stab")

    def __init__(self, cell_id, dim, stab):
        self.id = str(cell_id)
        self.dim = int(dim)
        self.stab = int(stab)

    def __repr__(self):
        return "Cell(%r, dim=%d, stab=%d)" % (self.id, self.dim, self.stab)

    def __eq__(self, other):
        return (isinstance(other, Cell) and self.id == other.id
                and self.dim == other.dim and self.stab == other.stab)

    def __hash__(self):
        return hash((self.id, self.dim, self.stab))


def _sum_words(cid, tid, w1, w2):
    """Sum of two words of cell cid at the same target tid."""
    if len(w1) != len(w2):
        raise StabilizerMismatch(
            "cell %r: words of lengths %d and %d at target %r"
            % (cid, len(w1), len(w2), tid))
    return tuple(a + b for a, b in zip(w1, w2))


class GCWComplex:
    """Finite G-CW complex, one cell per orbit, immutable after validation.

    A complex holds its group, its cells (indexed by id in by_id), their
    boundary words and an optional basepoint, a fixed 0-cell; nothing else.

    Boundary words are stored in canonical form: for each cell, a tuple of
    (target id, int tuple) pairs with targets in strictly ascending order,
    one nonzero word per target, and no entry for a cell without boundary.
    The constructor brings any input to that form (words to one target
    summed, zero words dropped) and then validates it; _check_words
    enforces the form.  Only the product constructors (join, smash,
    join_one_skeleton) skip the normalization: they write canonical words
    and return through _canonical, which runs the same validation.

    Complexes are shared, not copied: a complex derived by adding a
    basepoint (plus_point, rep_sphere) shares its parent's cells and
    boundary words, and cached sphere models are handed to every caller.
    Within a product, each cell id is one string object, used by its cell
    and by every boundary entry that points at it, and equal words are one
    tuple (see _ProductWords).  Callers must not mutate a complex, its
    cells, its boundary, its ids or its words: a change to one would show
    in every complex and every entry that shares it.
    """

    def __init__(self, group, cells, boundary, basepoint=None):
        self._store(group, cells, basepoint)
        # normalize: words to one target summed, entries sorted by target
        # id, all-zero words dropped
        self.boundary = {}
        for cid, entries in boundary.items():
            keep = []
            for tid, word in sorted(entries, key=itemgetter(0)):
                word = tuple(map(int, word))
                if keep and keep[-1][0] == tid:
                    word = _sum_words(cid, tid, keep.pop()[1], word)
                keep.append((tid, word))
            keep = tuple(e for e in keep if any(e[1]))
            if keep:
                self.boundary[cid] = keep
        self._validate()

    @classmethod
    def _canonical(cls, group, cells, boundary, basepoint=None):
        """A complex whose boundary words are already in canonical form.

        Stores the words as given and validates everything, the canonical
        form included.
        """
        x = object.__new__(cls)
        x._store(group, cells, basepoint)
        x.boundary = boundary
        x._validate()
        return x

    def _store(self, group, cells, basepoint):
        self.group = group
        self.cells = list(cells)
        self.basepoint = basepoint
        self.by_id = {}
        self._index(self.cells)

    def _rebased(self, basepoint, added=()):
        """This complex plus the boundary-free cells `added`, re-based.

        Shares the cells and the boundary words, which were normalized and
        validated when this complex was built; only the added cells and the
        new basepoint are checked.
        """
        x = object.__new__(GCWComplex)
        x.group = self.group
        x.cells = self.cells + list(added)
        x.basepoint = basepoint
        x.by_id = dict(self.by_id)
        x._index(added)
        x.boundary = self.boundary
        x._check_cells(added)
        x._check_basepoint()
        return x

    # -- structure ---------------------------------------------------------

    def _index(self, cells):
        for c in cells:
            if c.id in self.by_id:
                raise InvariantViolation("duplicate cell id %r" % c.id)
            self.by_id[c.id] = c

    def _validate(self):
        self._check_cells(self.cells)
        self._check_words()
        self._check_basepoint()

    def _check_cells(self, cells):
        n = self.group.order
        for c in cells:
            if c.stab < 1 or n % c.stab:
                raise StabilizerMismatch(
                    "cell %r: stab %d is not a subgroup order of C_%d"
                    % (c.id, c.stab, n))
            if c.dim < 0:
                raise InvariantViolation("cell %r: negative dimension" % c.id)

    def _check_words(self):
        n = self.group.order
        by_id = self.by_id
        for cid, entries in self.boundary.items():
            c = by_id.get(cid)
            if c is None:
                raise InvariantViolation("boundary for unknown cell %r" % cid)
            if c.dim == 0:
                raise InvariantViolation("0-cell %r has boundary" % cid)
            if not entries:
                raise InvariantViolation("cell %r: empty boundary entry" % cid)
            prev = None
            for tid, word in entries:
                if prev is not None and tid <= prev:
                    raise InvariantViolation(
                        "cell %r: boundary targets not strictly ascending at %r"
                        % (cid, tid))
                prev = tid
                t = by_id.get(tid)
                if t is None:
                    raise InvariantViolation(
                        "cell %r: boundary target %r does not exist" % (cid, tid))
                if t.dim != c.dim - 1:
                    raise InvariantViolation(
                        "cell %r: boundary does not drop dimension by 1 at %r"
                        % (cid, tid))
                if t.stab % c.stab:
                    raise StabilizerMismatch(
                        "cell %r: stabilizer shrinks along boundary to %r"
                        % (cid, tid))
                if len(word) != n // t.stab:
                    raise StabilizerMismatch(
                        "cell %r: word length %d != %d at target %r"
                        % (cid, len(word), n // t.stab, tid))
                if not any(word):
                    raise InvariantViolation(
                        "cell %r: zero word at target %r" % (cid, tid))

    def _check_basepoint(self):
        if self.basepoint is not None:
            bp = self.by_id.get(self.basepoint)
            if bp is None:
                raise InvariantViolation("basepoint %r does not exist" % self.basepoint)
            if bp.dim != 0 or bp.stab != self.group.order:
                raise InvariantViolation("basepoint %r must be a fixed 0-cell"
                                         % self.basepoint)

    @property
    def dim(self):
        return max((c.dim for c in self.cells), default=-1)

    @property
    def is_based(self):
        return self.basepoint is not None

    def boundary_of(self, cid):
        return self.boundary.get(cid, ())

    def first_fixed_cell(self, ignore_basepoint=True):
        """Least id of a non-free cell (stab > 1), skipping the basepoint; or None."""
        skip = self.basepoint if ignore_basepoint else None
        return min((c.id for c in self.cells if c.stab > 1 and c.id != skip),
                   default=None)

    def is_free(self, ignore_basepoint=True):
        return self.first_fixed_cell(ignore_basepoint) is None

    def cell_count(self):
        """Underlying (non-equivariant) cell count per dimension."""
        out = [0] * (self.dim + 1)
        for c in self.cells:
            out[c.dim] += self.group.order // c.stab
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, GCWComplex) and self.group == other.group
                and sorted(self.cells, key=lambda c: c.id)
                == sorted(other.cells, key=lambda c: c.id)
                and self.boundary == other.boundary
                and self.basepoint == other.basepoint)

    def __repr__(self):
        return "<GCWComplex over %r: %d orbit cells, dim %d%s>" % (
            self.group, len(self.cells), self.dim,
            ", based" if self.is_based else "")

    # -- underlying complexes ----------------------------------------------

    def quotient(self, drop_basepoint=False):
        """Orbit CW complex X/G: one cell per orbit, boundary by augmentation."""
        layers = [[] for _ in range(self.dim + 1)]
        for c in sorted(self.cells, key=lambda c: c.id):
            if not (drop_basepoint and c.id == self.basepoint):
                layers[c.dim].append(c.id)

        def terms(k):
            for cid in layers[k]:
                for tid, word in self.boundary_of(cid):
                    yield tid, cid, sum(word)
        return PlainComplex(layers, terms)

    def expand(self):
        """Underlying non-equivariant CW complex (every translate a cell)."""
        n = self.group.order
        size = {c.id: n // c.stab for c in self.cells}
        orbits = self.quotient().layers
        layers = [["%s@%d" % (cid, i) for cid in layer for i in range(size[cid])]
                  for layer in orbits]

        def terms(k):
            for cid in orbits[k]:
                for tid, word in self.boundary_of(cid):
                    for a, coeff in enumerate(word):
                        if coeff:
                            for i in range(size[cid]):
                                yield ("%s@%d" % (tid, (i + a) % size[tid]),
                                       "%s@%d" % (cid, i), coeff)
        return PlainComplex(layers, terms)

    def verify_dd(self):
        """Check that the equivariant boundary squares to zero (exact, over Z).

        Composes group-ring words orbitwise: for d(c) = sum w_t . t the
        double boundary collects the convolution of w_t with each word of
        d(t), reduced modulo the target orbit size.
        """
        n = self.group.order
        for c in self.cells:
            if c.dim < 2:
                continue
            acc = {}
            for tid, w in self.boundary_of(c.id):
                for uid, w2 in self.boundary_of(tid):
                    sz = n // self.by_id[uid].stab
                    out = acc.setdefault(uid, [0] * sz)
                    for a, ca in enumerate(w):
                        if ca:
                            for b, cb in enumerate(w2):
                                if cb:
                                    out[(a + b) % sz] += ca * cb
            for uid, out in acc.items():
                if any(out):
                    raise InvariantViolation(
                        "boundary of boundary of cell %r is nonzero at %r"
                        % (c.id, uid))
        return True


class PlainComplex:
    """Non-equivariant chain data: cell ids per dimension, integer boundaries.

    terms(k) yields (row id, column id, coeff) for d_k : C_k -> C_(k-1);
    coefficients at one position add up, and rows outside layer k-1 (a
    dropped basepoint) are skipped.  Each dense matrix is built from its
    terms the first time it is asked for, in the orientation asked for,
    and kept; callers must not mutate it.
    """

    def __init__(self, layers, terms):
        self.layers = layers
        self._terms = terms
        self._built = {}

    @property
    def dim(self):
        return len(self.layers) - 1

    def size(self, k):
        if 0 <= k <= self.dim:
            return len(self.layers[k])
        return 0

    def boundary(self, k):
        """d_k : C_k -> C_(k-1); zero-shaped matrix outside the support."""
        return self._matrix(k, False)

    def coboundary(self, k):
        """delta^k : C^k -> C^(k+1), the transpose of d_(k+1)."""
        return self._matrix(k + 1, True)

    def _matrix(self, k, transposed):
        m = self._built.get((k, transposed))
        if m is not None:
            return m
        rows, cols = self.size(k - 1), self.size(k)
        m = IntMatrix(cols, rows) if transposed else IntMatrix(rows, cols)
        if 1 <= k <= self.dim:
            rindex = {cid: i for i, cid in enumerate(self.layers[k - 1])}
            cindex = {cid: j for j, cid in enumerate(self.layers[k])}
            for tid, cid, coeff in self._terms(k):
                i = rindex.get(tid)
                if i is not None:
                    if transposed:
                        m.data[cindex[cid]][i] += coeff
                    else:
                        m.data[i][cindex[cid]] += coeff
        self._built[k, transposed] = m
        return m

    def cohomology(self, k, coeff):
        return homology_at(self.coboundary(k - 1), self.coboundary(k), coeff)


# ---------------------------------------------------------------------------
# orbit bookkeeping for pairs

def _normalize_pair(n, hx, hy, a, b):
    """Rewrite (g^a x, g^b y) as g^e . (x, g^dr y) with dr an orbit representative.

    Orbit representatives for the pair type (h_x, h_y) are dr in
    0 .. gcd(n/h_x, n/h_y) - 1.  Returns (dr, e) with e taken mod the pair
    orbit size n/gcd(h_x, h_y).
    """
    ox, oy = n // hx, n // hy
    d = gcd(ox, oy)
    delta = (b - a) % oy
    dr = delta % d
    rhs = (delta - dr) % oy
    if oy == d:
        t = 0
    else:
        t = (rhs // d) * pow(ox // d, -1, oy // d) % (oy // d)
    e = (a + ox * t) % (n // gcd(hx, hy))
    return dr, e


def _pair_orbit_count(n, hx, hy):
    return gcd(n // hx, n // hy)


# a product complex predicted to have more orbit cells than this is refused
MAX_ORBIT_CELLS = 1_000_000


def _stab_counts(x, skip=None):
    """How many orbit cells of x have each stabilizer order (skip one id)."""
    return Counter(c.stab for c in x.cells if c.id != skip)


def _pair_counts(n, sx, sy):
    """Stabilizer counts of the product cells of two factors' stabilizer counts."""
    out = Counter()
    for hx, kx in sx.items():
        for hy, ky in sy.items():
            out[gcd(hx, hy)] += kx * ky * _pair_orbit_count(n, hx, hy)
    return out


def _join_cell_count(pieces):
    """Orbit cells of the right-folded join of pieces, from stabilizers only."""
    n = pieces[0].group.order
    counts = _stab_counts(pieces[-1])
    for x in reversed(pieces[:-1]):
        sx = _stab_counts(x)
        counts = sx + counts + _pair_counts(n, sx, counts)
    return sum(counts.values())


def _check_size(what, count):
    if count > MAX_ORBIT_CELLS:
        raise ComplexTooLarge("%s would have %d orbit cells, more than the limit "
                              "of %d" % (what, count, MAX_ORBIT_CELLS))


def _skeleton_cell_count(pieces):
    """Orbit cells of join_one_skeleton(pieces), from their low cells only."""
    n = pieces[0].group.order
    count = 0
    seen = Counter()
    for x in pieces:
        points = Counter(c.stab for c in x.cells if c.dim == 0)
        count += sum(1 for c in x.cells if c.dim <= 1)
        count += sum(_pair_counts(n, seen, points).values())
        seen += points
    return count


def _pair_ids(tag, xs, ys, n):
    """Ids tag:<x>:<dr>:<y> of the product orbit cells, by x id, y id and dr."""
    return {cx.id: {cy.id: ["%s:%s:%d:%s" % (tag, cx.id, dr, cy.id)
                            for dr in range(_pair_orbit_count(n, cx.stab, cy.stab))]
                    for cy in ys}
            for cx in xs}


def _terms(x, cid):
    """(target id, target stabilizer, nonzero (position, coeff) pairs) of d(cid)."""
    return [(tid, x.by_id[tid].stab, [(i, c) for i, c in enumerate(word) if c])
            for tid, word in x.boundary_of(cid)]


class _ProductWords:
    """Canonical boundary words of the cells of one product over C_n.

    add() accumulates words per target id; take() returns them in canonical
    form (int tuples, one nonzero word per target, targets ascending) and
    starts the next cell.  renamed() copies a factor's words to renamed
    targets.  pair() is _normalize_pair, memoized per product.

    take() and renamed() hand out one tuple per distinct word from a word ->
    word table that lives as long as the product: most of its words are the
    same few unit vectors.  Every entry with that word shares the tuple, so
    no caller may mutate it.
    """

    def __init__(self, n):
        self.n = n
        self.entries = {}
        self.pairs = {}
        self.shared = {}

    def pair(self, hx, hy, a, b):
        key = (hx, hy, a, b)
        out = self.pairs.get(key)
        if out is None:
            out = self.pairs[key] = _normalize_pair(self.n, hx, hy, a, b)
        return out

    def add(self, tid, length, pos, coeff):
        w = self.entries.get(tid)
        if w is None:
            w = self.entries[tid] = [0] * length
        w[pos % length] += coeff

    def renamed(self, ids, entries):
        """Canonical words with every target t renamed ids[t] (order is kept)."""
        share = self.shared.setdefault
        return tuple([(ids[tid], share(word, word)) for tid, word in entries])

    def take(self):
        entries, self.entries = self.entries, {}
        share = self.shared.setdefault
        words = [(tid, tuple(w)) for tid, w in sorted(entries.items()) if any(w)]
        return tuple([(tid, share(w, w)) for tid, w in words])


def join(x, y):
    """The join X * Y with the (left, right, cone-coordinate) convention.

    Cells: the cells of X (prefix "a:"), of Y (prefix "b:"), and one product
    orbit cell j:<x>:<dr>:<y> of dimension |x|+|y|+1 per pair orbit.  The
    boundary of a product cell is  (dX x) * y + (-1)^(|x|+1) x * (dY y),
    with the 0-cell boundary read in the augmented sense (the empty joinand
    contributes the opposite factor).  Refused with ComplexTooLarge above
    MAX_ORBIT_CELLS orbit cells.
    """
    if x.group != y.group:
        raise ValueError("join of complexes over different groups")
    _check_size("the join", _join_cell_count((x, y)))
    n = x.group.order
    words = _ProductWords(n)
    add, pair = words.add, words.pair
    ax = {c.id: "a:" + c.id for c in x.cells}
    by = {c.id: "b:" + c.id for c in y.cells}
    cells = [Cell(ax[c.id], c.dim, c.stab) for c in x.cells]
    cells += [Cell(by[c.id], c.dim, c.stab) for c in y.cells]
    boundary = {ax[cid]: words.renamed(ax, entries)
                for cid, entries in x.boundary.items()}
    boundary.update((by[cid], words.renamed(by, entries))
                    for cid, entries in y.boundary.items())
    ids = _pair_ids("j", x.cells, y.cells, n)
    ys = [(cy, _terms(y, cy.id)) for cy in y.cells]
    for cx in x.cells:
        hx = cx.stab
        # each target's product ids, by y id and dr
        dx = [(ids[tid], ht, terms) for tid, ht, terms in _terms(x, cx.id)]
        own = ids[cx.id]
        s = -1 if cx.dim % 2 == 0 else 1
        for cy, dy in ys:
            hy = cy.stab
            hp = gcd(hx, hy)
            for dr, pid in enumerate(own[cy.id]):
                cells.append(Cell(pid, cx.dim + cy.dim + 1, hp))
                # left boundary term (dX x) * g^dr y
                if cx.dim == 0:
                    add(by[cy.id], n // hy, dr, 1)
                for row, ht, terms in dx:
                    tids = row[cy.id]
                    size = n // gcd(ht, hy)
                    for i, coeff in terms:
                        ndr, e = pair(ht, hy, i, dr)
                        add(tids[ndr], size, e, coeff)
                # right boundary term, sign (-1)^(|x|+1)
                if cy.dim == 0:
                    add(ax[cx.id], n // hx, 0, s)
                for tid, ht, terms in dy:
                    tids = own[tid]
                    size = n // gcd(hx, ht)
                    for i, coeff in terms:
                        ndr, e = pair(hx, ht, 0, dr + i)
                        add(tids[ndr], size, e, s * coeff)
                entries = words.take()
                if entries:
                    boundary[pid] = entries
    return GCWComplex._canonical(x.group, cells, boundary)


def smash(x, y):
    """The smash product of two based complexes.

    Cells: s:<x>:<dr>:<y> for non-basepoint cells of both factors, of
    dimension |x|+|y|, plus a single fixed basepoint "*".  Boundary terms
    that touch either basepoint collapse: to "*" in dimension zero,
    silently in higher dimensions.  Refused with ComplexTooLarge above
    MAX_ORBIT_CELLS orbit cells.
    """
    if x.group != y.group:
        raise ValueError("smash of complexes over different groups")
    if not x.is_based or not y.is_based:
        raise MissingBasepoint("smash needs based complexes")
    n = x.group.order
    pairs = _pair_counts(n, _stab_counts(x, x.basepoint),
                         _stab_counts(y, y.basepoint))
    _check_size("the smash product", 1 + sum(pairs.values()))
    cells = [Cell("*", 0, n)]
    boundary = {}
    words = _ProductWords(n)
    add, pair = words.add, words.pair
    xs = [cx for cx in x.cells if cx.id != x.basepoint]
    ys = [cy for cy in y.cells if cy.id != y.basepoint]
    ids = _pair_ids("s", xs, ys, n)
    ys = [(cy, _terms(y, cy.id)) for cy in ys]
    for cx in xs:
        hx = cx.stab
        # each target's product ids, by y id and dr; None for the basepoint
        dx = [(ids.get(tid), ht, terms) for tid, ht, terms in _terms(x, cx.id)]
        own = ids[cx.id]
        s = 1 if cx.dim % 2 == 0 else -1
        for cy, dy in ys:
            hy = cy.stab
            hp = gcd(hx, hy)
            for dr, pid in enumerate(own[cy.id]):
                dim = cx.dim + cy.dim
                cells.append(Cell(pid, dim, hp))
                if dim == 0:
                    continue
                for row, ht, terms in dx:
                    if row is None:
                        if cy.dim == 0:
                            for _, coeff in terms:
                                add("*", 1, 0, coeff)
                        continue
                    tids = row[cy.id]
                    size = n // gcd(ht, hy)
                    for i, coeff in terms:
                        ndr, e = pair(ht, hy, i, dr)
                        add(tids[ndr], size, e, coeff)
                for tid, ht, terms in dy:
                    if tid == y.basepoint:
                        if cx.dim == 0:
                            for _, coeff in terms:
                                add("*", 1, 0, s * coeff)
                        continue
                    tids = own[tid]
                    size = n // gcd(hx, ht)
                    for i, coeff in terms:
                        ndr, e = pair(hx, ht, 0, dr + i)
                        add(tids[ndr], size, e, s * coeff)
                entries = words.take()
                if entries:
                    boundary[pid] = entries
    return GCWComplex._canonical(x.group, cells, boundary, basepoint="*")


# ---------------------------------------------------------------------------
# constructors

def free_points(group, count):
    """count disjoint free orbits of points."""
    cells = [Cell("p%d" % i, 0, 1) for i in range(count)]
    return GCWComplex(group, cells, {})


def based_zero_sphere(group):
    """S^0: two fixed points, based at b."""
    return GCWComplex(group, [Cell("a", 0, group.order), Cell("b", 0, group.order)],
                      {}, basepoint="b")


def _single_character_sphere(group, k):
    """Unit sphere of one irreducible: point pair, sign pair, or circle."""
    n = group.order
    if k == 0:
        return GCWComplex(group, [Cell("ta", 0, n), Cell("tb", 0, n)], {})
    if 2 * k == n:
        return GCWComplex(group, [Cell("s0", 0, n // 2)], {})
    h = gcd(n, k)
    o = n // h
    c = pow((k // h), -1, o)  # g^c rotates one vertex step on the circle
    word = [0] * o
    word[c % o] += 1
    word[0] -= 1
    return GCWComplex(group, [Cell("v0", 0, h), Cell("e0", 1, h)],
                      {"e0": [("v0", tuple(word))]})


def _sphere_pieces(v):
    """The joinands of S(V): nontrivial characters by label, trivial ones last."""
    labels = v.summands() + [0] * v.multiplicity(0)
    return [_single_character_sphere(v.group, k) for k in labels]


def sphere_of_rep(v):
    """Unit sphere S(V): iterated join of one piece per irreducible summand.

    Nontrivial characters come first (ascending label), trivial summands
    last; the fold is right-associated, so
    sphere_of_rep(xi + xi) == join(sphere_of_rep(xi), sphere_of_rep(xi)).
    """
    if v.is_zero:
        raise EmptyRepresentation("S(0) is empty")
    if not v.is_actual:
        raise EmptyRepresentation("unit sphere needs an actual representation")
    pieces = _sphere_pieces(v)
    _check_size("the join model of S(%s)" % format_rep(v), _join_cell_count(pieces))
    x = pieces[-1]
    for p in reversed(pieces[:-1]):
        x = join(p, x)
    return x


def rep_sphere(v):
    """One-point compactification S^V, built as S(V + 1) with a basepoint.

    The two cone points of the added trivial summand, the last joinand, are
    the basepoint <nest>tb and the cone point <nest>ta, where <nest> is one
    "b:" per joinand before it.  For V a single nontrivial character they
    are b:tb and b:ta, the only fixed 0-cells.
    """
    if v.is_zero:
        return GCWComplex(v.group,
                          [Cell("ta", 0, v.group.order), Cell("tb", 0, v.group.order)],
                          {}, basepoint="tb")
    if not v.is_actual:
        raise EmptyRepresentation("compactification needs an actual representation")
    count = len(v.summands()) + v.multiplicity(0) + 1
    x = sphere_of_rep(v + trivial_rep(v.group))
    nest = "b:" * (count - 1)
    return x._rebased(nest + "tb")


def plus_point(x):
    """X_+: adjoin a disjoint fixed basepoint named "+"."""
    return x._rebased("+", [Cell("+", 0, x.group.order)])


def minimal_rep_sphere(p, q):
    """Minimal model of the q-fold rotation (sign, for p = 2) sphere over C_p.

    Two fixed cone points a and b (the basepoint) plus one free orbit
    cell per dimension 1 .. q*(2 for odd p, 1 for p = 2); boundaries
    alternate a - b, then g - 1, then the norm.
    """
    group = CyclicGroup(check_prime(p))
    top = 2 * q if p != 2 else q
    ids = ["w%02d" % j for j in range(1, top + 1)]
    cells = [Cell("a", 0, p), Cell("b", 0, p)]
    cells += [Cell(cid, j, 1) for j, cid in enumerate(ids, start=1)]
    boundary = {ids[0]: [("a", (1,)), ("b", (-1,))]} if ids else {}
    boundary.update(_periodic_words(p, ids))
    return GCWComplex(group, cells, boundary, basepoint="b")


def _periodic_words(p, ids):
    """Boundary words of a chain of free orbit cells ids[0] <- ids[1] <- ...

    d(ids[j]) is (g - 1) . ids[j-1] for odd j and N . ids[j-1] for even j,
    with N = 1 + g + ... + g^(p-1) the norm.
    """
    g_minus_1 = (-1, 1) + (0,) * (p - 2)
    norm = (1,) * p
    return {ids[j]: [(ids[j - 1], g_minus_1 if j % 2 else norm)]
            for j in range(1, len(ids))}


def periodic_free_model(p, top_dim):
    """Free C_p complex with one orbit cell per dimension 0 .. top_dim.

    Boundaries alternate g - 1 (odd dimensions) and the norm (even), so the
    quotient is the standard one-cell-per-dimension lens-type complex with
    boundary maps alternating 0 and p.
    """
    group = CyclicGroup(check_prime(p))
    if top_dim < 0:
        raise ValueError("top_dim must be >= 0")
    ids = ["e%02d" % j for j in range(top_dim + 1)]
    cells = [Cell(cid, j, 1) for j, cid in enumerate(ids)]
    return GCWComplex(group, cells, _periodic_words(p, ids))


def ecp_skeleton(p, m):
    """The (2m-1)-dimensional free sphere skeleton S((m)xi) (antipodal S^(2m-1)
    built from 2m sign coordinates when p = 2), in minimal periodic form."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return periodic_free_model(p, 2 * m - 1)


def conf2_model(d):
    """Free C_2 model of the ordered two-point configuration space of R^d.

    The space deformation retracts equivariantly onto the antipodal sphere
    S^(d-1) = S(d sign characters); two cells per dimension 0 .. d-1.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    return periodic_free_model(2, d - 1)


def join_one_skeleton(pieces):
    """Cells of dimensions 0 and 1 of the iterated join of the given complexes.

    Enough to read H_0 of the join; avoids building the full product lattice.
    Piece cells are prefixed p<i>:, product 1-cells connect 0-cells of
    distinct pieces.  Refused with ComplexTooLarge above MAX_ORBIT_CELLS
    orbit cells.
    """
    group = pieces[0].group
    if any(x.group != group for x in pieces):
        raise ValueError("join of complexes over different groups")
    _check_size("the join 1-skeleton", _skeleton_cell_count(pieces))
    n = group.order
    words = _ProductWords(n)
    cells = []
    boundary = {}
    points = []  # (id, stab) of each piece's 0-cells, renamed
    for i, x in enumerate(pieces):
        low = [c for c in x.cells if c.dim <= 1]
        ids = {c.id: "p%d:%s" % (i, c.id) for c in low}
        for c in low:
            cells.append(Cell(ids[c.id], c.dim, c.stab))
            entries = x.boundary_of(c.id)
            if entries:
                boundary[ids[c.id]] = words.renamed(ids, entries)
        points.append([(ids[c.id], c.stab) for c in low if c.dim == 0])
    for i, xs in enumerate(points):
        for ys in points[i + 1:]:
            for xid, hx in xs:
                for yid, hy in ys:
                    hp = gcd(hx, hy)
                    for dr in range(_pair_orbit_count(n, hx, hy)):
                        pid = "j:%s:%d:%s" % (xid, dr, yid)
                        cells.append(Cell(pid, 1, hp))
                        words.add(yid, n // hy, dr, 1)
                        words.add(xid, n // hx, 0, -1)
                        boundary[pid] = words.take()
    return GCWComplex._canonical(group, cells, boundary)


# ---------------------------------------------------------------------------
# text format

# characters a cell id cannot hold in the text format
_UNSAVABLE = re.compile(r"[\s#\[;]")


def save_gcw(x):
    """Serialize to the line-oriented text format.

    load_gcw reads back an equal complex: the same group, cells, basepoint
    and boundary words, which is all a complex holds.  A cell id the format
    cannot carry (empty, or holding whitespace, '#', '[' or ';') is refused
    with InvariantViolation naming the cell.
    """
    lines = ["group cyclic %d" % x.group.order]
    for c in sorted(x.cells, key=lambda c: (c.dim, c.id)):
        if not c.id or _UNSAVABLE.search(c.id):
            raise InvariantViolation("cell id %r cannot be written in the "
                                     "text format" % c.id)
        lines.append("cell %s dim %d stab %d" % (c.id, c.dim, c.stab))
    if x.basepoint is not None:
        lines.append("basepoint %s" % x.basepoint)
    for c in sorted(x.cells, key=lambda c: (c.dim, c.id)):
        entries = x.boundary_of(c.id)
        if entries:
            parts = ["%s [%s]" % (tid, ",".join(str(v) for v in word))
                     for tid, word in entries]
            lines.append("bd %s : %s" % (c.id, " ; ".join(parts)))
    return "\n".join(lines) + "\n"


def load_gcw(source):
    """Parse the text format; validates all structural invariants and d.d = 0.

    Several words of one cell to the same target are summed.
    source: a string or a readable stream.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
    group = None
    cells = []
    boundary = {}
    basepoint = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if group is None:
            if len(tok) != 3 or tok[0] != "group" or tok[1] != "cyclic":
                raise ParseError("line %d: expected 'group cyclic <n>'" % lineno)
            try:
                group = CyclicGroup(int(tok[2]))
            except ValueError:
                raise ParseError("line %d: bad group order %r" % (lineno, tok[2]))
            continue
        if tok[0] == "cell":
            if (len(tok) != 6 or tok[2] != "dim" or tok[4] != "stab"):
                raise ParseError("line %d: expected 'cell <id> dim <d> stab <h>'"
                                 % lineno)
            try:
                cells.append(Cell(tok[1], int(tok[3]), int(tok[5])))
            except ValueError:
                raise ParseError("line %d: bad integer field" % lineno)
        elif tok[0] == "basepoint":
            if len(tok) != 2:
                raise ParseError("line %d: expected 'basepoint <id>'" % lineno)
            basepoint = tok[1]
        elif tok[0] == "bd":
            if len(tok) < 3 or tok[2] != ":":
                raise ParseError("line %d: expected 'bd <id> : ...'" % lineno)
            cid = tok[1]
            if cid in boundary:
                raise ParseError("line %d: duplicate boundary for %r" % (lineno, cid))
            rest = line.split(None, 3)[3] if len(tok) > 3 else ""
            entries = []
            for part in rest.split(";"):
                part = part.strip()
                if not part:
                    raise ParseError("line %d: empty boundary entry" % lineno)
                if "[" not in part or not part.endswith("]"):
                    raise ParseError("line %d: expected '<target> [c0,c1,...]'"
                                     % lineno)
                tid, vec = part.split("[", 1)
                tid = tid.strip()
                if not tid or len(tid.split()) != 1:
                    raise ParseError("line %d: bad target id in %r" % (lineno, part))
                body = vec[:-1].strip()
                try:
                    word = tuple(int(s.strip()) for s in body.split(",")) if body else ()
                except ValueError:
                    raise ParseError("line %d: bad coefficient in %r" % (lineno, part))
                entries.append((tid, word))
            boundary[cid] = entries
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, tok[0]))
    if group is None:
        raise ParseError("line 1: missing 'group cyclic <n>' header")
    x = GCWComplex(group, cells, boundary, basepoint=basepoint)
    x.verify_dd()
    return x
