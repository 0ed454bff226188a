"""Cohomology of free C_p complexes as modules over the point ring.

When a complex is free away from its basepoint, its reduced graded
cohomology collapses onto the quotient space: every group in grading
(m, n) is H^s(X/G; F_p) for the single underlying degree s (= m + 2n for
odd p, m + n for p = 2).  This module computes that table once and then
realises the three operators that move classes around it:

  * u  -- the periodicity unit: a pure regrade, same underlying vector;
  * a  -- the Euler operator of the standard character, computed honestly
          on cochains by fiber integration through the quotient of the
          sphere bundle S(eta) x X -> X;
  * kappa -- the exterior degree-1 generator, supported only on the
          periodic skeleta (recognised by their cells and words), where
          the quotient ring is known.

Multiplication by the polynomial generator y is not implemented through a
classifying map; it is the composite (a action) o (u-inverse action),
which is the same element of the ring.
"""

from collections import defaultdict

from .cyclic_reps import VirtualRep, irrep
from .errors import (InvariantViolation, KappaUnsupported, NotFree,
                     UnsupportedGrading)
from .exact_linalg import check_prime, fp_row_reduce, fp_solve
from .gcw_complex import periodic_free_model, plus_point
from .mackey_bredon import (CohomologyClass, MackeyCoefficients, grading_pair,
                            ro_graded_cohomology)


def free_prime(x):
    """The prime order p of x's group; raises NotFree if x is not free.

    NotPrime comes first; the basepoint may be fixed, and the NotFree
    message names the first other fixed cell and its stabilizer.
    """
    p = check_prime(x.group.order)
    fid = x.first_fixed_cell(ignore_basepoint=True)
    if fid is not None:
        raise NotFree("cell %r has stabilizer of order %d"
                      % (fid, x.by_id[fid].stab))
    return p


def _normal_form(u, span, p):
    """Canonical coset representative of u modulo the span of sparse rows."""
    u = [x % p for x in u]
    red, pivots = fp_row_reduce(span, len(u), p)
    for row, c in zip(red.data, pivots):
        f = u[c]
        if f:
            u = [(x - f * y) % p for x, y in zip(u, row)]
    return u


class _FiberModel:
    """Cochain model of the bundle (S(eta) x X)/G -> X/G for one character.

    Over every orbit s-cell of X the total space E carries p vertex-type
    cells in degree s and, when the fiber circle has an edge (odd p), p
    edge-type cells in degree s+1.  E^s lists the vertex cells first, in
    blocks by translate d = 0 .. p-1 (entry d * nb + i for base cell i),
    then the edge cells, in blocks by translate.  The relative cochains
    Q^s are E^s without the translate-0 vertex block, so the pullback,
    the gauge projection and the fiber sum are index arithmetic on
    delta_E, and one Euler step is a single linear solve mod p.
    """

    def __init__(self, x, p, edge_word):
        self.p = p
        # edge_word: boundary of the fiber edge as (position, coeff) pairs,
        # or None when the fiber is the free two-point sphere (p = 2).
        self.edge_word = edge_word
        q = x.quotient(drop_basepoint=x.is_based)
        self.q = q
        self.ids = q.layers
        index = [{cid: i for i, cid in enumerate(layer)} for layer in self.ids]
        # equivariant boundary words per kept cell: (target index, pos, coeff)
        self.words = {}
        for s in range(1, len(self.ids)):
            for cid in self.ids[s]:
                self.words[cid] = tuple(
                    (index[s - 1][tid], a, c) for tid, word in x.boundary_of(cid)
                    if tid in index[s - 1]      # else a collapsed basepoint
                    for a, c in enumerate(word) if c)

    # -- sizes ------------------------------------------------------------

    def bsize(self, s):
        return len(self.ids[s]) if 0 <= s < len(self.ids) else 0

    def esize(self, s):
        edges = self.bsize(s - 1) if self.edge_word is not None else 0
        return self.p * (self.bsize(s) + edges)

    # -- structure matrices (all act on cochain vectors mod p) ------------

    def dbmat(self, s):
        """delta_B: B^s -> B^(s+1), the quotient coboundary, as sparse rows."""
        return self.q.coboundary(s).nonzeros()

    def demat(self, s):
        """delta_E: E^s -> E^(s+1) for the total-space quotient, as sparse rows."""
        p = self.p
        nb0, nb1 = self.bsize(s), self.bsize(s + 1)
        m = [defaultdict(int) for _ in range(self.esize(s + 1))]
        # vertex-type (s+1)-cells sit over (s+1)-cells of the base
        for j, cid in enumerate(self.ids[s + 1] if s + 1 < len(self.ids) else []):
            for i, a, c in self.words[cid]:
                for d in range(p):
                    m[d * nb1 + j][((d + a) % p) * nb0 + i] += c
        if self.edge_word is not None:
            roff = p * nb1
            coff = p * nb0
            nbm = self.bsize(s - 1)
            # edge-type (s+1)-cells sit over s-cells of the base
            for j, cid in enumerate(self.ids[s] if s < len(self.ids) else []):
                for d in range(p):
                    row = roff + d * nb0 + j
                    for pos, c in self.edge_word:
                        m[row][((d - pos) % p) * nb0 + j] += c
                    for i, a, c in self.words.get(cid, ()):
                        m[row][coff + ((d + a) % p) * nbm + i] -= c
        return [{j: x % p for j, x in row.items() if x % p} for row in m]

    # -- the Euler step ----------------------------------------------------

    def euler_step(self, s, u):
        """Image of the cocycle u in B^s under the connecting map.

        Solves for a relative cochain q with delta q = 0 whose fiber sum is
        u up to a coboundary, then reads the class of delta of its gauge
        lift back through the pullback.  Output degree is s+2 when the
        fiber has an edge, s+1 for the two-point fiber.
        """
        p = self.p
        qdeg = s + 1 if self.edge_word is not None else s
        out = qdeg + 1
        ns = self.bsize(s)
        u = [x % p for x in u]
        if len(u) != ns:
            raise ValueError("cochain does not match the quotient in degree %d" % s)
        if any(sum(x * u[j] for j, x in row.items()) % p for row in self.dbmat(s)):
            raise ValueError("Euler step needs a cocycle")
        nb, nbo = self.bsize(qdeg), self.bsize(out)
        nq = self.esize(qdeg) - nb
        # delta_E on the gauge lift of Q: drop the translate-0 vertex columns
        de = [{j - nb: x for j, x in row.items() if j >= nb}
              for row in self.demat(qdeg)]
        # gauge projection: subtract translate 0 from every vertex block
        system = [dict(row) for row in de[nbo:]]
        for r, row in enumerate(system[:(p - 1) * nbo]):
            for j, x in de[r % nbo].items():
                row[j] = row.get(j, 0) - x
        # fiber sum (the identity for p = 2, else the sum over the p
        # translates of each edge cell) less a coboundary from B^(s-1)
        off, reps = (0, 1) if self.edge_word is None else ((p - 1) * nb, p)
        for i, db in enumerate(self.dbmat(s - 1)):
            row = {nq + j: -x for j, x in db.items()}
            row.update((off + t * ns + i, 1) for t in range(reps))
            system.append(row)
        rhs = [0] * (len(system) - ns) + u
        sol = fp_solve(system, nq + self.bsize(s - 1), rhs, p)
        if sol is None:
            raise InvariantViolation("fiber integration system is inconsistent")
        dqt = [sum(x * sol[j] for j, x in row.items()) % p for row in de]
        a = dqt[:nbo]
        if any(dqt[p * nbo:]) or dqt[:p * nbo] != a * p:
            raise InvariantViolation("connecting cochain is not a pullback")
        return a


def _edge_word(p, k):
    """Boundary word of the fiber edge of S(eta_k), or None for p = 2."""
    return None if p == 2 else ((pow(k, -1, p), 1), (0, -1))


def _coerce_rep(group, v):
    if isinstance(v, VirtualRep):
        return v
    return irrep(group, int(v))


def euler_action_free(x, mackey, c, v):
    """Multiply c by the Euler class of V on a complex free off the basepoint.

    Works one character at a time: each summand of V contributes one fiber
    integration through its own sphere bundle, so the result is exact on
    cochain representatives.  Characters with a fixed direction kill the
    class (the Euler class of a trivial summand is zero).
    """
    p = free_prime(x)
    if mackey is None:
        mackey = MackeyCoefficients(x.group, ("F", p))
    if mackey.p != p:
        raise UnsupportedGrading("free-space actions are computed mod p over C_p")
    v = _coerce_rep(x.group, v)
    if not v.is_actual:
        raise UnsupportedGrading("Euler classes exist for actual representations")
    m, n = grading_pair(c.grading, p)
    step = x.group.label_dim(1)  # underlying degree of one character
    chars = []
    for k, mult in sorted(v.mult.items()):
        if k != 0:
            chars.extend([k] * mult)
    target = (m + v.multiplicity(0), n + len(chars))
    home = ro_graded_cohomology(x, mackey, target)
    if v.multiplicity(0) > 0 or c.is_zero():
        return CohomologyClass.zero(target, home)
    s = m + step * n
    vec = c.vector
    for k in chars:
        model = _FiberModel(x, p, _edge_word(p, k))
        if len(vec) != model.bsize(s):
            raise ValueError("class vector does not match the quotient in degree %d" % s)
        vec = model.euler_step(s, vec)
        s += step
        # the columns of delta_B^(s-1) are the rows of d_s
        vec = _normal_form(vec, model.q.boundary(s).nonzeros(), p)
    if not any(vec):
        return CohomologyClass.zero(target, home)
    return CohomologyClass(target, vec, home)


_GENERATORS = {
    "u": "u", "u_xi": "u", "u_sigma": "u",
    "u^-1": "u-1", "u-1": "u-1", "u_xi^-1": "u-1", "u_sigma^-1": "u-1",
    "a": "a", "a_xi": "a", "a_sigma": "a",
    "kappa": "kappa", "kappa_xi": "kappa",
    "y": "y", "y_xi": "y",
}


def module_action(x, generator, c):
    """Action of a point-ring generator on a class over a free complex.

    generator is one of "u" (periodicity, grading shift (-2, 1) for odd p
    and (-1, 1) for p = 2, same vector), "u^-1" (its inverse), "a" (the
    chain-level Euler operator of the standard character), "y" (the
    composite a o u^-1), or "kappa" (degree-1 exterior generator,
    supported only on the periodic skeleta, recognised by their cells and
    words).
    """
    p = free_prime(x)
    try:
        name = _GENERATORS[generator]
    except KeyError:
        raise ValueError("unknown generator %r (use u, u^-1, a, y, kappa)"
                         % (generator,))
    mackey = MackeyCoefficients(x.group, ("F", p))
    m, n = grading_pair(c.grading, p)
    step = x.group.label_dim(1)
    if name == "u" or name == "u-1":
        sgn = 1 if name == "u" else -1
        target = (m - sgn * step, n + sgn)
        home = ro_graded_cohomology(x, mackey, target)
        if c.is_zero():
            return CohomologyClass.zero(target, home)
        return CohomologyClass(target, c.vector, home)
    if name == "a":
        return euler_action_free(x, mackey, c, irrep(x.group, 1))
    if name == "y":
        return module_action(x, "a", module_action(x, "u^-1", c))
    # kappa: only where the quotient ring is known (periodic skeleta)
    if p == 2:
        raise KappaUnsupported("no exterior generator mod 2")
    top = _periodic_top(x, p)
    if top is None:
        raise KappaUnsupported("kappa is supported only on the periodic "
                               "skeleta of C_%d" % p)
    s = m + step * n
    target = (m - 1, n + 1)
    home = ro_graded_cohomology(x, mackey, target)
    coeff = (c.vector[0] if c.vector else 0) % p
    if s % 2 == 0 and 0 <= s + 1 <= top and coeff:
        return CohomologyClass(target, (coeff,), home)
    return CohomologyClass.zero(target, home)


def _periodic_top(x, p):
    """top if x is periodic_free_model(p, top), perhaps with a "+" basepoint.

    The complex is recognised by its cells and words alone, so a model
    keeps its kappa through save_gcw and load_gcw; None for anything else.
    """
    ref = periodic_free_model(p, max(x.dim, 0))
    if x.is_based:
        ref = plus_point(ref)
    return x.dim if x == ref else None


def unit_class(x):
    """The class of 1 in grading (0, 0): the all-ones vertex cocycle."""
    p = free_prime(x)
    q = x.quotient(drop_basepoint=x.is_based)
    ones = [1] * q.size(0)
    if any(sum(row) % p for row in q.coboundary(0).data):
        raise InvariantViolation("quotient edges do not have augmentation-zero "
                                 "boundary; no canonical unit")
    return CohomologyClass((0, 0), ones, q.cohomology(0, ("F", p)))


class FreeSpaceCohomology:
    """Cohomology table of a free complex: H^s(X/G; F_p) for every s.

    Graded reads collapse through the periodicity unit, so the table
    determines every group: the dimension in grading (m, n) depends only
    on the underlying degree (m + 2n for odd p, m + n for p = 2).
    """

    def __init__(self, space):
        self.space = space
        self.p = free_prime(space)
        q = space.quotient(drop_basepoint=space.is_based)
        ring = ("F", self.p)
        self.groups = tuple(q.cohomology(s, ring) for s in range(q.dim + 1))
        self._mackey = MackeyCoefficients(space.group, ring)

    def dim(self, s):
        return self.groups[s].dim if 0 <= s < len(self.groups) else 0

    def graded(self, m, n):
        """The reduced group in grading (m, n), read off the table."""
        return ro_graded_cohomology(self.space, self._mackey, (m, n))

    def dims(self):
        return tuple(g.dim for g in self.groups)

    def __repr__(self):
        return "<free C_%d space: quotient dims %s>" % (self.p, list(self.dims()))


def free_cohomology(x):
    """Cohomology table of a complex that is free away from its basepoint."""
    return FreeSpaceCohomology(x)


def skeletal_range_check(x, bound):
    """Verify the Euler powers a^k . 1 are nonzero through the given range.

    One application of a raises the underlying degree by 2 (odd p) or 1
    (p = 2), so the powers checked are those whose degree stays within
    bound; the report also states the largest k that was actually nonzero.
    """
    p = free_prime(x)
    step = x.group.label_dim(1)
    kmax = int(bound) // step
    c = unit_class(x)
    entries = []
    largest = 0
    for k in range(1, kmax + 1):
        c = module_action(x, "a", c)
        nonzero = not c.is_zero()
        entries.append({"k": k, "degree": step * k, "nonzero": nonzero})
        if nonzero:
            largest = k
    return {
        "p": p,
        "bound": int(bound),
        "required_max": kmax,
        "largest_k": largest,
        "entries": entries,
        "ok": all(e["nonzero"] for e in entries),
    }
