"""Bredon homology and cohomology of C_n CW complexes.

Coefficients are the constant (fixed-point) Mackey functors with value Z or
F_p: every orbit contributes one copy of the value, restrictions are the
identity, transfers multiply by the subgroup index.  Chain level:

  homology differential entry for a boundary word w at target t from cell c:
      aug(w) * (h_t / h_c)          (transfer along the orbit projection)
  cochain differential entry:
      aug(w)                        (restriction is the identity)

so the (reduced) Bredon cochains are the cochains of the orbit space X/G
(basepoint orbit dropped): BredonComplex reads them from x.quotient().

Graded queries H~^(m + n.xi) are answered by reduction: n = 0 directly,
n < 0 by suspending the space, n > 0 by point-space duality (for the
two-point sphere) or by quotient periodicity (for free complexes mod p).
"""

import functools

from .errors import (
    EmptyRepresentation,
    MissingBasepoint,
    UnsupportedGrading,
)
from .exact_linalg import GroupPresentation, check_coeff, homology_at, is_prime
from .cyclic_reps import (
    VirtualRep,
    canonicalize,
    trivial_rep,
)
from .gcw_complex import (PlainComplex, minimal_rep_sphere, plus_point,
                          rep_sphere, smash)


class MackeyCoefficients:
    """Constant Mackey functor: one value group at every orbit G/H."""

    def __init__(self, group, ring):
        self.group = group
        self.ring = check_coeff(ring)

    @property
    def p(self):
        return self.ring[1] if self.ring != "Z" else None

    def __eq__(self, other):
        return (isinstance(other, MackeyCoefficients)
                and self.group == other.group and self.ring == other.ring)

    def __repr__(self):
        tag = "Z" if self.ring == "Z" else "F_%d" % self.ring[1]
        return "<constant Mackey functor %s over %r>" % (tag, self.group)


class BredonComplex:
    """Equivariant (co)chain complex of a GCWComplex with constant coefficients.

    One basis vector per orbit cell (lexicographic id order per dimension);
    the reduced flavor omits the basepoint orbit in every degree.  The
    chains weight each orbit augmentation by the transfer h_t / h_c.
    """

    def __init__(self, x, mackey, reduced=False):
        if mackey.group != x.group:
            raise ValueError("coefficient group does not match the complex")
        if reduced and not x.is_based:
            raise MissingBasepoint("reduced (co)homology needs a based complex")
        self.space = x
        self.mackey = mackey
        self.reduced = reduced
        self.orbits = x.quotient(drop_basepoint=reduced)
        self.bases = bases = self.orbits.layers

        def transfer_terms(k):
            for cid in bases[k]:
                hc = x.by_id[cid].stab
                for tid, word in x.boundary_of(cid):
                    yield tid, cid, sum(word) * (x.by_id[tid].stab // hc)
        self.chains = PlainComplex(bases, transfer_terms)

    @property
    def dim(self):
        return len(self.bases) - 1

    def basis(self, k):
        if 0 <= k <= self.dim:
            return self.bases[k]
        return []

    def boundary_matrix(self, k):
        """Homology differential d_k : C_k -> C_(k-1), transfer-weighted."""
        return self.chains.boundary(k)

    def cochain_matrix(self, k):
        """Cochain differential delta^k : C^k -> C^(k+1), restriction-weighted."""
        return self.orbits.coboundary(k)

    def homology(self, k):
        return homology_at(self.boundary_matrix(k + 1), self.boundary_matrix(k),
                           self.mackey.ring)

    def cohomology(self, k):
        return homology_at(self.cochain_matrix(k - 1), self.cochain_matrix(k),
                           self.mackey.ring)


def bredon_homology(x, mackey, degree, reduced=False):
    if degree < 0:
        return _zero_group(mackey)
    return BredonComplex(x, mackey, reduced=reduced).homology(degree)


def bredon_cohomology(x, mackey, degree, reduced=False):
    if degree < 0:
        return _zero_group(mackey)
    return BredonComplex(x, mackey, reduced=reduced).cohomology(degree)


def _zero_group(mackey):
    if mackey.ring == "Z":
        return GroupPresentation.integral(0)
    return GroupPresentation.mod_p(mackey.ring[1], 0)


def is_zero_sphere(x):
    """Based complex with exactly two fixed points (the two-point sphere)."""
    return (x.is_based and len(x.cells) == 2
            and all(c.dim == 0 and c.stab == x.group.order for c in x.cells))


def _split_grading(x, mackey, alpha):
    """Normalize a grading to (m, negative sphere rep, positive sphere rep)."""
    group = x.group
    if isinstance(alpha, VirtualRep):
        if alpha.group != group:
            raise ValueError("grading group does not match the complex")
        if mackey.ring != "Z" and group.order == mackey.ring[1]:
            return _split_grading(x, mackey,
                                  grading_pair(alpha, mackey.ring[1]))
        m = alpha.multiplicity(0)
        nt = alpha - trivial_rep(group, m) if m else alpha
        pos = nt.positive_part()
        neg = nt.negative_part()
        return m, neg, pos
    m, n = alpha
    zero = VirtualRep(group, {})
    if n == 0:
        return m, zero, zero
    v = VirtualRep(group, {1: abs(n)})
    return (m, v, zero) if n < 0 else (m, zero, v)


def _sphere_model(v):
    """A based model of S^V; minimal two-cone-point form over prime groups.

    The minimal models are cached and shared; callers must not mutate them.
    """
    n = v.group.order
    if is_prime(n) and set(v.mult) == {1}:
        return _minimal_sphere(n, v.multiplicity(1))
    return rep_sphere(v)


@functools.lru_cache(maxsize=128)
def _minimal_sphere(p, q):
    return minimal_rep_sphere(p, q)


def ro_graded_cohomology(x, mackey, alpha):
    """Reduced cohomology of x in grading alpha (VirtualRep or (m, n)).

    Unbased complexes are read as X_+.  Gradings with both positive and
    negative non-trivial parts, and positive parts over spaces that are
    neither the two-point sphere nor free mod p, are refused.
    """
    m, neg, pos = _split_grading(x, mackey, alpha)
    if not pos.is_zero and not neg.is_zero:
        raise UnsupportedGrading(
            "grading mixes positive and negative sphere directions")
    xb = x if x.is_based else plus_point(x)
    if pos.is_zero and neg.is_zero:
        return bredon_cohomology(xb, mackey, m, reduced=True)
    if is_zero_sphere(xb):
        if not neg.is_zero:
            return bredon_cohomology(_sphere_model(neg), mackey, m, reduced=True)
        return bredon_homology(_sphere_model(pos), mackey, -m, reduced=True)
    if not neg.is_zero:
        return bredon_cohomology(smash(_sphere_model(neg), xb), mackey, m,
                                 reduced=True)
    # positive sphere direction: free complexes mod p via quotient periodicity
    p = mackey.p
    if p is not None and p == x.group.order and xb.is_free():
        shift = sum(c * x.group.label_dim(k) for k, c in pos.mult.items())
        return bredon_cohomology(xb, mackey, m + shift, reduced=True)
    raise UnsupportedGrading(
        "positive sphere grading needs the two-point sphere or a free complex mod p")


class CohomologyClass:
    """A cohomology class: grading, coordinate vector, and its home group.

    Vectors are coordinates on the cochain basis of the producer (for free
    complexes, the orbit cells of the quotient in the underlying degree),
    so equality is literal coordinate equality; the zero class may carry
    an empty vector.
    """

    def __init__(self, grading, vector, home):
        self.grading = tuple(grading) if not isinstance(grading, VirtualRep) else grading
        self.vector = tuple(int(v) for v in vector)
        self.home = home

    @classmethod
    def zero(cls, grading, home):
        return cls(grading, (), home)

    def is_zero(self):
        return not any(self.vector)

    def __eq__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if self.grading != other.grading or self.home != other.home:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.vector == other.vector

    def __repr__(self):
        return "<class at %s: %s in %s>" % (
            self.grading, self.vector or "0", self.home.describe())


def grading_pair(grading, p):
    """(m, n) of a grading given as a pair or as a representation of C_p."""
    if isinstance(grading, VirtualRep):
        grading = canonicalize(grading, p)
    m, n = map(int, grading)
    return m, n


def euler_action(x, mackey, c, v):
    """Multiply the class c by the Euler class of V (grading shifts by V).

    Supported: V with a trivial summand (zero class), free complexes mod p
    (chain-level fiber integration, one character at a time), and classes
    on the two-point sphere in the positive cone.
    """
    if not v.is_actual:
        raise EmptyRepresentation("Euler class needs an actual representation")
    p = mackey.p
    if p is None or x.group.order != p:
        raise UnsupportedGrading("Euler action is computed mod p over C_p")
    m, n = grading_pair(c.grading, p)
    nv = sum(cc for k, cc in v.mult.items() if k != 0)
    target = (m + v.multiplicity(0), n + nv)
    if v.multiplicity(0) > 0:
        return CohomologyClass.zero(target, ro_graded_cohomology(x, mackey, target))
    xb = x if x.is_based else plus_point(x)
    if xb.is_free():
        from .free_space import euler_action_free
        return euler_action_free(x, mackey, c, v)
    if is_zero_sphere(xb):
        if n < 0 or c.is_zero():
            if n < 0:
                raise UnsupportedGrading(
                    "products out of the negative cone are not exposed")
            return CohomologyClass.zero(target, ro_graded_cohomology(x, mackey, target))
        home = ro_graded_cohomology(x, mackey, target)
        return CohomologyClass(target, c.vector, home)
    raise UnsupportedGrading(
        "Euler action needs a free complex, the two-point sphere, or a trivial summand")
