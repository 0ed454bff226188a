"""Representation theory of the cyclic group C_n over the reals.

Irreducible labels: the trivial character, the rotation planes xi^k for
1 <= k < n/2 (real dimension 2), and — when n is even — the sign character
xi^(n/2) (real dimension 1).  A VirtualRep is a finitely supported integer
combination of these labels; the restricted grading (m, n) stands for
m + n*xi once all rotation characters are collapsed to xi, which is valid
for mod-p coefficients.
"""

import re
from typing import NamedTuple

from .errors import NotASubgroup
from .exact_linalg import check_prime


class CyclicGroup:
    """The cyclic group of order n >= 2."""

    __slots__ = ("order",)

    def __init__(self, order):
        order = int(order)
        if order < 2:
            raise ValueError("cyclic group order must be >= 2")
        self.order = order

    def subgroup_orders(self):
        n = self.order
        return tuple(h for h in range(1, n + 1) if n % h == 0)

    def nontrivial_labels(self):
        return tuple(range(1, self.order // 2 + 1))

    def label_dim(self, k):
        """Real dimension of the label-k irreducible."""
        self._check_label(k)
        if k == 0:
            return 1
        if 2 * k == self.order:
            return 1  # sign character
        return 2

    def _check_label(self, k):
        if not (0 <= k <= self.order // 2):
            raise ValueError("label %r out of range for C_%d" % (k, self.order))

    def __eq__(self, other):
        return isinstance(other, CyclicGroup) and self.order == other.order

    def __hash__(self):
        return hash(("CyclicGroup", self.order))

    def __repr__(self):
        return "C_%d" % self.order


class VirtualRep:
    """Integer multiplicities per irreducible label of a fixed C_n."""

    __slots__ = ("group", "mult")

    def __init__(self, group, mult=None):
        self.group = group
        self.mult = {}
        if mult:
            for k, c in mult.items():
                group._check_label(k)
                c = int(c)
                if c:
                    self.mult[k] = c

    def multiplicity(self, k):
        return self.mult.get(k, 0)

    def labels(self):
        return tuple(sorted(self.mult))

    def summands(self):
        """Nontrivial irreducible labels with multiplicity, expanded.

        Only valid for actual representations; trivial copies are skipped.
        """
        out = []
        for k in sorted(self.mult):
            if k == 0:
                continue
            c = self.mult[k]
            if c < 0:
                raise ValueError("summands() needs an actual representation")
            out.extend([k] * c)
        return out

    @property
    def is_actual(self):
        return bool(self.mult) and all(c > 0 for c in self.mult.values())

    @property
    def is_zero(self):
        return not self.mult

    def is_fixed_point_free(self):
        """No nonzero vector fixed by any nontrivial subgroup."""
        return all(fixed_dim(self, h) == 0
                   for h in self.group.subgroup_orders() if h > 1)

    def __add__(self, other):
        self._compat(other)
        m = dict(self.mult)
        for k, c in other.mult.items():
            m[k] = m.get(k, 0) + c
        return VirtualRep(self.group, m)

    def __sub__(self, other):
        self._compat(other)
        m = dict(self.mult)
        for k, c in other.mult.items():
            m[k] = m.get(k, 0) - c
        return VirtualRep(self.group, m)

    def __neg__(self):
        return VirtualRep(self.group, {k: -c for k, c in self.mult.items()})

    def __mul__(self, scalar):
        return VirtualRep(self.group, {k: scalar * c for k, c in self.mult.items()})

    __rmul__ = __mul__

    def _compat(self, other):
        if self.group != other.group:
            raise ValueError("representations of different groups")

    def positive_part(self):
        return VirtualRep(self.group, {k: c for k, c in self.mult.items() if c > 0})

    def negative_part(self):
        """-(the negative summands); an actual rep or zero."""
        return VirtualRep(self.group, {k: -c for k, c in self.mult.items() if c < 0})

    def contains(self, other):
        """Multiplicity-wise containment (self >= other on every label)."""
        self._compat(other)
        return all(self.multiplicity(k) >= c for k, c in other.mult.items())

    def __eq__(self, other):
        return (isinstance(other, VirtualRep) and self.group == other.group
                and self.mult == other.mult)

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.mult.items()))))

    def __repr__(self):
        return "<VirtualRep %s over %r>" % (format_rep(self), self.group)


class RestrictedGrading(NamedTuple):
    """The grading m + n*xi (n counts collapsed rotation characters)."""

    m: int
    n: int

    def __repr__(self):
        return "(%d%+d*xi)" % (self.m, self.n)


def irrep(group, k):
    """The virtual rep with a single copy of label k."""
    return VirtualRep(group, {k: 1})


def trivial_rep(group, copies=1):
    return VirtualRep(group, {0: copies})


def dim(v):
    """Real dimension of a virtual representation (can be negative)."""
    return sum(c * v.group.label_dim(k) for k, c in v.mult.items())


def fixed_dim(v, h):
    """Dimension of the subspace fixed by the subgroup of order h.

    xi^k is fixed by the order-h subgroup exactly when h divides k (the
    subgroup is generated by g^(n/h) and k*(n/h) = 0 mod n iff h | k).
    """
    n = v.group.order
    if h < 1 or n % h:
        raise NotASubgroup("no subgroup of order %r in C_%d" % (h, n))
    total = 0
    for k, c in v.mult.items():
        if k == 0 or k % h == 0:
            total += c * v.group.label_dim(k)
    return total


def reduced_regular(group):
    """Every nontrivial label once: the regular rep minus its trivial line."""
    return VirtualRep(group, {k: 1 for k in group.nontrivial_labels()})


def canonicalize(v, p):
    """Collapse every rotation character to xi: returns RestrictedGrading.

    Valid for mod-p coefficients over C_p: any two nontrivial characters
    differ by a virtual rep of zero dimension and zero fixed dimension.
    For p = 2 the role of xi is played by the sign character.
    """
    p = check_prime(p)
    if v.group.order != p:
        raise ValueError("canonicalize needs a representation of C_%d" % p)
    m = v.multiplicity(0)
    n = sum(c for k, c in v.mult.items() if k != 0)
    return RestrictedGrading(m, n)


# ---------------------------------------------------------------------------
# textual syntax

_TERM = re.compile(r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coeff>\d+)
        (?:\*?(?P<gen1>xi)(?:\^(?P<exp1>\d+))?)?
      |
        (?P<gen2>xi)(?:\^(?P<exp2>\d+))?
    )
""", re.VERBOSE)


def _parse_terms(text):
    """Yield (coefficient, label-exponent-or-None) for each additive term."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty expression")
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse %r at position %d" % (text, pos))
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("gen2"):
            coeff = 1
            exp = int(m.group("exp2") or 1)
        else:
            coeff = int(m.group("coeff"))
            if m.group("gen1"):
                exp = int(m.group("exp1") or 1)
            else:
                exp = None
        yield sign * coeff, exp
        pos = m.end()
        if pos < len(s) and s[pos] not in "+-":
            raise ValueError("cannot parse %r at position %d" % (text, pos))


def parse_rep(text, group):
    """Parse rep syntax like "xi^2 + 2*xi^1 + 1" into a VirtualRep."""
    mult = {}
    for coeff, exp in _parse_terms(text):
        k = 0 if exp is None else exp
        group._check_label(k)
        mult[k] = mult.get(k, 0) + coeff
    return VirtualRep(group, mult)


def parse_grading(text):
    """Parse grading syntax "m+n*xi" (e.g. "2-3*xi", "xi", "-4")."""
    m = 0
    n = 0
    for coeff, exp in _parse_terms(text):
        if exp is None:
            m += coeff
        elif exp == 1:
            n += coeff
        else:
            raise ValueError("grading syntax allows only xi^1, got xi^%d" % exp)
    return RestrictedGrading(m, n)


def format_rep(v):
    if not v.mult:
        return "0"
    parts = []
    for k in sorted(v.mult, reverse=True):
        c = v.mult[k]
        body = "1" if k == 0 else ("xi" if k == 1 else "xi^%d" % k)
        if k != 0 and abs(c) != 1:
            body = "%d*%s" % (abs(c), body)
        elif k == 0:
            body = "%d" % abs(c)
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += " %s %s" % (sign, body)
    return out
