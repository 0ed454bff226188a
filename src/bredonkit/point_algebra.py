"""The graded cohomology of the two-point sphere over C_p, three ways.

Method A computes honest Bredon (co)homology of minimal sphere models,
method B runs the two-ring Cech cochain (Borel and geometric rings mapping
into the Tate ring), and method C evaluates the closed-form basis:

  odd p, positive cone:  a^i k^e u^j   at  (-(2j+e), i+j+e),  i, j >= 0
  odd p, negative cone:  S-1 k^e a-j u-k  at  (2k-e-1, e-j-k), j >= 0, k >= 2
  p = 2:                 a^i u^j at (-j, i+j);  a-j u-k at (k, -j-k), k >= 2

Also here: Euler class orders over Z (from the sphere chain complex) and
the vanishing of the Euler class of the reduced regular representation for
orders with two distinct prime divisors (from the join's 0-cells alone).
"""

import functools
import math

from .errors import TrivialCharacter
from .exact_linalg import GroupPresentation, IntMatrix, check_prime, order_in_cokernel
from .cyclic_reps import CyclicGroup, irrep, reduced_regular, trivial_rep
from .gcw_complex import _check_size, _sphere_pieces, based_zero_sphere, rep_sphere
from .mackey_bredon import BredonComplex, MackeyCoefficients, ro_graded_cohomology


def positive_label(p, m, n):
    """Exponents (i, e, j) of the positive-cone monomial at (m, n), or None."""
    if n < 0 or m > 0:
        return None
    if p == 2:
        j = -m
        i = n - j
        return (i, 0, j) if i >= 0 else None
    e = (-m) % 2
    j = (-m - e) // 2
    i = n - j - e
    return (i, e, j) if i >= 0 else None


def negative_label(p, m, n):
    """Exponents (e, j, k) of the negative-cone class at (m, n), or None."""
    if n > -1 or m < 2:
        return None
    if p == 2:
        k = m
        j = -n - k
        return (0, j, k) if (k >= 2 and j >= 0) else None
    e = (m + 1) % 2
    k = (m + 1 + e) // 2
    j = e - k - n
    return (e, j, k) if (k >= 2 and j >= 0) else None


def render_label(p, cone, exponents):
    if cone == "positive":
        i, e, j = exponents
        if p == 2:
            return "a^%d u^%d" % (i, j)
        return "a^%d k^%d u^%d" % (i, e, j)
    e, j, k = exponents
    if p == 2:
        return "a-%d u-%d" % (j, k)
    return "S-1 k^%d a-%d u-%d" % (e, j, k)


def _label_at(p, m, n):
    pos = positive_label(p, m, n)
    if pos is not None:
        return render_label(p, "positive", pos)
    neg = negative_label(p, m, n)
    if neg is not None:
        return render_label(p, "negative", neg)
    return None


def _mp_closed_form(p, m, n):
    label = _label_at(p, m, n)
    return GroupPresentation.mod_p(p, 1 if label else 0,
                                   labels=(label,) if label else ())


def _mp_sphere_models(p, m, n):
    """Honest chain computation on minimal sphere models via reduction rules."""
    g = _zero_sphere(p)
    mk = MackeyCoefficients(g.group, ("F", p))
    out = ro_graded_cohomology(g, mk, (m, n))
    if out.dim == 1:
        label = _label_at(p, m, n)
        return GroupPresentation.mod_p(p, 1, labels=(label,) if label else ())
    return out


@functools.lru_cache(maxsize=128)
def _zero_sphere(p):
    """The shared two-point sphere over C_p; callers must not mutate it."""
    return based_zero_sphere(CyclicGroup(p))


def _tate_monomial(p, m, n):
    """Exponents (i, e, j) of the unique Tate-ring monomial at (m, n)."""
    if p == 2:
        j = -m
        return n - j, 0, j
    e = (-m) % 2
    j = (-m - e) // 2
    return n - j - e, e, j


def _mp_tate(p, m, n):
    """Kernel/cokernel of (Borel + geometric -> Tate) at this grading."""
    labels = []
    dim = 0
    # kernel in grading (m, n): both rings hold the Tate monomial, f - g = 0
    # on the diagonal; the map has rank 1 whenever either ring contributes
    i, e, j = _tate_monomial(p, m, n)
    cols = (1 if i >= 0 else 0) + (1 if j >= 0 else 0)
    ker = cols - (1 if cols else 0)
    if ker:
        dim += ker
        labels.append(render_label(p, "positive", (i, e, j)))
    # cokernel one grading below contributes through the connecting map
    i2, e2, j2 = _tate_monomial(p, m - 1, n)
    if i2 < 0 and j2 < 0:
        dim += 1
        labels.append(render_label(p, "negative", (e2, -i2 - 1, -j2 + 1)))
    return GroupPresentation.mod_p(p, dim, labels=tuple(labels))


def mp_group(p, g, method="c"):
    """Dimension and labeled basis of the point cohomology at grading m + n.xi.

    method: "a" sphere-model chains, "b" Cech cochain, "c" closed form.
    """
    p = check_prime(p)
    m, n = map(int, g)
    tag = str(method).lower()
    if tag == "a":
        return _mp_sphere_models(p, m, n)
    if tag == "b":
        return _mp_tate(p, m, n)
    if tag == "c":
        return _mp_closed_form(p, m, n)
    raise ValueError("method must be one of 'a', 'b', 'c'")


def _cone_point(x):
    """The one fixed 0-cell of x other than the basepoint."""
    n = x.group.order
    cone, = [c.id for c in x.cells
             if c.dim == 0 and c.stab == n and c.id != x.basepoint]
    return cone


def _cone_class_order(x):
    """Order of the cone-point class in reduced degree-0 Bredon homology."""
    cone = _cone_point(x)
    b = BredonComplex(x, MackeyCoefficients(x.group, "Z"), reduced=True)
    v = [1 if cid == cone else 0 for cid in b.basis(0)]
    return order_in_cokernel(v, b.boundary_matrix(1))


def euler_order(group, eta):
    """Order of the Euler class of a character in integral Bredon cohomology.

    Computed from the chain complex of the character's compactified sphere:
    the class corresponds to the non-basepoint cone point in reduced
    degree-0 homology.  Equals |G| / (kernel size of the character).
    """
    if hasattr(eta, "mult"):
        items = sorted(eta.mult.items())
        if len(items) != 1 or items[0][1] != 1:
            raise ValueError("euler_order needs a single character, got %r" % (eta,))
        k = items[0][0]
    else:
        k = int(eta)
    if k % group.order == 0:
        raise TrivialCharacter("the trivial character has no Euler class order")
    order = _cone_class_order(rep_sphere(irrep(group, k)))
    return order if order is not None else math.inf


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _order_mod_two_term(size, base, target, columns):
    """Order of e_target in Z^size / (e_base, columns); None if infinite.

    Columns, possibly streamed, are two (row, coefficient) terms.  A unit entry
    rewrites its row as a multiple of the other; the rest go to order_in_cokernel.
    """
    value = [(r, int(r != base)) for r in range(size)]  # e_r = m.e_root, e_base = 0

    def substituted(col):
        out = {}
        for r, c in col:
            r, m = value[r]
            out[r] = out.get(r, 0) + c * m
        return tuple((r, c) for r, c in out.items() if c)

    kept = set()
    for col in columns:
        col = substituted(col)
        k = next((i for i, (_, c) in enumerate(col) if c in (1, -1)), None)
        if k is not None:
            (r, c), (s, v) = col[k], col[1 - k] if len(col) == 2 else (base, 0)
            value = [(s, -c * v * m) if q == r else (q, m) for q, m in value]
        elif col:
            kept.add(col)
    root, m = value[target]
    cols = sorted({substituted(col) for col in kept})
    live = sorted({root}.union(r for col in cols for r, _ in col))
    data = [[dict(col).get(r, 0) for col in cols] for r in live]
    return order_in_cokernel([m * (r == root) for r in live], IntMatrix.from_rows(data))


def _join_cone_class_order(pieces):
    """Order of the cone-point class in reduced H_0 of the join of pieces.

    The pieces' own 1-cells have augmentation 0, and a product 1-cell over
    0-cells x, y of distinct pieces has boundary (h_y/h_xy).y - (h_x/h_xy).x,
    h_xy = gcd(h_x, h_y).  The join is based at the last piece's tb, and its
    cone point is found as _cone_point finds it.
    """
    n = pieces[0].group.order
    points = [(i, c) for i, x in enumerate(pieces) for c in x.cells if c.dim == 0]
    base = points.index((len(pieces) - 1, pieces[-1].by_id["tb"]))
    cone, = [r for r, (_, c) in enumerate(points) if c.stab == n and r != base]

    def columns():
        for y, (j, cy) in enumerate(points):
            for x, (i, cx) in enumerate(points[:y]):
                if i != j:
                    h = math.gcd(cx.stab, cy.stab)
                    yield (y, cy.stab // h), (x, -(cx.stab // h))
    return _order_mod_two_term(len(points), base, cone, columns())


def euler_reduced_regular_vanishes(group):
    """Whether the Euler class of the reduced regular representation is zero.

    Decided by reduced degree-0 Bredon homology of the sphere join, one
    column per pair of 0-cells in distinct pieces (_join_cone_class_order);
    above MAX_ORBIT_CELLS pairs, counted from n, it raises ComplexTooLarge.
    For orders with two distinct prime divisors the witnesses list the
    sub-characters whose Euler class orders are coprime.
    """
    n = group.order
    points = n // 2 + 2  # one 0-cell per nontrivial label, plus ta and tb
    _check_size("the reduced regular join of C_%d" % n,
                points * (points - 1) // 2 - 1, "pairs of 0-cells in distinct pieces")
    order = _join_cone_class_order(_sphere_pieces(reduced_regular(group)
                                                  + trivial_rep(group)))
    primes = _prime_divisors(n)
    witnesses = ([{"character": n // ell, "order": ell} for ell in primes]
                 if len(primes) >= 2 else [])
    return {"vanishes": order == 1, "order": order, "witnesses": witnesses}
