"""Tests for the exact linear algebra core.

The SNF oracle used here is independent of the implementation: the product
d_1 * ... * d_k of the first k invariant factors equals the gcd of all k x k
minors (determinantal divisors), computed by brute force.  The mod-p oracle
is a dense Gauss-Jordan on numpy int64 arrays that rewrites the whole
matrix on every pivot; numpy is a test-only dependency.
"""

import random
from itertools import combinations
from math import gcd, isqrt, lcm

import numpy as np
import pytest

from bredonkit import exact_linalg
from bredonkit.errors import CompositionNotZero, PrimeTooLarge
from bredonkit.exact_linalg import (
    GroupPresentation,
    IntMatrix,
    check_prime,
    fp_rank,
    fp_row_reduce,
    fp_solve,
    homology_at,
    is_prime,
    kernel_basis,
    order_in_cokernel,
    snf,
    solve_integral,
)


def minor_det(m, rows, cols):
    sub = [[m.data[i][j] for j in cols] for i in rows]
    n = len(rows)
    if n == 1:
        return sub[0][0]
    det = 0
    for j in range(n):
        cofactor = minor_det_list([r[:j] + r[j + 1:] for r in sub[1:]])
        det += (-1) ** j * sub[0][j] * cofactor
    return det


def minor_det_list(sub):
    n = len(sub)
    if n == 0:
        return 1
    if n == 1:
        return sub[0][0]
    det = 0
    for j in range(n):
        det += (-1) ** j * sub[0][j] * minor_det_list([r[:j] + r[j + 1:] for r in sub[1:]])
    return det


def determinantal_invariant_factors(m):
    """Oracle: invariant factors from gcds of k x k minors."""
    factors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, minor_det(m, rows, cols))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def sparse(a):
    """The sparse rows of a 2-D array, as fp_row_reduce takes them."""
    a = np.asarray(a, dtype=np.int64)
    return [{j: x for j, x in enumerate(row) if x} for row in a.tolist()]


def fp_kernel(m, p):
    """Columns spanning ker(m) mod p, read off the reduced row echelon form."""
    a = np.asarray(m, dtype=np.int64) % p
    cols = a.shape[1]
    red, pivots = exact_linalg.fp_row_reduce(sparse(a), cols, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, c in enumerate(pivots):
            basis[c, k] = (-red.data[r][fc]) % p
    return basis


def check_decomposition(m, dec):
    prod = dec.left.mul(m).mul(dec.right)
    diag = IntMatrix(m.rows, m.cols)
    for i, d in enumerate(dec.diag):
        diag.data[i][i] = d
    assert prod == diag
    nonzero = [d for d in dec.diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # transforms unimodular
    assert abs(minor_det_list(dec.left.data)) == 1
    assert abs(minor_det_list(dec.right.data)) == 1


def test_snf_identity():
    m = IntMatrix.identity(2)
    dec = snf(m)
    assert dec.diag == (1, 1)
    check_decomposition(m, dec)


def test_snf_one_by_one():
    m = IntMatrix.from_rows([[6]])
    dec = snf(m)
    assert dec.diag == (6,)
    check_decomposition(m, dec)


def test_snf_classic():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(m)
    assert dec.invariant_factors == (2, 4)
    assert dec.invariant_factors == determinantal_invariant_factors(m)
    check_decomposition(m, dec)


def test_snf_matches_minor_oracle_random():
    rng = random.Random(20260814)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        dec = snf(m)
        assert dec.invariant_factors == determinantal_invariant_factors(m)
        check_decomposition(m, dec)


def random_unimodular(n, rng):
    # product of a few elementary shears and swaps
    m = IntMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m.data[i][k] += q * m.data[j][k]
    return m


def test_snf_invariant_under_unimodular_transforms():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        u = random_unimodular(rows, rng)
        v = random_unimodular(cols, rng)
        assert snf(u.mul(m).mul(v)).invariant_factors == snf(m).invariant_factors


def test_snf_deterministic():
    m = IntMatrix.from_rows([[3, 1, -4], [2, 2, 8], [0, 5, 7]])
    a, b = snf(m), snf(m)
    assert a.diag == b.diag and a.left == b.left and a.right == b.right


def test_kernel_and_solve():
    m = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(m)
    assert k.cols == 2 and m.mul(k).is_zero()
    assert snf(k).invariant_factors == (1, 1)          # saturated
    assert kernel_basis(IntMatrix.identity(2)).cols == 0
    b = IntMatrix.from_rows([[1, 0, -5], [2, 0, -10]])
    x = solve_integral(m, b)
    assert (x.rows, x.cols) == (3, 3) and m.mul(x) == b
    # one unsolvable column among solvable ones
    assert solve_integral(m, IntMatrix.from_rows([[1, 1, 0], [2, 3, 0]])) is None
    assert solve_integral(IntMatrix.from_rows([[2]]),
                          IntMatrix.from_rows([[4, 3, 2]])) is None
    x = solve_integral(IntMatrix.from_rows([[2], [0]]),
                       IntMatrix.from_rows([[4, -6], [0, 0]]))
    assert x == IntMatrix.from_rows([[2, -3]])
    # no right-hand sides
    x = solve_integral(m, IntMatrix(2, 0))
    assert (x.rows, x.cols) == (3, 0)


def test_order_in_cokernel():
    # Z^2 / <(2,0),(0,3)>: e1 has order 2, e2 order 3, e1+e2 order 6
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert order_in_cokernel([1, 0], a) == 2
    assert order_in_cokernel([0, 1], a) == 3
    assert order_in_cokernel([1, 1], a) == 6
    assert order_in_cokernel([2, 3], a) == 1
    # free direction: infinite order
    b = IntMatrix.from_rows([[2, 0], [0, 0]])
    assert order_in_cokernel([0, 1], b) is None
    assert order_in_cokernel([1, 0], b) == 2


def test_homology_middle_of_cyclic_complex():
    # Z --k--> Z --0--> Z : homology at the middle is Z/k
    for k in (3, 6):
        h = homology_at(IntMatrix.from_rows([[k]]), IntMatrix.from_rows([[0]]), "Z")
        assert h == GroupPresentation.integral(0, (k,))


def test_homology_zero_maps():
    h = homology_at(IntMatrix(1, 1), IntMatrix(1, 1), "Z")
    assert h == GroupPresentation.integral(1)
    assert h.describe() == "Z"


def test_homology_mod_p_kills_p():
    # d_in = (p) becomes zero mod p
    h = homology_at(IntMatrix.from_rows([[3]]), IntMatrix.from_rows([[0]]), ("F", 3))
    assert h == GroupPresentation.mod_p(3, 1)


def test_homology_composition_check():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(CompositionNotZero):
        homology_at(d_in, d_out, "Z")
    with pytest.raises(CompositionNotZero):
        homology_at(d_in, d_out, ("F", 5))


def test_homology_mod_p_checks_d_d_exactly():
    # (p-1)^2 + (p-1)^2 + 2(p-1) = 2p(p-1) is 0 mod p, but its int64 sum wraps
    p = 3037000493
    d_in = IntMatrix.from_rows([[p - 1], [p - 1], [2]])
    d_out = IntMatrix.from_rows([[p - 1, p - 1, p - 1]])
    assert homology_at(d_in, d_out, ("F", p)) == GroupPresentation.mod_p(p, 1)
    with pytest.raises(CompositionNotZero):
        homology_at(d_in, d_out, "Z")


def test_mul_matches_the_definition():
    rng = random.Random(5)
    for _ in range(40):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = IntMatrix(n, k, [[rng.choice((0, 0, rng.randint(-9, 9)))
                              for _ in range(k)] for _ in range(n)])
        b = IntMatrix(k, m, [[rng.choice((0, 0, rng.randint(-9, 9)))
                              for _ in range(m)] for _ in range(k)])
        want = [[sum(a.data[i][t] * b.data[t][j] for t in range(k))
                 for j in range(m)] for i in range(n)]
        assert a.mul(b) == IntMatrix(n, m, want)


def test_homology_torsion_and_rank():
    # Z^2 --diag(2,0)--> Z^2 --0--> 0: H = Z/2 + Z
    d_in = IntMatrix.from_rows([[2, 0], [0, 0]])
    d_out = IntMatrix(0, 2)
    h = homology_at(d_in, d_out, "Z")
    assert h == GroupPresentation.integral(1, (2,))


def test_fp_rank_nullity_and_duality():
    rng = random.Random(99)
    for p in (2, 3, 5):
        for _ in range(30):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            r = fp_rank(sparse(a), cols, p)
            assert r == fp_rank(sparse(a.T), rows, p)  # field duality
            ns = fp_kernel(a, p)
            assert ns.shape[1] == cols - r  # rank-nullity
            if ns.size:
                assert not np.any((a @ ns) % p)


def test_fp_solve_and_span():
    p = 5
    a = np.array([[1, 2], [3, 4]])
    x = fp_solve(sparse(a), 2, [1, 0], p)
    assert x is not None and not np.any((a @ x - np.array([1, 0])) % p)
    b = np.array([[1, 2], [2, 4]])
    assert fp_solve(sparse(b), 2, [0, 1], p) is None
    assert fp_solve(sparse(b), 2, [2, 4], p) is not None
    rows = sparse(b)
    red, pivots = fp_row_reduce(rows, 2, p)
    assert rows == sparse(b)        # the input is not modified
    assert pivots == [0]
    assert red == IntMatrix.from_rows([[1, 2], [0, 0]])
    # no columns: solvable only for a zero right-hand side
    assert fp_solve([{}, {}], 0, [0, 5], p) == []
    assert fp_solve([{}, {}], 0, [0, 1], p) is None


def test_group_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation.integral(0, (1,))
    with pytest.raises(ValueError):
        GroupPresentation.integral(0, (2, 3))  # not a chain
    g = GroupPresentation.integral(2, (2, 4))
    assert g.describe() == "Z^2 + Z/2 + Z/4"
    assert GroupPresentation.mod_p(3, 0).is_zero()
    assert GroupPresentation.mod_p(3, 2).describe() == "F_3^2"
    assert GroupPresentation.mod_p(3, 1) != GroupPresentation.mod_p(5, 1)
    assert GroupPresentation.integral(0) != GroupPresentation.mod_p(3, 0)


def test_is_prime_agrees_with_trial_division():
    for n in range(10 ** 5):
        want = n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))
        assert is_prime(n) == want, n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert is_prime(3037000493) and not is_prime(3037000453 * 3037000507)


def test_check_prime_refuses_past_the_exact_range():
    limit = 3317044064679887385961981      # composite; passes bases 2 ... 41
    for n in (limit, 2 ** 89 - 1):
        with pytest.raises(PrimeTooLarge):
            check_prime(n)
    assert check_prime(2 ** 61 - 1) == 2 ** 61 - 1


# ---------------------------------------------------------------------------
# mod-p elimination against the dense oracle

def dense_row_reduce(m, p):
    """Gauss-Jordan mod p that rewrites every row and column on each pivot."""
    a = np.array(m, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("need a 2-D array")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


DIFF_PRIMES = (2, 3, 5, 7, 11, 3037000493)


def _random_matrix(rng, p, rows, cols, density):
    """Raw entries in [-3p, 3p), so negative and >= p; zero off the support."""
    vals = rng.integers(-3 * p, 3 * p, size=(rows, cols), dtype=np.int64)
    return np.where(rng.random((rows, cols)) < density, vals, 0)


def differential_cases():
    """(label, matrix, p) over shapes, densities and primes, from one seed."""
    rng = np.random.default_rng(20261018)
    for p in DIFF_PRIMES:
        yield "0x5", np.zeros((0, 5), dtype=np.int64), p
        yield "5x0", np.zeros((5, 0), dtype=np.int64), p
        yield "1x1", _random_matrix(rng, p, 1, 1, 1.0), p
        yield "1x1 zero", np.zeros((1, 1), dtype=np.int64), p
        yield "zero", np.zeros((7, 9), dtype=np.int64), p
        for density in (0.01, 0.03, 0.05):
            yield "tall sparse", _random_matrix(rng, p, 90, 40, density), p
            yield "wide sparse", _random_matrix(rng, p, 40, 90, density), p
            yield "square sparse", _random_matrix(rng, p, 70, 70, density), p
        yield "tall dense", _random_matrix(rng, p, 12, 5, 1.0), p
        yield "wide dense", _random_matrix(rng, p, 5, 12, 1.0), p
        yield "square dense", _random_matrix(rng, p, 9, 9, 0.6), p
        # rank deficient: a product through a thin middle, reduced exactly
        left = rng.integers(0, p, size=(15, 4)).astype(object)
        right = rng.integers(0, p, size=(4, 11)).astype(object)
        low = ((left @ right) % p).astype(np.int64)
        yield "rank 4", low - p * rng.integers(-2, 3, size=low.shape), p
    # the shape and density of the largest Euler-step system (S(3xi)/C_5)
    yield "euler scale", _random_matrix(rng, 5, 805, 653, 0.01), 5


def dense_path(rows, cols, p):
    """dense_row_reduce behind the interface of fp_row_reduce."""
    a = np.zeros((len(rows), cols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in row.items():
            a[i, j] = x % p
    red, pivots = dense_row_reduce(a, p)
    return IntMatrix(len(rows), cols, red.tolist()), pivots


def test_fp_row_reduce_matches_dense_oracle():
    for label, m, p in differential_cases():
        got, got_piv = fp_row_reduce(sparse(m), m.shape[1], p)
        want, want_piv = dense_row_reduce(m, p)
        assert got_piv == want_piv, (label, p)
        assert (got.rows, got.cols) == want.shape, (label, p)
        assert all(type(x) is int for row in got.data for x in row), (label, p)
        got = np.array(got.data, dtype=np.int64).reshape(want.shape)
        assert got.tobytes() == want.tobytes(), (label, p)
        if label == "rank 4":
            assert len(got_piv) <= 4


def test_fp_solve_and_nullspace_match_dense_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    runs = []
    for label, m, p in differential_cases():
        rows, cols = m.shape
        x = rng.integers(0, p, size=cols).astype(object)
        reachable = ((m.astype(object) @ x) % p).astype(np.int64).tolist()
        loose = rng.integers(-p, 2 * p, size=rows, dtype=np.int64).tolist()
        runs.append((label, m, p, reachable, loose))

    def results():
        out = []
        for label, m, p, reachable, loose in runs:
            rows = sparse(m)
            out.append((fp_solve(rows, m.shape[1], reachable, p),
                        fp_solve(rows, m.shape[1], loose, p), fp_kernel(m, p)))
        return out

    got = results()
    monkeypatch.setattr(exact_linalg, "fp_row_reduce", dense_path)
    want = results()
    for (label, m, p, _, _), g, w in zip(runs, got, want):
        assert g[0] is not None, (label, p)
        for a, b in zip(g, w):
            assert (a is None) == (b is None), (label, p)
            if a is not None:
                a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
                assert a.shape == b.shape, (label, p)
                assert a.tobytes() == b.tobytes(), (label, p)


# ---------------------------------------------------------------------------
# integral path against the per-column route, and Z against F_p

def full_snf_order(v, a):
    """Order of [v] in coker(a) from an SNF of the whole matrix a."""
    dec = snf(a)
    w = dec.left.mul_vec(v)
    order = 1
    for i in range(a.rows):
        d = dec.diag[i] if i < len(dec.diag) else 0
        if d == 0:
            if w[i]:
                return None
        elif w[i] % d:
            order = lcm(order, d // gcd(d, w[i]))
    return order


def test_order_in_cokernel_ignores_zero_and_repeated_columns():
    rng = random.Random(404)
    cases = [IntMatrix(3, 4), IntMatrix(3, 0), IntMatrix(0, 2)]
    for _ in range(60):
        rows = rng.randint(1, 4)
        base = [[rng.randint(-6, 6) for _ in range(rows)]
                for _ in range(rng.randint(0, 3))]
        cols = [rng.choice(base) if base and rng.random() < 0.7 else [0] * rows
                for _ in range(rng.randint(0, 8))]
        cases.append(IntMatrix(len(cols), rows, cols).transpose())
    for a in cases:
        for _ in range(3):
            v = [rng.randint(-6, 6) for _ in range(a.rows)]
            assert order_in_cokernel(v, a) == full_snf_order(v, a), (a, v)


def per_column_homology_z(d_in, d_out):
    """ker(d_out) / im(d_in) over Z with one SNF of the kernel basis per
    image column: kernel columns copied one at a time, each column of d_in
    solved on its own."""
    dec = snf(d_out)
    kb = IntMatrix(d_out.cols, d_out.cols - dec.rank)
    for j in range(kb.cols):
        for i in range(kb.rows):
            kb.data[i][j] = dec.right.data[i][dec.rank + j]
    if kb.cols == 0:
        return GroupPresentation.integral(0), kb
    rel = IntMatrix(kb.cols, d_in.cols)
    for j in range(d_in.cols):
        col = [d_in.data[i][j] for i in range(d_in.rows)]
        sol = snf(kb)
        w = sol.left.mul_vec(col)
        y = [0] * kb.cols
        for i in range(kb.rows):
            d = sol.diag[i] if i < len(sol.diag) else 0
            assert (w[i] % d == 0) if d else w[i] == 0
            if d:
                y[i] = w[i] // d
        for i, x in enumerate(sol.right.mul_vec(y)):
            rel.data[i][j] = x
    red = snf(rel)
    tor = tuple(d for d in red.invariant_factors if d > 1)
    return GroupPresentation.integral(kb.cols - red.rank, tor), rel


def cochain_complexes():
    """(label, ds) with ds[i+1] . ds[i] = 0, in cochain order: group i is
    homology_at(ds[i], ds[i+1]), and chain complexes run from the top down."""
    from bredonkit.cyclic_reps import CyclicGroup, irrep
    from bredonkit.gcw_complex import plus_point, rep_sphere, smash, sphere_of_rep
    from bredonkit.mackey_bredon import BredonComplex, MackeyCoefficients
    rng = random.Random(20261018)
    for n in range(2, 7):
        g = CyclicGroup(n)
        labels = g.nontrivial_labels()
        k1, k2 = rng.choice(labels), rng.choice(labels)
        models = [
            ("S(xi^%d+xi^%d)" % (k1, k2), sphere_of_rep(irrep(g, k1) + irrep(g, k2))),
            ("S^(xi^%d)" % k1, rep_sphere(irrep(g, k1))),
            ("S^(xi^%d+1)" % k2, rep_sphere(irrep(g, k2) + irrep(g, 0))),
            ("S^(xi^%d) ^ S(xi^%d)_+" % (k1, k2),
             smash(rep_sphere(irrep(g, k1)), plus_point(sphere_of_rep(irrep(g, k2))))),
        ]
        for name, x in models:
            for reduced in (False, True):
                if reduced and not x.is_based:
                    continue
                b = BredonComplex(x, MackeyCoefficients(g, "Z"), reduced=reduced)
                tag = "C_%d %s%s" % (n, name, " reduced" if reduced else "")
                yield tag + " cochains", [b.cochain_matrix(k)
                                          for k in range(-1, b.dim + 1)]
                yield tag + " chains", [b.boundary_matrix(k)
                                        for k in range(b.dim + 1, -1, -1)]
    # d_in = kernel_basis(a) . b: image of any index inside ker(a), so torsion
    for _ in range(40):
        r, c, m = rng.randint(1, 5), rng.randint(1, 6), rng.randint(0, 5)
        a = IntMatrix(r, c, [[rng.choice((0, rng.randint(-4, 4))) for _ in range(c)]
                             for _ in range(r)])
        kb = kernel_basis(a)
        b = IntMatrix(kb.cols, m, [[rng.choice((0, 0, rng.randint(-6, 6)))
                                    for _ in range(m)] for _ in range(kb.cols)])
        yield "random %dx%d" % (r, c), [IntMatrix(m, 0), kb.mul(b), a,
                                        IntMatrix(0, r)]


def test_homology_z_matches_per_column_route():
    pairs = torsion = 0
    for label, ds in cochain_complexes():
        for d_in, d_out in zip(ds, ds[1:]):
            want, want_rel = per_column_homology_z(d_in, d_out)
            assert homology_at(d_in, d_out, "Z") == want, label
            kb = kernel_basis(d_out)
            if kb.cols:
                assert solve_integral(kb, d_in) == want_rel, label
            pairs += 1
            torsion += bool(want.torsion)
    assert pairs > 200 and torsion > 20


def test_universal_coefficients_between_z_and_fp():
    def t(p, group):
        return sum(1 for d in group.torsion if d % p == 0)

    checked = 0
    for label, ds in cochain_complexes():
        hz = [homology_at(a, b, "Z") for a, b in zip(ds, ds[1:])]
        hz.append(GroupPresentation.integral(0))
        for p in (2, 3, 5):
            for k, (a, b) in enumerate(zip(ds, ds[1:])):
                want = hz[k].rank + t(p, hz[k]) + t(p, hz[k + 1])
                assert homology_at(a, b, ("F", p)).dim == want, (label, k, p)
                checked += 1
    assert checked > 600
