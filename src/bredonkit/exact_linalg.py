"""Exact matrix algebra over Z and F_p, on Python ints.

Integer work (Smith normal form, integral homology, element orders in
cokernels, the d o d checks) is pure Python on arbitrary-precision ints.
Integral homology runs at most three SNFs at any size: the kernel basis of d_out,
one solve_integral for all image columns, and the relation matrix.
Mod-p work is one sparse Gauss-Jordan kernel, fp_row_reduce, on rows
stored as {column: residue} dicts; fp_rank and fp_solve wrap it.  The
cochain matrices it sees are more than 99% zero, so it keeps a column ->
rows index and each pivot touches only the rows that hold its column.

Everything is a pure function on immutable-in-spirit inputs; nothing here
keeps state between calls.
"""

from itertools import compress

from .errors import CompositionNotZero, NotPrime, PrimeTooLarge


class IntMatrix:
    """Dense integer matrix (list-of-rows storage, arbitrary precision)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("entry count must be rows x cols")
            self.data = [[int(x) for x in row] for row in data]

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        return cls(rows, cols, rows_list)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    def copy(self):
        return IntMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def transpose(self):
        t = IntMatrix(self.cols, self.rows)
        for i in range(self.rows):
            row = self.data[i]
            for j in range(self.cols):
                t.data[j][i] = row[j]
        return t

    def mul(self, other):
        """Exact product; only nonzero entries of either factor are touched."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = IntMatrix(self.rows, other.cols)
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        for arow, orow in zip(self.data, out.data):
            for k, a in enumerate(arow):
                if a:
                    for j, b in sparse[k]:
                        orow[j] += a * b
        return out

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [sum(row[k] * vec[k] for k in range(self.cols)) for row in self.data]

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def nonzeros(self):
        """The sparse rows of this matrix: one {column: entry} dict per row."""
        cols = range(self.cols)
        return [{j: row[j] for j in compress(cols, row)} for row in self.data]

    @property
    def size(self):
        return self.rows * self.cols

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)


class SNFDecomposition:
    """left * original * right = diag, with unimodular left/right.

    diag holds the full main diagonal (length min(rows, cols)): the nonzero
    invariant factors first, each dividing the next, then zeros.
    """

    __slots__ = ("left", "right", "diag")

    def __init__(self, left, right, diag):
        self.left = left
        self.right = right
        self.diag = tuple(diag)

    @property
    def rank(self):
        return sum(1 for d in self.diag if d != 0)

    @property
    def invariant_factors(self):
        return tuple(d for d in self.diag if d != 0)


def _swap_rows(m, i, j):
    m.data[i], m.data[j] = m.data[j], m.data[i]


def _swap_cols(m, i, j):
    for row in m.data:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, q):
    # row_dst += q * row_src
    d, s = m.data[dst], m.data[src]
    for k in range(m.cols):
        d[k] += q * s[k]


def _add_col(m, dst, src, q):
    for row in m.data:
        row[dst] += q * row[src]


def _scale_row(m, i, s):
    m.data[i] = [s * x for x in m.data[i]]


def snf(m):
    """Smith normal form with transforms.

    Deterministic: the pivot is always the nonzero entry of smallest
    absolute value in the remaining submatrix, ties broken by lowest
    (row, col).  Output diagonal is non-negative with a divisibility chain.
    """
    d = m.copy()
    left = IntMatrix.identity(m.rows)
    right = IntMatrix.identity(m.cols)
    t = 0
    limit = min(m.rows, m.cols)
    while t < limit:
        # pick pivot: smallest |value|, then lowest (i, j)
        best = None
        for i in range(t, m.rows):
            row = d.data[i]
            for j in range(t, m.cols):
                v = row[j]
                if v != 0 and (best is None or abs(v) < abs(d.data[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _swap_rows(d, t, best[0])
            _swap_rows(left, t, best[0])
        if best[1] != t:
            _swap_cols(d, t, best[1])
            _swap_cols(right, t, best[1])
        while True:
            if d.data[t][t] < 0:
                _scale_row(d, t, -1)
                _scale_row(left, t, -1)
            pivot = d.data[t][t]
            # clear column t below; remainders (necessarily smaller) become the new pivot
            dirty = False
            for i in range(t + 1, m.rows):
                v = d.data[i][t]
                if v:
                    q = v // pivot
                    _add_row(d, i, t, -q)
                    _add_row(left, i, t, -q)
                    if d.data[i][t]:
                        _swap_rows(d, t, i)
                        _swap_rows(left, t, i)
                        dirty = True
                        break
            if dirty:
                continue
            # clear row t to the right
            for j in range(t + 1, m.cols):
                v = d.data[t][j]
                if v:
                    q = v // pivot
                    _add_col(d, j, t, -q)
                    _add_col(right, j, t, -q)
                    if d.data[t][j]:
                        _swap_cols(d, t, j)
                        _swap_cols(right, t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # divisibility: pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, m.rows):
                row = d.data[i]
                for j in range(t + 1, m.cols):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(d, t, offender, 1)
            _add_row(left, t, offender, 1)
        t += 1
    diag = [d.data[i][i] for i in range(limit)]
    return SNFDecomposition(left, right, diag)


class GroupPresentation:
    """A finitely generated abelian group.

    Over Z: free rank plus invariant-factor torsion (each factor > 1,
    forming a divisibility chain).  Over F_p: a dimension.  Generator
    labels are carried for display and ignored by equality.
    """

    __slots__ = ("ring", "rank", "torsion", "p", "dim", "labels")

    def __init__(self, ring, rank=0, torsion=(), p=None, dim=None, labels=()):
        self.ring = ring
        self.labels = tuple(labels)
        if ring == "Z":
            torsion = tuple(int(t) for t in torsion)
            if any(t <= 1 for t in torsion):
                raise ValueError("torsion factors must exceed 1")
            for a, b in zip(torsion, torsion[1:]):
                if b % a:
                    raise ValueError("torsion must form a divisibility chain")
            self.rank = int(rank)
            self.torsion = torsion
            self.p = None
            self.dim = None
        elif ring == "Fp":
            self.rank = None
            self.torsion = None
            self.p = int(p)
            self.dim = int(dim)
        else:
            raise ValueError("ring must be 'Z' or 'Fp'")

    @classmethod
    def integral(cls, rank, torsion=(), labels=()):
        return cls("Z", rank=rank, torsion=torsion, labels=labels)

    @classmethod
    def mod_p(cls, p, dim, labels=()):
        return cls("Fp", p=p, dim=dim, labels=labels)

    def is_zero(self):
        if self.ring == "Z":
            return self.rank == 0 and not self.torsion
        return self.dim == 0

    def __eq__(self, other):
        if not isinstance(other, GroupPresentation):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self.ring == "Z":
            return self.rank == other.rank and self.torsion == other.torsion
        return self.p == other.p and self.dim == other.dim

    def __hash__(self):
        if self.ring == "Z":
            return hash(("Z", self.rank, self.torsion))
        return hash(("Fp", self.p, self.dim))

    def describe(self):
        if self.ring == "Z":
            parts = []
            if self.rank == 1:
                parts.append("Z")
            elif self.rank > 1:
                parts.append("Z^%d" % self.rank)
            parts.extend("Z/%d" % t for t in self.torsion)
            return " + ".join(parts) if parts else "0"
        if self.dim == 0:
            return "0"
        if self.dim == 1:
            return "F_%d" % self.p
        return "F_%d^%d" % (self.p, self.dim)

    def __repr__(self):
        return "<GroupPresentation %s>" % self.describe()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
# (Sorenson-Webster 2017); Miller-Rabin with those bases is exact below it
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Exact primality for n < 3.3e24; raises PrimeTooLarge beyond that."""
    if n >= _MR_LIMIT:
        raise PrimeTooLarge("primality is decided exactly only below %d, "
                            "got %d" % (_MR_LIMIT, n))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """p as an int; raises NotPrime unless it is prime.

    p >= 3.3e24 raises PrimeTooLarge before any test (see is_prime).
    """
    p = int(p)
    if not is_prime(p):
        raise NotPrime("%r is not prime" % p)
    return p


def check_coeff(coeff):
    """The ring "Z" or ("F", p) for a prime p with (p - 1)**2 < 2**63.

    The bound is left from an int64 kernel; fp_row_reduce is exact for any
    p, and the bound stays until a change that lifts it with its own tests.
    """
    if coeff == "Z":
        return coeff
    if isinstance(coeff, tuple) and len(coeff) == 2 and coeff[0] == "F":
        p = int(coeff[1])
        if (p - 1) ** 2 >= 2 ** 63:
            raise PrimeTooLarge("F_p needs (p - 1)^2 < 2^63, got p = %d" % p)
        return ("F", check_prime(p))
    raise ValueError("coefficient ring must be 'Z' or ('F', p)")


def kernel_basis(m):
    """Integral basis of ker(m) as columns of an IntMatrix (saturated lattice)."""
    dec = snf(m)
    return IntMatrix(m.cols, m.cols - dec.rank,
                     [row[dec.rank:] for row in dec.right.data])


def solve_integral(a, b):
    """Integer matrix x with a.x = b (all columns at once), or None."""
    dec = snf(a)
    w = dec.left.mul(b)
    y = IntMatrix(a.cols, b.cols)
    for i, row in enumerate(w.data):
        d = dec.diag[i] if i < len(dec.diag) else 0
        if d == 0:
            if any(row):
                return None
        elif any(x % d for x in row):
            return None
        else:
            y.data[i] = [x // d for x in row]
    return dec.right.mul(y)


def order_in_cokernel(v, a):
    """Order of the class of v in Z^rows / column-span(a); None if infinite.

    Only the distinct nonzero columns of a are reduced: they span the same
    lattice, and the order of [v] does not depend on the presentation.
    """
    from math import gcd, lcm
    cols = [c for c in dict.fromkeys(zip(*a.data)) if any(c)]
    a = IntMatrix(len(cols), a.rows, cols).transpose()
    dec = snf(a)
    w = dec.left.mul_vec(v)
    order = 1
    for i in range(a.rows):
        d = dec.diag[i] if i < len(dec.diag) else 0
        if d == 0:
            if w[i] != 0:
                return None
        elif w[i] % d:
            order = lcm(order, d // gcd(d, w[i]))
    return order


def homology_at(d_in, d_out, coeff):
    """ker(d_out) / im(d_in) at the middle module of  . --d_in--> C --d_out--> .

    d_in has as many rows as C has generators; d_out as many columns.
    """
    coeff = check_coeff(coeff)
    if d_in.rows != d_out.cols:
        raise ValueError("middle module size mismatch")
    if coeff == "Z":
        if not d_out.mul(d_in).is_zero():
            raise CompositionNotZero("d_out . d_in != 0 over Z")
        kb = kernel_basis(d_out)
        if kb.cols == 0:
            return GroupPresentation.integral(0)
        # the image in kernel coordinates (always solvable: the SNF kernel
        # basis spans the saturated kernel lattice)
        rel = solve_integral(kb, d_in)
        if rel is None:
            raise CompositionNotZero("image column escapes the kernel lattice")
        dec = snf(rel)
        tor = tuple(d for d in dec.invariant_factors if d > 1)
        return GroupPresentation.integral(kb.cols - dec.rank, tor)
    p = coeff[1]
    rows_in, rows_out = d_in.nonzeros(), d_out.nonzeros()
    for row in rows_out:
        comp = {}
        for k, a in row.items():
            for j, b in rows_in[k].items():
                comp[j] = comp.get(j, 0) + a * b
        if any(x % p for x in comp.values()):
            raise CompositionNotZero("d_out . d_in != 0 mod %d" % p)
    dim = (d_out.cols - fp_rank(rows_out, d_out.cols, p)
           - fp_rank(rows_in, d_in.cols, p))
    return GroupPresentation.mod_p(p, dim)


# ---------------------------------------------------------------------------
# mod-p path: sparse rows of Python ints

def fp_row_reduce(rows, cols, p):
    """Reduced row echelon form mod p.  Returns (IntMatrix, pivot column list).

    rows are the matrix's sparse rows, {column: int} dicts with columns in
    range(cols); they are not modified.  Columns are taken left to right,
    each pivoting on its sparsest live row (lowest index on a tie) and
    clearing the rows a column -> rows index names.  The RREF is unique, so
    that choice changes only the work; its pivot rows come first.
    """
    rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    where = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    live = set(range(len(rows)))
    order, pivots = [], []
    for c in sorted(where):
        hit = where[c]
        cand = hit & live
        if not cand:
            continue
        r = min(cand, key=lambda i: (len(rows[i]), i))
        inv = pow(rows[r].pop(c), -1, p)
        rows[r] = prow = {j: x * inv % p for j, x in rows[r].items()}
        for i in hit:
            if i == r:
                continue
            row = rows[i]
            f = p - row.pop(c)
            for j, x in prow.items():
                y = row.get(j)
                if y is None:           # fill-in: f * x is a unit mod p
                    row[j] = f * x % p
                    where[j].add(i)
                else:
                    y = (y + f * x) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        where[j].discard(i)
        prow[c] = 1
        live.discard(r)
        order.append(r)
        pivots.append(c)
    out = IntMatrix(len(rows), cols)
    for dense, r in zip(out.data, order):
        for j, x in rows[r].items():
            dense[j] = x
    return out, pivots


def fp_rank(rows, cols, p):
    """Rank mod p of the matrix given by its sparse rows."""
    return len(fp_row_reduce(rows, cols, p)[1])


def fp_solve(rows, cols, b, p):
    """One solution x (a list of residues) of m.x = b mod p, or None.

    m is given as fp_row_reduce takes it; b has one int per row."""
    if len(b) != len(rows):
        raise ValueError("shape mismatch")
    aug = [{**row, cols: v} if v % p else row for row, v in zip(rows, b)]
    red, pivots = fp_row_reduce(aug, cols + 1, p)
    if pivots and pivots[-1] == cols:
        return None
    x = [0] * cols
    for dense, c in zip(red.data, pivots):
        x[c] = dense[cols]
    return x
