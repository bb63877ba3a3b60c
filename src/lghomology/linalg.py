"""Exact scalar arithmetic and sparse linear algebra.

Scalars live in an exact field: the rationals, a prime field, or a
cyclotomic extension of the rationals.  Matrices are stored sparsely and
all rank/kernel computations use exact Gaussian elimination with
deterministic pivoting.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CompositionNonzero, ShapeMismatch


class Field:
    """Common interface: ``zero``, ``one``, ``from_int``, characteristic, and
    ``c in field`` for membership of an element."""

    characteristic = 0

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, q):
        raise NotImplementedError


class RationalField(Field):
    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def __repr__(self):
        return "QQ"

    def __contains__(self, c):
        return isinstance(c, Fraction)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class FpElement:
    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElement(self.val - other.val, self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.val == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return FpElement(pow(self.val, -1, self.p), self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.val == other.val and self.p == other.p

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return "%d" % self.val


class PrimeField(Field):
    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError("%d is not prime" % p)
        self.p = p
        self.characteristic = p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def from_fraction(self, q):
        q = Fraction(q)
        return FpElement(q.numerator, self.p) / FpElement(q.denominator, self.p)

    def __repr__(self):
        return "GF(%d)" % self.p

    def __contains__(self, c):
        return isinstance(c, FpElement) and c.p == self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def _cyclotomic_coeffs(d):
    """Coefficients of the d-th cyclotomic polynomial, low degree first."""
    # x^d - 1 divided by the product of Phi_e for proper divisors e of d.
    poly = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e:
            continue
        div = _cyclotomic_coeffs(e)
        poly = _polydiv_exact(poly, div)
    return poly


def _polydiv_exact(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        out[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return out


class CycElement:
    """Element of Q(zeta_d), reduced modulo the cyclotomic polynomial."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        self.coeffs = tuple(coeffs)
        self.field = field

    def __add__(self, other):
        return CycElement([a + b for a, b in zip(self.coeffs, other.coeffs)], self.field)

    def __sub__(self, other):
        return CycElement([a - b for a, b in zip(self.coeffs, other.coeffs)], self.field)

    def __neg__(self):
        return CycElement([-a for a in self.coeffs], self.field)

    def __mul__(self, other):
        n = len(self.coeffs)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return CycElement(self.field._reduce(prod), self.field)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        # Extended Euclid in Q[x] against the cyclotomic modulus.
        mod = list(self.field.modulus)
        a = list(self.coeffs)
        r0, r1 = mod, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 = gcd (a constant, since the modulus is irreducible)
        deg = _polydeg(r0)
        if deg != 0:
            raise ZeroDivisionError("element is zero in cyclotomic field")
        c = r0[0]
        inv = [x / c for x in s0]
        return CycElement(self.field._reduce(inv), self.field)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CycElement)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*z" % c)
            else:
                parts.append("%s*z^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


def _polydeg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _polysub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _polydivmod(a, b):
    a = list(a)
    db = _polydeg(b)
    q = [Fraction(0)] * max(len(a) - db, 1)
    while _polydeg(a) >= db:
        da = _polydeg(a)
        c = a[da] / b[db]
        q[da - db] = c
        for j in range(db + 1):
            a[da - db + j] -= c * b[j]
    return q, a


class CyclotomicField(Field):
    """Q(zeta_d) with zeta a primitive d-th root of unity."""

    characteristic = 0

    def __init__(self, d):
        self.d = d
        self.modulus = _cyclotomic_coeffs(d)
        self.degree = len(self.modulus) - 1
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def _reduce(self, coeffs):
        _, rem = _polydivmod(list(coeffs) + [Fraction(0)], self.modulus)
        rem = rem[: self.degree] + [Fraction(0)] * max(0, self.degree - len(rem))
        return rem[: self.degree]

    def from_int(self, n):
        return CycElement([Fraction(n)] + [Fraction(0)] * (self.degree - 1), self)

    def from_fraction(self, q):
        return CycElement([Fraction(q)] + [Fraction(0)] * (self.degree - 1), self)

    def zeta(self, power=1):
        coeffs = [Fraction(0)] * max(self.degree, power % self.d + 1)
        coeffs[power % self.d] = Fraction(1)
        return CycElement(self._reduce(coeffs), self)

    def __repr__(self):
        return "QQ(zeta_%d)" % self.d

    def __contains__(self, c):
        return isinstance(c, CycElement) and c.field == self

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.d == self.d

    def __hash__(self):
        return hash(("cyc", self.d))


class Matrix:
    """Immutable sparse matrix over an exact field.

    Entries are stored in a map (row, col) -> scalar holding only nonzero
    values.
    """

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows, cols, field, entries=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ShapeMismatch("entry (%d,%d) outside %dx%d" % (i, j, rows, cols))
                if v:
                    ent[(i, j)] = v
        self.entries = ent

    @classmethod
    def from_rows(cls, data, field):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if not isinstance(v, (int, Fraction)):
                    ent[(i, j)] = v
                elif v:
                    ent[(i, j)] = field.from_fraction(v)
        return cls(rows, cols, field, ent)

    @classmethod
    def identity(cls, n, field):
        return cls(n, n, field, {(i, i): field.one for i in range(n)})

    @classmethod
    def zero(cls, rows, cols, field):
        return cls(rows, cols, field)

    def get(self, i, j):
        return self.entries.get((i, j), self.field.zero)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("cannot add %s and %s" % (self.shape, other.shape))
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k)
            s = v if w is None else w + v
            if s:
                ent[k] = s
            elif w is not None:
                del ent[k]
        return Matrix(self.rows, self.cols, self.field, ent)

    def __sub__(self, other):
        return self + other.scale(self.field.from_int(-1))

    def scale(self, c):
        if not c:
            return Matrix(self.rows, self.cols, self.field)
        return Matrix(self.rows, self.cols, self.field,
                      {k: c * v for k, v in self.entries.items()})

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch("cannot multiply %s by %s" % (self.shape, other.shape))
        by_row = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        ent = {}
        for (i, k), v in self.entries.items():
            for (j, w) in by_row.get(k, ()):
                key = (i, j)
                cur = ent.get(key)
                s = v * w if cur is None else cur + v * w
                if s:
                    ent[key] = s
                elif cur is not None:
                    del ent[key]
        return Matrix(self.rows, other.cols, self.field, ent)

    def apply(self, vec):
        """Multiply by a sparse vector given as index -> scalar."""
        out = {}
        for (i, j), v in self.entries.items():
            c = vec.get(j)
            if c is None:
                continue
            cur = out.get(i)
            s = v * c if cur is None else cur + v * c
            if s:
                out[i] = s
            elif cur is not None:
                del out[i]
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self):
        return Matrix(self.cols, self.rows, self.field,
                      {(j, i): v for (i, j), v in self.entries.items()})

    def __repr__(self):
        return "Matrix(%dx%d over %r, %d nonzero)" % (
            self.rows, self.cols, self.field, len(self.entries))


def _row_major(m):
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


def _eliminate(m, want_kernel=False):
    """Gaussian elimination; returns (rank, kernel basis or None).

    Pivot choice is deterministic: smallest column first, then the sparsest
    candidate row, then smallest row index.
    """
    rows = [dict(r) for r in _row_major(m).values()]
    n = m.cols
    one = m.field.one
    pivots = []  # (col, reduced row)
    for col in range(n):
        cand = [r for r in rows if col in r]
        if not cand:
            continue
        cand.sort(key=lambda r: (len(r), min(r)))
        piv = cand[0]
        rows.remove(piv)
        inv = one / piv[col]
        piv = {j: v * inv for j, v in piv.items()}
        nxt = []
        for r in rows:
            c = r.get(col)
            if c is None:
                nxt.append(r)
                continue
            new = dict(r)
            for j, v in piv.items():
                w = new.get(j)
                s = -c * v if w is None else w - c * v
                if s:
                    new[j] = s
                elif w is not None:
                    del new[j]
            if new:
                nxt.append(new)
        rows = nxt
        pivots.append((col, piv))
    rank = len(pivots)
    if not want_kernel:
        return rank, None
    # Back-substitute to reduced echelon form.
    for idx in range(len(pivots) - 1, -1, -1):
        col, row = pivots[idx]
        for jdx in range(idx):
            pcol, prow = pivots[jdx]
            c = prow.get(col)
            if c is None:
                continue
            new = dict(prow)
            for j, v in row.items():
                w = new.get(j)
                s = -c * v if w is None else w - c * v
                if s:
                    new[j] = s
                elif w is not None:
                    del new[j]
            pivots[jdx] = (pcol, new)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = {free: one}
        for c, row in pivots:
            v = row.get(free)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return rank, basis


def rank(m):
    """Rank of ``m`` over its scalar field."""
    r, _ = _eliminate(m)
    return r


def kernel_basis(m):
    """Basis of ker(m) as a list of sparse vectors (index -> scalar)."""
    _, basis = _eliminate(m, want_kernel=True)
    return basis


def homology_dim(d_in, d_out):
    """dim ker(d_out) - rank(d_in) for a composable pair with d_out.d_in = 0."""
    if d_in.rows != d_out.cols:
        raise ShapeMismatch(
            "middle spaces disagree: d_in lands in dim %d, d_out starts in dim %d"
            % (d_in.rows, d_out.cols))
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    return (d_out.cols - rank(d_out)) - rank(d_in)
