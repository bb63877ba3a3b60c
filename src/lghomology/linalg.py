"""Exact scalar arithmetic and sparse linear algebra.

Scalars live in an exact field: the rationals, a prime field, or a
cyclotomic extension of the rationals.  Matrices are stored sparsely and
all rank computations use exact Gaussian elimination with
deterministic pivoting: over Q on integer rows, fraction-free; over GF(p)
on int residues; over Q(zeta) on field elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import CompositionNonzero, NoStabilization, ShapeMismatch


def add_to(acc, key, val):
    """Sparse accumulation: ``acc[key] += val``, deleting a key whose sum is
    zero, so that ``acc`` never stores a zero.

    Every sparse matrix, vector and polynomial builder accumulates through
    this.  Only the elimination loops and ``poly._reduce_once``, which also
    keep a pivot index or a heap of terms, and ``_composes_to_zero`` write
    the idiom out.
    """
    cur = acc.get(key)
    s = val if cur is None else cur + val
    if s:
        acc[key] = s
    elif cur is not None:
        del acc[key]


def settle(values, message):
    """The first value equal to its predecessor, as (value, position).

    ``values`` is a lazy iterable of (position, value) pairs, one per window
    size, smallest first; nothing after the agreeing pair is computed.
    Raises ``NoStabilization(message)`` if the values run out first.

    Accepting a value because two consecutive windows agree is a heuristic,
    not a proof: a class that first appears in a larger window is missed.
    It decides only the two windowed computations left, ordinary HH
    (``hh_ordinary``) and the ``truncate`` Ext method; Borel-Moore HH is
    read at one shift, proven exact (``hh_bm_graded``).
    """
    prev = object()     # equal to no value
    for pos, val in values:
        if val == prev:
            return val, pos
        prev = val
    raise NoStabilization(message)


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


# Characteristics accepted lie below this bound: primality is checked by
# trial division, which takes about sqrt(p) steps.
PRIME_BOUND = 2 ** 31


class PrimeField(Field):
    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise ValueError("characteristic must be below 2^31")
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
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
        poly = _polydivmod(poly, _cyclotomic_coeffs(e))[0]
    return poly


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
    values.  ``_rank`` is the rank once :func:`rank` has computed it.
    """

    __slots__ = ("rows", "cols", "field", "entries", "_rank")

    def __init__(self, rows, cols, field, entries=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self._rank = None
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
            add_to(ent, k, v)
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
                add_to(ent, (i, j), v * w)
        return Matrix(self.rows, other.cols, self.field, ent)

    def transpose(self):
        return Matrix(self.cols, self.rows, self.field,
                      {(j, i): v for (i, j), v in self.entries.items()})

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __repr__(self):
        return "Matrix(%dx%d over %r, %d nonzero)" % (
            self.rows, self.cols, self.field, len(self.entries))


# ---------------------------------------------------------------------------
# Elimination
#
# A matrix is eliminated as a map row index -> {column: value}.  How a row is
# stored and how one update step is done depends on the field; the loop in
# ``_eliminate`` is shared.


class _IntegerRows:
    """Q: integer rows.  Elimination is fraction-free and keeps every row it
    updates primitive (divided by the gcd of its entries)."""

    def rows(self, m):
        """m scaled by the lcm of its denominators; a nonzero scalar changes
        neither the rank nor whether a product vanishes."""
        den = lcm(*{v.denominator for v in m.entries.values()})
        rows = {}
        for (i, j), v in m.entries.items():
            rows.setdefault(i, {})[j] = v.numerator * (den // v.denominator)
        return rows

    def pivot(self, row, col):
        """Make ``row`` primitive with a positive entry at ``col``."""
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        if g != 1:
            for j in row:
                row[j] //= g

    def reduce(self, row, col, a, rest, rid, index):
        """row <- (a/g) row - (b/g) pivot with b = row[col], g = gcd(a, b)."""
        b = row.pop(col)
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if a != 1:
            for j in row:
                row[j] *= a
        get = row.get
        for j, v in rest:
            w = get(j)
            if w is None:
                row[j] = -b * v
                index[j].add(rid)
            else:
                w -= b * v
                if w:
                    row[j] = w
                else:
                    del row[j]
                    index[j].discard(rid)
        if row:
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g


class _ResidueRows:
    """GF(p): rows of int residues, reduced mod p after every update."""

    def __init__(self, p):
        self.p = p

    def rows(self, m):
        rows = {}
        for (i, j), v in m.entries.items():
            rows.setdefault(i, {})[j] = v.val
        return rows

    def pivot(self, row, col):
        """Scale ``row`` so that its entry at ``col`` is 1."""
        p = self.p
        inv = pow(row[col], -1, p)
        if inv != 1:
            for j in row:
                row[j] = row[j] * inv % p

    def reduce(self, row, col, a, rest, rid, index):
        """row <- row - row[col] pivot (the pivot entry ``a`` is 1)."""
        p = self.p
        c = p - row.pop(col)
        get = row.get
        for j, v in rest:
            w = get(j)
            if w is None:
                row[j] = c * v % p
                index[j].add(rid)
            else:
                w = (w + c * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
                    index[j].discard(rid)


class _ElementRows:
    """Any other field, Q(zeta) here: rows of field elements."""

    def __init__(self, field):
        self.one = field.one

    def rows(self, m):
        rows = {}
        for (i, j), v in m.entries.items():
            rows.setdefault(i, {})[j] = v
        return rows

    def pivot(self, row, col):
        """Scale ``row`` so that its entry at ``col`` is one."""
        inv = self.one / row[col]
        for j in row:
            row[j] = row[j] * inv

    def reduce(self, row, col, a, rest, rid, index):
        """row <- row - row[col] pivot (the pivot entry ``a`` is one)."""
        c = row.pop(col)
        get = row.get
        for j, v in rest:
            w = get(j)
            if w is None:
                row[j] = -(c * v)
                index[j].add(rid)
            else:
                w = w - c * v
                if w:
                    row[j] = w
                else:
                    del row[j]
                    index[j].discard(rid)


def _row_kind(field):
    if isinstance(field, RationalField):
        return _IntegerRows()
    if isinstance(field, PrimeField):
        return _ResidueRows(field.p)
    return _ElementRows(field)


def _eliminate(rows, kind):
    """Rank of ``rows`` (consumed) by Gaussian elimination.

    Pivot choice is deterministic: smallest column first, then the sparsest
    candidate row, then the smallest row index.  Candidates come from a
    column -> row indices map kept up to date on fill-in and cancellation.
    """
    index = {}
    for rid, row in rows.items():
        for j in row:
            cand = index.get(j)
            if cand is None:
                index[j] = {rid}
            else:
                cand.add(rid)
    # Fill-in only lands in columns of a pivot row, which are already keys.
    rank = 0
    for col in sorted(index):
        cand = index.pop(col)
        if not cand:
            continue
        pid = min(cand, key=lambda rid: (len(rows[rid]), rid))
        cand.discard(pid)
        piv = rows.pop(pid)
        kind.pivot(piv, col)
        a = piv[col]
        rest = [(j, v) for j, v in piv.items() if j != col]
        for j, _ in rest:
            index[j].discard(pid)
        for rid in cand:
            row = rows[rid]
            kind.reduce(row, col, a, rest, rid, index)
            if not row:
                del rows[rid]
        rank += 1
    return rank


def _composes_to_zero(rows_out, rows_in, p):
    """Whether the product of two matrices given as rows is zero (mod p if
    p is nonzero)."""
    for row in rows_out.values():
        acc = {}
        for k, a in row.items():
            src = rows_in.get(k)
            if src is None:
                continue
            for j, b in src.items():
                cur = acc.get(j)
                acc[j] = a * b if cur is None else cur + a * b
        if any(v % p if p else v for v in acc.values()):
            return False
    return True


def rank(m, rows=None):
    """Rank of ``m`` over its scalar field, eliminated once per matrix.

    ``rows`` is ``m`` already in elimination form, from a caller that
    converted it for another use; elimination consumes it.  The rank is
    kept on ``m``, so ranking a matrix again eliminates nothing.
    """
    if m._rank is None:
        kind = _row_kind(m.field)
        m._rank = _eliminate(kind.rows(m) if rows is None else rows, kind)
    return m._rank


def homology_dim(d_in, d_out):
    """dim ker(d_out) - rank(d_in) for a composable pair with d_out.d_in = 0.

    The composition is checked in every call, also when both ranks are
    already known.
    """
    if d_in.rows != d_out.cols:
        raise ShapeMismatch(
            "middle spaces disagree: d_in lands in dim %d, d_out starts in dim %d"
            % (d_in.rows, d_out.cols))
    kind = _row_kind(d_out.field)
    rows_in, rows_out = kind.rows(d_in), kind.rows(d_out)
    if not _composes_to_zero(rows_out, rows_in, d_out.field.characteristic):
        raise CompositionNonzero("d_out . d_in != 0")
    return (d_out.cols - rank(d_out, rows_out)) - rank(d_in, rows_in)
