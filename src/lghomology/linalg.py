"""Exact scalar arithmetic and sparse linear algebra.

Scalars live in an exact field: the rationals, a prime field, or a
cyclotomic extension of the rationals (``cyclotomic``, which only cross
products use and so loads apart from this module).  Matrices are stored
sparsely and all rank computations use exact Gaussian elimination with
deterministic pivoting: over Q on integer rows, fraction-free; over GF(p)
on int residues; over any other field, Q(zeta) here, on field elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import CompositionNonzero, ShapeMismatch


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


class Matrix:
    """Immutable sparse matrix over an exact field.

    Entries are a map (row, col) -> scalar, stored as given: the builder
    keeps it free of zeros and of keys outside the shape, and hands it
    over.  ``_rank`` is the rank once :func:`rank` has computed it.
    """

    __slots__ = ("rows", "cols", "field", "entries", "_rank")

    def __init__(self, rows, cols, field, entries=None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = {} if entries is None else entries
        self._rank = None

    @classmethod
    def from_rows(cls, data, field):
        """A dense list of rows; ints and Fractions are mapped into
        ``field``, and zeros are dropped."""
        rows = len(data)
        cols = len(data[0]) if rows else 0
        ent = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if isinstance(v, (int, Fraction)):
                    v = field.from_fraction(v)
                if v:
                    ent[(i, j)] = v
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

    def select(self, keep):
        """The entries at (i, j) with ``keep(i, j)`` true; the rest are zero."""
        return Matrix(self.rows, self.cols, self.field,
                      {k: v for k, v in self.entries.items() if keep(*k)})

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
