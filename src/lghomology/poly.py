"""Exact multivariate polynomials, Groebner bases, and quotient-ring data.

Monomials are exponent tuples; polynomials are sparse term maps over an
exact scalar field.  The monomial order is weighted degree-reverse-
lexicographic throughout.

Expression grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := ['-'] factor ('*' factor)*
    factor  := atom ['^' integer]
    atom    := integer ['/' integer] | variable | '(' expr ')'

Implicit multiplication is not supported; use '*'.
"""

from __future__ import annotations

import heapq
import itertools
import re
from fractions import Fraction
from operator import add, le, sub

from .errors import NotZeroDimensional, ParseError, UnknownVariable
from .linalg import QQ, add_to

# Largest weighted degree a power ``base^e`` may have in parsed input
# (e times the degree of the base, a constant counting as degree 1).
# Larger powers are refused before any multiplication.
MAX_POWER_DEGREE = 100
# Most term products a parse may spend expanding: every '*' and every step
# of a power multiplies a t-term by an s-term polynomial and costs t * s.
# A parse that would go past this is refused before the multiplication
# that crosses it, which bounds its time; (x+y+z)^99 would cost 499,950.
MAX_PRODUCT_WORK = 10000
# Longest integer literal accepted: the default limit of int() on strings.
MAX_LITERAL_DIGITS = 4300
# Most bits a parsed product may have in a rational coefficient: a product
# is refused before it is made when the largest numerators or denominators
# of its factors have bit lengths summing past this, twice that of a
# maximal literal.  Without it a maximal literal to the power 100 has
# 1.4 million bits.  Coefficients mod p stay small and are not counted.
MAX_COEFFICIENT_BITS = 2 * (10 ** MAX_LITERAL_DIGITS).bit_length()
# Deepest nesting of parentheses and unary minus signs accepted; the
# parser recurses once per level, so deeper input is refused before the
# interpreter's recursion limit is reached.
MAX_NESTING_DEPTH = 200


class PolyRing:
    """Polynomial ring data: variable names, positive weights, scalar field.

    A value type: rings with the same names, weights and field are equal
    and hash alike.  Treat the attributes as read-only.

    ``_cache`` holds bases that are pure functions of the ring, built on
    first use: the monomials of each degree, keyed by the degree
    (``monomials_of_degree``), the graded chain bases, keyed by
    (tensor degree, degree) (``hochschild.poly_chain_basis``), and the
    form and polyvector bases, keyed by (k, grade, sign)
    (``koszul._basis``).  It lives as long as the ring and takes no part
    in equality.
    """

    def __init__(self, names, weights=None, field=QQ):
        self.names = tuple(names)
        self.weights = ((1,) * len(self.names) if weights is None
                        else tuple(weights))
        self.field = field
        self._cache = {}
        if len(self.weights) != len(self.names):
            raise ValueError("weights/names length mismatch")
        if any(w <= 0 for w in self.weights):
            raise ValueError("variable weights must be positive")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.names == other.names and self.weights == other.weights
                and self.field == other.field)

    def __hash__(self):
        return hash((self.names, self.weights, self.field))

    def __repr__(self):
        return "PolyRing(%r, %r, %r)" % (self.names, self.weights, self.field)

    @property
    def nvars(self):
        return len(self.names)

    def zero_mono(self):
        return (0,) * self.nvars

    def weighted_degree(self, mono):
        return sum(e * w for e, w in zip(mono, self.weights))

    def order_key(self, mono):
        """Sort key: larger key = larger monomial in weighted degrevlex."""
        return (self.weighted_degree(mono), tuple(-e for e in reversed(mono)))

    def variable(self, i):
        mono = [0] * self.nvars
        mono[i] = 1
        return Polynomial(self, {tuple(mono): self.field.one})

    def constant(self, c):
        c = self.field.from_fraction(c) if isinstance(c, (int, Fraction)) else c
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {self.zero_mono(): c})

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def monomials_of_degree(self, deg):
        """All monomials of exact weighted degree ``deg``, sorted descending.

        The tuple is built once per degree and returned again on later calls.
        """
        hit = self._cache.get(deg)
        if hit is not None:
            return hit
        out = []
        last = self.nvars - 1

        def rec(i, rem, cur):
            w = self.weights[i]
            if i < last:
                for e in range(rem // w + 1):
                    rec(i + 1, rem - e * w, cur + (e,))
            elif rem % w == 0:
                # the remainder fixes the last exponent
                out.append(cur + (rem // w,))

        if deg >= 0 and self.nvars:
            rec(0, deg, ())
        elif deg == 0:
            out.append(())
        out.sort(key=self.order_key, reverse=True)
        out = self._cache[deg] = tuple(out)
        return out


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    return all(map(le, a, b))


def mono_div(a, b):
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


class Polynomial:
    """Sparse exact polynomial attached to a :class:`PolyRing`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            add_to(terms, m, c)
        return Polynomial(self.ring, terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        minus = self.ring.field.from_int(-1)
        return Polynomial(self.ring, {m: minus * c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_to(terms, mono_mul(m1, m2), c1 * c2)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        return self.ring.constant(other)

    def scale(self, c):
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def diff(self, i):
        terms = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            lowered = list(m)
            lowered[i] -= 1
            terms[tuple(lowered)] = c * self.ring.field.from_int(e)
        return Polynomial(self.ring, terms)

    def degree(self):
        """Maximal weighted degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.weighted_degree(m) for m in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.weighted_degree(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        return max(self.terms, key=self.ring.order_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: self.ring.order_key(mc[0]),
                      reverse=True)

    def __repr__(self):
        return format_polynomial(self)


def format_polynomial(p):
    if p.is_zero():
        return "0"
    parts = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring.names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        cs = str(coeff)
        if factors and cs == "1":
            body = "*".join(factors)
        elif factors and cs == "-1":
            body = "-" + "*".join(factors)
        elif factors:
            body = "*".join([cs] + factors)
        else:
            body = cs
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()])")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(text)))
    return tokens


def _coefficient_bits(poly):
    """Bit length of the largest numerator or denominator among the
    rational coefficients of ``poly``; 0 over a prime field."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.terms.values() if isinstance(c, Fraction)),
               default=0)


def parse_polynomial(text, ring):
    """Parse an expression into a :class:`Polynomial` over ``ring``."""
    tokens = _tokenize(text)
    idx = [0]
    depth = [0]
    work = [0]

    def peek():
        return tokens[idx[0]][0]

    def pos():
        return tokens[idx[0]][1]

    def advance():
        idx[0] += 1

    def check_bits(a, b):
        if _coefficient_bits(a) + _coefficient_bits(b) > MAX_COEFFICIENT_BITS:
            raise ParseError("a product's coefficients would need more than "
                             "%d bits" % MAX_COEFFICIENT_BITS, pos())

    def multiply(a, b):
        work[0] += len(a.terms) * len(b.terms)
        if work[0] > MAX_PRODUCT_WORK:
            raise ParseError("expanding products needs more than %d term "
                             "products" % MAX_PRODUCT_WORK, pos())
        check_bits(a, b)
        return a * b

    def parse_expr():
        sign = 1
        if peek() in ("+", "-"):
            if peek() == "-":
                sign = -1
            advance()
        acc = parse_term()
        if sign < 0:
            acc = -acc
        while peek() in ("+", "-"):
            op = peek()
            advance()
            nxt = parse_term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def parse_term():
        acc = parse_factor()
        while peek() in ("*", "/"):
            op = peek()
            advance()
            nxt = parse_factor()
            if op == "*":
                acc = multiply(acc, nxt)
            else:
                if len(nxt.terms) != 1 or nxt.leading_monomial() != ring.zero_mono():
                    raise ParseError("can only divide by a nonzero constant", pos())
                check_bits(acc, nxt)
                acc = acc.scale(ring.field.one / nxt.leading_coeff())
        return acc

    def parse_factor():
        base = parse_atom()
        if peek() in ("^", "**"):
            advance()
            digits = peek()
            if digits is None or not digits.isdigit():
                raise ParseError("expected integer exponent", pos())
            degree = max(base.degree(), 1)
            # The length test keeps int() away from huge digit strings.
            if (len(digits.lstrip("0")) > len(str(MAX_POWER_DEGREE)) or
                    int(digits) * degree > MAX_POWER_DEGREE):
                raise ParseError("power of degree above %d"
                                 % MAX_POWER_DEGREE, pos())
            advance()
            power = ring.one()
            for _ in range(int(digits)):
                power = multiply(power, base)
            return power
        return base

    def parse_atom():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of expression", pos())
        if tok in ("(", "-"):
            if depth[0] == MAX_NESTING_DEPTH:
                raise ParseError("nesting deeper than %d"
                                 % MAX_NESTING_DEPTH, pos())
            depth[0] += 1
            advance()
            if tok == "-":
                inner = -parse_atom()
            else:
                inner = parse_expr()
                if peek() != ")":
                    raise ParseError("expected ')'", pos())
                advance()
            depth[0] -= 1
            return inner
        if tok.isdigit():
            if len(tok) > MAX_LITERAL_DIGITS:
                raise ParseError("integer literal longer than %d digits"
                                 % MAX_LITERAL_DIGITS, pos())
            advance()
            return ring.constant(int(tok))
        if re.match(r"[A-Za-z_]", tok):
            if tok not in ring.names:
                raise UnknownVariable("unknown variable %r" % tok, pos())
            advance()
            return ring.variable(ring.names.index(tok))
        raise ParseError("unexpected token %r" % tok, pos())

    result = parse_expr()
    if peek() is not None:
        raise ParseError("trailing input %r" % peek(), pos())
    return result


class GroebnerBasis:
    """Reduced Groebner basis with monic generators, deterministically sorted.

    ``leads[k]`` is the leading monomial of ``generators[k]``.
    """

    def __init__(self, ring, generators, leads):
        self.ring = ring
        self.generators = generators
        self.leads = leads

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.generators == other.generators

    def __hash__(self):
        return hash((self.ring, self.generators))

    def __iter__(self):
        return iter(self.generators)


def _reduce_once(f, gens, leads):
    """One full normal-form pass of ``f`` against the monic ``gens``.

    ``leads[k]`` is the leading monomial of ``gens[k]``.  The terms still to
    reduce sit in a heap keyed by the negated order key, so the largest
    comes out first; an entry whose term has cancelled is skipped.
    """
    ring = f.ring
    remainder = {}
    work = dict(f.terms)
    heap = [(-ring.weighted_degree(m), m[::-1]) for m in work]
    heapq.heapify(heap)
    while heap:
        mono = heapq.heappop(heap)[1][::-1]
        coeff = work.pop(mono, None)
        if coeff is None:
            continue
        for k, lead in enumerate(leads):
            if mono_divides(lead, mono):
                break
        else:
            remainder[mono] = coeff
            continue
        quot_mono = mono_div(mono, lead)
        for gm, gc in gens[k].terms.items():
            key = mono_mul(gm, quot_mono)
            if key == mono:
                continue
            cur = work.get(key)
            if cur is None:
                work[key] = -coeff * gc
                heapq.heappush(heap, (-ring.weighted_degree(key), key[::-1]))
                continue
            s = cur - coeff * gc
            if s:
                work[key] = s
            else:
                del work[key]
    return Polynomial(ring, remainder)


def normal_form(f, gb):
    """Remainder of ``f`` modulo the Groebner basis; zero iff f is in the ideal."""
    return _reduce_once(f, gb.generators, gb.leads)


def _s_polynomial(f, lf, g, lg):
    """S-polynomial of monic ``f`` and ``g`` with leading monomials lf, lg."""
    lcm = mono_lcm(lf, lg)
    uf, ug = mono_div(lcm, lf), mono_div(lcm, lg)
    return (Polynomial(f.ring, {mono_mul(m, uf): c for m, c in f.terms.items()})
            - Polynomial(g.ring, {mono_mul(m, ug): c for m, c in g.terms.items()}))


def buchberger(gens, ring=None):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Normal selection strategy: the pair with the smallest lcm of leading
    monomials goes first, ties in the order the pairs were formed.  Each
    basis element's leading monomial is computed once, when it joins.

    Pairs are pruned by the Gebauer-Moeller update (Gebauer and Moeller,
    J. Symbolic Comput. 6, 1988; Becker and Weispfenning, *Groebner Bases*,
    1993, p. 230).  When h joins:

    - M: a new pair (g, h) is dropped when another new pair's lcm strictly
      divides its lcm;
    - F: of the new pairs sharing an lcm only the first is kept, and none
      if one of them has coprime leads (Buchberger's first criterion);
    - B: an old pair (g1, g2) is dropped when LM(h) divides its lcm and
      that lcm is neither lcm(g1, h) nor lcm(g2, h);
    - every element whose lead LM(h) divides leaves the reducer set.

    The criteria drop only pairs whose S-polynomials have standard
    representations through the pairs kept, so the result is still a
    Groebner basis of the ideal.  The reduced basis is unique for the
    order, so the output is the one the unpruned loop gives.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = ring or gens[0].ring
    if any(g.ring != ring for g in gens):
        raise ValueError("generators live in different rings")
    one = ring.field.one
    basis = []
    leads = []
    live = []       # the reducer set: indices into basis
    pairs = []      # heap of (order key of the lcm, serial, lcm, i, j)
    serial = itertools.count()

    def join(g):
        lh = g.leading_monomial()
        h = len(basis)
        basis.append(g.scale(one / g.terms[lh]))
        leads.append(lh)
        new = [(mono_lcm(leads[i], lh), i) for i in live]
        # M: drop a pair whose lcm another new pair's lcm strictly divides.
        new = [(lcm, i) for lcm, i in new
               if not any(other != lcm and mono_divides(other, lcm)
                          for other, _i in new)]
        # F: one pair per lcm, the first; none if any has coprime leads.
        kept = {}
        for lcm, i in new:
            if lcm == mono_mul(leads[i], lh):
                kept[lcm] = None
            else:
                kept.setdefault(lcm, i)
        # B: drop old pairs (i, j) made redundant by the chain through h.
        pairs[:] = [p for p in pairs
                    if not mono_divides(lh, p[2])
                    or p[2] == mono_lcm(leads[p[3]], lh)
                    or p[2] == mono_lcm(leads[p[4]], lh)]
        heapq.heapify(pairs)
        for lcm, i in kept.items():
            if i is not None:
                heapq.heappush(pairs, (ring.order_key(lcm), next(serial),
                                       lcm, i, h))
        live[:] = [i for i in live if not mono_divides(lh, leads[i])]
        live.append(h)

    for g in gens:
        join(g)
    while pairs:
        _key, _serial, _lcm, i, j = heapq.heappop(pairs)
        s = _reduce_once(_s_polynomial(basis[i], leads[i], basis[j], leads[j]),
                         [basis[k] for k in live], [leads[k] for k in live])
        if s:
            join(s)
    # Minimalize: the update removed every lead a later one divides, and a
    # remainder's lead is a multiple of no reducer's, so only an input
    # generator's lead can still be a multiple of another.
    minimal = [i for i in live
               if not any(j != i and mono_divides(leads[j], leads[i])
                          for j in live)]
    # Reduce each generator against the others; its lead term stays.
    reduced = []
    for n, i in enumerate(minimal):
        others = minimal[:n] + minimal[n + 1:]
        g = basis[i]
        if others:
            g = _reduce_once(g, [basis[j] for j in others],
                             [leads[j] for j in others])
        reduced.append((ring.order_key(leads[i]), g, leads[i]))
    reduced.sort(key=lambda kgl: kgl[0])
    return GroebnerBasis(ring, tuple(g for _key, g, _lead in reduced),
                         tuple(lead for _key, _g, lead in reduced))


def is_zero_dimensional(gb):
    """True iff the staircase is finite: each variable has a pure-power lead,
    or a lead is 1 (the unit ideal, whose staircase is empty)."""
    pure = set()
    for m in gb.leads:
        support = [i for i, e in enumerate(m) if e]
        if not support:
            return True
        if len(support) == 1:
            pure.add(support[0])
    return len(pure) == gb.ring.nvars


def standard_monomials(gb):
    """Monomials outside the leading-term ideal, sorted by weighted degree.

    The ideal must be zero-dimensional.  The staircase is walked depth-first
    from 1, raising one variable at a time, never one left of the last
    raised, so each monomial is met once.  A branch stops at its first
    multiple of a lead: the staircase is closed under division, so every
    standard monomial is reached through standard ones.  Raising x_i in a
    standard monomial m gives a multiple of a lead only if that lead's
    x_i-exponent is m_i + 1, so only those leads are tested.  The unit
    ideal has the lead 1 and no standard monomial.
    """
    ring = gb.ring
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("staircase is infinite")
    n = ring.nvars
    at = [{} for _ in range(n)]     # at[i][e]: the leads with x_i-exponent e
    for lead in gb.leads:
        for i, e in enumerate(lead):
            if e:
                at[i].setdefault(e, []).append(lead)
    out = []
    one = ring.zero_mono()
    stack = [] if one in gb.leads else [(one, 0)]
    while stack:
        mono, first = stack.pop()
        out.append(mono)
        for i in range(first, n):
            e = mono[i] + 1
            child = mono[:i] + (e,) + mono[i + 1:]
            if not any(mono_divides(lead, child) for lead in at[i].get(e, ())):
                stack.append((child, i))
    out.sort(key=lambda m: (ring.weighted_degree(m),) + ring.order_key(m))
    return out


class DimensionSeries:
    """Graded dimension counts keyed by weighted degree."""

    def __init__(self, dims=None):
        self.dims = {} if dims is None else dims

    def __repr__(self):
        return "DimensionSeries(%r)" % (self.dims,)

    @property
    def total(self):
        return sum(self.dims.values())

    def shifted(self, offset):
        return DimensionSeries({d + offset: c for d, c in self.dims.items()})

    def __getitem__(self, deg):
        return self.dims.get(deg, 0)

    def __eq__(self, other):
        if isinstance(other, DimensionSeries):
            other = other.dims
        return {d: c for d, c in self.dims.items() if c} == \
               {d: c for d, c in other.items() if c}


def graded_quotient_dims(gb):
    """Dimension of each weighted-degree piece of the quotient ring."""
    monos = standard_monomials(gb)
    dims = {}
    for m in monos:
        d = gb.ring.weighted_degree(m)
        dims[d] = dims.get(d, 0) + 1
    return DimensionSeries(dims)
