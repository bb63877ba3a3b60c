"""The cyclotomic field Q(zeta_d).

Cross products with a group of exponent d > 1 act through powers of a
primitive d-th root of unity, so their scalars live here.  Elements are
rational coordinates on the power basis 1, zeta, ..., zeta^(phi(d) - 1);
``linalg`` eliminates over this field on rows of field elements.  No
subcommand uses it, so the module loads only when something imports it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import Field


def _cyclotomic_coeffs(d):
    """Integer coefficients of the d-th cyclotomic polynomial, low degree
    first: x^d - 1 divided exactly by the monic Phi_e of each proper
    divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e:
            continue
        phi = _cyclotomic_coeffs(e)
        top = len(phi) - 1
        quotient = [0] * (len(poly) - top)
        for i in reversed(range(len(quotient))):
            c = quotient[i] = poly[i + top]
            for j, b in enumerate(phi):
                poly[i + j] -= c * b
        poly = quotient
    return poly


class CycElement:
    """Element of Q(zeta_d): rational coordinates on 1, zeta, ...,
    zeta^(phi(d) - 1)."""

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
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return self.field._power_sum(prod)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        # a^-1 = prod_j sigma_j(a) / N(a) over the units 1 < j < d, where
        # sigma_j sends zeta to zeta^j and N(a) = a prod_j sigma_j(a) is
        # rational.
        field = self.field
        conjugates = field.one
        for j in range(2, field.d):
            if gcd(j, field.d) == 1:
                spread = [0] * field.d
                for i, a in enumerate(self.coeffs):
                    spread[i * j % field.d] = a
                conjugates = conjugates * field._power_sum(spread)
        norm = (self * conjugates).coeffs[0]
        if not norm:
            raise ZeroDivisionError("element is zero in cyclotomic field")
        return CycElement([c / norm for c in conjugates.coeffs], field)

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


class CyclotomicField(Field):
    """Q(zeta_d) with zeta a primitive d-th root of unity.

    ``modulus`` is Phi_d, low degree first; ``_powers[k]`` holds the
    coordinates of zeta^k for k < d, each row the one before times zeta,
    with zeta^phi(d) replaced through the monic Phi_d.
    """

    characteristic = 0

    def __init__(self, d):
        self.d = d
        self.modulus = _cyclotomic_coeffs(d)
        self.degree = len(self.modulus) - 1
        row = [1] + [0] * (self.degree - 1)
        self._powers = []
        for _ in range(d):
            self._powers.append(row)
            top, row = row[-1], [0] + row[:-1]
            row = [r - top * m for r, m in zip(row, self.modulus)]
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def _power_sum(self, coeffs):
        """The element sum_k coeffs[k] zeta^k, for any k, since zeta^d = 1."""
        out = [Fraction(0)] * self.degree
        for k, c in enumerate(coeffs):
            if c:
                for i, r in enumerate(self._powers[k % self.d]):
                    if r:
                        out[i] += c * r
        return CycElement(out, self)

    def from_int(self, n):
        return CycElement([Fraction(n)] + [Fraction(0)] * (self.degree - 1), self)

    def from_fraction(self, q):
        return CycElement([Fraction(q)] + [Fraction(0)] * (self.degree - 1), self)

    def zeta(self, power=1):
        return CycElement(map(Fraction, self._powers[power % self.d]), self)

    def __repr__(self):
        return "QQ(zeta_%d)" % self.d

    def __contains__(self, c):
        return isinstance(c, CycElement) and c.field == self

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.d == self.d

    def __hash__(self):
        return hash(("cyc", self.d))
