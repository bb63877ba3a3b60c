"""Finite-abelian diagonal symmetries of Landau-Ginzburg models.

A group action assigns each variable a character exponent; group elements
scale variables by roots of unity.  Orbifold invariants are assembled
sector by sector: each group element contributes the canonical-module data
of the potential restricted to its fixed variables, tagged with characters,
and the final answer keeps the invariant part (equal to coinvariants away
from torsion in the group order).

Cross products of finite carriers with the group, and the chain-level
map sending a cross-product tensor to its per-sector restriction, live in
``crossproduct``: no subcommand builds them, so ``cross_product`` loads
that module on its first call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product

from .errors import BadCharacteristic, NonIsolatedSector, NotInvariant
from .jacobi import LGModel, jacobi_ideal, socle_degree
from .linalg import QQ, add_to
from .poly import (PolyRing, Polynomial, is_zero_dimensional,
                   standard_monomials)

# ---------------------------------------------------------------------------
# Group actions


class GroupAction:
    """Diagonal action of a product of cyclic groups on the variables.

    ``orders`` lists the cyclic orders; ``weights[v]`` gives the character
    exponents of variable v, one per cyclic factor.  Elements are exponent
    tuples of the same length as ``orders``.  A value type: equal orders
    and weights give equal actions.
    """

    def __init__(self, orders, weights):
        for w in weights:
            if len(w) != len(orders):
                raise ValueError("weight tuple length must match the orders")
        self.orders = orders
        self.weights = weights  # per variable, tuple of exponents per factor
        self.root_order = math.lcm(*orders)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.orders == other.orders and self.weights == other.weights

    def __hash__(self):
        return hash((self.orders, self.weights))

    def __repr__(self):
        return "GroupAction(%r, %r)" % (self.orders, self.weights)

    @classmethod
    def cyclic(cls, d, weights):
        """Single cyclic factor of order d with integer variable weights."""
        return cls((d,), tuple((w % d,) for w in weights))

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        return list(iter_product(*(range(d) for d in self.orders)))

    @property
    def order(self):
        return math.prod(self.orders)

    def char_add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def char_scale(self, a, n):
        return tuple((x * n) % d for x, d in zip(a, self.orders))

    def monomial_character(self, mono):
        """Character exponents of a monomial under the diagonal action."""
        out = self.identity
        for v, e in enumerate(mono):
            if e:
                out = self.char_add(out, self.char_scale(self.weights[v], e))
        return out

    def power(self, g, character):
        """Exponent p in [0, L) such that g scales a vector of the character
        by zeta_L^p, where L is the lcm of the orders (``root_order``)."""
        L = self.root_order
        return sum(gi * ci * (L // d) for gi, ci, d
                   in zip(g, character, self.orders)) % L

    def is_invariant(self, monomials):
        """Whether every monomial, an exponent tuple, has trivial character."""
        zero = self.identity
        return all(self.monomial_character(m) == zero for m in monomials)

    def require_invariant(self, monomials):
        if not self.is_invariant(monomials):
            raise NotInvariant("potential is not fixed by the action")


def fixed_locus(action, g):
    """Indices of the variables fixed by the group element."""
    return tuple(v for v, w in enumerate(action.weights)
                 if action.power(g, w) == 0)


def restrict_potential(model, fixed_vars):
    """Model on the fixed variables with the others set to zero."""
    ring = model.ring
    keep = set(fixed_vars)
    sub_names = tuple(ring.names[v] for v in fixed_vars)
    sub_weights = tuple(ring.weights[v] for v in fixed_vars)
    sub_ring = PolyRing(sub_names, sub_weights, field=ring.field)
    terms = {}
    for mono, c in model.potential.terms.items():
        if any(e and v not in keep for v, e in enumerate(mono)):
            continue
        add_to(terms, tuple(mono[v] for v in fixed_vars), c)
    poly = Polynomial(sub_ring, terms)
    if not poly or poly.degree() < 1:
        return sub_ring, None
    return sub_ring, LGModel(sub_ring, poly)


# ---------------------------------------------------------------------------
# Sectors


class SectorReport:
    """Contribution of one group element.

    ``classes`` lists (shifted degree, character) pairs; the parity is the
    fixed-space dimension mod 2.
    """

    def __init__(self, g, fixed_vars, restricted, classes, parity):
        self.g = g
        self.fixed_vars = fixed_vars
        self.restricted = restricted    # LGModel or None for point sectors
        self.classes = classes
        self.parity = parity

    @property
    def dim(self):
        return len(self.classes)


def sector_hh_bm(model, action, g):
    """Canonical-module classes of one sector, tagged with characters.

    Each class of the restricted potential's top-form quotient carries the
    character of its monomial plus the volume twist (sum of fixed-variable
    weights).  A zero-dimensional fixed locus contributes one class with
    the trivial character.
    """
    fv = fixed_locus(action, g)
    sub_ring, restricted = restrict_potential(model, fv)
    parity = len(fv) % 2
    if not fv:
        return SectorReport(g, fv, None, [(0, action.identity)], 0)
    if restricted is None:
        raise NonIsolatedSector(
            "restricted potential vanishes on a positive-dimensional locus")
    gb = jacobi_ideal(restricted)
    if not is_zero_dimensional(gb):
        raise NonIsolatedSector("restricted critical locus is not isolated")
    shift = restricted.weight_sum
    classes = []
    for mono in standard_monomials(gb):
        # the class is mono times the volume form of the fixed variables
        lifted = [0] * len(action.weights)
        for pos, v in enumerate(fv):
            lifted[v] = mono[pos] + 1
        classes.append((sub_ring.weighted_degree(mono) + shift,
                        action.monomial_character(lifted)))
    classes.sort()
    return SectorReport(g, fv, restricted, classes, parity)


def coinvariant_dims(classes, action, field=QQ):
    """Number of invariant classes; equals coinvariants away from torsion."""
    char = field.characteristic
    if char and action.order % char == 0:
        raise BadCharacteristic(
            "group order %d is divisible by the characteristic" % action.order)
    zero = action.identity
    return sum(1 for _deg, c in classes if c == zero)


class OrbifoldReport:
    def __init__(self, sectors, invariant_counts, combined, even_total,
                 odd_total, twisted_count):
        self.sectors = sectors
        self.invariant_counts = invariant_counts  # g -> invariant class count
        # class degree (identity-sector Jacobi degree) -> dim
        self.combined = combined
        self.even_total = even_total
        self.odd_total = odd_total
        self.twisted_count = twisted_count

    @property
    def total(self):
        return sum(self.invariant_counts.values())


def orbifold_hh_bm(model, action):
    """Assembled orbifold invariants over all sectors.

    Identity-sector invariant classes are graded by their Jacobi degree;
    twisted-sector classes are placed in the middle column (half the socle
    degree), a convention following the quartic example.
    """
    action.require_invariant(model.potential.terms)
    zero = action.identity
    sectors = []
    invariant_counts = {}
    combined = {}
    even = odd = 0
    twisted = 0
    middle = Fraction(socle_degree(model), 2)
    for g in action.elements():
        sec = sector_hh_bm(model, action, g)
        sectors.append(sec)
        inv = coinvariant_dims(sec.classes, action, model.ring.field)
        invariant_counts[g] = inv
        if sec.parity == 0:
            even += inv
        else:
            odd += inv
        if g == action.identity:
            shift = sec.restricted.weight_sum if sec.restricted else 0
            for deg, c in sec.classes:
                if c == zero:
                    key = Fraction(deg - shift)
                    combined[key] = combined.get(key, 0) + 1
        else:
            twisted += inv
            if inv:
                combined[middle] = combined.get(middle, 0) + inv
    return OrbifoldReport(sectors, invariant_counts, combined, even, odd,
                          twisted)


# ---------------------------------------------------------------------------
# Cross products


def cross_product(action, powers, potential_terms, field=None):
    """The cross product of k[x_i]/(x_i^{p_i}) with the group
    (``crossproduct.CrossProduct``); no subcommand builds one, so its
    module loads on the first call."""
    from .crossproduct import CrossProduct
    return CrossProduct(action, powers, potential_terms, field=field)
