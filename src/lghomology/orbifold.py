"""Finite-abelian diagonal symmetries of Landau-Ginzburg models.

A group action assigns each variable a character exponent; group elements
scale variables by roots of unity.  Orbifold invariants are assembled
sector by sector: each group element contributes the canonical-module data
of the potential restricted to its fixed variables, tagged with characters,
and the final answer keeps the invariant part (equal to coinvariants away
from torsion in the group order).

Cross products of finite carriers with the group are also built here,
together with the chain-level map sending a cross-product tensor to its
per-sector restriction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product

from .errors import (BadCharacteristic, NonIsolatedSector, NotInvariant,
                     WindowTooSmall)
from .jacobi import LGModel, jacobi_ideal, socle_degree
from .linalg import CyclotomicField, Matrix, QQ, add_to
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
# Cross products of truncated monomial algebras with the group


class CrossProduct:
    """Cross product of k[x_i]/(x_i^{p_i}) with a diagonal abelian group.

    Basis elements are pairs (exponent tuple, group element), the truncated
    algebra's basis times the group, so (a # g) has index a's index times
    |G| plus g's; products follow (a # g)(b # h) = a (g.b) # gh with g
    acting by root-of-unity scalars.  The curvature is W # identity.  Every
    such scalar is ``roots[p]`` = zeta_L^p for an integer power p
    (``GroupAction.power``); ``chars`` holds the character of each base
    monomial and ``fixed`` the fixed locus of each group element.
    """

    def __init__(self, action, powers, potential_terms, field=None):
        from .hochschild import FiniteCurvedAlgebra
        self.action = action
        self.powers = tuple(powers)
        L = action.root_order
        if field is None:
            field = QQ if L == 1 else CyclotomicField(L)
        elif L > 1 and field != CyclotomicField(L):
            # the scalars are powers of a primitive L-th root of unity
            raise TypeError("a group of exponent %d acts over %r, not %r"
                            % (L, CyclotomicField(L), field))
        self.field = field
        self.roots = [field.one] + [field.zeta(p) for p in range(1, L)]
        self.potential_terms = {}
        for m, c in potential_terms.items():
            if isinstance(c, (int, Fraction)):
                c = field.from_fraction(c)
            elif c not in field:
                raise TypeError("potential coefficient %r is not in %r"
                                % (c, field))
            if c:
                self.potential_terms[tuple(m)] = c
        # the truncation is checked first, then the invariance
        base = FiniteCurvedAlgebra.truncated(self.powers, self.potential_terms,
                                             field)
        action.require_invariant(self.potential_terms)

        self.group = action.elements()
        self.fixed = {g: set(fixed_locus(action, g)) for g in self.group}
        self.chars = {m: action.monomial_character(m) for m in base.monomials}
        self.elements = [(m, g) for m in base.monomials for g in self.group]
        self.index = {e: i for i, e in enumerate(self.elements)}

        n = len(self.group)
        slot = {g: s for s, g in enumerate(self.group)}
        mult = {}
        for (i, j), prod in base.mult.items():
            char = self.chars[base.monomials[j]]
            for g in self.group:
                root = self.roots[action.power(g, char)]
                for h in self.group:
                    mult[(i * n + slot[g], j * n + slot[h])] = {
                        k * n + slot[action.char_add(g, h)]: c * root
                        for k, c in prod.items()}
        curvature = {i * n: c for i, c in base.curvature.items()}
        self.algebra = FiniteCurvedAlgebra(len(self.elements), mult, curvature,
                                           unit=0, field=field, check=True)

    def sector_algebra(self, g):
        """Curved algebra of the fixed subspace of g, over the same field.

        Returns the algebra, its basis monomials and their index map.
        """
        from .hochschild import FiniteCurvedAlgebra
        fv = self.fixed[g]
        powers = [p if v in fv else 1 for v, p in enumerate(self.powers)]
        curvature = {m: c for m, c in self.potential_terms.items()
                     if all(e < p for e, p in zip(m, powers))}
        alg = FiniteCurvedAlgebra.truncated(powers, curvature, self.field)
        return alg, alg.monomials, {m: i for i, m in enumerate(alg.monomials)}


def cross_product(action, powers, potential_terms, field=None):
    return CrossProduct(action, powers, potential_terms, field=field)


# ---------------------------------------------------------------------------
# The per-sector restriction of cross-product chains


def psi_matrices(cp, max_tensor):
    """Per-sector blocks of the sector-restriction map on a chain window.

    A cross-product tensor (m_0 # g_0 | .. | m_k # g_k) restricts to the
    sector of g = g_0 ... g_k as the base tensor (m_0 | .. | m_k) times
    zeta_L^p, where p sums power(g_0 ... g_{j-1}, char m_j) over the slots:
    each slot is rotated by the group parts before it.  It is killed when a
    monomial uses a variable that g does not fix.  The prefix product, p and
    the variables used are carried from each tensor of degree k - 1 to its
    extensions of degree k, so each slot is read once.

    Returns the cross-product window, ``sectors[g]`` = (chain window, base
    monomials, their index map) of each sector, and ``psi[g][k]``, the
    block from tensor degree k of the cross product to that of sector g.
    """
    from .hochschild import ChainWindow
    action = cp.action
    win = ChainWindow(cp.algebra, max_tensor, normalized=False)
    sectors = {}
    for g in cp.group:
        alg, keep, idx = cp.sector_algebra(g)
        sectors[g] = (ChainWindow(alg, max_tensor, normalized=False), keep, idx)
    monos = [m for m, _g in cp.elements]
    # step[h, i]: for element i = m # g after prefix h, the prefix h g, the
    # power m is rotated by, and the bit mask of the variables m uses
    step = {(h, i): (action.char_add(h, g), action.power(h, cp.chars[m]),
                     sum(1 << v for v, e in enumerate(m) if e))
            for h in cp.group for i, (m, g) in enumerate(cp.elements)}
    moved = {g: sum(1 << v for v in range(len(cp.powers))
                    if v not in cp.fixed[g]) for g in cp.group}
    carried = {(): (action.identity, 0, 0)}
    psi = {g: {} for g in cp.group}
    for k in range(max_tensor + 1):
        ent = {g: {} for g in cp.group}
        extended = {}
        for col, t in enumerate(win.bases[k]):
            h, power, used = carried[t[:-1]]
            g, turn, uses = step[h, t[-1]]
            g, power, used = extended[t] = g, power + turn, used | uses
            if not used & moved[g]:
                swin, _keep, idx = sectors[g]
                row = swin.index[k][tuple(idx[monos[i]] for i in t)]
                ent[g][(row, col)] = cp.roots[power % action.root_order]
        carried = extended
        for g, (swin, _keep, _idx) in sectors.items():
            psi[g][k] = Matrix(swin.dim(k), win.dim(k), cp.field, ent[g])
    return win, sectors, psi


def psi_chain_check(cp, max_tensor):
    """Exact commutation of the restriction map with both differentials.

    The sector differential is block diagonal, so each sector is checked
    on its own.  The insertion part must commute on the nose; the
    multiplication part after averaging over the group.  Averaging scales
    a tensor of total character c by (1/|G|) sum_h zeta^{power(h, c)},
    which is 1 when c is trivial and 0 otherwise, so it keeps exactly the
    rows of trivial character.
    """
    if max_tensor < 2:
        raise WindowTooSmall("need tensor degree at least 2")
    action = cp.action
    zero = action.identity
    win, sectors, psi = psi_matrices(cp, max_tensor)
    bm_c, bp_c = win.all_boundaries()
    for g, (swin, keep, _idx) in sectors.items():
        bm_s, bp_s = swin.all_boundaries()
        p = psi[g]
        for k in range(max_tensor):
            if p[k + 1] @ bp_c[k] != bp_s[k] @ p[k]:
                return False
        for k in range(1, max_tensor + 1):
            # a tensor's character is that of the product of its slots
            invariant = {r for r, t in enumerate(swin.bases[k - 1])
                         if action.monomial_character(
                             [sum(e) for e in zip(*(keep[i] for i in t))])
                         == zero}
            left = p[k - 1].select(lambda i, _j: i in invariant) @ bm_c[k]
            right = bm_s[k].select(lambda i, _j: i in invariant) @ p[k]
            if left != right:
                return False
    return True
