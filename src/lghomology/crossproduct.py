"""Cross products of truncated monomial algebras with a diagonal group,
and the chain-level map sending a cross-product tensor to its per-sector
restriction.

``orbifold.cross_product`` builds a ``CrossProduct``; ``psi_matrices``
assembles the restriction map on a chain window and ``psi_chain_check``
verifies that it commutes with both differentials.  No subcommand runs
them, so the module loads only when something calls them.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CyclotomicField
from .errors import WindowTooSmall
from .hochschild import ChainWindow, FiniteCurvedAlgebra
from .linalg import Matrix, QQ
from .orbifold import fixed_locus


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
        fv = self.fixed[g]
        powers = [p if v in fv else 1 for v, p in enumerate(self.powers)]
        curvature = {m: c for m, c in self.potential_terms.items()
                     if all(e < p for e, p in zip(m, powers))}
        alg = FiniteCurvedAlgebra.truncated(powers, curvature, self.field)
        return alg, alg.monomials, {m: i for i, m in enumerate(alg.monomials)}


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
