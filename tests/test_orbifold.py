"""Group actions, sector localization, and cross-product restriction maps."""

from fractions import Fraction

import pytest

from conftest import make_model
from lghomology import crossproduct
from lghomology.crossproduct import psi_chain_check, psi_matrices
from lghomology.cyclotomic import CyclotomicField
from lghomology.errors import (BadCharacteristic, NonIsolatedSector,
                               NotInvariant, WindowTooSmall)
from lghomology.linalg import PrimeField, QQ
from lghomology.orbifold import (GroupAction, coinvariant_dims, cross_product,
                                 fixed_locus, orbifold_hh_bm,
                                 restrict_potential, sector_hh_bm)


def quartic_setup():
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    action = GroupAction.cyclic(4, (1, 1, 1, 1))
    return model, action


def cubic_setup():
    model = make_model("x^3+y^3+z^3", "xyz")
    action = GroupAction.cyclic(3, (1, 1, 1))
    return model, action


# ---------------------------------------------------------------------------
# Group actions and fixed loci


def test_group_action_basics():
    _, action = quartic_setup()
    assert action.order == 4
    assert len(action.elements()) == 4
    assert action.identity == (0,)
    assert action.monomial_character((4, 0, 0, 0)) == (0,)
    assert action.monomial_character((1, 1, 1, 0)) == (3,)


def test_group_action_is_a_value_type():
    a = GroupAction.cyclic(4, (1, 1, 5, 1))
    b = GroupAction((4,), ((1,), (1,), (1,), (1,)))
    assert a == b and hash(a) == hash(b)
    assert a != GroupAction.cyclic(4, (1, 1, 1, 3))
    with pytest.raises(ValueError):
        GroupAction((4, 2), ((1,), (1,)))


def test_fixed_locus():
    _, action = quartic_setup()
    assert fixed_locus(action, (0,)) == (0, 1, 2, 3)
    for g in ((1,), (2,), (3,)):
        assert fixed_locus(action, g) == ()


def test_character_orthogonality():
    # averaging zeta^(jc) over Z/d keeps exactly the trivial characters
    for d in range(2, 9):
        field = CyclotomicField(d)
        for c in range(-d, 2 * d + 1):
            total = field.zero
            for j in range(d):
                total = total + field.zeta(j * c)
            assert total == field.from_int(d if c % d == 0 else 0)


def test_power_on_a_product_of_cyclic_groups():
    # L = lcm(2, 3) = 6 differs from both orders
    action = GroupAction((2, 3), ((1, 1), (0, 2)))
    assert action.root_order == 6
    assert action.power((1, 0), (1, 1)) == 3
    assert action.power((0, 1), (1, 1)) == 2
    assert action.power((1, 2), (1, 1)) == 1
    assert action.power((1, 2), (0, 2)) == 2


def test_invariance():
    model, action = quartic_setup()
    assert action.is_invariant(model.potential.terms)
    bad = make_model("x^3+y^4+z^4+w^4", "xyzw")
    assert not action.is_invariant(bad.potential.terms)


def test_restrict_potential():
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    sub_ring, restricted = restrict_potential(model, (0, 1))
    assert sub_ring.names == ("x", "y")
    assert restricted is not None
    assert restricted.potential.degree() == 4
    _, nothing = restrict_potential(model, ())
    assert nothing is None


# ---------------------------------------------------------------------------
# Sector classes


def test_identity_sector_of_quartic():
    model, action = quartic_setup()
    sec = sector_hh_bm(model, action, action.identity)
    assert sec.dim == 81
    assert sec.parity == 0
    inv = coinvariant_dims(sec.classes, action)
    # invariant subspace of the quotient ring has dimension 21
    assert inv == 21


def test_point_sector_of_quartic():
    model, action = quartic_setup()
    sec = sector_hh_bm(model, action, (1,))
    assert sec.fixed_vars == ()
    assert sec.parity == 0
    assert sec.classes == [(0, (0,))]


def test_sector_character_shift():
    model, action = quartic_setup()
    sec = sector_hh_bm(model, action, action.identity)
    # classes carry monomial character plus the volume twist 1+1+1+1 = 0
    degrees = [deg for deg, _ in sec.classes]
    assert min(degrees) == 4 and max(degrees) == 12
    lowest = [c for deg, c in sec.classes if deg == 4]
    assert lowest == [(0,)]


def test_non_isolated_sector_raises():
    model = make_model("x^2*y+y^2*x", "xy")
    action = GroupAction.cyclic(2, (0, 1))
    with pytest.raises(NonIsolatedSector):
        sector_hh_bm(model, action, (1,))


def test_coinvariants_bad_characteristic():
    _, action = quartic_setup()
    with pytest.raises(BadCharacteristic):
        coinvariant_dims([(0, (0,))], action, PrimeField(2))


# ---------------------------------------------------------------------------
# Assembled orbifold reports


def test_quartic_orbifold_report():
    model, action = quartic_setup()
    rep = orbifold_hh_bm(model, action)
    assert rep.twisted_count == 3
    assert rep.even_total == 24
    assert rep.odd_total == 0
    # the columns read (1, 22, 1) after merging the twisted classes into
    # the middle (half the socle degree, here 4)
    assert rep.combined[Fraction(0)] == 1
    assert rep.combined[Fraction(4)] == 22
    assert rep.combined[Fraction(8)] == 1
    assert rep.total == 24


def test_cubic_orbifold_report():
    model, action = cubic_setup()
    rep = orbifold_hh_bm(model, action)
    assert rep.twisted_count == 2
    assert rep.even_total == 2
    assert rep.odd_total == 2


def test_univariate_twisted_count_matches_degree():
    for d in (3, 4, 5):
        model = make_model("x^%d" % d, "x")
        action = GroupAction.cyclic(d, (1,))
        rep = orbifold_hh_bm(model, action)
        assert rep.twisted_count == d - 1


def test_report_consistency():
    model, action = quartic_setup()
    rep = orbifold_hh_bm(model, action)
    assert rep.even_total + rep.odd_total == rep.total
    assert sum(rep.combined.values()) == rep.total
    assert rep.twisted_count == sum(
        rep.invariant_counts[g] for g in action.elements()
        if g != action.identity)


def test_rejects_non_invariant_potential():
    model = make_model("x^3", "x")
    action = GroupAction.cyclic(2, (1,))
    with pytest.raises(NotInvariant):
        orbifold_hh_bm(model, action)


# ---------------------------------------------------------------------------
# Cross products


def test_cross_product_multiplication_rule():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (2,), {(0,): 0})
    # (x # g) * (x # 0) picks up the sign of g acting on x
    i = cp.index[((1,), (1,))]
    j = cp.index[((1,), (0,))]
    assert cp.algebra.product(i, j) == {}
    i = cp.index[((0,), (1,))]
    out = cp.algebra.product(i, j)
    k = cp.index[((1,), (1,))]
    assert out == {k: cp.field.from_int(-1)}


def test_cross_product_rejects_non_invariant_curvature():
    action = GroupAction.cyclic(2, (1,))
    with pytest.raises(NotInvariant):
        cross_product(action, (2,), {(1,): 1})


@pytest.mark.parametrize("action, powers", [
    (GroupAction.cyclic(2, (1,)), (2,)),
    (GroupAction.cyclic(4, (1,)), (4,)),
    (GroupAction((2, 3), ((1, 1), (0, 2))), (2, 2)),
], ids=["z2-x2", "z4-x4", "z2xz3-2-2"])
def test_cross_product_matches_the_twisted_multiplication(action, powers):
    cp = cross_product(action, powers, {})
    ref = {}
    for i, (a, g) in enumerate(cp.elements):
        for j, (b, h) in enumerate(cp.elements):
            ab = tuple(x + y for x, y in zip(a, b))
            if all(e < p for e, p in zip(ab, powers)):
                twist = action.power(g, action.monomial_character(b))
                k = cp.index[(ab, action.char_add(g, h))]
                ref[(i, j)] = {k: cp.field.zeta(twist)}
    assert cp.algebra.mult == ref


def test_cross_product_checks_the_truncation_before_the_invariance():
    # x^2 lies outside k[x]/x^2 and Z/4 does not fix it
    with pytest.raises(ValueError):
        cross_product(GroupAction.cyclic(4, (1,)), (2,), {(2,): 1})


def test_cross_product_trivial_group_is_plain_algebra():
    action = GroupAction.cyclic(1, (0,))
    cp = cross_product(action, (3,), {(2,): 1})
    assert cp.field is QQ
    assert cp.algebra.dim == 3


def test_cross_product_field_coefficients():
    gf7 = PrimeField(7)
    trivial = GroupAction.cyclic(1, (0,))
    cp = cross_product(trivial, (3,), {(2,): gf7.from_int(3), (1,): 7},
                       field=gf7)
    assert cp.potential_terms == {(2,): gf7.from_int(3)}
    # an element of another field is rejected, not mixed in
    with pytest.raises(TypeError):
        cross_product(GroupAction.cyclic(2, (1,)), (3,),
                      {(2,): gf7.from_int(3)})
    # a nontrivial group needs its own roots of unity, not another field's
    for field in (gf7, CyclotomicField(3), CyclotomicField(4)):
        with pytest.raises(TypeError):
            cross_product(GroupAction.cyclic(2, (1,)), (3,), {}, field=field)


def psi_image(cp, chain):
    """(sector, scalar, base tensor) of a cross-product basis tensor under
    the sector restriction, read off ``psi_matrices``; None when killed."""
    k = len(chain) - 1
    win, sectors, psi = psi_matrices(cp, k)
    col = win.index[k][chain]
    hits = [(g, row, v) for g in cp.group
            for (row, c), v in psi[g][k].entries.items() if c == col]
    if not hits:
        return None
    [(g, row, scalar)] = hits
    swin, keep, _idx = sectors[g]
    return g, scalar, tuple(keep[i] for i in swin.bases[k][row])


def test_psi_map_examples():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (2,), {(0,): 0})
    # a pure identity-sector tensor restricts with scalar one
    chain = (cp.index[((1,), (0,))], cp.index[((1,), (0,))])
    g, scalar, monos = psi_image(cp, chain)
    assert g == (0,)
    assert scalar == cp.field.one
    assert monos == ((1,), (1,))
    # odd total sector fixes nothing: tensors carrying x are killed
    chain = (cp.index[((1,), (1,))], cp.index[((0,), (0,))])
    assert psi_image(cp, chain) is None


def test_psi_map_rotation_scalar():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (2,), {(0,): 0})
    # prefix g rotates the later slot: (1 # g) | (x # g) since total is even
    chain = (cp.index[((0,), (1,))], cp.index[((1,), (1,))])
    g, scalar, monos = psi_image(cp, chain)
    assert g == (0,)
    assert scalar == cp.field.from_int(-1)
    assert monos == ((0,), (1,))


def test_psi_chain_commutation():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (2,), {(0,): 0})
    assert psi_chain_check(cp, 4)


def test_psi_chain_commutation_with_curvature():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (3,), {(2,): 1})
    assert psi_chain_check(cp, 3)


def test_psi_chain_commutation_order_four():
    action = GroupAction.cyclic(4, (1,))
    cp = cross_product(action, (4,), {(0,): 0})
    assert psi_chain_check(cp, 3)


def test_psi_chain_commutation_product_group():
    # L = 6 differs from both orders
    action = GroupAction((2, 3), ((1, 1), (0, 2)))
    assert fixed_locus(action, (0, 0)) == (0, 1)
    assert fixed_locus(action, (1, 0)) == (1,)
    for g in ((0, 1), (0, 2), (1, 1), (1, 2)):
        assert fixed_locus(action, g) == ()
    cp = cross_product(action, (2, 2), {})
    assert cp.field == CyclotomicField(6)
    assert psi_chain_check(cp, 2)


def test_psi_chain_trivial_group():
    action = GroupAction.cyclic(1, (0,))
    cp = cross_product(action, (2,), {(1,): 1})
    assert psi_chain_check(cp, 4)


def test_psi_chain_corruption_detected(monkeypatch):
    # the canary needs nonzero curvature so the insertion-part comparison
    # sees one corrupted and one clean restriction matrix
    clean = crossproduct.psi_matrices

    def corrupted(cp, max_tensor):
        *rest, blocks = clean(cp, max_tensor)
        return (*rest, {g: {k: m if k == 0 else -m for k, m in mats.items()}
                        for g, mats in blocks.items()})

    monkeypatch.setattr(crossproduct, "psi_matrices", corrupted)
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (3,), {(2,): 1})
    assert not psi_chain_check(cp, 3)


def test_psi_chain_window_guard():
    action = GroupAction.cyclic(2, (1,))
    cp = cross_product(action, (2,), {(0,): 0})
    with pytest.raises(WindowTooSmall):
        psi_chain_check(cp, 1)
