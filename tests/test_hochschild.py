"""Curved chain and cochain complexes and their windowed homology."""

from fractions import Fraction

import pytest

from conftest import make_model
from lghomology.errors import (BadFunctional, InfiniteCarrier,
                               PositiveDegreeCarrier, WindowTooSmall)
from lghomology.hochschild import (BicomplexWindow, ChainWindow,
                                   CochainWindow, FiniteCurvedAlgebra,
                                   PureCurvatureSpace, bar_minus, bar_plus,
                                   bm_spot_homology, cochain_diff,
                                   compact_type_check,
                                   hh_bm_graded, hh_ordinary,
                                   mixed_complex_check, poly_boundary_minus,
                                   poly_boundary_plus, vanishing_homotopy,
                                   vanishing_homotopy_cochain)
from lghomology.jacobi import canonical_module
from lghomology.linalg import QQ, Matrix


def trunc(power, curvature, **kw):
    return FiniteCurvedAlgebra.truncated_polynomial(power, curvature, **kw)


# ---------------------------------------------------------------------------
# Mixed-complex identities on finite carriers


def test_mixed_identities_truncated_square():
    # k[x]/(x^2) with curvature x
    alg = trunc(2, {1: 1})
    assert mixed_complex_check(alg, 5)


def test_mixed_identities_truncated_cube_with_curvature():
    # k[x]/(x^3) with curvature x^2 (a central even element)
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    assert mixed_complex_check(alg, 5)


def test_mixed_identities_mixed_parity_carrier():
    alg = FiniteCurvedAlgebra.graded_points([-1])
    assert mixed_complex_check(alg, 5)


def negate_first_entry(m):
    ent = dict(m.entries)
    first = sorted(ent)[0]
    ent[first] = -ent[first]
    return Matrix(m.rows, m.cols, m.field, ent)


def test_corruption_canary_detected(monkeypatch):
    clean = ChainWindow.all_boundaries

    def corrupted(win):
        bm, bp = clean(win)
        mid = max(k for k in bp if bp[k].entries)
        bp[mid] = negate_first_entry(bp[mid])
        return bm, bp

    monkeypatch.setattr(ChainWindow, "all_boundaries", corrupted)
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    assert not mixed_complex_check(alg, 5)


def test_window_too_small():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    with pytest.raises(WindowTooSmall):
        mixed_complex_check(alg, 2)


def test_engine_lookup_misses_raise():
    # only the unit in a slot after the zeroth may be missing from a target
    alg = trunc(3, {2: 1})
    win = ChainWindow(alg, 3)
    with pytest.raises(KeyError):
        bar_minus(win.bases[2], {}, alg.product, None, alg.field, alg.unit)
    with pytest.raises(KeyError):
        bar_plus(win.bases[1], {}, alg.curvature, 0, None, alg.field, alg.unit)


def test_chain_window_square_zero_each_part():
    alg = FiniteCurvedAlgebra.truncated_polynomial(4, {3: 1})
    win = ChainWindow(alg, 5)
    bm, bp = win.all_boundaries()
    for k in range(2, 5):
        assert (bm[k - 1] @ bm[k]).is_zero()
    for k in range(4):
        assert (bp[k + 1] @ bp[k]).is_zero()


# ---------------------------------------------------------------------------
# Contracting homotopies in the pure-curvature setting


def test_chain_homotopy_identity():
    space = PureCurvatureSpace(3, {1: QQ.one, 2: QQ.from_int(2)})
    L = {1: QQ.one}
    h = vanishing_homotopy(space, L, 6)
    assert set(h) == set(range(7))


def test_cochain_homotopy_identity():
    space = PureCurvatureSpace(3, {1: QQ.one, 2: QQ.from_int(2)})
    L = {2: QQ.one}
    vanishing_homotopy_cochain(space, L, 6)


def test_homotopy_rejects_vanishing_functional():
    space = PureCurvatureSpace(2, {1: QQ.one})
    with pytest.raises(BadFunctional):
        vanishing_homotopy(space, {0: QQ.one}, 4)
    with pytest.raises(BadFunctional):
        vanishing_homotopy_cochain(space, {0: QQ.one}, 4)


def test_homotopy_unnormalized_functional_is_rescaled():
    space = PureCurvatureSpace(2, {1: QQ.from_int(3)})
    vanishing_homotopy(space, {1: QQ.from_int(5)}, 4)


# ---------------------------------------------------------------------------
# Cochain complex identities


def test_cochain_differential_squares():
    for alg in (FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1}),
                FiniteCurvedAlgebra.graded_points([-1])):
        d_mult, d_curv = cochain_diff(alg, 4)
        for i in range(3):
            assert (d_mult[i + 1] @ d_mult[i]).is_zero()
        for i in range(2, 5):
            assert (d_curv[i - 1] @ d_curv[i]).is_zero()
        for i in range(1, 4):
            anti = d_curv[i + 1] @ d_mult[i] + d_mult[i - 1] @ d_curv[i]
            assert anti.is_zero()


def test_cochain_requires_finite_carrier():
    with pytest.raises(InfiniteCarrier):
        CochainWindow(object(), 3)


# ---------------------------------------------------------------------------
# Ordinary (direct-sum) homology: total vanishing


def test_ordinary_homology_vanishes_x2():
    alg = FiniteCurvedAlgebra.truncated_polynomial(2, {1: 1})
    rep = hh_ordinary(alg, max_tensor=10)
    assert rep.dims == {0: 0, 1: 0}


def test_ordinary_homology_vanishes_x3():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    rep = hh_ordinary(alg, max_tensor=10)
    assert rep.dims == {0: 0, 1: 0}


def test_ordinary_rejects_flat_algebra():
    alg = FiniteCurvedAlgebra.truncated_polynomial(2, {})
    with pytest.raises(ValueError):
        hh_ordinary(alg)


# ---------------------------------------------------------------------------
# Graded polynomial backend and Borel-Moore homology


def test_poly_boundary_squares():
    model = make_model("x^2+y^2", "xy")
    ring = model.ring
    for D in (2, 3):
        for k in (2, 3):
            a = poly_boundary_minus(ring, k - 1, D)
            b = poly_boundary_minus(ring, k, D)
            assert (a @ b).is_zero()
    for k in (0, 1, 2):
        up = poly_boundary_plus(model, k + 1, 2 + model.degree)
        lo = poly_boundary_plus(model, k, 2)
        assert (up @ lo).is_zero()


def test_bm_matches_canonical_module():
    for src, names in (("x^2", "x"), ("x^3", "x"), ("x^2+y^2", "xy")):
        model = make_model(src, names)
        can = canonical_module(model)
        degrees = sorted(can.dims.dims)
        rep = hh_bm_graded(model, degrees, max_r=5)
        for e in degrees:
            assert rep.dims[(e, can.parity)] == can.dims[e]
            assert rep.dims.get((e, 1 - can.parity), 0) == 0


def test_bm_zero_outside_support():
    model = make_model("x^2", "x")
    rep = hh_bm_graded(model, [0, 3], max_r=5)
    assert all(v == 0 for v in rep.dims.values())


def test_bm_spot_homology_direct():
    model = make_model("x^3", "x")
    # canonical module of x^3 sits in degrees 1 and 2, odd parity
    assert bm_spot_homology(model, 1, 1) == 1
    assert bm_spot_homology(model, 1, 2) == 1


def test_bm_ranks_each_differential_once(monkeypatch):
    import lghomology.hochschild as hochschild
    import lghomology.linalg as linalg

    built = {}      # id(matrix) -> (n, q); the matrices are kept alive
    real_diff, real_rank = hochschild._bm_differential, linalg.rank

    def differential(model, n, q):
        m = real_diff(model, n, q)
        built[id(m)] = (m, (n, q))
        return m

    ranked = []

    def counting_rank(m, *rest):
        ranked.append(built[id(m)][1])
        return real_rank(m, *rest)

    monkeypatch.setattr(hochschild, "_bm_differential", differential)
    monkeypatch.setattr(linalg, "rank", counting_rank)
    model = make_model("x^3+y^3", "xy")
    rep = hh_bm_graded(model, [2, 3, 4], max_r=5)
    assert rep.dims == {(2, 0): 1, (3, 0): 2, (4, 0): 1,
                        (2, 1): 0, (3, 1): 0, (4, 1): 0}
    # both parities at shift r use the differential at (2 + 2r + 1, q)
    assert (3, 3) in ranked and (5, 6) in ranked
    assert len(ranked) == len(set(ranked))


# ---------------------------------------------------------------------------
# Compact type


def test_compact_type_graded_points():
    assert compact_type_check(FiniteCurvedAlgebra.graded_points([-1]),
                              max_internal=3)
    assert compact_type_check(FiniteCurvedAlgebra.graded_points([-1, -2]),
                              max_internal=2)


def test_compact_type_truncated_generator():
    alg = FiniteCurvedAlgebra.truncated_polynomial(2, {}, generator_degree=-2)
    assert compact_type_check(alg, max_internal=2)


def test_compact_type_guards():
    with pytest.raises(PositiveDegreeCarrier):
        compact_type_check(FiniteCurvedAlgebra.truncated_polynomial(2, {}))
    with pytest.raises(PositiveDegreeCarrier):
        compact_type_check(FiniteCurvedAlgebra.graded_points([1]))


# ---------------------------------------------------------------------------
# Bicomplex windows


def test_bicomplex_window_squares():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    win = BicomplexWindow.build(alg, 0, 3, 0, 4)
    assert win.check_squares()
    # tamper with an interior horizontal block and confirm detection
    key = (2, 3)
    assert win.horizontal[key].entries
    win.horizontal[key] = negate_first_entry(win.horizontal[key])
    assert not win.check_squares()


# ---------------------------------------------------------------------------
# Carrier construction sanity


def test_truncated_polynomial_structure():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    assert alg.dim == 3
    assert alg.product(1, 1) == {2: alg.field.one}
    assert alg.product(1, 2) == {}
    assert alg.curvature == {2: alg.field.one}


def test_graded_points_parities():
    alg = FiniteCurvedAlgebra.graded_points([-1, -2])
    assert alg.parity(0) == 0          # the unit
    assert alg.parity(1) == 1
    assert alg.parity(2) == 0
