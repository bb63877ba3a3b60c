"""Curved chain and cochain complexes and their windowed homology."""

from fractions import Fraction
from itertools import pairwise

import pytest

from conftest import make_model, record_eliminations
from lghomology.errors import (BadFunctional, InfiniteCarrier,
                               ParityViolation, PositiveDegreeCarrier,
                               UnitCurvature, WindowTooLarge, WindowTooSmall)
from lghomology.cochains import (CochainWindow, compact_type_check,
                                 vanishing_homotopy_cochain)
from lghomology.hochschild import (ChainWindow, FiniteCurvedAlgebra,
                                   HomologyReport, MIN_TENSOR_WINDOW,
                                   _contract, bar_minus, bar_plus,
                                   bm_spot_homology, check_bm_window,
                                   check_window, hh_bm_graded, hh_ordinary,
                                   mixed_complex_check,
                                   ordinary_differential, poly_boundary_minus,
                                   poly_boundary_plus, poly_chain_basis,
                                   vanishing_homotopy)
from lghomology.jacobi import canonical_module
from lghomology.linalg import QQ, Matrix, PrimeField, homology_dim, rank
from lghomology.orbifold import GroupAction, cross_product


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
# Contracting homotopies on zero-product carriers


def zero_product(dim, curvature):
    """k^dim with the zero product, no unit and curvature W."""
    return FiniteCurvedAlgebra(dim, {}, curvature, unit=None, check=False)


def test_chain_homotopy_identity():
    space = zero_product(3, {1: QQ.one, 2: QQ.from_int(2)})
    L = {1: QQ.one}
    h = vanishing_homotopy(space, L, 6)
    assert set(h) == set(range(7))


def test_cochain_homotopy_identity():
    space = zero_product(3, {1: QQ.one, 2: QQ.from_int(2)})
    L = {2: QQ.one}
    vanishing_homotopy_cochain(space, L, 6)


def test_homotopy_rejects_vanishing_functional():
    space = zero_product(2, {1: QQ.one})
    with pytest.raises(BadFunctional):
        vanishing_homotopy(space, {0: QQ.one}, 4)
    with pytest.raises(BadFunctional):
        vanishing_homotopy_cochain(space, {0: QQ.one}, 4)


def test_homotopy_rejects_zero_curvature():
    space = zero_product(2, {0: QQ.zero, 1: QQ.zero})
    assert space.curvature == {}
    with pytest.raises(BadFunctional):
        vanishing_homotopy(space, {0: QQ.one, 1: QQ.one}, 4)


def test_homotopy_unnormalized_functional_is_rescaled():
    space = zero_product(2, {1: QQ.from_int(3)})
    vanishing_homotopy(space, {1: QQ.from_int(5)}, 4)


def homotopy_carriers():
    """Carriers of every kind, each with a functional L, L(W) != 0."""
    f7 = PrimeField(7)
    algebras = [
        FiniteCurvedAlgebra.truncated(powers, {m: field.from_int(c)
                                               for m, c in curv.items()},
                                      field, degrees)
        for powers, curv, field, degrees in (
            ((3,), {(2,): 3}, QQ, None),
            ((4,), {(2,): 5}, QQ, None),
            ((4,), {(2,): 1, (3,): 2}, QQ, None),
            ((2, 3), {(1, 1): 1}, QQ, None),
            ((3, 3), {(2, 0): 1, (0, 2): -1}, QQ, None),
            ((4,), {(2,): 3}, f7, None),
            ((3,), {(0,): 1}, QQ, None),               # W a multiple of 1
            ((3, 3), {(2, 0): 1, (0, 2): 1}, QQ, (1, 1)))]
    algebras.append(cross_product(GroupAction.cyclic(2, (1,)), (3,),
                                  {(2,): 1}).algebra)
    for alg in algebras:
        first = min(alg.curvature)
        # nonzero off the curvature too, so that every slot is paired
        L = {b: alg.field.from_int(b + 1) for b in range(alg.dim)
             if b == first or b not in alg.curvature}
        yield alg, L


def test_homotopy_contracts_every_carrier():
    for alg, L in homotopy_carriers():
        h = vanishing_homotopy(alg, L, 4)
        assert set(h) == set(range(5))
        hc = vanishing_homotopy_cochain(alg, L, 3)
        assert set(hc) == set(range(4))


def test_homotopy_refuses_an_odd_curvature(monkeypatch):
    import lghomology.hochschild as hochschild

    def unreachable(*args):
        raise AssertionError("a matrix was built")
    monkeypatch.setattr(hochschild, "homotopy", unreachable)
    monkeypatch.setattr(ChainWindow, "boundary_plus", unreachable)
    for curv in ({(1,): QQ.one}, {(1,): QQ.one, (2,): QQ.one}):
        # W = x is odd, W = x + x^2 of mixed parity
        alg = FiniteCurvedAlgebra.truncated((3,), curv, QQ, degrees=(1,))
        with pytest.raises(ParityViolation):
            vanishing_homotopy(alg, {1: QQ.one}, 4)
        with pytest.raises(ParityViolation):
            vanishing_homotopy_cochain(alg, {1: QQ.one}, 3)


def test_homotopy_canary_one_check_guards_both_sides(monkeypatch):
    import lghomology.hochschild as hochschild
    real = hochschild.homotopy
    monkeypatch.setattr(hochschild, "homotopy",
                        lambda win, L, k: -real(win, L, k))
    alg, L = next(homotopy_carriers())
    with pytest.raises(AssertionError):
        vanishing_homotopy(alg, L, 4)
    with pytest.raises(AssertionError):
        vanishing_homotopy_cochain(alg, L, 3)


# ---------------------------------------------------------------------------
# Cochain complex identities


def test_cochain_differential_squares():
    for alg in (FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1}),
                FiniteCurvedAlgebra.graded_points([-1])):
        win = CochainWindow(alg, 4)
        d_mult = {i: win.d_mult(i) for i in range(4)}
        d_curv = {i: win.d_curv(i) for i in range(1, 5)}
        for i in range(3):
            assert (d_mult[i + 1] @ d_mult[i]).is_zero()
        for i in range(2, 5):
            assert (d_curv[i - 1] @ d_curv[i]).is_zero()
        for i in range(1, 4):
            anti = d_curv[i + 1] @ d_mult[i] + d_mult[i - 1] @ d_curv[i]
            assert anti.is_zero()


def test_cochain_signs_come_from_the_bar_engine():
    import inspect
    import lghomology.cochains as cochains
    import lghomology.hochschild as hochschild
    # the only sign written out besides bar_minus/bar_plus is the homotopy's
    module = inspect.getsource(hochschild) + inspect.getsource(cochains)
    homotopy = inspect.getsource(hochschild.homotopy)
    assert module.count("from_int(-1)") == homotopy.count("from_int(-1)") == 1
    assert "Matrix(" not in inspect.getsource(CochainWindow)


def test_cochain_requires_finite_carrier():
    with pytest.raises(InfiniteCarrier):
        CochainWindow(object(), 3)


def flat_cochain_cohomology(alg, window, top):
    """dim H^i of a flat carrier's cochains per (i, internal degree), i <= top.

    The differential raises the internal degree by one, so the rank of its
    block at degree m is the rank of its columns of degree m.
    """
    win = CochainWindow(alg, window)

    def rank_on(mat, cols):
        pos = {c: p for p, c in enumerate(cols)}
        return rank(Matrix(mat.rows, len(cols), mat.field,
                           {(r, pos[c]): v for (r, c), v in mat.entries.items()
                            if c in pos}))

    def by_degree(i):
        out = {}
        for n, elem in enumerate(win.bases[i]):
            out.setdefault(win.internal_degree(i, elem), []).append(n)
        return out

    dims = {}
    for i in range(top + 1):
        below = by_degree(i - 1) if i else {}
        for m, cols in by_degree(i).items():
            h = len(cols) - rank_on(win.d_mult(i), cols)
            if i:
                h -= rank_on(win.d_mult(i - 1), below.get(m - 1, []))
            if h:
                dims[(i, m)] = h
    return dims


@pytest.mark.parametrize("alg, expected", [
    (FiniteCurvedAlgebra.graded_points([-1]),
     {(0, -2): 1, (0, -1): 1, (1, 0): 1, (1, 1): 1, (2, 2): 1, (2, 3): 1,
      (3, 4): 1, (3, 5): 1}),
    (FiniteCurvedAlgebra.graded_points([-1, -2]),
     {(0, -3): 1, (0, -2): 1, (0, -1): 1, (1, -1): 1, (1, 0): 2, (1, 1): 1,
      (2, 1): 1, (2, 2): 2, (2, 3): 2, (2, 4): 1, (3, 3): 1, (3, 4): 3,
      (3, 5): 4, (3, 6): 3, (3, 7): 1}),
    (trunc(3, {}, generator_degree=-1),
     {(0, -3): 1, (0, -1): 1, (1, 0): 1, (2, 3): 1, (3, 4): 1}),
    (FiniteCurvedAlgebra.truncated((2, 2), {}, QQ, degrees=(-1, -2)),
     {(0, -4): 1, (0, -3): 1, (0, -2): 1, (0, -1): 1, (1, -2): 1, (1, -1): 2,
      (1, 0): 2, (1, 1): 1, (2, 0): 1, (2, 1): 2, (2, 2): 2, (2, 3): 1,
      (2, 4): 1, (2, 5): 1, (3, 2): 1, (3, 3): 2, (3, 4): 2, (3, 5): 2,
      (3, 6): 2, (3, 7): 1}),
    (FiniteCurvedAlgebra.graded_points([-1], field=PrimeField(3)),
     {(0, -2): 1, (0, -1): 1, (1, 0): 1, (1, 1): 1, (2, 2): 1, (2, 3): 1,
      (3, 4): 1, (3, 5): 1}),
], ids=["points-1", "points-1-2", "x3-odd", "x2-y2-odd-even", "points-1-gf3"])
def test_flat_graded_cochain_cohomology_golden(alg, expected):
    assert flat_cochain_cohomology(alg, 4, 3) == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)],
                         ids=["q", "gf2", "gf3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_cohomology_of_truncated_polynomial_oracle(field, n):
    # The 2-periodic resolution of k[x]/(x^n) gives HH^0 = k[x]/(x^n) and,
    # for i >= 1, HH^i = ker or coker of multiplication by n x^(n-1): of
    # dimension n - 1, or n when the characteristic divides n.
    alg = FiniteCurvedAlgebra.truncated((n,), {}, field)
    dims = {}
    for (i, _), h in flat_cochain_cohomology(alg, 5, 4).items():
        dims[i] = dims.get(i, 0) + h
    p = field.characteristic
    higher = n if p and n % p == 0 else n - 1
    assert dims == {0: n, 1: higher, 2: higher, 3: higher, 4: higher}


# ---------------------------------------------------------------------------
# Ordinary (direct-sum) homology: total vanishing


def test_ordinary_homology_vanishes_x2():
    alg = FiniteCurvedAlgebra.truncated_polynomial(2, {1: 1})
    rep = hh_ordinary(alg)
    assert rep.dims == {0: 0, 1: 0}


def test_ordinary_homology_vanishes_x3():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    rep = hh_ordinary(alg)
    assert rep.dims == {0: 0, 1: 0}


def test_ordinary_builds_boundaries_only_up_to_the_settled_cap(monkeypatch):
    sources = []
    for name in ("boundary_minus", "boundary_plus"):
        part = getattr(ChainWindow, name)

        def recorded(win, k, part=part):
            sources.append(k)
            return part(win, k)
        monkeypatch.setattr(ChainWindow, name, recorded)
    rep = hh_ordinary(trunc(4, {2: 3}))
    assert rep.dims == {0: 0, 1: 0}
    assert rep.stabilization == {0: 2, 1: 3}
    assert sources and max(sources) <= max(rep.stabilization.values())


def test_ordinary_assembles_each_differential_once(monkeypatch):
    import lghomology.hochschild as hochschild
    real_total = hochschild._total
    assembled = []

    def recorded(src, dst, dims, block, field):
        assembled.append((tuple(src), tuple(dst)))
        return real_total(src, dst, dims, block, field)
    monkeypatch.setattr(hochschild, "_total", recorded)
    rep = hh_ordinary(trunc(4, {2: 3}))
    assert rep.dims == {0: 0, 1: 0}
    # caps 1, 2 and 3; the one at cap 2 is the d_out of parity 0 and the
    # d_in of parity 1
    assert assembled == [((1,), (0, 2)), ((0, 2), (1, 3)),
                         ((1, 3), (0, 2, 4))]


def test_ordinary_eliminates_each_differential_once(monkeypatch):
    eliminated = record_eliminations(monkeypatch)
    rep = hh_ordinary(trunc(4, {2: 3}))
    assert rep.dims == {0: 0, 1: 0}
    # the differential at cap 2 is the d_out of parity 0 and the d_in of
    # parity 1
    assert len(eliminated) == len(set(map(id, eliminated)))


def test_ordinary_windows_stop_one_past_the_settled_cap(monkeypatch):
    tops = []
    real_init = ChainWindow.__init__

    def recorded(win, algebra, max_tensor, *rest):
        tops.append(max_tensor)
        real_init(win, algebra, max_tensor, *rest)
    monkeypatch.setattr(ChainWindow, "__init__", recorded)
    for alg in (trunc(4, {2: 3}),
                FiniteCurvedAlgebra.truncated((2, 2), {(1, 1): 1}, QQ)):
        tops.clear()
        rep = hh_ordinary(alg)
        # one window per call, one past the last cap read
        assert tops == [MIN_TENSOR_WINDOW] == \
            [max(rep.stabilization.values()) + 1]


def test_check_window_counts_the_normalized_window():
    for alg in (trunc(4, {2: 3}),
                FiniteCurvedAlgebra.truncated((2, 3), {(1, 1): 1}, QQ)):
        for top in range(4):
            win = ChainWindow(alg, top)
            assert check_window(alg.dim, top) == \
                sum(win.dim(k) for k in range(top + 1))


def test_ordinary_refuses_a_window_over_the_limit_before_building_it(
        monkeypatch):
    import lghomology.hochschild as hochschild
    tops = []
    real_init = ChainWindow.__init__

    def recorded(win, algebra, max_tensor, *rest):
        tops.append(max_tensor)
        real_init(win, algebra, max_tensor, *rest)
    monkeypatch.setattr(ChainWindow, "__init__", recorded)
    # over k[x]/x^4 the window up to tensor degree 4 holds 484 tensors
    with monkeypatch.context() as m:
        m.setattr(hochschild, "MAX_WINDOW_TENSORS", 483)
        with pytest.raises(WindowTooLarge):
            hh_ordinary(trunc(4, {2: 3}))
    assert tops == []
    assert WindowTooLarge.exit_code == 4
    hh_ordinary(trunc(4, {2: 3}))
    assert tops == [4]


@pytest.mark.parametrize("alg", [
    FiniteCurvedAlgebra.truncated((3,), {(0,): 1}, QQ),
    FiniteCurvedAlgebra.truncated((2, 3), {(0, 0): Fraction(-5, 2)}, QQ),
    FiniteCurvedAlgebra.truncated((4,), {(0,): PrimeField(7).from_int(3)},
                                  PrimeField(7))])
def test_ordinary_refuses_unit_curvature_before_building_a_window(
        monkeypatch, alg):
    built = []
    monkeypatch.setattr(ChainWindow, "__init__",
                        lambda win, *args: built.append(args))
    with pytest.raises(UnitCurvature):
        hh_ordinary(alg)
    assert built == []
    assert UnitCurvature.exit_code != WindowTooLarge.exit_code


def test_ordinary_rejects_flat_algebra():
    alg = FiniteCurvedAlgebra.truncated_polynomial(2, {})
    with pytest.raises(ValueError):
        hh_ordinary(alg)


CERTIFIED_CARRIERS = [
    ((3,), {(2,): 3}, QQ), ((4,), {(2,): 5}, QQ),
    ((4,), {(2,): 1, (3,): 2}, QQ), ((2, 3), {(1, 1): 1}, QQ),
    ((3, 3), {(2, 0): 1, (0, 2): -1}, QQ),
    ((4,), {(2,): 3}, PrimeField(7)),
    ((4,), {(0,): 1, (2,): 1}, QQ), ((3,), {(0,): 1, (1,): 2}, QQ)]


CERTIFIED_IDS = ["x3-3x2", "x4-5x2", "x4-x2+2x3", "x2y3-xy", "x3y3-x2-y2",
                 "x4-3x2-gf7", "x4-1+x2", "x3-1+2x"]


@pytest.mark.parametrize("powers, curvature, field", CERTIFIED_CARRIERS,
                         ids=CERTIFIED_IDS)
def test_the_verified_homotopy_makes_every_truncation_acyclic(
        powers, curvature, field):
    # the lemma hh_ordinary rests on: on its one window, _contract passes
    # and the truncated homology is 0 at every cap it covers, 0 to 3
    alg = FiniteCurvedAlgebra.truncated(
        powers, {m: field.from_int(c) for m, c in curvature.items()}, field)
    win = ChainWindow(alg, MIN_TENSOR_WINDOW)
    first = min(b for b in alg.curvature if b != alg.unit)
    _contract(win, {first: field.one})
    maps = [ordinary_differential(win, cap)
            for cap in range(-1, MIN_TENSOR_WINDOW)]
    assert [homology_dim(d_in, d_out) for d_in, d_out in pairwise(maps)] \
        == [0] * MIN_TENSOR_WINDOW


def test_ordinary_reads_two_values_on_one_window(monkeypatch):
    import lghomology.hochschild as hochschild
    built, contracted, read = [], [], []
    real_init, real_contract = ChainWindow.__init__, hochschild._contract

    def init(win, *args):
        built.append(win)
        real_init(win, *args)
    monkeypatch.setattr(ChainWindow, "__init__", init)
    monkeypatch.setattr(hochschild, "_contract", lambda win, L: (
        contracted.append(win) or real_contract(win, L)))
    monkeypatch.setattr(hochschild, "homology_dim", lambda d_in, d_out: (
        read.append(d_out) or homology_dim(d_in, d_out)))
    rep = hh_ordinary(trunc(4, {2: 3}))
    assert rep.dims == {0: 0, 1: 0}
    assert contracted == built and len(read) == 2


@pytest.mark.parametrize("powers, curvature, field", CERTIFIED_CARRIERS,
                         ids=CERTIFIED_IDS)
def test_ordinary_certifies_its_zero_by_the_homotopy(monkeypatch, powers,
                                                     curvature, field):
    import lghomology.hochschild as hochschild
    real = hochschild._contract
    contracted = []

    def recorded(win, L):
        contracted.append((win.max_tensor, win.unit, L))
        return real(win, L)
    monkeypatch.setattr(hochschild, "_contract", recorded)
    alg = FiniteCurvedAlgebra.truncated(
        powers, {m: field.from_int(c) for m, c in curvature.items()}, field)
    rep = hh_ordinary(alg)
    assert rep.dims == {0: 0, 1: 0}
    first = min(b for b in alg.curvature if b != alg.unit)
    # the normalized window of the last differential, L dual to a non-unit
    assert contracted == [(max(rep.stabilization.values()) + 1, alg.unit,
                           {first: field.one})]


def test_ordinary_canary_a_wrong_homotopy_or_value_raises(monkeypatch):
    import lghomology.hochschild as hochschild
    real = hochschild.homotopy
    with monkeypatch.context() as m:
        m.setattr(hochschild, "homotopy",
                  lambda win, L, k: -real(win, L, k))
        with pytest.raises(AssertionError, match="homotopy identity fails"):
            hh_ordinary(trunc(4, {2: 3}))
    monkeypatch.setattr(hochschild, "homology_dim", lambda d_in, d_out: 1)
    with pytest.raises(AssertionError, match="not 0"):
        hh_ordinary(trunc(4, {2: 3}))


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
        rep = hh_bm_graded(model, degrees)
        for e in degrees:
            assert rep.dims[(e, can.parity)] == can.dims[e]
            assert rep.dims.get((e, 1 - can.parity), 0) == 0


def test_bm_zero_outside_support():
    model = make_model("x^2", "x")
    rep = hh_bm_graded(model, [0, 3])
    assert all(v == 0 for v in rep.dims.values())


def test_bm_spot_homology_direct():
    model = make_model("x^3", "x")
    # canonical module of x^3 sits in degrees 1 and 2, odd parity
    assert bm_spot_homology(model, 1, 1) == 1
    assert bm_spot_homology(model, 1, 2) == 1


def test_bm_value_is_the_same_at_every_shift():
    # H_n of the first-quadrant complex is the same at (n + 2r, q + r*d)
    # for every n >= N (Hochschild-Kostant-Rosenberg), which is why
    # hh_bm_graded reads each degree at shift 0 only
    for src, names in (("x^3", "x"), ("x^2+y^2", "xy")):
        model = make_model(src, names)
        n0, d = model.ring.nvars, model.degree
        degrees = sorted(canonical_module(model).dims.dims)
        for e in degrees + [degrees[-1] + 1]:
            for offset in (0, 1):
                values = {bm_spot_homology(model, n0 + offset + 2 * r,
                                           e + r * d)
                          for r in range(3)}
                assert len(values) == 1, (src, e, offset, values)


def test_bm_of_three_variables_matches_canonical_module():
    for src in ("x^3+y^3+z^3", "x^3+y^3+z^3+x*y*z"):
        model = make_model(src, "xyz")
        can = canonical_module(model)
        assert sorted(can.dims.dims) == [3, 4, 5, 6]
        rep = hh_bm_graded(model, [3, 4, 5, 6])
        for e in (3, 4, 5, 6):
            assert rep.dims[(e, can.parity)] == can.dims[e]
            assert rep.dims[(e, 1 - can.parity)] == 0


def test_bm_ranks_each_differential_once(monkeypatch):
    import lghomology.hochschild as hochschild

    built = {}      # id(matrix) -> (matrix, (n, q)); the matrices are kept alive
    real_diff = hochschild._bm_differential

    def differential(model, n, q):
        m = real_diff(model, n, q)
        built[id(m)] = (m, (n, q))
        return m

    monkeypatch.setattr(hochschild, "_bm_differential", differential)
    eliminated = record_eliminations(monkeypatch)
    model = make_model("x^3+y^3", "xy")
    rep = hh_bm_graded(model, [2, 3, 4])
    assert rep.dims == {(2, 0): 1, (3, 0): 2, (4, 0): 1,
                        (2, 1): 0, (3, 1): 0, (4, 1): 0}
    # each degree is read at shift 0: only (2, q), (3, q) and (4, q)
    assert all(n in (2, 3, 4) and q in (2, 3, 4)
               for _, (n, q) in built.values())
    # every assembled differential is eliminated, and none twice
    assert sorted(map(id, eliminated)) == sorted(built)


def test_bm_assembles_each_differential_once(monkeypatch):
    import lghomology.hochschild as hochschild
    real_diff = hochschild._bm_differential
    assembled = []

    def differential(model, n, q):
        assembled.append((n, q))
        return real_diff(model, n, q)
    monkeypatch.setattr(hochschild, "_bm_differential", differential)
    model = make_model("x^3+y^3", "xy")
    rep = hh_bm_graded(model, [2, 3, 4])
    assert rep.dims == {(2, 0): 1, (3, 0): 2, (4, 0): 1,
                        (2, 1): 0, (3, 1): 0, (4, 1): 0}
    # each degree is read at shift 0; the differential at (3, q) serves
    # both parities
    assert set(assembled) == {(n, q) for n in (2, 3, 4) for q in (2, 3, 4)}
    assert len(assembled) == len(set(assembled))


def test_check_bm_window_bounds_the_bases_built():
    # the count is every chain basis of tensor degree k <= N + 2 and degree
    # D <= the top degree, which contains all that reading the degrees builds
    for src, names, weights in (("x^3", "x", None), ("x^3+y^3", "xy", None),
                                ("x^3+y^2", "xy", (2, 3))):
        model = make_model(src, names, weights)
        ring = model.ring
        for top in range(6):
            assert check_bm_window(ring, top) == sum(
                len(poly_chain_basis(ring, k, D))
                for k in range(ring.nvars + 3) for D in range(top + 1))


def test_bm_refuses_degrees_over_the_limit_before_assembling(monkeypatch):
    import lghomology.hochschild as hochschild
    assembled = []
    monkeypatch.setattr(hochschild, "_bm_differential",
                        lambda *args: assembled.append(args))
    model = make_model("x^3+y^3", "xy")
    # degree 10 alone builds 83,578 tensors, degree 11 172,822
    assert check_bm_window(model.ring, 10) == 83578
    for degrees in ([11], [2, 14], [10 ** 9]):
        with pytest.raises(WindowTooLarge):
            hh_bm_graded(model, degrees)
    assert assembled == []


def test_bm_rejects_a_repeated_degree():
    model = make_model("x^3+y^3", "xy")
    assert hh_bm_graded(model, [3]).dims == {(3, 0): 2, (3, 1): 0}
    with pytest.raises(ValueError):
        hh_bm_graded(model, [3, 3])


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


def test_compact_type_builds_each_full_window_map_once(monkeypatch):
    import lghomology.cochains as cochains
    real_homology = cochains.homology_dim
    calls = []

    def recorded(d_in, d_out):
        calls.append((d_in, d_out))
        return real_homology(d_in, d_out)
    monkeypatch.setattr(cochains, "homology_dim", recorded)
    assert compact_type_check(FiniteCurvedAlgebra.graded_points([-1, -2]),
                              max_internal=2)
    # spot m reads the full window, then the capped one
    full = calls[::2]
    assert len(full) == 5
    for here, after in zip(full, full[1:]):
        assert here[1] is after[0]


# ---------------------------------------------------------------------------
# Carrier construction sanity


def test_truncated_polynomial_structure():
    alg = FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1})
    assert alg.dim == 3
    assert alg.product(1, 1) == {2: alg.field.one}
    assert alg.product(1, 2) == {}
    assert alg.curvature == {2: alg.field.one}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "gf7"])
@pytest.mark.parametrize("powers, terms", [
    ((3,), {(2,): 3}),
    ((2, 3), {(1, 1): 3, (0, 2): -1}),
    ((2, 2, 2), {(1, 1, 0): 3, (0, 0, 1): 2}),
], ids=["3", "2-3", "2-2-2"])
def test_truncated_matches_trivial_cross_product(field, powers, terms):
    terms = {m: field.from_int(c) for m, c in terms.items()}
    alg = FiniteCurvedAlgebra.truncated(powers, terms, field)
    trivial = GroupAction.cyclic(1, (0,) * len(powers))
    ref = cross_product(trivial, powers, terms, field=field).algebra
    assert alg.dim == ref.dim
    assert alg.mult == ref.mult
    assert alg.curvature == ref.curvature
    assert alg.unit == ref.unit == 0


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7)],
                         ids=["q", "gf2", "gf7"])
@pytest.mark.parametrize("powers, terms, degrees", [
    ((1,), {}, None),
    ((2,), {(1,): 1}, None),
    ((3,), {(2,): 2}, None),
    ((4,), {(3,): 1}, None),
    ((4,), {(2,): 3}, None),
    ((2,), {}, (-2,)),
    ((3,), {}, (-1,)),
    ((3,), {(2,): 1}, (-2,)),
    ((3, 1), {(2, 0): 1}, None),
    ((2, 2), {(1, 1): 3}, None),
    ((2, 2), {}, (-1, -2)),
    ((2, 3), {(1, 1): 3, (0, 2): -1}, None),
    ((2, 2, 2), {(1, 1, 0): 3, (0, 0, 1): 2}, None),
], ids=["1", "2-curved", "3-curved", "4-curved", "4-curved-x2", "2-graded",
        "3-graded", "3-curved-graded", "3-1-curved", "2-2-curved",
        "2-2-graded", "2-3-curved", "2-2-2-curved"])
def test_truncated_carriers_pass_the_full_check(field, powers, terms,
                                                degrees):
    # truncated skips _check; every shape the tests and golden files build
    # passes it anyway
    terms = {m: field.from_int(c) for m, c in terms.items()}
    FiniteCurvedAlgebra.truncated(powers, terms, field, degrees)._check()


def test_truncated_skips_the_check(monkeypatch):
    def refuse(self):
        raise AssertionError("_check ran")

    monkeypatch.setattr(FiniteCurvedAlgebra, "_check", refuse)
    alg = FiniteCurvedAlgebra.truncated((4, 4, 3), {(1, 1, 1): QQ.one}, QQ)
    assert alg.dim == 48
    # a multiplication table a caller supplies is still checked
    with pytest.raises(AssertionError):
        FiniteCurvedAlgebra(1, {(0, 0): {0: QQ.one}}, {})


def test_truncated_rejects_curvature_outside_the_box():
    with pytest.raises(ValueError):
        FiniteCurvedAlgebra.truncated((2, 2), {(2, 0): QQ.one}, QQ)


def test_graded_points_parities():
    alg = FiniteCurvedAlgebra.graded_points([-1, -2])
    assert alg.parity(0) == 0          # the unit
    assert alg.parity(1) == 1
    assert alg.parity(2) == 0


def test_homology_reports_do_not_share_their_default_dict():
    a, b = HomologyReport({}), HomologyReport({})
    a.stabilization[0] = 2
    assert b.stabilization == {}
