"""Matrix factorizations, Hom complexes, Ext dimensions, and twisted objects."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_model
from lghomology.errors import (DegreeConstraintViolated, FactorizationInvalid,
                               MethodUnsupported, ModelMismatch,
                               ParityViolation, ShapeMismatch)
import lghomology.mf as mf_module
from lghomology.jacobi import INFINITE, socle_degree
from lghomology.linalg import PrimeField
from lghomology.mf import (MatrixFactorization, PolyMatrix, TwistObject,
                           direct_sum, ext_dims, hat_degree, hom_complex,
                           koszul_factorization, maurer_cartan_check,
                           smith_diagonalize, trivial_factorization,
                           twist_to_graded_mf, verify_graded_degrees,
                           verify_mf)
from lghomology.poly import parse_polynomial


def P(src, ring):
    return parse_polynomial(src, ring)


def uni_mf(power, a):
    """The factorization (x^a, x^(power-a)) of x^power."""
    model = make_model("x^%d" % power, "x")
    ring = model.ring
    return model, MatrixFactorization(model,
                                      PolyMatrix(ring, [[P("x^%d" % a, ring)]]),
                                      PolyMatrix(ring,
                                                 [[P("x^%d" % (power - a),
                                                     ring)]]))


# ---------------------------------------------------------------------------
# Verification


def test_verify_univariate_split():
    model, mf = uni_mf(3, 1)
    assert verify_mf(mf)


def test_verify_negative_control():
    model = make_model("x^3", "x")
    ring = model.ring
    bad = MatrixFactorization(model, PolyMatrix(ring, [[P("x", ring)]]),
                              PolyMatrix(ring, [[P("x", ring)]]))
    assert not verify_mf(bad)


def test_bad_shapes_are_refused():
    model = make_model("x^3", "x")
    ring = model.ring
    row = PolyMatrix(ring, [[P("x", ring), P("x", ring)]])
    with pytest.raises(ShapeMismatch):
        MatrixFactorization(model, row, row)
    with pytest.raises(ShapeMismatch):
        TwistObject([(0, 0), (1, -1)], PolyMatrix(ring, [[P("x", ring)]]))
    with pytest.raises(ShapeMismatch):
        TwistObject([(0, 0)], row)


def test_koszul_factorization_of_quadric():
    model = make_model("x^2+y^2", "xy")
    ring = model.ring
    mf = koszul_factorization(model, [(P("x", ring), P("x", ring)),
                                      (P("y", ring), P("y", ring))])
    assert mf.rank0 == 2 and mf.rank1 == 2
    assert verify_mf(mf)


def test_trivial_and_direct_sum_verify():
    model, mf = uni_mf(3, 1)
    triv = trivial_factorization(model)
    assert verify_mf(triv)
    assert verify_mf(direct_sum(mf, triv))


# ---------------------------------------------------------------------------
# Hom complexes and Ext


def test_identity_is_a_cycle():
    model, mf = uni_mf(3, 1)
    hom = hom_complex(mf, mf)
    ring = model.ring
    # the identity's coordinates: a one where row and column agree
    ident = PolyMatrix(ring, [[ring.one() if r == c else ring.zero()]
                              for r, c in hom.even_entries])
    assert not ident.is_zero()
    assert (hom.d_even @ ident).is_zero()


def test_hom_complex_rejects_mixed_models():
    _, a = uni_mf(3, 1)
    _, b = uni_mf(2, 1)
    with pytest.raises(ModelMismatch):
        hom_complex(a, b)


def test_hom_complex_rejects_invalid_factorization():
    # D^2 = diag(x^2, xy) is not W times the identity, so d^2 != 0
    model = make_model("x^3+y^3", "xy")
    ring = model.ring
    z = ring.zero()
    bad = MatrixFactorization(
        model, PolyMatrix(ring, [[P("x", ring), z], [z, P("y", ring)]]),
        PolyMatrix(ring, [[P("x", ring), z], [z, P("x", ring)]]))
    with pytest.raises(FactorizationInvalid):
        hom_complex(bad, bad)


def test_ext_univariate_cubic():
    model, mf = uni_mf(3, 1)
    assert ext_dims(mf, mf, method="smith") == (1, 1)
    assert ext_dims(mf, mf, method="truncate") == (1, 1)


def test_ext_univariate_quintic():
    model, mf = uni_mf(5, 2)
    smith = ext_dims(mf, mf, method="smith")
    assert smith == ext_dims(mf, mf, method="truncate")
    assert smith == (2, 2)


def test_ext_smith_weighted_variable():
    # x of weight 2: division and lengths must use exponents, not degrees
    model = make_model("x^7", "x", weights=(2,))
    ring = model.ring
    for a, expected in ((1, (1, 1)), (3, (3, 3))):
        mf = MatrixFactorization(model, PolyMatrix(ring, [[P("x^%d" % a, ring)]]),
                                 PolyMatrix(ring, [[P("x^%d" % (7 - a), ring)]]))
        assert ext_dims(mf, mf, method="smith") == expected


def weighted_uni_mf(a):
    """The factorization (x^a, x^(7-a)) of x^7 with x of weight 2."""
    model = make_model("x^7", "x", weights=(2,))
    ring = model.ring
    return MatrixFactorization(model, PolyMatrix(ring, [[P("x^%d" % a, ring)]]),
                               PolyMatrix(ring, [[P("x^%d" % (7 - a), ring)]]))


def test_ext_truncate_weighted_variable_matches_smith():
    # Odd caps hold no monomial of their own degree; comparing one with the
    # cap below it once settled this at (2, 1).
    mf = weighted_uni_mf(3)
    assert ext_dims(mf, mf, method="truncate") == \
        ext_dims(mf, mf, method="smith") == (3, 3)


def test_ext_truncate_weighted_variable_with_a_late_class():
    # the odd class sits in doubled degree 10, the socle degree
    mf = weighted_uni_mf(1)
    assert ext_dims(mf, mf, method="truncate") == \
        ext_dims(mf, mf, method="smith") == (1, 1)


def test_ext_of_trivial_vanishes():
    model, mf = uni_mf(3, 1)
    triv = trivial_factorization(model)
    assert ext_dims(triv, triv, method="smith") == (0, 0)
    assert ext_dims(mf, triv, method="smith") == (0, 0)


def test_ext_stable_under_trivial_summands():
    model, mf = uni_mf(4, 1)
    triv = trivial_factorization(model)
    plain = ext_dims(mf, mf, method="smith")
    assert ext_dims(direct_sum(mf, triv), mf, method="smith") == plain
    assert ext_dims(mf, direct_sum(mf, triv), method="smith") == plain


@pytest.mark.parametrize("method", ["smith", "truncate"])
@pytest.mark.parametrize("weight, field", [(1, None), (2, None), (3, None),
                                           (2, PrimeField(11))],
                         ids=["1", "2", "3", "2-gf11"])
def test_ext_between_rank_one_factorizations_of_a_power(weight, field,
                                                        method):
    # Ext(E_a, E_b) for E_a = (x^a, x^(n-a)) has both dimensions
    # min(a, b, n - a, n - b)
    for n in range(2, 9):
        model = make_model("x^%d" % n, "x", weights=(weight,), field=field)
        ring = model.ring
        facts = {a: MatrixFactorization(
            model, PolyMatrix(ring, [[P("x^%d" % a, ring)]]),
            PolyMatrix(ring, [[P("x^%d" % (n - a), ring)]]))
            for a in range(1, n)}
        for a, src in facts.items():
            for b, dst in facts.items():
                m = min(a, b, n - a, n - b)
                assert ext_dims(src, dst, method=method) == (m, m), (n, a, b)


def test_smith_ext_diagonalizes_each_differential_once(monkeypatch):
    model, mf = uni_mf(5, 2)
    calls = []
    diagonalize = mf_module.smith_diagonalize

    def counting(mat):
        calls.append((mat.nrows, mat.ncols))
        return diagonalize(mat)

    monkeypatch.setattr(mf_module, "smith_diagonalize", counting)
    assert ext_dims(mf, direct_sum(mf, mf), method="smith") == (4, 4)
    assert len(calls) == 2


def test_smith_ext_is_infinite_when_the_ranks_fall_short(monkeypatch):
    # a zero differential on one coordinate of each parity: the whole free
    # module survives, so neither dimension is finite
    model, mf = uni_mf(3, 1)
    zero = PolyMatrix.zero(model.ring, 1, 1)
    monkeypatch.setattr(mf_module, "hom_complex", lambda src, dst:
                        mf_module.HomComplex(zero, zero, [(0, 0)], [(0, 1)]))
    assert ext_dims(mf, mf, method="smith") == (INFINITE, INFINITE)


def test_hom_complex_refuses_a_factorization_of_another_potential():
    # (x, x) squares to x^2, a multiple of the identity, so d^2 = 0 in its
    # Hom complex; but it does not factor W = x^3
    model, good = uni_mf(3, 1)
    ring = model.ring
    other = MatrixFactorization(model, PolyMatrix(ring, [[P("x", ring)]]),
                                PolyMatrix(ring, [[P("x", ring)]]))
    for src, dst in ((other, other), (good, other), (other, good)):
        with pytest.raises(FactorizationInvalid):
            hom_complex(src, dst)


def test_hom_complex_verifies_a_shared_factorization_once(monkeypatch):
    model, mf = uni_mf(3, 1)
    seen = []
    verify = mf_module.verify_mf
    monkeypatch.setattr(mf_module, "verify_mf",
                        lambda f: seen.append(f) or verify(f))
    hom_complex(mf, mf)
    assert seen == [mf]
    seen.clear()
    other = trivial_factorization(model)
    hom_complex(mf, other)
    assert seen == [mf, other]


def koszul_cases():
    """(model, Koszul factorization of rank 2^(n-1)) of Fermat-type
    potentials in n = 2 and 3 variables, one of them weighted."""
    for pot, names, weights, pairs in [
            ("x^2+y^2", "xy", None, [("x", "x"), ("y", "y")]),
            ("x^3+y^3", "xy", None, [("x", "x^2"), ("y", "y^2")]),
            ("x^4+y^4", "xy", None, [("x", "x^3"), ("y", "y^3")]),
            ("x^3+y^3+z^3", "xyz", None,
             [("x", "x^2"), ("y", "y^2"), ("z", "z^2")]),
            ("x^2+y^4", "xy", (2, 1), [("x", "x"), ("y", "y^3")])]:
        model = make_model(pot, names, weights=weights)
        ring = model.ring
        yield model, koszul_factorization(
            model, [(P(u, ring), P(v, ring)) for u, v in pairs])


def test_ext_koszul_quadric_truncate():
    # x^4+y^4 is the case two agreeing degree caps once got wrong, (1, 2)
    for model, mf in koszul_cases():
        half = 2 ** (model.ring.nvars - 1)
        assert ext_dims(mf, mf, method="truncate") == (half, half), model


def test_truncate_assembles_each_block_once(monkeypatch):
    model, mf = list(koszul_cases())[1]
    calls = []
    assemble = mf_module._degree_window_matrix

    def counting(pm, offsets, e, d):
        calls.append((id(pm), e))
        return assemble(pm, offsets, e, d)

    monkeypatch.setattr(mf_module, "_degree_window_matrix", counting)
    assert ext_dims(mf, mf, method="truncate") == (2, 2)
    T = mf_module._doubled_twists(mf)
    d, lo = model.degree, min(T) - max(T)
    hi = socle_degree(model) - lo
    # each block is d_out of its own piece and d_in of the piece d above
    assert len(set(calls)) == len(calls) == 2 * (hi - lo + d + 1)
    assert {e for _, e in calls} == set(range(lo - d, hi + 1))


def _duality_pairs():
    """(E, F, top): pairs of factorizations, and whether E to F has a class
    at the very top of the degree range."""
    yield uni_mf(4, 2)[1], uni_mf(4, 2)[1], True
    yield weighted_uni_mf(1), weighted_uni_mf(3), False
    yield weighted_uni_mf(1), weighted_uni_mf(1), False
    cases = list(koszul_cases())
    model, kos = cases[1]
    ring = model.ring
    rank_one = MatrixFactorization(
        model, PolyMatrix(ring, [[P("x+y", ring)]]),
        PolyMatrix(ring, [[P("x^2-x*y+y^2", ring)]]))
    yield kos, rank_one, False
    yield kos, direct_sum(kos, trivial_factorization(model)), False
    yield cases[3][1], cases[3][1], False
    yield cases[4][1], cases[4][1], False


@pytest.mark.parametrize("src, dst, top", list(_duality_pairs()), ids=[
    "x2-x2", "weight-2-x-x3", "weight-2-x-x", "koszul-rank-one",
    "koszul-plus-trivial", "koszul-cubic3", "koszul-weighted"])
def test_truncate_range_is_closed_by_serre_duality(src, dst, top):
    # H^p_e(E, F) = H^(p+n)_(sigma-e)(F, E) in doubled degrees, and no
    # piece above sigma - lo(F, E) holds a class
    model = src.model
    d, n, sigma = model.degree, model.ring.nvars, socle_degree(model)
    TE, TF = mf_module._doubled_twists(src), mf_module._doubled_twists(dst)
    lo, hi = min(TE) - max(TF), sigma - (min(TF) - max(TE))
    pieces = mf_module._ext_pieces(hom_complex(src, dst), (TE, TF), d,
                                   range(lo, hi + 2 * d + 1))
    dual = mf_module._ext_pieces(hom_complex(dst, src), (TF, TE), d,
                                 range(sigma - hi, sigma - lo + 1))
    inside, above = pieces[:hi - lo + 1], pieces[hi - lo + 1:]
    assert above == [(0, 0)] * (2 * d)
    for (even, odd), mirror in zip(inside, reversed(dual)):
        assert (even, odd) == (mirror[n % 2], mirror[(n + 1) % 2])
    assert (inside[-1] != (0, 0)) == top
    assert ext_dims(src, dst, method="truncate") == \
        tuple(sum(piece[p] for piece in inside) for p in (0, 1))


def test_twists_are_inferred_per_component_and_refused_when_inconsistent():
    model = make_model("x^2+y^2", "xy")
    ring = model.ring
    kos = list(koszul_cases())[0][1]
    triv = trivial_factorization(model)
    # (1, W): the unit lowers the doubled degree by d, W raises it by d
    T = mf_module._doubled_twists(direct_sum(kos, triv))
    assert T[:2] == mf_module._doubled_twists(kos)[:2] and T[2] == 0
    assert T[5] - T[2] == -2
    z, x = ring.zero(), P("x", ring)
    # x, x and x lead around a cycle to x^2, which no twists fit
    square = PolyMatrix(ring, [[x, x], [x, P("x^2", ring)]])
    bad = MatrixFactorization(model, square, PolyMatrix.zero(ring, 2, 2))
    with pytest.raises(MethodUnsupported, match="no twists"):
        mf_module._doubled_twists(bad)
    mixed = MatrixFactorization(model, PolyMatrix(ring, [[P("x+y^2", ring)]]),
                                PolyMatrix(ring, [[z]]))
    with pytest.raises(MethodUnsupported, match="not homogeneous"):
        mf_module._doubled_twists(mixed)


def test_smith_method_needs_one_variable():
    model = make_model("x^2+y^2", "xy")
    ring = model.ring
    mf = koszul_factorization(model, [(P("x", ring), P("x", ring)),
                                      (P("y", ring), P("y", ring))])
    with pytest.raises(MethodUnsupported):
        ext_dims(mf, mf, method="smith")


def test_smith_diagonalization_matches_sympy():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    ring = make_model("x^2", "x").ring
    x = sympy.symbols("x")
    # the non-monomial inputs leave remainders, so rows and columns swap
    for rows in ([["x^2", "x"], ["x^3", "x^2+x"], ["0", "x"]],
                 [["x+1", "x"], ["x^2", "1"]],
                 [["x+1", "0"], ["0", "x"]],
                 [["x^2+1", "x"], ["x", "x^2-1"], ["x+1", "1"]],
                 [["x+1", "x"]],
                 # swapping in each remainder as it appears grows the
                 # coefficients here past 5,000 digits
                 [["-x^3+2*x^2-2", "0", "3*x^4+2*x^3+3*x^2",
                   "-3*x^3-2*x^2-3*x", "2*x^3"],
                  ["0", "-x^4", "2*x^4", "-2*x-1", "-2*x^4-3"],
                  ["2*x", "0", "-2*x^4", "0", "0"],
                  ["-2*x^3-3*x", "0", "-2*x^4+x^3-x", "0", "-2*x^4"],
                  ["-2*x^2", "x^3+3*x^2+3*x", "-2", "-1", "0"]]):
        pm = PolyMatrix(ring, [[P(e, ring) for e in row] for row in rows])
        ours = [e.degree() for e in smith_diagonalize(pm)]

        sm = smith_normal_form(
            sympy.Matrix([[sympy.sympify(e.replace("^", "**")) for e in row]
                          for row in rows]), domain=sympy.QQ[x])
        theirs = [sympy.Poly(e, x).degree() for e in sm
                  if not sympy.simplify(e) == 0]
        # a diagonal form need not be the normal form (diag(x+1, x) is not),
        # but rank and degree sum, all the cohomology reads, agree
        assert (len(ours), sum(ours)) == (len(theirs), sum(theirs))


def test_infinite_ext_sentinel():
    assert INFINITE == float("inf")


# ---------------------------------------------------------------------------
# Hat degrees


def test_hat_degree_examples():
    assert hat_degree(1, (0, 0), (1, -1), 2) == 1
    assert hat_degree(1, (1, -1), (0, 0), 2) == 1
    assert hat_degree(2, (0, 0), (0, 0), 2) == 2
    assert hat_degree(0, (0, 0), (0, 2), 4) == -2


def test_hat_degree_congruence_guard():
    with pytest.raises(DegreeConstraintViolated):
        hat_degree(1, (0, 0), (0, 0), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_hat_degree_is_additive_under_composition(d, data):
    a = data.draw(st.integers(0, 3))
    b = data.draw(st.integers(0, 3))
    c = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(-2, 2))
    l = data.draw(st.integers(-2, 2))
    m = data.draw(st.integers(-2, 2))
    f = (b - a) % d + d * data.draw(st.integers(0, 2))
    g = (c - b) % d + d * data.draw(st.integers(0, 2))
    assert hat_degree(f, (a, k), (b, l), d) + \
        hat_degree(g, (b, l), (c, m), d) == \
        hat_degree(f + g, (a, k), (c, m), d)


# ---------------------------------------------------------------------------
# Twisted objects


def square_twist():
    model = make_model("x^2", "x")
    ring = model.ring
    delta = PolyMatrix(ring, [[ring.zero(), P("x", ring)],
                              [P("-x", ring), ring.zero()]])
    return model, TwistObject([(0, 0), (1, -1)], delta)


def test_twist_maurer_cartan():
    model, obj = square_twist()
    assert maurer_cartan_check(obj, model)
    bad = TwistObject(obj.summands,
                      PolyMatrix(model.ring, [[model.ring.zero(),
                                               P("x", model.ring)],
                                              [P("x", model.ring),
                                               model.ring.zero()]]))
    assert not maurer_cartan_check(bad, model)


def test_twist_entry_hat_degrees_are_one():
    model, obj = square_twist()
    for r in range(2):
        for c in range(2):
            h = obj.entry_hat_degree(model, r, c)
            assert h is None or h == 1


def test_twist_translation_round_trip():
    model, obj = square_twist()
    gmf = twist_to_graded_mf(obj, model)
    assert gmf.twists0 == (0,)
    assert gmf.twists1 == (1,)
    assert verify_mf(gmf)
    assert verify_graded_degrees(gmf)


def test_twist_translation_parity_guards():
    model, obj = square_twist()
    ring = model.ring
    same = TwistObject([(0, 0), (0, 0)],
                       PolyMatrix(ring, [[ring.zero(), P("x", ring)],
                                         [P("-x", ring), ring.zero()]]))
    with pytest.raises(ParityViolation):
        twist_to_graded_mf(same, model)
    one_sided = TwistObject([(0, 0)], PolyMatrix(ring, [[ring.zero()]]))
    with pytest.raises(ParityViolation):
        twist_to_graded_mf(one_sided, model)


def test_graded_degree_negative_control():
    model, obj = square_twist()
    gmf = twist_to_graded_mf(obj, model)
    tampered = MatrixFactorization(model, gmf.P0, gmf.P1,
                                   twists0=(1,), twists1=gmf.twists1)
    assert not verify_graded_degrees(tampered)


def random_twist_object(rng, d):
    """A hat-degree-one twisted object over x^d with random summands."""
    model = make_model("x^%d" % d, "x")
    ring = model.ring
    n_even = rng.randint(1, 2)
    n_odd = rng.randint(1, 2)
    summands = []
    for _ in range(n_even):
        summands.append((rng.randrange(d), rng.choice([0, 2, -2])))
    for _ in range(n_odd):
        summands.append((rng.randrange(d), rng.choice([1, -1, 3])))
    n = len(summands)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            (a, k), (b, l) = summands[c], summands[r]
            if (k - l) % 2 == 0:
                row.append(ring.zero())
                continue
            # entry degree forced by requiring hat degree one
            twice_f = (l - k + 1) * d + 2 * (b - a)
            if twice_f < 0 or twice_f % 2 or rng.random() < 0.3:
                row.append(ring.zero())
                continue
            coeff = rng.choice([1, -1, 2])
            row.append(ring.constant(coeff) *
                       P("x^%d" % (twice_f // 2), ring))
        rows.append(row)
    return model, TwistObject(summands, PolyMatrix(ring, rows))


def test_random_twist_degree_audit():
    rng = random.Random(20240824)
    for trial in range(100):
        d = rng.choice([2, 3, 4])
        model, obj = random_twist_object(rng, d)
        n = len(obj.summands)
        for r in range(n):
            for c in range(n):
                h = obj.entry_hat_degree(model, r, c)
                assert h is None or h == 1
        try:
            gmf = twist_to_graded_mf(obj, model)
        except ParityViolation:
            continue
        assert verify_graded_degrees(gmf)


def _valid_factorizations():
    model, e1 = uni_mf(4, 1)
    _, e2 = uni_mf(4, 2)
    yield e1, e2
    yield e2, direct_sum(e1, trivial_factorization(model))
    quad = make_model("x^2+y^2", "xy")
    ring = quad.ring
    kos = koszul_factorization(quad, [(P("x", ring), P("x", ring)),
                                      (P("y", ring), P("y", ring))])
    yield kos, kos
    yield kos, direct_sum(kos, trivial_factorization(quad))
    cubic = make_model("x^3+y^3+z^3", "xyz")
    ring = cubic.ring
    yield (koszul_factorization(cubic, [(P(v, ring), P("%s^2" % v, ring))
                                        for v in "xyz"]),) * 2
    tmodel, obj = square_twist()
    gmf = twist_to_graded_mf(obj, tmodel)
    yield gmf, gmf


@pytest.mark.parametrize("src, dst", list(_valid_factorizations()))
def test_flattened_differentials_compose_to_zero(src, dst):
    # a sign canary for _flatten_d, whose products hom_complex never forms
    hom = hom_complex(src, dst)
    assert (hom.d_odd @ hom.d_even).is_zero()
    assert (hom.d_even @ hom.d_odd).is_zero()
