"""Multivariate polynomial arithmetic, parsing, and Groebner bases."""

import inspect
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lghomology.errors import NotZeroDimensional, ParseError, UnknownVariable
from lghomology.jacobi import LGModel, expected_weighted_milnor
from lghomology.linalg import PrimeField, QQ
from lghomology.poly import (MAX_COEFFICIENT_BITS, MAX_LITERAL_DIGITS,
                             MAX_NESTING_DEPTH,
                             MAX_POWER_DEGREE, DimensionSeries, PolyRing, Polynomial,
                             buchberger, format_polynomial,
                             graded_quotient_dims, is_zero_dimensional,
                             normal_form, parse_polynomial,
                             standard_monomials)

RING = PolyRing(("x", "y", "z"))


def test_parse_format_round_trip():
    for src in ("x^2+y^2", "x*y*z-3*x+1/2", "2*x^3-y"):
        p = parse_polynomial(src, RING)
        again = parse_polynomial(format_polynomial(p), RING)
        assert p == again


def test_parse_rejects_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_polynomial("x+q", RING)


def test_parse_rejects_garbage():
    for src in ("x+", "(x", "x^", "^2", "x//2"):
        with pytest.raises(ParseError):
            parse_polynomial(src, RING)


def test_parse_refuses_powers_above_the_degree_limit():
    ring = PolyRing(("x", "y"))
    top = parse_polynomial("x^%d" % MAX_POWER_DEGREE, ring)
    assert top.degree() == MAX_POWER_DEGREE
    for src in ("x^%d" % (MAX_POWER_DEGREE + 1),
                "(x*y)^%d" % (MAX_POWER_DEGREE // 2 + 1),
                "2^%d" % (MAX_POWER_DEGREE + 1),
                "x^1000000000",
                "x^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_polynomial(src, ring)


def test_parse_refuses_literals_above_the_digit_limit():
    ring = PolyRing(("x",))
    top = parse_polynomial("9" * MAX_LITERAL_DIGITS + "*x", ring)
    assert top.leading_coeff() == 10 ** MAX_LITERAL_DIGITS - 1
    with pytest.raises(ParseError):
        parse_polynomial("9" * (MAX_LITERAL_DIGITS + 1) + "*x", ring)


def test_parse_refuses_coefficients_above_the_bit_limit():
    ring = PolyRing(("x",))
    big = "9" * MAX_LITERAL_DIGITS
    square = parse_polynomial("%s^2*x" % big, ring)
    assert square.leading_coeff() == (10 ** MAX_LITERAL_DIGITS - 1) ** 2
    assert square.leading_coeff().numerator.bit_length() <= MAX_COEFFICIENT_BITS
    divided = parse_polynomial("x/%s/%s" % (big, big), ring)
    assert divided.leading_coeff() == 1 / square.leading_coeff()
    for src in ("%s^3*x" % big, "%s^100*x" % big, "(%s*x)^100" % big,
                "x/%s/%s/%s" % (big, big, big)):
        with pytest.raises(ParseError):
            parse_polynomial(src, ring)
    # residues mod p stay small, so a prime field never reaches the limit
    gf = PolyRing(("x",), field=PrimeField(31991))
    power = parse_polynomial("%s^100*x" % big, gf)
    assert power.leading_coeff() == gf.field.from_int(
        pow(10 ** MAX_LITERAL_DIGITS - 1, 100, 31991))


def test_parse_refuses_nesting_above_the_depth_limit():
    ring = PolyRing(("x",))
    top = MAX_NESTING_DEPTH
    cube = parse_polynomial("x^3", ring)
    assert parse_polynomial("(" * top + "x^3" + ")" * top, ring) == cube
    # a leading minus belongs to the sum, the ones after it nest
    assert parse_polynomial("-" * (top + 1) + "x^3", ring) == -cube
    for src in ("(" * (top + 1) + "x^3" + ")" * (top + 1),
                "-" * (top + 2) + "x^3",
                "(" * 600 + "x^3" + ")" * 600, "-" * 2000 + "x^3"):
        with pytest.raises(ParseError):
            parse_polynomial(src, ring)


def test_double_star_exponent():
    assert parse_polynomial("x**3", RING) == parse_polynomial("x^3", RING)


def _to_sympy(p, symbols):
    import sympy

    out = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        term = sympy.Rational(coeff)
        for s, e in zip(symbols, mono):
            term *= s ** e
        out += term
    return sympy.expand(out)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=4))
def test_product_matches_sympy(terms_a, terms_b):
    import sympy

    ring = PolyRing(("x", "y"))
    xs = sympy.symbols("x y")

    def build(terms):
        acc = {}
        for ea, eb, c in terms:
            key = (ea, eb)
            acc[key] = acc.get(key, 0) + Fraction(c)
        return Polynomial(ring, {k: v for k, v in acc.items() if v})

    a, b = build(terms_a), build(terms_b)
    assert _to_sympy(a * b, xs) == sympy.expand(_to_sympy(a, xs) *
                                                _to_sympy(b, xs))


def test_weighted_degree_and_homogeneity():
    ring = PolyRing(("x", "y"), (1, 2))
    p = parse_polynomial("x^2+y", ring)
    assert p.is_homogeneous()
    assert p.degree() == 2
    assert not parse_polynomial("x+y", ring).is_homogeneous()


def test_monomial_counts():
    ring = PolyRing(("x", "y", "z"))
    # number of degree-d monomials in 3 variables is (d+1)(d+2)/2
    for d in range(5):
        assert len(ring.monomials_of_degree(d)) == (d + 1) * (d + 2) // 2


def test_buchberger_membership_matches_sympy():
    import sympy

    ring = PolyRing(("x", "y"))
    gens = [parse_polynomial(s, ring) for s in ("x^2+y", "x*y-1")]
    gb = buchberger(gens, ring)
    xs = sympy.symbols("x y")
    sym_gb = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs,
                            order="grevlex")
    probes = ["x^3+x*y", "x^4", "y^2+x", "x^2*y-x", "1"]
    for src in probes:
        p = parse_polynomial(src, ring)
        ours = not normal_form(p, gb)
        theirs = sym_gb.reduce(_to_sympy(p, xs))[1] == 0
        assert ours == theirs


def test_normal_form_is_idempotent_and_linear():
    ring = PolyRing(("x", "y"))
    gb = buchberger([parse_polynomial("x^2-y", ring),
                     parse_polynomial("y^2-1", ring)], ring)
    p = parse_polynomial("x^5+y^3+x*y", ring)
    q = parse_polynomial("x^2*y^2", ring)
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(np_, gb) == np_
    assert normal_form(p + q, gb) == np_ + nq


def test_zero_dimensionality_detection():
    ring = PolyRing(("x", "y"))
    point = buchberger([parse_polynomial("x^2", ring),
                        parse_polynomial("y^3", ring)], ring)
    curve = buchberger([parse_polynomial("x*y", ring)], ring)
    assert is_zero_dimensional(point)
    assert not is_zero_dimensional(curve)
    with pytest.raises(NotZeroDimensional):
        standard_monomials(curve)


def test_standard_monomials_of_monomial_ideal():
    ring = PolyRing(("x", "y"))
    gb = buchberger([parse_polynomial("x^2", ring),
                     parse_polynomial("y^3", ring)], ring)
    monos = standard_monomials(gb)
    assert sorted(monos) == [(a, b) for a in range(2) for b in range(3)]


def test_graded_quotient_dims_total():
    ring = PolyRing(("x", "y"))
    gb = buchberger([parse_polynomial("x^3", ring),
                     parse_polynomial("y^2", ring)], ring)
    dims = graded_quotient_dims(gb)
    assert dims.total == 6
    assert dims == {0: 1, 1: 2, 2: 2, 3: 1}


def test_division_by_constant_only():
    assert parse_polynomial("x/2", RING) == parse_polynomial("1/2*x", RING)
    with pytest.raises(ParseError):
        parse_polynomial("1/x", RING)


# ---------------------------------------------------------------------------
# Reduced Groebner bases against sympy


def _ideal_terms(nvars):
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    term = st.tuples(mono, st.integers(-3, 3).filter(bool))
    return st.lists(st.lists(term, min_size=1, max_size=3),
                    min_size=1, max_size=3)


def _groebner_case(data, modulus):
    """Our reduced basis and sympy's, each as term maps, ours in order."""
    import sympy

    nvars = data.draw(st.integers(2, 3))
    gens = data.draw(_ideal_terms(nvars))
    field = QQ if modulus is None else PrimeField(modulus)
    ring = PolyRing(("x", "y", "z")[:nvars], field=field)
    polys = []
    for terms in gens:
        acc = {}
        for mono, c in terms:
            acc[mono] = acc.get(mono, field.zero) + field.from_int(c)
        polys.append(Polynomial(ring, acc))
    polys = [p for p in polys if p]
    assume(polys)
    ours = [{m: c for m, c in g.terms.items()}
            for g in buchberger(polys, ring)]
    xs = sympy.symbols(ring.names)
    exprs = [sum(c * sympy.prod(x ** e for x, e in zip(xs, mono))
                 for mono, c in terms) for terms in gens]
    kwargs = {"domain": "QQ"} if modulus is None else {"modulus": modulus}
    sym = sympy.groebner(exprs, *xs, order="grevlex", **kwargs)
    theirs = [{m: field.from_fraction(Fraction(int(c.p), int(c.q)))
               if modulus is None else field.from_int(int(c))
               for m, c in p.as_dict().items()}
              for p in sym.polys]
    theirs.sort(key=lambda t: ring.order_key(max(t, key=ring.order_key)))
    return ours, theirs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduced_basis_matches_sympy_over_q(data):
    ours, theirs = _groebner_case(data, None)
    assert ours == theirs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduced_basis_matches_sympy_over_gf7(data):
    ours, theirs = _groebner_case(data, 7)
    assert ours == theirs


def test_weighted_quotient_dimension_matches_milnor_formula():
    ring = PolyRing(("x", "y", "z"), (1, 2, 3))
    w = parse_polynomial("x^6+y^3+z^2+2*x^4*y+x^2*y^2", ring)
    gb = buchberger([w.diff(i) for i in range(3)], ring)
    assert len(standard_monomials(gb)) == \
        expected_weighted_milnor(LGModel(ring, w)) == 10


# ---------------------------------------------------------------------------
# Value types


def test_poly_ring_is_a_value_type():
    a = PolyRing(["x", "y"], [1, 2])
    b = PolyRing(("x", "y"), (1, 2), field=QQ)
    assert a == b and hash(a) == hash(b)
    assert a.names == ("x", "y") and a.weights == (1, 2)
    assert PolyRing(("x", "y")).weights == (1, 1)
    assert PolyRing(("x", "y")) != a
    assert PolyRing(("x", "y"), (1, 2), field=PrimeField(7)) != a
    assert len({a, b, PolyRing(("x", "y"))}) == 2
    assert parse_polynomial("x*y", a) == parse_polynomial("x*y", b)


@pytest.mark.parametrize("weights", [(1,), (1, 2, 3), (1, 0), (2, -1)])
def test_poly_ring_refuses_bad_weights(weights):
    with pytest.raises(ValueError):
        PolyRing(("x", "y"), weights)


def test_dimension_series_do_not_share_their_default_dict():
    a, b = DimensionSeries(), DimensionSeries()
    a.dims[0] = 1
    assert b.dims == {} and b.total == 0


# ---------------------------------------------------------------------------
# Caches


def test_monomials_of_degree_is_built_once_per_degree():
    ring = PolyRing(("x", "y"), (1, 2))
    first = ring.monomials_of_degree(4)
    assert first == ((4, 0), (2, 1), (0, 2))
    assert isinstance(first, tuple)
    assert ring.monomials_of_degree(4) is first
    # the cache belongs to the ring and is not part of its value
    other = PolyRing(("x", "y"), (1, 2))
    assert other == ring and hash(other) == hash(ring)
    assert other.monomials_of_degree(4) == first


def _functions(module):
    for value in vars(module).values():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr in vars(value).values():
                attr = getattr(attr, "__func__", attr)
                if inspect.isfunction(attr):
                    yield attr


def test_no_function_has_a_mutable_default_argument():
    import importlib
    import pkgutil

    import lghomology
    offenders = []
    for info in pkgutil.iter_modules(lghomology.__path__):
        module = importlib.import_module("lghomology." + info.name)
        for fn in _functions(module):
            defaults = list(fn.__defaults__ or ()) + \
                list((fn.__kwdefaults__ or {}).values())
            if any(isinstance(v, (list, dict, set, bytearray))
                   for v in defaults):
                offenders.append("%s.%s" % (info.name, fn.__qualname__))
    assert offenders == []
