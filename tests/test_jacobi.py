"""Critical-locus invariants of Landau-Ginzburg models."""

import pytest

from conftest import make_model
from lghomology.errors import NonHomogeneous, NonIsolated, ZeroPotentialGradient
from lghomology.jacobi import (INFINITE, LGModel, canonical_module,
                               expected_weighted_milnor, jacobi_data,
                               socle_degree)
from lghomology.linalg import PrimeField
from lghomology.poly import PolyRing, is_zero_dimensional, parse_polynomial


def test_fermat_quartic_milnor_and_middle_dims():
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    data = jacobi_data(model)
    assert data.milnor == 81
    assert data.dims[0] == 1
    assert data.dims[4] == 19
    assert data.dims[8] == 1


def test_lg_model_is_a_value_type():
    a, b = make_model("x^3+y^3", "xy"), make_model("x^3+y^3", "xy")
    assert a == b and hash(a) == hash(b)
    assert a != make_model("x^3+y^4", "xy")
    other = PolyRing(("x", "y"), (1, 2))
    with pytest.raises(ValueError):
        LGModel(a.ring, parse_polynomial("x^3+y^3", other))
    with pytest.raises(ValueError):
        LGModel(a.ring, parse_polynomial("5", a.ring))


def test_univariate_powers():
    assert jacobi_data(make_model("x^3", "x")).milnor == 2
    assert jacobi_data(make_model("x^2", "x")).milnor == 1


def test_non_isolated_detected():
    model = make_model("x^2*y", "xy")
    data = jacobi_data(model)
    assert not is_zero_dimensional(data.ideal)
    assert data.milnor is INFINITE
    with pytest.raises(NonIsolated):
        canonical_module(model)


def test_product_formula_oracle_agrees():
    cases = [
        ("x^4+y^4+z^4+w^4", "xyzw", None),
        ("x^3+y^3+z^3", "xyz", None),
        ("x^2+y^2", "xy", None),
        ("x^5", "x", None),
        ("x^3+y^2", "xy", (2, 3)),   # weighted homogeneous of degree 6
        # factors that are not integers, with an integer product
        ("x^2*y+y^4", "xy", (3, 2)),     # D5: 5/3 * 3
        ("x^3+x*y^3", "xy", (3, 2)),     # E7: 2 * 7/2
        ("x^2*y+y^5", "xy", (2, 1)),     # D6: 3/2 * 4
    ]
    for src, names, weights in cases:
        model = make_model(src, names, weights)
        assert jacobi_data(model).milnor == expected_weighted_milnor(model)


def test_canonical_module_shift_and_parity():
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    can = canonical_module(model)
    assert can.shift == 4
    assert can.parity == 0
    assert can.dims[4] == 1 and can.dims[8] == 19 and can.dims[12] == 1
    uni = canonical_module(make_model("x^3", "x"))
    assert uni.parity == 1
    assert dict(uni.dims) == {1: 1, 2: 1}


def test_jacobi_dims_count_standard_monomials_by_degree():
    # the partials 4x^3 and 3y^2 generate (x^3, y^2): basis x^a y^b, a < 3, b < 2
    data = jacobi_data(make_model("x^4+y^3", "xy"))
    assert data.dims == {0: 1, 1: 2, 2: 2, 3: 1}
    assert data.milnor == 6


def _poincare(weights, degree):
    """{degree: dim} of prod (1 - t^(d - w)) / (1 - t^w) (Milnor-Orlik 1970),
    by exact division of integer coefficient lists; no monomial is listed."""
    series = [1]
    for w in weights:
        num = [0] * (len(series) + degree - w)
        for k, c in enumerate(series):
            num[k] += c
            num[k + degree - w] -= c
        series = num
    for w in weights:
        # a = (1 - t^w) q gives q[k] = a[k] + q[k - w]; the top w must be 0
        for k in range(w, len(series)):
            series[k] += series[k - w]
        assert not any(series[len(series) - w:])
        series = series[:len(series) - w]
    return {k: c for k, c in enumerate(series) if c}


@pytest.mark.parametrize("src, names, weights, milnor", [
    ("x^2*y+y^4", "xy", (3, 2), 5),                 # D5
    ("x^3+x*y^3", "xy", (3, 2), 7),                 # E7
    ("x^2*y+y^5", "xy", (2, 1), 6),                 # D6
    ("x^6+y^3", "xy", (1, 2), 10),
    ("x^3+y^3+z^3", "xyz", None, 8),
    ("x^4+y^4+z^4+w^4", "xyzw", None, 81),
    ("x^5+y^5+z^5+w^5+v^5+x*y*z*w*v", "xyzwv", None, 1024),
], ids=["D5", "E7", "D6", "x6+y3", "cubic", "quartic", "quintic"])
def test_graded_dims_match_the_poincare_series(src, names, weights, milnor):
    model = make_model(src, names, weights)
    series = _poincare(model.ring.weights, model.degree)
    data = jacobi_data(model)
    assert data.dims == series and data.milnor == milnor
    shift = sum(model.ring.weights)
    assert canonical_module(model).dims == {d + shift: n
                                            for d, n in series.items()}


def test_socle_degree():
    assert socle_degree(make_model("x^4+y^4+z^4+w^4", "xyzw")) == 8
    assert socle_degree(make_model("x^3", "x")) == 1


def test_homogeneity_guard():
    model = make_model("x^3+x^2", "x")
    with pytest.raises(NonHomogeneous):
        canonical_module(model)


def test_zero_gradient_in_small_characteristic():
    model = make_model("x^2", "x", field=PrimeField(2))
    with pytest.raises(ZeroPotentialGradient):
        jacobi_data(model)


def test_milnor_agrees_with_sympy_quotient():
    import sympy

    x, y = sympy.symbols("x y")
    W = x ** 3 + x * y ** 3
    gb = sympy.groebner([sympy.diff(W, x), sympy.diff(W, y)], x, y,
                        order="grevlex")
    # count standard monomials under the sympy basis
    leads = [sympy.LT(g, order="grevlex") for g in gb.exprs]
    count = 0
    for a in range(10):
        for b in range(10):
            mono = x ** a * y ** b
            if not any(sympy.div(mono, lt, x, y)[1] == 0 for lt in leads):
                count += 1
    model = make_model("x^3+x*y^3", "xy")
    assert jacobi_data(model).milnor == count
