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
    assert dict(uni.dims.dims) == {1: 1, 2: 1}


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
