"""Exact sparse linear algebra over the supported fields."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lghomology
from lghomology.errors import CompositionNonzero
from lghomology.cyclotomic import CycElement, CyclotomicField
from lghomology.linalg import (Matrix, PrimeField, QQ, add_to, homology_dim,
                               rank)


def test_rank_simple():
    m = Matrix.from_rows([[1, 2], [2, 4]], QQ)
    assert rank(m) == 1


def test_identity_has_full_rank():
    assert rank(Matrix.identity(5, QQ)) == 5


def test_homology_of_exact_pair_is_zero():
    # x -> (x, -x) -> x + y is exact in the middle
    d_in = Matrix.from_rows([[1], [-1]], QQ)
    d_out = Matrix.from_rows([[1, 1]], QQ)
    assert homology_dim(d_in, d_out) == 0


def test_homology_rejects_nonzero_composition():
    d_in = Matrix.from_rows([[1], [0]], QQ)
    d_out = Matrix.from_rows([[1, 0]], QQ)
    with pytest.raises(CompositionNonzero):
        homology_dim(d_in, d_out)


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_rank_matches_sympy(rows):
    import sympy

    m = Matrix.from_rows(rows, QQ)
    assert rank(m) == sympy.Matrix(rows).rank()


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    a = f7.from_int(3)
    b = f7.from_int(5)
    assert (a * b).val == 1
    assert (a / b).val == (3 * pow(5, -1, 7)) % 7
    assert f7.from_fraction(Fraction(1, 2)).val == 4


def test_rank_over_prime_field_differs_from_rationals():
    rows = [[2, 0], [0, 2]]
    assert rank(Matrix.from_rows(rows, QQ)) == 2
    assert rank(Matrix.from_rows(rows, PrimeField(2))) == 0


def test_cyclotomic_field_relations():
    for d in (2, 3, 4, 5):
        f = CyclotomicField(d)
        z = f.zeta(1)
        power = f.one
        for _ in range(d):
            power = power * z
        assert power == f.one
        assert z * z.inverse() == f.one


def test_cyclotomic_quartic_square_root_of_minus_one():
    f = CyclotomicField(4)
    z = f.zeta(1)
    assert z * z == f.from_int(-1)


def _sympy_coords(poly, x, n):
    """Coordinates on 1, x, ..., x^(n-1) of a sympy polynomial of degree
    below n, as Fractions."""
    import sympy
    coeffs = sympy.Poly(poly, x, domain="QQ").all_coeffs()[::-1]
    return tuple(Fraction(str(c)) for c in coeffs + [0] * (n - len(coeffs)))


@pytest.mark.parametrize("d", range(1, 31))
def test_cyclotomic_modulus_matches_sympy(d):
    import sympy
    x = sympy.Symbol("x")
    f = CyclotomicField(d)
    assert f.modulus == list(_sympy_coords(sympy.cyclotomic_poly(d, x), x,
                                           f.degree + 1))


@pytest.mark.parametrize("d", range(1, 31))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_cyclotomic_products_and_inverses_match_sympy(d, data):
    import sympy
    x = sympy.Symbol("x")
    f = CyclotomicField(d)
    phi = sympy.cyclotomic_poly(d, x)
    coords = st.lists(rationals, min_size=f.degree, max_size=f.degree)
    a, b = data.draw(coords), data.draw(coords)

    def sym(cs):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** i
                    for i, c in enumerate(cs)), sympy.Integer(0))
    product = CycElement(a, f) * CycElement(b, f)
    assert product.coeffs == _sympy_coords(
        sympy.rem(sym(a) * sym(b), phi, x), x, f.degree)
    if any(a):
        assert CycElement(a, f).inverse().coeffs == _sympy_coords(
            sympy.invert(sym(a), phi, x), x, f.degree)
    else:
        with pytest.raises(ZeroDivisionError):
            CycElement(a, f).inverse()


def test_matrix_multiplication_associates():
    a = Matrix.from_rows([[1, 2], [3, 4]], QQ)
    b = Matrix.from_rows([[0, 1], [1, 0]], QQ)
    c = Matrix.from_rows([[2, 0], [0, 2]], QQ)
    assert ((a @ b) @ c).entries == (a @ (b @ c)).entries


# ---------------------------------------------------------------------------
# The elimination kernel against independent references

BIG_PRIME = 32003


@st.composite
def sparse_rows(draw, values, max_dim=7):
    """A matrix as a list of rows: sparse, or a product of two random
    factors (so of low rank), with a zero row and a zero column added."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.just(0), values)
    if draw(st.booleans()):
        rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    else:
        k = draw(st.integers(1, 3))
        left = [[draw(entry) for _ in range(k)] for _ in range(r)]
        right = [[draw(entry) for _ in range(c)] for _ in range(k)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]
    at_row = draw(st.integers(0, r))
    at_col = draw(st.integers(0, c))
    rows.insert(at_row, [0] * c)
    return [row[:at_col] + [0] + row[at_col:] for row in rows]


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def reference_kernel(rows, field):
    """Kernel basis from a dense reduced echelon form, one vector per free
    column with a one there."""
    a = [[field.from_fraction(v) for v in row] for row in rows]
    ncols = len(a[0])
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        hit = next((i for i in range(top, len(a)) if a[i][col]), None)
        if hit is None:
            continue
        a[top], a[hit] = a[hit], a[top]
        inv = field.one / a[top][col]
        a[top] = [v * inv for v in a[top]]
        for i in range(len(a)):
            if i != top and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: field.one}
        for i, col in enumerate(pivots):
            if a[i][free]:
                vec[col] = -a[i][free]
        basis.append(vec)
    return basis


@settings(max_examples=60, deadline=None)
@given(sparse_rows(rationals))
def test_rank_over_q_matches_sympy(rows):
    import sympy

    m = Matrix.from_rows(rows, QQ)
    expected = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                              if isinstance(v, Fraction) else v for v in row]
                             for row in rows]).rank()
    assert rank(m) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, BIG_PRIME]), st.data())
def test_rank_over_prime_field_matches_sympy(p, data):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rows = data.draw(sparse_rows(st.integers(-2 * p, 2 * p)))
    K = GF(p)
    expected = DomainMatrix([[K(v) for v in row] for row in rows],
                            (len(rows), len(rows[0])), K).rank()
    assert rank(Matrix.from_rows(rows, PrimeField(p))) == expected


def test_rank_and_kernel_over_cyclotomic_field():
    f = CyclotomicField(3)
    z = f.zeta(1)
    # det [[1, z], [z^2, 1]] = 1 - z^3 = 0; det [[1, z], [z, 1]] = 1 - z^2
    singular = Matrix.from_rows([[f.one, z, z + f.one], [z * z, f.one,
                                                         f.one + z * z]], f)
    assert rank(singular) == 1       # a 2-dimensional kernel in 3 columns
    assert rank(Matrix.from_rows([[f.one, z], [z, f.one]], f)) == 2


@settings(max_examples=40, deadline=None)
@given(sparse_rows(rationals), st.lists(rationals.filter(bool), min_size=8,
                                        max_size=8))
def test_homology_of_kernel_inclusion_over_q(rows, scales):
    """d_in maps onto ker(d_out) with fractional columns: the homology is
    zero, and one less column leaves exactly one class."""
    d_out = Matrix.from_rows(rows, QQ)
    basis = reference_kernel(rows, QQ)
    entries = {(i, j): v * scales[j % len(scales)]
               for j, vec in enumerate(basis) for i, v in vec.items()}
    d_in = Matrix(d_out.cols, len(basis), QQ, entries)
    assert homology_dim(d_in, d_out) == 0
    if basis:
        fewer = Matrix(d_out.cols, len(basis) - 1, QQ,
                       {k: v for k, v in entries.items()
                        if k[1] < len(basis) - 1})
        assert homology_dim(fewer, d_out) == 1


def test_homology_composition_check_with_fractions():
    half, third = Fraction(1, 2), Fraction(1, 3)
    # (1, 1) . (1/2, -1/3)^T = 1/6: scaling the rows of d_in apart hides it.
    with pytest.raises(CompositionNonzero):
        homology_dim(Matrix.from_rows([[half], [-third]], QQ),
                     Matrix.from_rows([[1, 1]], QQ))
    # (1/2, 1/3) . (2, -3)^T = 0: scaling the columns of d_out apart breaks it.
    assert homology_dim(Matrix.from_rows([[2], [-3]], QQ),
                        Matrix.from_rows([[half, third]], QQ)) == 0
    with pytest.raises(CompositionNonzero):
        homology_dim(Matrix.from_rows([[2], [-3]], PrimeField(7)),
                     Matrix.from_rows([[1, 1]], PrimeField(7)))


def test_rank_is_memoized_on_the_matrix(monkeypatch):
    import lghomology.linalg as linalg

    runs = []
    real_eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, kind: runs.append(rows) or
                        real_eliminate(rows, kind))
    d_in = Matrix.from_rows([[1], [-1]], QQ)
    d_out = Matrix.from_rows([[1, 1]], QQ)
    assert rank(d_out) == rank(d_out) == 1 and len(runs) == 1
    assert homology_dim(d_in, d_out) == 0 and len(runs) == 2
    bad = Matrix.from_rows([[1], [1]], QQ)
    assert rank(bad) == 1 and len(runs) == 3
    # both ranks are known, and the composition is still checked
    with pytest.raises(CompositionNonzero):
        homology_dim(bad, d_out)
    assert len(runs) == 3


# ---------------------------------------------------------------------------
# The sparse accumulator and the stabilization rule


FIELDS = [QQ, PrimeField(7), CyclotomicField(3)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_add_to_removes_a_cancelled_key(field):
    c = (field.zeta(1) if isinstance(field, CyclotomicField)
         else field.from_int(3))
    acc = {}
    add_to(acc, "k", c)
    add_to(acc, "j", c)
    assert acc == {"k": c, "j": c}
    add_to(acc, "k", field.from_int(-1) * c)
    assert acc == {"j": c}
    add_to(acc, "k", field.zero)
    add_to(acc, "j", c)
    assert acc == {"j": c + c}


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=30, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)),
                      max_size=20))
@example(steps=[(0, 1), (0, 2), (0, 2), (0, 2)])     # sums to 7: zero in GF(7)
def test_add_to_never_stores_zero(field, steps):
    acc, naive = {}, {}
    for key, n in steps:
        add_to(acc, key, field.from_int(n))
        naive[key] = naive.get(key, 0) + n
    assert all(acc.values())
    assert acc == {k: field.from_int(n) for k, n in naive.items()
                   if field.from_int(n)}


def test_add_to_is_the_only_accumulator_in_the_package():
    """The get/add/delete idiom is written out in ``add_to`` only."""
    pkg = Path(lghomology.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        source = path.read_text()
        owners = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for line in range(node.lineno, node.end_lineno + 1):
                    owners[line] = node.name      # innermost def wins
        for n, line in enumerate(source.splitlines(), 1):
            if "elif cur is not None:" in line:
                found.append((path.name, owners.get(n)))
    assert found == [("linalg.py", "add_to")]


def _library_matrices(field):
    """(name, matrix) for every kind of matrix the library builds, on small
    inputs over ``field``."""
    from conftest import make_model
    from lghomology.cochains import CochainWindow
    from lghomology.crossproduct import psi_matrices
    from lghomology.hochschild import (ChainWindow, FiniteCurvedAlgebra,
                                       _bm_differential, homotopy)
    from lghomology.koszul import contract_dW, hkr_split, wedge_dW
    from lghomology.mf import PolyMatrix, _degree_window_matrix
    from lghomology.orbifold import GroupAction, cross_product
    from lghomology.poly import parse_polynomial
    one, two = field.one, field.from_int(2)
    alg = FiniteCurvedAlgebra.truncated((2, 3), {(1, 0): one, (0, 2): two},
                                        field)
    for normalized in (True, False):
        win = ChainWindow(alg, 3, normalized=normalized)
        for k in range(1, 4):
            yield "boundary_minus", win.boundary_minus(k)
            yield "boundary_plus", win.boundary_plus(k - 1)
    win = ChainWindow(alg, 3, normalized=False)
    for k in range(4):
        # L is dual to x, basis element 3 = (1, 0), so L(W) = 1
        yield "homotopy", homotopy(win, {3: one}, k)
    cwin = CochainWindow(alg, 3)
    for i in range(3):
        yield "d_mult", cwin.d_mult(i)
        yield "d_curv", cwin.d_curv(i + 1)
    # 3x^2 y^2 vanishes over GF(3): the sums cancel there
    model = make_model("x^4+x^3*y+3*x^2*y^2+y^4", "xy", field=field)
    for n in range(2, 5):
        yield "_bm_differential", _bm_differential(model, n, 6)
    for k in range(3):
        yield "contract_dW", contract_dW(model, k, 2)
        yield "wedge_dW", wedge_dW(model, k, 2)
        yield "hkr_split", hkr_split(model, k, 3)
    ring = model.ring

    def P(src):
        return parse_polynomial(src, ring)
    pm = PolyMatrix(ring, [[P("x"), P("y")], [P("3*y^2"), P("x^3-x^3")]])
    # doubled offsets that make each entry raise the degree by 2
    yield "_degree_window_matrix", _degree_window_matrix(pm, ([0, 0], [0, -2]),
                                                         6, 2)
    # a group of order d acts over Q(zeta_d), the trivial group over any field
    order = getattr(field, "d", 1)
    cp = cross_product(GroupAction.cyclic(order, (1,)), (4,), {(3,): 1},
                       field=field)
    _win, _sectors, psi = psi_matrices(cp, 2)
    for blocks in psi.values():
        for m in blocks.values():
            yield "psi_matrices", m
    a = win.boundary_minus(2)
    b = win.boundary_minus(3)
    for name, m in [("@", a @ b), ("+", a + a), ("+ cancelling", a - a),
                    ("scale", a.scale(two)), ("scale by 0", a.scale(field.zero)),
                    ("transpose", a.transpose())]:
        yield name, m
    yield "from_rows", Matrix.from_rows(
        [[field.zero, one, 0], [field.from_int(3), Fraction(0), two]], field)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), CyclotomicField(3)],
                         ids=["Q", "GF3", "Qzeta3"])
def test_built_matrices_keep_the_sparse_invariant(field):
    """Matrix stores its entries as given, so every builder must keep them
    inside the shape and nonzero."""
    nonzero = 0
    for name, m in _library_matrices(field):
        for (i, j), v in m.entries.items():
            assert 0 <= i < m.rows and 0 <= j < m.cols, name
            assert v and v in field, name
        nonzero += len(m.entries)
    assert nonzero
