"""Exact sparse linear algebra over the supported fields."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lghomology.errors import CompositionNonzero
from lghomology.linalg import (CyclotomicField, Matrix, PrimeField, QQ,
                               homology_dim, kernel_basis, rank)


def test_rank_simple():
    m = Matrix.from_rows([[1, 2], [2, 4]], QQ)
    assert rank(m) == 1


def test_kernel_members_annihilate():
    m = Matrix.from_rows([[1, 2, 3], [4, 5, 6]], QQ)
    basis = kernel_basis(m)
    assert len(basis) == 1
    for vec in basis:
        assert m.apply(vec) == {}


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=2, max_size=3))
def test_kernel_dimension_and_membership(rows):
    m = Matrix.from_rows(rows, QQ)
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for vec in basis:
        assert m.apply(vec) == {}


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


@settings(max_examples=60, deadline=None)
@given(sparse_rows(rationals))
def test_kernel_basis_is_reduced_echelon_kernel_over_q(rows):
    assert kernel_basis(Matrix.from_rows(rows, QQ)) == \
        reference_kernel(rows, QQ)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, BIG_PRIME]), st.data())
def test_kernel_basis_is_reduced_echelon_kernel_over_fp(p, data):
    rows = data.draw(sparse_rows(st.integers(-2 * p, 2 * p)))
    field = PrimeField(p)
    assert kernel_basis(Matrix.from_rows(rows, field)) == \
        reference_kernel(rows, field)


def test_rank_and_kernel_over_cyclotomic_field():
    f = CyclotomicField(3)
    z = f.zeta(1)
    # det [[1, z], [z^2, 1]] = 1 - z^3 = 0; det [[1, z], [z, 1]] = 1 - z^2
    singular = Matrix.from_rows([[f.one, z, z + f.one], [z * z, f.one,
                                                         f.one + z * z]], f)
    assert rank(singular) == 1
    assert rank(Matrix.from_rows([[f.one, z], [z, f.one]], f)) == 2
    basis = kernel_basis(singular)
    assert len(basis) == 2
    assert basis[0] == {1: f.one, 0: -z}
    for vec in basis:
        assert singular.apply(vec) == {}


@settings(max_examples=40, deadline=None)
@given(sparse_rows(rationals), st.lists(rationals.filter(bool), min_size=8,
                                        max_size=8))
def test_homology_of_kernel_inclusion_over_q(rows, scales):
    """d_in maps onto ker(d_out) with fractional columns: the homology is
    zero, and one less column leaves exactly one class."""
    d_out = Matrix.from_rows(rows, QQ)
    basis = kernel_basis(d_out)
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


def test_homology_dim_reuses_memoized_ranks(monkeypatch):
    import lghomology.linalg as linalg

    d_in = Matrix.from_rows([[1], [-1]], QQ)
    d_out = Matrix.from_rows([[1, 1]], QQ)
    calls = []
    real_rank = linalg.rank
    monkeypatch.setattr(linalg, "rank",
                        lambda m, *rest: calls.append(m) or real_rank(m, *rest))
    ranks = {"out": 1}
    assert homology_dim(d_in, d_out, ranks, ("in", "out")) == 0
    assert calls == [d_in] and ranks == {"out": 1, "in": 1}
    with pytest.raises(CompositionNonzero):
        homology_dim(Matrix.from_rows([[1], [1]], QQ), d_out, ranks,
                     ("in", "out"))
