"""Cross-check the benchmark's oracles against sympy on small cases.

Run from the root of a checkout:  python3 -m pytest lghbench/selftest
"""

import sys
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracles  # noqa: E402
import workloads  # noqa: E402

sympy = pytest.importorskip("sympy")


def _standard_monomial_degrees(potential, gens, weights, bound=12):
    """{weighted degree: count} of standard monomials of the Jacobian ideal."""
    partials = [sympy.diff(potential, g) for g in gens]
    gb = sympy.groebner(partials, *gens, order="grevlex")
    leads = [sympy.Poly(p, *gens).monoms(order="grevlex")[0] for p in gb.exprs]
    out = {}
    for exps in product(range(bound), repeat=len(gens)):
        if any(all(e >= l for e, l in zip(exps, lead)) for lead in leads):
            continue
        deg = sum(e * w for e, w in zip(exps, weights))
        out[deg] = out.get(deg, 0) + 1
    return out


@pytest.mark.parametrize("source, weights, degree", [
    ("x**3 + y**3", (1, 1), 3),
    ("x**4 + y**2", (1, 2), 4),
    ("x**6 + y**3 + z**2", (1, 2, 3), 6),
    ("x**3 + y**3 + z**3", (1, 1, 1), 3),
    ("x**4 + y**4 - x*y**3 + 2*x**2*y**2 / 3", (1, 1), 4),
    ("x**6 + y**6 + z**3 + 2*x**2*y**2*z", (1, 1, 2), 6),
])
def test_poincare_matches_sympy_groebner(source, weights, degree):
    gens = sympy.symbols("x y z")[:len(weights)]
    got = _standard_monomial_degrees(sympy.sympify(source), gens, weights)
    assert oracles.poincare(weights, degree) == got


def test_poincare_milnor_is_product_formula():
    for weights, degree in (((1, 1, 1, 1), 4), ((1, 1, 1, 1), 5),
                            ((1, 2), 6), ((1, 1, 2), 6)):
        expected = 1
        for w in weights:
            expected *= (degree - w) // w
        assert sum(oracles.poincare(weights, degree).values()) == expected


def test_orbifold_reproduces_quartic_acceptance_criterion():
    doc = oracles.orbifold([4] * 4, [1] * 4, 4, [1] * 4, "")
    assert doc["combined"] == {"0": 1, "4": 22, "8": 1}
    assert doc["twisted_count"] == 3
    assert doc["sectors"]["(0,)"]["classes"] == 81


@pytest.mark.parametrize("exponent, order, chars", [
    (3, 3, (1, 2)), (3, 3, (1, 1)), (4, 2, (1, 0)), (4, 4, (1, 3)),
    (6, 3, (2, 1)),
])
def test_orbifold_invariant_counts_match_sympy_basis(exponent, order, chars):
    """Per sector: Jacobi basis of the restricted potential from a sympy
    Groebner basis, tagged with characters, counted when invariant."""
    x, y = sympy.symbols("x y")
    doc = oracles.orbifold([exponent] * 2, [1, 1], order, list(chars), "")
    for g in range(order):
        fixed = [v for v in range(2) if g * chars[v] % order == 0]
        sector = doc["sectors"][str((g,))]
        if not fixed:
            assert (sector["classes"], sector["invariant"]) == (1, 1)
            continue
        gens = [(x, y)[v] for v in fixed]
        pot = sum(gen ** exponent for gen in gens)
        partials = [sympy.diff(pot, gen) for gen in gens]
        gb = sympy.groebner(partials, *gens, order="grevlex")
        leads = [sympy.Poly(p, *gens).monoms(order="grevlex")[0]
                 for p in gb.exprs]
        classes = invariant = 0
        for exps in product(range(exponent + 1), repeat=len(gens)):
            if any(all(e >= l for e, l in zip(exps, lead)) for lead in leads):
                continue
            classes += 1
            char = sum((e + 1) * chars[v] for e, v in zip(exps, fixed))
            invariant += char % order == 0
        assert (sector["classes"], sector["invariant"]) == (classes, invariant)


def _smith_dim(matrix, t):
    """Sum of the degrees of the invariant factors of a matrix over Q[t]."""
    from sympy.matrices.normalforms import smith_normal_form
    snf = smith_normal_form(matrix, domain=sympy.QQ[t])
    total = 0
    for i in range(min(snf.shape)):
        if snf[i, i] != 0:
            total += sympy.degree(snf[i, i], t)
    return total


@pytest.mark.parametrize("a, n", [(1, 2), (1, 5), (2, 5), (3, 7), (4, 8),
                                  (6, 9)])
def test_univariate_ext_matches_sympy_smith_form(a, n):
    """The Hom complex of (t^a, t^b) with itself; even cohomology is
    coker(d_odd) inside ker(d_even), whose dimension is the sum of the
    degrees of d_odd's invariant factors (the complex is exact over Q(t))."""
    t = sympy.symbols("t")
    p, q = t ** a, t ** (n - a)
    d_even = sympy.Matrix([[p, -p], [-q, q]])
    d_odd = sympy.Matrix([[q, p], [q, p]])
    assert (d_even * d_odd).is_zero_matrix
    assert (d_odd * d_even).is_zero_matrix
    even, odd = _smith_dim(d_odd, t), _smith_dim(d_even, t)
    doc = oracles.ext_univariate(a, n)
    assert (doc["even"], doc["odd"]) == (even, odd)


def test_koszul_ext_of_one_variable_is_the_univariate_answer():
    assert oracles.ext_koszul(1)["even"] == oracles.ext_univariate(1, 3)["even"]


@pytest.mark.parametrize("nvars, exponent", [(2, 3), (2, 4), (3, 3)])
def test_koszul_factorization_files_multiply_to_w(nvars, exponent):
    names = ["x", "y", "z"][:nvars]
    coeffs = [1, -1, 1][:nvars]
    text = workloads.koszul_mf_text(
        workloads._koszul_pairs(names, coeffs, exponent))
    syms = sympy.symbols(" ".join(names))
    env = dict(zip(names, syms))

    def matrix(line):
        body = line.split(" ", 1)[1]
        return sympy.Matrix([[sympy.sympify(e.replace("^", "**"), env)
                              for e in row.split(",")]
                             for row in body.split(";")])
    p0, p1 = (matrix(line) for line in text.splitlines())
    w = sum(c * s ** exponent for c, s in zip(coeffs, syms))
    size = 2 ** (nvars - 1)
    assert (p1 * p0 - w * sympy.eye(size)).expand().is_zero_matrix
    assert (p0 * p1 - w * sympy.eye(size)).expand().is_zero_matrix
