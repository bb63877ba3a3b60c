"""Independent answers for the benchmark's jobs.

Nothing here imports the program under test.  Every function computes the
expected machine output of one ``lgh`` job from closed formulas:

* the weighted Poincare product  prod_i (1 - t^(d - w_i)) / (1 - t^(w_i))
  gives the graded Jacobi ring, the Milnor number (its value at t = 1) and,
  shifted by sum(w_i), the canonical module and Borel-Moore HH;
* diagonal cyclic orbifolds count invariant monomials on the Fermat basis
  x^e, 0 <= e_v <= a_v - 2, of each sector's fixed variables;
* Ext of the univariate factorization (x^a, c x^(n-a)) is
  (min(a, n-a), min(a, n-a));
* Ext of the Koszul factorization of the origin in n variables, W in m^3,
  is (2^(n-1), 2^(n-1));
* ordinary HH of a curved truncated polynomial algebra vanishes.
"""

from fractions import Fraction
from itertools import product


def _polymul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _polydiv_exact(num, den):
    """Exact quotient of integer polynomials given as {degree: coeff}."""
    num = dict(num)
    top = max(den)
    lead = den[top]
    quot = {}
    while num:
        deg = max(num)
        if deg < top:
            raise ValueError("division leaves a remainder")
        q, r = divmod(num[deg], lead)
        if r:
            raise ValueError("division leaves a remainder")
        quot[deg - top] = q
        for k, v in den.items():
            num[deg - top + k] = num.get(deg - top + k, 0) - q * v
            if not num[deg - top + k]:
                del num[deg - top + k]
    return quot


def poincare(weights, degree):
    """Graded dims {deg: dim} of the Jacobi ring of a weighted-homogeneous
    isolated singularity with the given variable weights and degree."""
    series = {0: 1}
    for w in weights:
        num = {0: 1, degree - w: -1}
        den = {0: 1, w: -1}
        series = _polydiv_exact(_polymul(series, num), den)
    return dict(sorted(series.items()))


def _keyed(dims, shift=0):
    return {str(k + shift): v for k, v in dims.items()}


def jacobi(weights, degree, potential):
    dims = poincare(weights, degree)
    shift = sum(weights)
    return {"command": "jacobi", "potential": potential, "isolated": True,
            "milnor": sum(dims.values()), "graded_dims": _keyed(dims),
            "canonical_dims": _keyed(dims, shift), "canonical_shift": shift,
            "canonical_parity": len(weights) % 2}


def compact_cohomology(weights, degree, potential):
    dims = poincare(weights, degree)
    return {"command": "hh", "variant": "compact-cohomology",
            "potential": potential, "dims_per_degree": _keyed(dims),
            "parity": "even", "total": sum(dims.values())}


def hh_bm(weights, degree, potential):
    """Borel-Moore HH is the canonical module, in parity nvars mod 2."""
    dims = poincare(weights, degree)
    total = sum(dims.values())
    odd = len(weights) % 2
    return {"command": "hh", "variant": "bm", "potential": potential,
            "dims_per_degree": _keyed(dims, sum(weights)),
            "even_total": 0 if odd else total, "odd_total": total if odd else 0,
            "total": total}


def koszul(weights, degree, potential):
    """The contraction complex is concentrated in spot 0, the Jacobi ring."""
    return {"command": "koszul", "potential": potential, "concentrated": True,
            "homology": {"0": _keyed(poincare(weights, degree))}}


def _fraction_key(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else str(q)


def orbifold(exponents, weights, order, characters, potential):
    """Sector data of sum_v c_v x_v^(a_v) under Z/order acting on x_v by
    characters[v]; weights[v] * exponents[v] is the common degree."""
    n = len(exponents)
    degree = exponents[0] * weights[0]
    middle = Fraction(n * degree - 2 * sum(weights), 2)
    sectors, combined = {}, {}
    even = odd = twisted = 0
    for g in range(order):
        fixed = [v for v in range(n) if g * characters[v] % order == 0]
        volume = sum(characters[v] for v in fixed)
        classes = invariant = 0
        by_degree = {}
        for exps in product(*(range(exponents[v] - 1) for v in fixed)):
            classes += 1
            if (volume + sum(e * characters[v] for e, v in zip(exps, fixed))) \
                    % order == 0:
                invariant += 1
                deg = sum(e * weights[v] for e, v in zip(exps, fixed))
                by_degree[deg] = by_degree.get(deg, 0) + 1
        parity = len(fixed) % 2
        sectors[str((g,))] = {"fixed_vars": fixed, "classes": classes,
                              "invariant": invariant, "parity": parity}
        if parity:
            odd += invariant
        else:
            even += invariant
        if g == 0:
            for deg, count in by_degree.items():
                key = _fraction_key(deg)
                combined[key] = combined.get(key, 0) + count
        else:
            twisted += invariant
            if invariant:
                key = _fraction_key(middle)
                combined[key] = combined.get(key, 0) + invariant
    return {"command": "orbifold", "potential": potential,
            "group_order": order, "sectors": sectors, "combined": combined,
            "even_total": even, "odd_total": odd, "twisted_count": twisted,
            "total": even + odd}


def mf_verify(rank):
    return {"command": "mf", "action": "verify", "verified": True,
            "rank0": rank, "rank1": rank}


def mf_graded_audit(a, weight, twists0, twists1):
    """(x^a, c x^(n-a)) is graded iff the twist gap equals deg x^a."""
    graded = twists1[0] - twists0[0] == a * weight
    return {"command": "mf", "action": "graded-audit", "verified": True,
            "graded_degrees": graded, "twists0": list(twists0),
            "twists1": list(twists1)}


def ext_univariate(a, n):
    m = min(a, n - a)
    return {"command": "mf", "action": "ext", "method": "smith",
            "even": m, "odd": m}


def ext_koszul(nvars):
    m = 2 ** (nvars - 1)
    return {"command": "mf", "action": "ext", "method": "truncate",
            "even": m, "odd": m}


def hh_ordinary(potential):
    return {"command": "hh", "variant": "ordinary", "potential": potential,
            "dims": {"even": 0, "odd": 0}}
