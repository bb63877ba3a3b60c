"""Differential forms, polyvector fields, and the splitting of chains.

Forms and polyvector fields over a graded polynomial ring are encoded as
sparse maps from (monomial, strictly increasing index tuple) to scalars.
A form ``m dx_I`` has grade deg(m) + sum of the weights in I; a polyvector
``m @_I`` has grade deg(m) - sum of the weights in I.  Wedging with the
differential of the potential and contracting against it both raise the
grade by the potential degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, pairwise
from math import factorial

from .errors import CharacteristicTooSmall, WindowTooLarge
from .hochschild import (poly_boundary_minus, poly_boundary_plus,
                         poly_chain_basis)
from .jacobi import jacobi_data, socle_degree
from .linalg import Matrix, add_to, homology_dim, rank
from .poly import mono_mul

# ---------------------------------------------------------------------------
# Bases


def _basis(ring, k, grade, sign):
    """Pairs (monomial, k variable indices), the monomial of degree grade +
    sign * (weight sum of the indices), ordered deterministically.

    The tuple is built once per ring, k, grade and sign, in the ring's cache.
    """
    key = (k, grade, sign)
    hit = ring._cache.get(key)
    if hit is not None:
        return hit
    out = []
    for idx in combinations(range(ring.nvars), k):
        mono_deg = grade + sign * sum(ring.weights[i] for i in idx)
        if mono_deg < 0:
            continue
        for m in ring.monomials_of_degree(mono_deg):
            out.append((m, idx))
    out = ring._cache[key] = tuple(out)
    return out


def form_basis(ring, k, grade):
    """Monomial k-forms of the given grade, ordered deterministically."""
    return _basis(ring, k, grade, -1)


def polyvector_basis(ring, k, grade):
    """Monomial k-vector fields of the given grade."""
    return _basis(ring, k, grade, 1)


def _mono_partial(mono, i):
    """(coefficient, monomial) of the i-th partial of a monomial, or None."""
    if mono[i] == 0:
        return None
    lowered = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
    return mono[i], lowered


# ---------------------------------------------------------------------------
# The two Koszul-type differentials


def _dW_map(model, src, dst, wedge):
    """Matrix of one Koszul rule of dW from the ``src`` to the ``dst`` basis.

    Each term dx_i of dW moves index i into the index tuple (``wedge``) or
    out of it (contraction), times the partial of W in x_i, with the sign
    (-1)^(position of i in the larger tuple).  Raises ``NonHomogeneous``
    unless W is weighted-homogeneous, as the bases are graded by deg W.
    """
    model.require_homogeneous()
    field = model.ring.field
    partials = [model.potential.diff(i).terms for i in range(model.ring.nvars)]
    index = {e: n for n, e in enumerate(dst)}
    out = {}
    for col, (m, idx) in enumerate(src):
        for i, partial in enumerate(partials):
            if (i in idx) == wedge:
                continue
            big = tuple(sorted(idx + (i,))) if wedge else idx
            pos = big.index(i)
            new_idx = big if wedge else idx[:pos] + idx[pos + 1:]
            for wm, wc in partial.items():
                row = index[(mono_mul(m, wm), new_idx)]
                add_to(out, (row, col), -wc if pos % 2 else wc)
    return Matrix(len(dst), len(src), field, out)


def wedge_dW(model, k, grade):
    """Matrix of dW wedge -, from k-forms of the grade to (k+1)-forms."""
    ring = model.ring
    return _dW_map(model, form_basis(ring, k, grade),
                   form_basis(ring, k + 1, grade + model.degree), True)


def contract_dW(model, k, grade):
    """Matrix of contraction against dW, k-vectors to (k-1)-vectors."""
    ring = model.ring
    dst = polyvector_basis(ring, k - 1, grade + model.degree) if k else ()
    return _dW_map(model, polyvector_basis(ring, k, grade), dst, False)


# ---------------------------------------------------------------------------
# Koszul cohomology


# The most polyvector fields one Koszul homology may build in its bases.
# On x^n+y^n+z^n up to the socle degree plus n, n = 16 builds 580,279 in
# 2.5 s and 64 MB, n = 20 1,156,435 in 6.4 s and 111 MB (2 vCPU).
MAX_KOSZUL_BASIS = 10 ** 6


def check_koszul_window(ring, d, max_grade):
    """Count the polyvector fields ``koszul_homology_dims`` builds, without
    building any, and raise ``WindowTooLarge`` once they pass
    ``MAX_KOSZUL_BASIS``.

    It builds k-vectors m @_I, of grade deg m - w(I), at every grade from
    -w(all variables) to ``max_grade``, and for k < nvars also at those
    grades plus d, the targets of the maps out of the spots above.
    """
    lo = -sum(ring.weights)
    sizes = [1] + [0] * (max_grade + d - lo)    # monomials of each degree
    shifts = [[0]]                              # w(I) of the k-subsets I
    for w in ring.weights:
        for D in range(w, len(sizes)):
            sizes[D] += sizes[D - w]
        shifts = [old + [s + w for s in fewer]
                  for old, fewer in zip(shifts + [[]], [[]] + shifts)]
    total = 0
    for D, size in enumerate(sizes):
        total += size * sum(
            lo <= D - s <= max_grade
            or (k < ring.nvars and lo + d <= D - s <= max_grade + d)
            for k, ws in enumerate(shifts) for s in ws)
        if total > MAX_KOSZUL_BASIS:
            raise WindowTooLarge(
                "Koszul grades up to %d build over %d polyvector fields"
                % (max_grade, MAX_KOSZUL_BASIS))
    return total


def koszul_homology_dims(model, max_grade):
    """Homology of the contraction complex, per spot and grade.

    Returns {k: {grade: dim}} with zero entries omitted, both levels in
    ascending order.  The spots are walked one complex at a time: the
    contraction keeps the charge g + k*d, the spots of one charge are
    consecutive in k, and their maps ``contract_dW`` and the one after
    the last are read pairwise, those at k and k + 1 being the d_out and
    d_in of spot k.  Raises ``WindowTooLarge`` before any map is built if
    the bases would pass ``MAX_KOSZUL_BASIS`` (``check_koszul_window``).
    """
    ring = model.ring
    d = model.degree
    check_koszul_window(ring, d, max_grade)
    lo = -sum(ring.weights)
    out = {}
    for charge in range(lo, max_grade + ring.nvars * d + 1):
        ks = [k for k in range(ring.nvars + 1)
              if lo <= charge - k * d <= max_grade]
        maps = (contract_dW(model, k, charge - k * d)
                for k in range(ring.nvars + 2) if k in ks or k - 1 in ks)
        for k, (d_out, d_in) in zip(ks, pairwise(maps)):
            h = homology_dim(d_in, d_out)
            if h:
                out.setdefault(k, {})[charge - k * d] = h
    return {k: dict(sorted(out[k].items())) for k in sorted(out)}


def koszul_concentrated(model):
    """True when homology sits only at spot zero, matching the quotient ring."""
    max_grade = socle_degree(model) + model.degree
    dims = koszul_homology_dims(model, max_grade)
    return dims_concentrated(model, dims, max_grade)


def dims_concentrated(model, dims, max_grade):
    """True when Koszul homology ``dims`` up to ``max_grade`` (as returned by
    :func:`koszul_homology_dims`) sit only at spot zero and equal the
    quotient ring's graded dims there."""
    if any(k != 0 for k in dims):
        return False
    expected = {g: n for g, n in jacobi_data(model).dims.dims.items()
                if g <= max_grade}
    return dims.get(0, {}) == expected


# ---------------------------------------------------------------------------
# Splitting chains into forms


def _check_characteristic(field, k):
    char = field.characteristic
    if char and char <= k:
        raise CharacteristicTooSmall(
            "splitting a degree-%d chain needs invertible %d!" % (k, k))


def hkr_split(model, k, grade):
    """Matrix of the chain-to-form splitting on one graded window.

    Sends m_0|m_1|..|m_k to (1/k!) m_0 dm_1 ^ .. ^ dm_k.
    """
    ring = model.ring
    field = ring.field
    _check_characteristic(field, k)
    src = poly_chain_basis(ring, k, grade)
    dst = form_basis(ring, k, grade)
    index = {e: n for n, e in enumerate(dst)}
    inv_fact = field.from_fraction(Fraction(1, factorial(k)))
    out = {}
    for col, t in enumerate(src):
        # expand dm_1 ^ .. ^ dm_k over choices of one variable per slot
        stack = [(t[0], (), field.one)]
        for slot in range(1, k + 1):
            new_stack = []
            for mono, chosen, coeff in stack:
                for i in range(ring.nvars):
                    part = _mono_partial(t[slot], i)
                    if part is None or i in chosen:
                        continue
                    e, lowered = part
                    new_stack.append((mono_mul(mono, lowered), chosen + (i,),
                                      coeff * field.from_int(e)))
            stack = new_stack
        for mono, chosen, coeff in stack:
            # sorting the chosen indices: the parity of their inversions
            odd = sum(a > b for a, b in combinations(chosen, 2)) % 2
            row = index[(mono, tuple(sorted(chosen)))]
            val = coeff * inv_fact
            add_to(out, (row, col), -val if odd else val)
    return Matrix(len(dst), len(src), field, out)


def split_insertion_identity(model, k, grade):
    """Check: splitting after curvature insertion equals wedging with dW."""
    # wedge_dW first: it refuses a W that is not homogeneous
    right = wedge_dW(model, k, grade) @ hkr_split(model, k, grade)
    left = hkr_split(model, k + 1, grade + model.degree) @ \
        poly_boundary_plus(model, k, grade)
    return left == right


def form_comparison(model, k, grade):
    """(multiplication-homology dim, k-form dim) on one graded window."""
    ring = model.ring
    d_out = poly_boundary_minus(ring, k, grade) if k >= 1 else \
        Matrix(0, len(poly_chain_basis(ring, 0, grade)), ring.field)
    d_in = poly_boundary_minus(ring, k + 1, grade)
    return homology_dim(d_in, d_out), len(form_basis(ring, k, grade))


# ---------------------------------------------------------------------------
# The second page


def e2_page(model, max_column, max_row, max_charge):
    """Second-page dimensions {(i, j): {charge: dim}}.

    Rows carry forms of degree j - i with the wedge differential moving one
    column left; the charge (grade plus column times potential degree) is
    preserved.
    """
    model.require_homogeneous()
    d = model.degree
    out = {}
    for i in range(max_column + 1):
        for j in range(max_row + 1):
            k = j - i
            if k < 0 or k > model.ring.nvars:
                continue
            spot = {}
            for q in range(max_charge + 1):
                g = q - i * d
                if g < 0:
                    continue
                d_out = wedge_dW(model, k, g) if i >= 1 else \
                    Matrix(0, len(form_basis(model.ring, k, g)), model.ring.field)
                d_in = wedge_dW(model, k - 1, g - d) if k >= 1 else \
                    Matrix(len(form_basis(model.ring, k, g)), 0, model.ring.field)
                h = homology_dim(d_in, d_out)
                if h:
                    spot[q] = h
            if spot:
                out[(i, j)] = spot
    return out
