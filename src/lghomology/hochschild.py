"""Curved Hochschild machinery.

Chains are normalized by default: slots after the zeroth are drawn from a
complement of the unit.  The boundary splits as a tensor-degree-lowering
part (multiplications, with the wrap-around term) and a raising part
(insertions of the curvature element).  Ordinary homology is computed on
finite windows of the associated bicomplex and accepted once two
consecutive windows agree, a heuristic applied by ``linalg.settle``.
Borel-Moore homology is read at one shift of the first-quadrant complex,
which is exact by the Hochschild-Kostant-Rosenberg argument in
``hh_bm_graded``; nothing settles it.

Every chain boundary matrix -- finite algebras, pure-curvature spaces,
cross products and the graded polynomial ring -- is built by the bar-complex
engine ``bar_minus``/``bar_plus``; the chain signs live there and nowhere
else.  Positions after the zeroth slot count with alternating signs; the
wrap-around term additionally carries the Koszul sign of moving the last
element past the others, and a curvature insertion the Koszul sign of
moving W past the slots it jumps (cohomological degrees, when present,
determine parities).  A cochain matrix is the transpose of a chain matrix
with coefficients in the dual bimodule, on a ``CochainWindow``.

Every total complex -- the direct-sum one of ordinary HH, the
first-quadrant one of Borel-Moore HH, and the sum over orbifold sectors --
is assembled from its blocks by ``_total``, which takes the differential as
one rule giving the component between two spaces.
"""

from __future__ import annotations

from itertools import product as iter_product

from .errors import (BadFunctional, InfiniteCarrier, PositiveDegreeCarrier,
                     WindowTooSmall)
# ``rank`` is unused here but kept: lghbench/tracer.py rebinds hochschild.rank
from .linalg import (Matrix, QQ, add_to, homology_dim, rank,  # noqa: F401
                     settle)
from .poly import mono_mul

# ---------------------------------------------------------------------------
# The bar-complex engine


def _put(out, col, head, values, tail, interior, index, unit):
    """Add c * (head | v | tail) to column ``col`` for each v -> c in ``values``.

    A target missing from ``index`` is dropped only when it puts the unit in
    a slot after the zeroth (the normalization); any other miss raises.
    """
    for idx, c in values.items():
        t = head + (idx,) + tail
        row = index.get(t)
        if row is None:
            if interior and idx == unit:
                continue
            raise KeyError(t)
        add_to(out, (row, col), c)


def _signed(values, odd):
    return {i: -c for i, c in values.items()} if odd else values


def bar_minus(basis, index, product, parity, field, unit):
    """Multiplication part of the bar differential, C_k -> C_{k-1}.

    ``basis`` lists the source tensors, ``index`` maps target tensors to
    rows; ``product(a, b)`` returns a sparse dict.  Merging slots j and j+1
    carries (-1)^j; the wrap-around term a_k a_0 carries (-1)^k times the
    Koszul sign of moving a_k past a_0..a_{k-1}, read from the ``parity``
    table (``None`` when every element is even).  ``unit`` is the element
    normalized out of slots after the zeroth, ``None`` for unnormalized
    chains.
    """
    out = {}
    signed = {}     # (a, b, odd) -> (-1)^odd * product(a, b), negated once
    for col, t in enumerate(basis):
        k = len(t) - 1
        for j in range(k):
            key = (t[j], t[j + 1], j & 1)
            prod = signed.get(key)
            if prod is None:
                prod = signed[key] = _signed(product(t[j], t[j + 1]), j & 1)
            if prod:
                _put(out, col, t[:j], prod, t[j + 2:], j > 0, index, unit)
        odd = k
        if parity is not None and parity[t[k]]:
            odd += sum(parity[i] for i in t[:k])
        key = (t[k], t[0], odd & 1)
        prod = signed.get(key)
        if prod is None:
            prod = signed[key] = _signed(product(t[k], t[0]), odd & 1)
        if prod:
            _put(out, col, (), prod, t[1:k], False, index, unit)
    return Matrix(len(index), len(basis), field, out)


def bar_plus(basis, index, curvature, curvature_parity, parity, field, unit):
    """Curvature-insertion part of the bar differential, C_k -> C_{k+1}.

    Inserting W after slot j carries (-1)^j times the Koszul sign of moving
    W (of parity ``curvature_parity``) past a_1..a_j.  The other arguments
    are as for ``bar_minus``.
    """
    koszul = parity if curvature_parity else None
    signed = (curvature, _signed(curvature, 1))
    out = {}
    for col, t in enumerate(basis):
        odd = 0
        for j in range(len(t)):
            if j:
                odd += 1 if koszul is None else 1 + koszul[t[j]]
            _put(out, col, t[:j + 1], signed[odd & 1], t[j + 1:], True,
                 index, unit)
    return Matrix(len(index), len(basis), field, out)


# ---------------------------------------------------------------------------
# Finite-dimensional curved algebras


class FiniteCurvedAlgebra:
    """Finite-dimensional associative algebra with a central curvature element.

    ``mult[(i, j)]`` maps a basis pair to a sparse product vector; ``unit``
    indexes the multiplicative identity.  ``degrees`` is an optional list of
    cohomological degrees used for Koszul signs and compact-type checks.
    """

    def __init__(self, dim, mult, curvature, unit=0, degrees=None, field=QQ,
                 check=True):
        self.dim = dim
        self.field = field
        self.unit = unit
        self.degrees = list(degrees) if degrees is not None else None
        self.mult = {k: {b: c for b, c in v.items() if c} for k, v in mult.items()}
        self.curvature = {b: c for b, c in curvature.items() if c}
        if check:
            self._check()

    def _check(self):
        one = self.field.one
        for i in range(self.dim):
            if self.product(self.unit, i) != {i: one} or \
               self.product(i, self.unit) != {i: one}:
                raise ValueError("unit law fails at basis element %d" % i)
        # Centrality of the curvature element.
        for i in range(self.dim):
            left = self.multiply_vec(self.curvature, {i: one})
            right = self.multiply_vec({i: one}, self.curvature)
            if left != right:
                raise ValueError("curvature element is not central")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    ij = self.multiply_vec(self.product(i, j), {k: one})
                    jk = self.multiply_vec({i: one}, self.product(j, k))
                    if ij != jk:
                        raise ValueError("multiplication is not associative")

    def product(self, i, j):
        return self.mult.get((i, j), {})

    def multiply_vec(self, u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.product(i, j).items():
                    add_to(out, k, a * b * c)
        return out

    def parity(self, i):
        return 0 if self.degrees is None else self.degrees[i] % 2

    def curvature_parity(self):
        if self.degrees is None or not self.curvature:
            return 0
        ps = {self.degrees[i] % 2 for i in self.curvature}
        if len(ps) > 1:
            raise ValueError("curvature element has mixed parity")
        return ps.pop()

    def nonunit_indices(self):
        return [i for i in range(self.dim) if i != self.unit]

    @classmethod
    def truncated(cls, powers, curvature_terms, field, degrees=None):
        """k[x_1..x_n]/(x_i^{p_i}), p = ``powers``, on its monomial basis.

        The basis is the exponent tuples below ``powers`` in
        ``itertools.product`` order, so the unit is index 0.  The curvature
        is given as {exponent tuple: scalar}; ``degrees``, if given, lists
        the cohomological degree of each variable.
        """
        monos = list(iter_product(*(range(p) for p in powers)))
        index = {m: i for i, m in enumerate(monos)}
        one = field.one
        mult = {}
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                k = index.get(tuple(x + y for x, y in zip(a, b)))
                if k is not None:
                    mult[(i, j)] = {k: one}
        curvature = {}
        for m, c in curvature_terms.items():
            if m not in index:
                raise ValueError("curvature monomial %r lies outside the "
                                 "truncation %r" % (m, tuple(powers)))
            curvature[index[m]] = c
        if degrees is not None:
            degrees = [sum(e * d for e, d in zip(m, degrees)) for m in monos]
        # associative, unital and commutative by construction: no _check
        return cls(len(monos), mult, curvature, unit=0, degrees=degrees,
                   field=field, check=False)

    @classmethod
    def truncated_polynomial(cls, power, curvature_coeffs, field=QQ,
                             generator_degree=None):
        """k[x]/(x^power) with curvature given as {exponent: coefficient}."""
        return cls.truncated(
            (power,), {(e,): field.from_fraction(c)
                       for e, c in curvature_coeffs.items()},
            field, None if generator_degree is None else (generator_degree,))

    @classmethod
    def graded_points(cls, degrees, field=QQ):
        """Unit plus pairwise-annihilating generators in given degrees.

        Basis: 1 in degree 0 and one generator per entry of ``degrees``;
        products of two non-unit elements vanish.  Flat (zero curvature).
        """
        one = field.one
        n = len(degrees) + 1
        mult = {}
        for i in range(n):
            mult[(0, i)] = {i: one}
            mult[(i, 0)] = {i: one}
        return cls(n, mult, {}, unit=0, degrees=[0] + list(degrees),
                   field=field)


# ---------------------------------------------------------------------------
# Chain windows over a finite algebra


class ChainWindow:
    """Truncated chain spaces of a finite curved algebra.

    ``bases[k]`` lists the basis tensors of tensor degree ``k``; the zeroth
    slot runs over ``coefficients()``, and normalized windows exclude the
    unit from all slots after the zeroth.
    """

    def __init__(self, algebra, max_tensor, normalized=True):
        self.algebra = algebra
        self.max_tensor = max_tensor
        # the element dropped from slots after the zeroth; None drops nothing
        self.unit = algebra.unit if normalized else None
        self.parity = (None if algebra.degrees is None
                       else [d % 2 for d in algebra.degrees])
        slots = algebra.nonunit_indices() if normalized else list(range(algebra.dim))
        basis = [(i,) for i in self.coefficients()]
        self.bases = []
        self.index = []
        for k in range(max_tensor + 1):
            if k:
                basis = [t + (i,) for t in basis for i in slots]
            self.bases.append(basis)
            self.index.append({t: n for n, t in enumerate(basis)})

    def coefficients(self):
        """Indices of the zeroth slot: the algebra itself."""
        return range(self.algebra.dim)

    def product(self, a, b):
        return self.algebra.product(a, b)

    def dim(self, k):
        return len(self.bases[k])

    def boundary_minus(self, k):
        """Matrix of the multiplication part, C_k -> C_{k-1}."""
        return bar_minus(self.bases[k], self.index[k - 1], self.product,
                         self.parity, self.algebra.field, self.unit)

    def boundary_plus(self, k):
        """Matrix of the curvature insertions, C_k -> C_{k+1}."""
        alg = self.algebra
        return bar_plus(self.bases[k], self.index[k + 1], alg.curvature,
                        alg.curvature_parity(), self.parity, alg.field,
                        self.unit)

    def all_boundaries(self):
        bm = {k: self.boundary_minus(k) for k in range(1, self.max_tensor + 1)}
        bp = {k: self.boundary_plus(k) for k in range(self.max_tensor)}
        return bm, bp


def mixed_complex_check(algebra, max_tensor):
    """Verify the two squares and the anticommutator on the window interior."""
    if max_tensor < 3:
        raise WindowTooSmall("need tensor degree at least 3")
    win = ChainWindow(algebra, max_tensor)
    bm, bp = win.all_boundaries()
    for k in range(2, max_tensor + 1):
        if not (bm[k - 1] @ bm[k]).is_zero():
            return False
    for k in range(max_tensor - 1):
        if not (bp[k + 1] @ bp[k]).is_zero():
            return False
    for k in range(1, max_tensor):
        anti = bp[k - 1] @ bm[k] + bm[k + 1] @ bp[k]
        if not anti.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Pure-curvature algebras and the contracting homotopy


class PureCurvatureSpace(FiniteCurvedAlgebra):
    """Vector space with a distinguished element and no multiplication.

    It is a curved algebra with the zero product, no unit and every basis
    element even; its chains are unnormalized.
    """

    def __init__(self, dim_, curvature, field=QQ):
        super().__init__(dim_, {}, curvature, unit=None, field=field,
                         check=False)
        if not self.curvature:
            raise ValueError("curvature element must be nonzero")

    def homotopy(self, win, L, k):
        """h_k: C_k -> C_{k-1} on ``win``, pairing the last slot with L."""
        if k == 0:
            return Matrix(0, self.dim, self.field)
        index = win.index[k - 1]
        sign = self.field.one if (k + 1) % 2 == 0 else self.field.from_int(-1)
        out = {}
        for col, t in enumerate(win.bases[k]):
            c = L.get(t[k], self.field.zero)
            if not c:
                continue
            out[(index[t[:k]], col)] = sign * c
        return Matrix(len(index), win.dim(k), self.field, out)


def _normalize_functional(space, L):
    Lw = space.field.zero
    for b, c in space.curvature.items():
        Lw = Lw + L.get(b, space.field.zero) * c
    if not Lw:
        raise BadFunctional("functional vanishes on the curvature element")
    inv = space.field.one / Lw
    return {b: c * inv for b, c in L.items()}


def vanishing_homotopy(space, L, max_tensor):
    """Homotopy operators h_k with h.b + b.h = id verified on the interior.

    Returns the dict of h_k matrices; raises if the identity fails.
    """
    L = _normalize_functional(space, L)
    win = ChainWindow(space, max_tensor, normalized=False)
    bp = {k: win.boundary_plus(k) for k in range(max_tensor)}
    h = {k: space.homotopy(win, L, k) for k in range(max_tensor + 1)}
    for k in range(max_tensor):
        ident = Matrix.identity(win.dim(k), space.field)
        lhs = h[k + 1] @ bp[k]
        if k > 0:
            lhs = lhs + bp[k - 1] @ h[k]
        if lhs != ident:
            raise AssertionError("homotopy identity fails at tensor degree %d" % k)
    return h


def vanishing_homotopy_cochain(space, L, max_tensor):
    """Cochain-side homotopy: the transpose of the chain homotopy.

    Returns the dict of h^k: C^k -> C^{k+1}; raises unless
    d.h + h.d = id on the interior.
    """
    L = _normalize_functional(space, L)
    win = CochainWindow(space, max_tensor + 1)
    d = {k: win.d_curv(k) for k in range(1, max_tensor + 2)}
    h = {k: space.homotopy(win, L, k + 1).transpose()
         for k in range(max_tensor + 1)}
    for k in range(max_tensor):
        ident = Matrix.identity(win.dim(k), space.field)
        lhs = d[k + 1] @ h[k]
        if k > 0:
            lhs = lhs + h[k - 1] @ d[k]
        if lhs != ident:
            raise AssertionError("cochain homotopy identity fails at degree %d" % k)
    return h


# ---------------------------------------------------------------------------
# Cochain windows over a finite algebra


class CochainWindow(ChainWindow):
    """Truncated cochain spaces Hom(A^{tensor i}, A) of a finite algebra.

    Hom(A^{tensor i}, A) is the dual of A^* (x) A^{tensor i} (Loday, *Cyclic
    Homology*, 1.5), so cochains are the unnormalized chains with
    coefficients in the dual bimodule A^*: index ``dim + b`` in the zeroth
    slot stands for e_b^*, and the chain (dim + b,) + t for the cochain
    sending e_t to e_b and every other basis tensor to zero.  Each cochain
    matrix is the transpose of a chain matrix on this window.
    """

    def __init__(self, algebra, max_tensor):
        if not isinstance(algebra, FiniteCurvedAlgebra):
            raise InfiniteCarrier("cochain computations need a finite carrier")
        super().__init__(algebra, max_tensor, normalized=False)
        if self.parity is not None:
            self.parity = self.parity * 2   # e_b^* has the parity of e_b

    def coefficients(self):
        return range(self.algebra.dim, 2 * self.algebra.dim)

    def product(self, a, b):
        """The product of A, extended by its two actions on A^*:
        (f.a)(x) = f(ax) and (a.f)(x) = (-1)^{|a|(|f|+|x|)} f(xa)."""
        alg = self.algebra
        n = alg.dim
        if a < n and b < n:
            return alg.product(a, b)
        out = {}
        for x in range(n):
            if a >= n:
                v = alg.product(b, x).get(a - n)
            else:
                v = alg.product(x, a).get(b - n)
                if v and self.parity and self.parity[a] and \
                        self.parity[b] != self.parity[x]:
                    v = -v
            if v:
                out[n + x] = v
        return out

    def internal_degree(self, i, elem):
        degs = self.algebra.degrees or [0] * self.algebra.dim
        j = degs[elem[0] - self.algebra.dim] - sum(degs[x] for x in elem[1:])
        return i + j - 1

    def d_mult(self, i):
        """Multiplication part of the differential, C^i -> C^{i+1}."""
        return self.boundary_minus(i + 1).transpose()

    def d_curv(self, i):
        """Curvature-insertion part of the differential, C^i -> C^{i-1}."""
        return self.boundary_plus(i - 1).transpose()


# ---------------------------------------------------------------------------
# Homology reports and windowed computations


class HomologyReport:
    def __init__(self, variant, dims, stabilization=None):
        self.variant = variant
        self.dims = dims
        self.stabilization = {} if stabilization is None else stabilization


def _total(src, dst, dims, block, field):
    """Matrix of a total differential, from the direct sum of the ``src``
    spaces to the direct sum of the ``dst`` spaces, each in the order given.

    ``dims[s]`` is the dimension of space s and ``block(s, t)`` returns the
    component s -> t, or None where there is none; it is called only for t
    in ``dst``.
    """
    row_off, nrows = {}, 0
    for t in dst:
        row_off[t] = nrows
        nrows += dims[t]
    ent, ncols = {}, 0
    for s in src:
        for t in dst:
            mat = block(s, t)
            if mat is not None:
                ro = row_off[t]
                for (i, j), v in mat.entries.items():
                    ent[(ro + i, ncols + j)] = v
        ncols += dims[s]
    return Matrix(nrows, ncols, field, ent)


def hh_ordinary(algebra, max_tensor=10):
    """Parity-graded homology of the direct-sum total complex, windowed.

    ``differential(parity, cap)`` maps the tensor degrees of ``parity`` up
    to ``cap`` to those of the other parity up to ``cap + 1``; the value at
    cap M is the homology at its source.  Enlarging M by two adds one
    column, and a value is accepted once two consecutive caps agree
    (``settle``).  Boundaries are built only for the caps ``settle`` reads.

    Each differential serves two spots, as d_out of (parity, cap) and as
    d_in of (1 - parity, cap + 1); it is assembled at its first use, kept
    in ``shared`` and dropped at its second.  Its chain window reaches
    tensor degree cap + 1 and no further, so nothing past the cap that
    settles is built.
    """
    if not algebra.curvature:
        raise ValueError("curvature element is zero; use a flat computation")
    shared = {}

    def differential(parity, cap):
        mat = shared.pop((parity, cap), None)
        if mat is None:
            win = ChainWindow(algebra, cap + 1)

            def block(k, t):
                if t == k - 1:
                    return win.boundary_minus(k)
                if t == k + 1:
                    return win.boundary_plus(k)
                return None

            mat = shared[(parity, cap)] = _total(
                range(parity, cap + 1, 2), range(1 - parity, cap + 2, 2),
                [win.dim(k) for k in range(cap + 2)], block, algebra.field)
        return mat

    out = {}
    stab = {}
    for parity in (0, 1):
        caps = ((cap, homology_dim(differential(1 - parity, cap - 1),
                                   differential(parity, cap)))
                for cap in range(parity, max_tensor, 2))
        out[parity], stab[parity] = settle(
            caps, "parity %d did not settle within tensor window %d"
            % (parity, max_tensor))
    return HomologyReport("ordinary", out, stab)


# ---------------------------------------------------------------------------
# Polynomial (graded) backend


def poly_chain_basis(ring, k, total_degree):
    """Monomial tensors (m_0 | .. | m_k), interior slots of positive degree.

    The tuple is built once per ring, k and degree, in the ring's cache.
    """
    key = (k, total_degree)
    hit = ring._cache.get(key)
    if hit is not None:
        return hit
    if k == 0:
        out = [(m,) for m in ring.monomials_of_degree(total_degree)]
    else:
        out = []
        for last_deg in range(min(ring.weights), total_degree + 1):
            for rest in poly_chain_basis(ring, k - 1, total_degree - last_deg):
                for m in ring.monomials_of_degree(last_deg):
                    out.append(rest + (m,))
    out = ring._cache[key] = tuple(out)
    return out


def poly_boundary_minus(ring, k, total_degree):
    """Multiplication boundary on graded monomial chains, C_k -> C_{k-1}."""
    one = ring.field.one
    dst = poly_chain_basis(ring, k - 1, total_degree)
    return bar_minus(poly_chain_basis(ring, k, total_degree),
                     {t: n for n, t in enumerate(dst)},
                     lambda a, b: {mono_mul(a, b): one}, None, ring.field,
                     None)


def poly_boundary_plus(model, k, total_degree):
    """Insertion of the potential, C_k(deg D) -> C_{k+1}(deg D + deg W)."""
    ring = model.ring
    dst = poly_chain_basis(ring, k + 1, total_degree + model.degree)
    return bar_plus(poly_chain_basis(ring, k, total_degree),
                    {t: n for n, t in enumerate(dst)}, model.potential.terms,
                    0, None, ring.field, None)


def _bm_spot_spaces(model, n, q):
    """Block layout of the first-quadrant total space at total degree n, charge q.

    Blocks are (column_shift i, tensor degree k = n - 2i, chain degree
    q - i*d); the charge q is preserved by both differentials.
    """
    d = model.degree
    blocks = []
    for i in range(n // 2 + 1):
        k = n - 2 * i
        D = q - i * d
        if D >= 0:
            blocks.append((i, k, D))
    return blocks


def _bm_differential(model, n, q):
    """Assembled differential tot_n -> tot_{n-1} at fixed charge q."""
    ring = model.ring
    src = _bm_spot_spaces(model, n, q)
    dst = _bm_spot_spaces(model, n - 1, q)
    dims = {b: len(poly_chain_basis(ring, b[1], b[2])) for b in src + dst}

    def block(s, t):
        i, k, D = s
        if t == (i, k - 1, D):
            return poly_boundary_minus(ring, k, D)
        if t == (i - 1, k + 1, D + model.degree):
            return poly_boundary_plus(model, k, D)
        return None

    return _total(src, dst, dims, block, ring.field)


def bm_spot_homology(model, n, q, shared=None):
    """Homology dimension of the first-quadrant total complex at (n, charge q).

    ``shared``, if given, maps (n, q) to a differential built by another
    spot: a spot whose n has the parity of the variable count leaves its
    d_in there, and the spot at n + 1 pops it as its d_out, so the one
    matrix is assembled and ranked once.
    """
    d_out = None if shared is None else shared.pop((n, q), None)
    if d_out is None:
        d_out = _bm_differential(model, n, q)
    d_in = _bm_differential(model, n + 1, q)
    if shared is not None and (n - model.ring.nvars) % 2 == 0:
        shared[(n + 1, q)] = d_in
    return homology_dim(d_in, d_out)


def hh_bm_graded(model, internal_degrees):
    """Borel-Moore dimensions per internal degree, read at one shift.

    BM homology at internal degree e is the limit over r of the homology
    of the first-quadrant total complex T at (n0 + 2r, e + r*d), n0 the
    variable count N or N + 1 by parity and d = deg W.  Each degree is
    read at r = 0, which is exact.  T(n, q) = (+)_{i >= 0} C_{n-2i}(A) in
    chain degree q - i*d, with A = k[x_1..x_N], and dropping column i = 0
    and renumbering i -> i - 1 is a surjective chain map
    pi: T(n+2, q+d) -> T(n, q).  Its kernel is column 0, the normalized
    bar complex of A with b alone, whose homology in degree m is
    Omega^m_A by Hochschild-Kostant-Rosenberg, zero for m > N over every
    field (Loday, *Cyclic Homology*, 3.2).  The long exact sequence of pi
    then makes H_n(pi) an isomorphism for every n >= N, so every spot read
    here has the value of every later shift; the tower is surjective with
    constant homology, so it is Mittag-Leffler and r = 0 is its limit.

    Both parities use the differential at (N + 1, e), the first as d_in,
    the second as d_out: it is assembled once and kept in ``shared``
    between the two uses, so each degree builds the differentials at
    (N, e), (N + 1, e) and (N + 2, e) only.  Raises ``ValueError`` if a
    degree is requested twice.
    """
    model.require_homogeneous()
    if len(set(internal_degrees)) != len(internal_degrees):
        raise ValueError("internal degrees repeat: %r" % (internal_degrees,))
    n0 = model.ring.nvars
    dims = {}
    for e in internal_degrees:
        shared = {}
        for parity_offset in (0, 1):
            dims[(e, (n0 + parity_offset) % 2)] = bm_spot_homology(
                model, n0 + parity_offset, e, shared)
    return HomologyReport("borel_moore", dims)


# ---------------------------------------------------------------------------
# Compact type


def compact_type_check(algebra, max_internal=4):
    """Check the degree bound and that windowed HH and HH_c dims agree.

    The carrier must be finite dimensional, Z-graded in non-positive
    degrees.  Internal degrees from -max_internal to max_internal are
    compared.
    """
    if algebra.degrees is None:
        raise PositiveDegreeCarrier("carrier must be Z-graded")
    if any(deg > 0 for deg in algebra.degrees):
        raise PositiveDegreeCarrier("carrier has positive-degree elements")
    min_deg = min(algebra.degrees)
    # The tensor degree of any cochain component of internal degree m is
    # bounded by m + 1 - min_deg; the window reaches one past the bound at
    # m = max_internal + 1.
    cap = max_internal + 3 - min_deg
    win = CochainWindow(algebra, cap + 1)
    d_mult = {i: win.d_mult(i) for i in range(cap + 1)}
    d_curv = {i: win.d_curv(i) for i in range(1, cap + 2)}

    # index cochain basis elements by internal degree
    by_degree = {}
    for i in range(cap + 2):
        for n, elem in enumerate(win.bases[i]):
            m = win.internal_degree(i, elem)
            by_degree.setdefault(m, []).append((i, n))
            if i > m + 1 - min_deg:
                return False  # degree bound violated

    # the entries of both differentials, bucketed by source element
    targets = {}
    for step, parts in ((1, d_mult), (-1, d_curv)):
        for i, mat in parts.items():
            for (r, c), v in mat.entries.items():
                targets.setdefault((i, c), []).append(((i + step, r), v))

    def graded_matrix(m, icap):
        """Differential from internal degree m to m + 1, tensor degrees <= icap."""
        src = [e for e in by_degree.get(m, []) if e[0] <= icap]
        dst = [e for e in by_degree.get(m + 1, []) if e[0] <= icap]
        dst_pos = {e: p for p, e in enumerate(dst)}
        ent = {}
        for p, e in enumerate(src):
            for tgt, v in targets.get(e, ()):
                q = dst_pos.get(tgt)
                if q is not None:
                    ent[(q, p)] = v
        return Matrix(len(dst), len(src), algebra.field, ent)

    for m in range(-max_internal, max_internal + 1):
        full = homology_dim(graded_matrix(m - 1, cap + 1),
                            graded_matrix(m, cap + 1))
        icap = max(0, m + 1 - min_deg) + 1
        capped = homology_dim(graded_matrix(m - 1, icap),
                              graded_matrix(m, icap))
        if full != capped:
            return False
    return True
