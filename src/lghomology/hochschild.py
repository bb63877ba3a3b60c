"""Curved Hochschild machinery.

Chains are normalized by default: slots after the zeroth are drawn from a
complement of the unit.  The boundary splits as a tensor-degree-lowering
part (multiplications, with the wrap-around term) and a raising part
(insertions of the curvature element).  Ordinary homology is read on one
chain window up to tensor degree ``MIN_TENSOR_WINDOW``, and that value is
proved, not guessed: the contracting homotopy verified on the same window
makes every truncation it covers acyclic (``hh_ordinary``).
Borel-Moore homology is read at one shift of the first-quadrant complex,
which is exact by the Hochschild-Kostant-Rosenberg argument in
``hh_bm_graded``.

Every chain boundary matrix -- finite algebras, cross products and the
graded polynomial ring -- is built by the bar-complex engine
``bar_minus``/``bar_plus``; the chain signs live there and nowhere else.
Positions after the zeroth slot count with alternating signs; the
wrap-around term additionally carries the Koszul sign of moving the last
element past the others, and a curvature insertion the Koszul sign of
moving W past the slots it jumps (cohomological degrees, when present,
determine parities).  A cochain matrix is the transpose of a chain matrix
with coefficients in the dual bimodule, on a ``cochains.CochainWindow``.

The contracting homotopy of the vanishing theorem, ``homotopy``, pairs the
last slot of any chain window with a functional L, L(W) = 1; ``_contract``
verifies h.B + B.h = id on it, and the cochain homotopy is its transpose
(``cochains.vanishing_homotopy_cochain``).  The cochain side and the
compact-type check live in ``cochains`` because no subcommand runs them,
so an ``lgh`` process never compiles them.

Both total complexes -- the direct-sum one of ordinary HH
(``ordinary_differential``) and the first-quadrant one of Borel-Moore HH
(``_bm_differential``) -- are assembled from their blocks by ``_total``,
which takes the differential as one rule giving the component between two
spaces.

Homology is read spot by spot along a complex: consecutive differentials of
a lazy sequence (``itertools.pairwise``) are the d_in and d_out of one spot,
so each is built once, serves the two spots it joins and is dropped.
"""

from __future__ import annotations

from itertools import pairwise, product as iter_product

from .errors import (BadFunctional, ParityViolation, UnitCurvature,
                     WindowTooLarge, WindowTooSmall)
# ``rank`` is unused here but kept: lghbench/tracer.py rebinds hochschild.rank
from .linalg import Matrix, QQ, add_to, homology_dim, rank  # noqa: F401
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
            raise ParityViolation("curvature element has mixed parity")
        return ps.pop()

    def nonunit_indices(self):
        return [i for i in range(self.dim) if i != self.unit]

    @classmethod
    def truncated(cls, powers, curvature_terms, field, degrees=None):
        """k[x_1..x_n]/(x_i^{p_i}), p = ``powers``, on its monomial basis.

        The basis is the exponent tuples below ``powers`` in
        ``itertools.product`` order, listed in the result's ``monomials``,
        so the unit is index 0.  The curvature is given as {exponent tuple:
        scalar}; ``degrees``, if given, lists the cohomological degree of
        each variable.
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
        alg = cls(len(monos), mult, curvature, unit=0, degrees=degrees,
                  field=field, check=False)
        alg.monomials = monos
        return alg

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

# The most basis tensors a normalized chain window may hold.  Over a carrier
# of dimension 16 the window up to tensor degree 4 holds 0.87 million and
# takes about 270 MB to build; over dimension 25 it holds 8.7 million.
MAX_WINDOW_TENSORS = 10 ** 6
# The one window of ``hh_ordinary``: its differential at cap 3 reaches
# tensor degree 4, and the homotopy identity verified below tensor degree 4
# makes the truncations at caps 0-3 acyclic.
MIN_TENSOR_WINDOW = 4


def check_window(dim, max_tensor):
    """The number of tensors in a normalized chain window up to tensor
    degree ``max_tensor`` over a carrier of dimension ``dim``,
    dim * sum_{k <= max_tensor} (dim - 1)^k.

    Raises ``WindowTooLarge`` above ``MAX_WINDOW_TENSORS``, before anything
    is allocated.
    """
    n = dim * sum((dim - 1) ** k for k in range(max_tensor + 1))
    if n > MAX_WINDOW_TENSORS:
        raise WindowTooLarge(
            "a chain window up to tensor degree %d over a carrier of "
            "dimension %d holds %d tensors, over the limit of %d"
            % (max_tensor, dim, n, MAX_WINDOW_TENSORS))
    return n


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
# The contracting homotopy


def homotopy(win, L, k):
    """h_k: C_k -> C_{k-1} on ``win``, pairing the last slot with L."""
    field = win.algebra.field
    if k == 0:
        return Matrix(0, win.dim(0), field)
    index = win.index[k - 1]
    sign = field.one if (k + 1) % 2 == 0 else field.from_int(-1)
    out = {}
    for col, t in enumerate(win.bases[k]):
        c = L.get(t[k], field.zero)
        if c:
            out[(index[t[:k]], col)] = sign * c
    return Matrix(len(index), win.dim(k), field, out)


def _contract(win, L):
    """The h_k, k <= ``win.max_tensor``, for L rescaled to L(W) = 1, with
    h.B + B.h = id verified below ``win.max_tensor``.

    B, the insertion of W, does not involve the product, so the identity
    holds on unnormalized chains over every carrier, W = 1 included.
    Raises ``ParityViolation`` for an odd or mixed W, ``BadFunctional`` for
    L(W) = 0 before any matrix is built, ``AssertionError`` on a failure.
    """
    field = win.algebra.field
    if win.algebra.curvature_parity():
        raise ParityViolation("the curvature element is odd")
    Lw = field.zero
    for b, c in win.algebra.curvature.items():
        Lw = Lw + L.get(b, field.zero) * c
    if not Lw:
        raise BadFunctional("functional vanishes on the curvature element")
    L = {b: c / Lw for b, c in L.items()}
    bp = [win.boundary_plus(k) for k in range(win.max_tensor)]
    h = {k: homotopy(win, L, k) for k in range(win.max_tensor + 1)}
    for k in range(win.max_tensor):
        lhs = h[k + 1] @ bp[k]
        if k > 0:
            lhs = lhs + bp[k - 1] @ h[k]
        if lhs != Matrix.identity(win.dim(k), field):
            raise AssertionError("homotopy identity fails at tensor degree %d" % k)
    return h


def vanishing_homotopy(algebra, L, max_tensor):
    """Chain homotopies h_k, k <= ``max_tensor``, of any finite curved
    algebra, checked by ``_contract`` on its unnormalized window."""
    return _contract(ChainWindow(algebra, max_tensor, normalized=False), L)


# ---------------------------------------------------------------------------
# Homology reports and windowed computations


class HomologyReport:
    def __init__(self, dims, stabilization=None):
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


def ordinary_differential(win, cap):
    """The direct-sum total differential b + B truncated at ``cap``: from the
    tensor degrees of parity cap % 2 up to ``cap`` to those of the other
    parity up to cap + 1, on ``win``, which reaches tensor degree cap + 1."""
    def block(k, t):
        if t == k - 1:
            return win.boundary_minus(k)
        if t == k + 1:
            return win.boundary_plus(k)
        return None

    parity = cap % 2
    return _total(range(parity, cap + 1, 2), range(1 - parity, cap + 2, 2),
                  [win.dim(k) for k in range(cap + 2)], block,
                  win.algebra.field)


def hh_ordinary(algebra):
    """Parity-graded homology of the direct-sum total complex: 0, proved on
    one window.

    The truncation at cap M is the homology at parity M % 2 between
    ``ordinary_differential`` at M - 1 and at M.  One normalized window up
    to tensor degree ``MIN_TENSOR_WINDOW`` carries the differentials at
    caps 1, 2 and 3; parity 0 is read at cap 2 and parity 1 at cap 3, and
    ``check_window`` refuses a window over ``MAX_WINDOW_TENSORS`` before it
    is built.  ``_contract`` verifies h.B + B.h = id below tensor degree 4
    on the same window, with L the dual of the first non-unit basis element
    in W's support.

    That identity makes every truncation it covers acyclic.  Let x be a
    cycle at cap M <= 3 and x_j its part of top tensor degree.  The
    component of D.x in degree j + 1 is B.x_j, so B.x_j = 0 and
    x_j = (h.B + B.h) x_j = B.h.x_j.  Then h.x_j lies in degree j - 1 of
    the other parity, inside the truncation, and x - D.h.x_j =
    x - x_j - b.h.x_j has top degree at most j - 2.  By induction x is a
    boundary, and at j = 0 the identity reads h_1.B_0 = id, so x_0 = 0.
    The two values read must be that 0; a failed identity or a nonzero
    value raises ``AssertionError``.  The report's stabilization holds the
    caps read, {0: 2, 1: 3}.

    A curvature that is a multiple of the unit is refused with
    ``UnitCurvature`` before the window is built: the normalized chains
    drop the unit, so they see none of W.
    """
    if not algebra.curvature:
        raise ValueError("curvature element is zero; use a flat computation")
    if set(algebra.curvature) == {algebra.unit}:
        raise UnitCurvature("curvature is a multiple of the unit; ordinary "
                            "HH is not read on normalized chains")
    check_window(algebra.dim, MIN_TENSOR_WINDOW)
    win = ChainWindow(algebra, MIN_TENSOR_WINDOW)
    d1, d2, d3 = (ordinary_differential(win, cap) for cap in (1, 2, 3))
    first = min(b for b in algebra.curvature if b != algebra.unit)
    _contract(win, {first: algebra.field.one})
    out = {0: homology_dim(d1, d2), 1: homology_dim(d2, d3)}
    if any(out.values()):
        raise AssertionError("ordinary HH read %r, not 0" % out)
    return HomologyReport(out, {0: 2, 1: 3})


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


# The most chain tensors a Borel-Moore computation may build.  On x^3+y^3,
# degree 10 builds 83,578 in 4 s and 136 MB, degree 11 172,822 in 10 s
# (2 vCPU).
MAX_BM_TENSORS = 10 ** 5


def check_bm_window(ring, max_degree):
    """Bound the chain tensors that reading degrees up to ``max_degree``
    builds: the sum of c_k(D) over k <= N + 2 and D <= ``max_degree``,
    every basis ``poly_chain_basis`` may build for the spaces joined by
    the differentials at (N..N + 2, e).

    c_0(D) counts the monomials of degree D and c_k(D) is the sum of
    c_{k-1}(D - j) c_0(j) over j >= 1.  The sum grows with D, so it stops
    and raises ``WindowTooLarge`` as soon as it passes ``MAX_BM_TENSORS``,
    before any chain basis is built.
    """
    counts = [[] for _ in range(ring.nvars + 3)]     # counts[k][D] = c_k(D)
    steps = []                                       # j >= 1 with c_0(j) > 0
    total = 0
    for D in range(max_degree + 1):
        counts[0].append(len(ring.monomials_of_degree(D)))
        if D and counts[0][D]:
            steps.append(D)
        for k in range(1, len(counts)):
            counts[k].append(sum(counts[k - 1][D - j] * counts[0][j]
                                 for j in steps))
        total += sum(c[D] for c in counts)
        if total > MAX_BM_TENSORS:
            raise WindowTooLarge(
                "Borel-Moore degrees up to %d build over %d chain tensors"
                % (max_degree, MAX_BM_TENSORS))
    return total


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


def bm_spot_homology(model, n, q):
    """Homology of the first-quadrant total complex at (n, charge q)."""
    d_out = _bm_differential(model, n, q)
    return homology_dim(_bm_differential(model, n + 1, q), d_out)


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

    Each degree walks the differentials at (N, e), (N + 1, e) and
    (N + 2, e) pairwise, so the one at (N + 1, e) is the d_in of parity
    N and the d_out of the other.  Raises ``ValueError`` if a degree is
    requested twice, and ``WindowTooLarge`` before anything is assembled
    if the bases would pass ``MAX_BM_TENSORS`` (``check_bm_window``).
    """
    model.require_homogeneous()
    if len(set(internal_degrees)) != len(internal_degrees):
        raise ValueError("internal degrees repeat: %r" % (internal_degrees,))
    check_bm_window(model.ring, max(internal_degrees, default=0))
    n0 = model.ring.nvars
    dims = {}
    for e in internal_degrees:
        maps = (_bm_differential(model, n, e) for n in range(n0, n0 + 3))
        for n, (d_out, d_in) in enumerate(pairwise(maps), n0):
            dims[(e, n % 2)] = homology_dim(d_in, d_out)
    return HomologyReport(dims)
