"""Curved Hochschild machinery.

Chains are normalized by default: slots after the zeroth are drawn from a
complement of the unit.  The boundary splits as a tensor-degree-lowering
part (multiplications, with the wrap-around term) and a raising part
(insertions of the curvature element).  Homology is computed on finite
windows of the associated bicomplex and accepted only after the reported
dimensions stop changing as the window grows.

Every chain boundary matrix -- finite algebras, pure-curvature spaces,
cross products and the graded polynomial ring -- is built by the bar-complex
engine ``bar_minus``/``bar_plus``; the chain signs live there and nowhere
else.  Positions after the zeroth slot count with alternating signs; the
wrap-around term additionally carries the Koszul sign of moving the last
element past the others, and a curvature insertion the Koszul sign of
moving W past the slots it jumps (cohomological degrees, when present,
determine parities).  Cochain matrices are built by ``CochainWindow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (BadFunctional, InfiniteCarrier, NoStabilization,
                     PositiveDegreeCarrier, WindowTooSmall)
# ``rank`` is unused here but kept: lghbench/tracer.py rebinds hochschild.rank
from .linalg import Matrix, QQ, homology_dim, rank  # noqa: F401
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
        key = (row, col)
        cur = out.get(key)
        s = c if cur is None else cur + c
        if s:
            out[key] = s
        elif cur is not None:
            del out[key]


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

    def __init__(self, labels, mult, curvature, unit=0, degrees=None, field=QQ,
                 check=True):
        self.labels = list(labels)
        self.dim = len(self.labels)
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
                    cur = out.get(k)
                    s = a * b * c if cur is None else cur + a * b * c
                    if s:
                        out[k] = s
                    elif cur is not None:
                        del out[k]
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
    def truncated_polynomial(cls, power, curvature_coeffs, field=QQ,
                             generator_degree=None):
        """k[x]/(x^power) with curvature given as {exponent: coefficient}."""
        labels = ["x^%d" % e for e in range(power)]
        mult = {}
        one = field.one
        for i in range(power):
            for j in range(power):
                if i + j < power:
                    mult[(i, j)] = {i + j: one}
        curv = {e: field.from_fraction(c) for e, c in curvature_coeffs.items() if c}
        degrees = None
        if generator_degree is not None:
            degrees = [e * generator_degree for e in range(power)]
        return cls(labels, mult, curv, unit=0, degrees=degrees, field=field)

    @classmethod
    def graded_points(cls, degrees, field=QQ):
        """Unit plus pairwise-annihilating generators in given degrees.

        Basis: 1 in degree 0 and one generator per entry of ``degrees``;
        products of two non-unit elements vanish.  Flat (zero curvature).
        """
        labels = ["1"] + ["e%d" % i for i in range(len(degrees))]
        one = field.one
        n = len(degrees) + 1
        mult = {}
        for i in range(n):
            mult[(0, i)] = {i: one}
            mult[(i, 0)] = {i: one}
        return cls(labels, mult, {}, unit=0, degrees=[0] + list(degrees),
                   field=field)


# ---------------------------------------------------------------------------
# Chain windows over a finite algebra


class ChainWindow:
    """Truncated chain spaces of a finite curved algebra.

    ``bases[k]`` lists the basis tensors of tensor degree ``k``; normalized
    windows exclude the unit from all slots after the zeroth.
    """

    def __init__(self, algebra, max_tensor, normalized=True):
        self.algebra = algebra
        self.max_tensor = max_tensor
        # the element dropped from slots after the zeroth; None drops nothing
        self.unit = algebra.unit if normalized else None
        self.parity = (None if algebra.degrees is None
                       else [d % 2 for d in algebra.degrees])
        slots = algebra.nonunit_indices() if normalized else list(range(algebra.dim))
        self.bases = []
        self.index = []
        for k in range(max_tensor + 1):
            if k == 0:
                basis = [(i,) for i in range(algebra.dim)]
            else:
                basis = [t + (i,) for t in self.bases[k - 1] for i in slots]
            self.bases.append(basis)
            self.index.append({t: n for n, t in enumerate(basis)})

    def dim(self, k):
        return len(self.bases[k])

    def boundary_minus(self, k):
        """Matrix of the multiplication part, C_k -> C_{k-1}."""
        alg = self.algebra
        return bar_minus(self.bases[k], self.index[k - 1], alg.product,
                         self.parity, alg.field, self.unit)

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
        super().__init__(range(dim_), {}, curvature, unit=None, field=field,
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
    """Cochain-side homotopy: pairs the first argument with the functional."""
    L = _normalize_functional(space, L)
    field = space.field
    win = CochainWindow(space, max_tensor + 1)

    def h_mat(k):
        # C^k -> C^{k+1}: [h(phi)](a_1..a_{k+1}) = L(a_1) phi(a_2..)
        index = win.index[k]
        out = {}
        for row, (t, b) in enumerate(win.bases[k + 1]):
            c = L.get(t[0], field.zero)
            if not c:
                continue
            out[(row, index[(t[1:], b)])] = c
        return Matrix(win.dim(k + 1), win.dim(k), field, out)

    d = {k: win.d_curv(k) for k in range(1, max_tensor + 2)}
    h = {k: h_mat(k) for k in range(max_tensor + 1)}
    for k in range(max_tensor):
        ident = Matrix.identity(win.dim(k), field)
        lhs = d[k + 1] @ h[k]
        if k > 0:
            lhs = lhs + h[k - 1] @ d[k]
        if lhs != ident:
            raise AssertionError("cochain homotopy identity fails at degree %d" % k)
    return h


# ---------------------------------------------------------------------------
# Cochain windows over a finite algebra


class CochainWindow:
    """Truncated cochain spaces Hom(A^{tensor i}, A) of a finite algebra."""

    def __init__(self, algebra, max_tensor):
        if not isinstance(algebra, FiniteCurvedAlgebra):
            raise InfiniteCarrier("cochain computations need a finite carrier")
        self.algebra = algebra
        self.max_tensor = max_tensor
        self.bases = []
        self.index = []
        ins = [()]
        for i in range(max_tensor + 1):
            basis = [(t, b) for t in ins for b in range(algebra.dim)]
            self.bases.append(basis)
            self.index.append({e: n for n, e in enumerate(basis)})
            ins = [t + (j,) for t in ins for j in range(algebra.dim)]

    def dim(self, i):
        return len(self.bases[i])

    def internal_degree(self, i, elem):
        t, b = elem
        degs = self.algebra.degrees or [0] * self.algebra.dim
        j = degs[b] - sum(degs[x] for x in t)
        return i + j - 1

    def _add(self, out, key, val):
        cur = out.get(key)
        s = val if cur is None else cur + val
        if s:
            out[key] = s
        elif cur is not None:
            del out[key]

    def d_mult(self, i):
        """Multiplication part of the differential, C^i -> C^{i+1}."""
        alg = self.algebra
        field = alg.field
        one, minus_one = field.one, field.from_int(-1)
        src_index = self.index[i]
        out = {}
        for row, (s, b) in enumerate(self.bases[i + 1]):
            pars = [alg.parity(x) for x in s]
            # 1) a_1 * phi(a_2..a_{i+1})
            t = s[1:]
            for c in range(alg.dim):
                prod = alg.product(s[0], c)
                coeff = prod.get(b)
                if coeff:
                    col = src_index[(t, c)]
                    phi_internal_par = 0
                    if alg.degrees is not None:
                        # parity of the cochain's output-minus-input degree
                        phi_internal_par = (alg.degrees[c]
                                            - sum(alg.degrees[x] for x in t)) % 2
                    sign = one if (pars[0] * phi_internal_par) % 2 == 0 else minus_one
                    self._add(out, (row, col), sign * coeff)
            # 2) interior multiplications
            for jpos in range(1, i + 1):
                merged = alg.product(s[jpos - 1], s[jpos])
                sign = one if jpos % 2 == 0 else minus_one
                for mid, coeff in merged.items():
                    t = s[:jpos - 1] + (mid,) + s[jpos + 1:]
                    self._add(out, (row, src_index[(t, b)]), sign * coeff)
            # 3) phi(a_1..a_i) * a_{i+1}
            t = s[:i]
            sign = one if (i + 1) % 2 == 0 else minus_one
            for c in range(alg.dim):
                prod = alg.product(c, s[i])
                coeff = prod.get(b)
                if coeff:
                    col = src_index[(t, c)]
                    self._add(out, (row, col), sign * coeff)
        return Matrix(self.dim(i + 1), self.dim(i), field, out)

    def d_curv(self, i):
        """Curvature-insertion part of the differential, C^i -> C^{i-1}."""
        alg = self.algebra
        field = alg.field
        one, minus_one = field.one, field.from_int(-1)
        src_index = self.index[i]
        out = {}
        for row, (s, b) in enumerate(self.bases[i - 1]):
            for j in range(i):
                sign = one if j % 2 == 0 else minus_one
                for idx, c in alg.curvature.items():
                    col = src_index[(s[:j] + (idx,) + s[j:], b)]
                    self._add(out, (row, col), sign * c)
        return Matrix(self.dim(i - 1), self.dim(i), field, out)


def cochain_diff(algebra, max_tensor):
    """All cochain differential matrices on a window.

    Returns (d_mult, d_curv): tensor-degree-raising and -lowering parts.
    """
    win = CochainWindow(algebra, max_tensor)
    d_mult = {i: win.d_mult(i) for i in range(max_tensor)}
    d_curv = {i: win.d_curv(i) for i in range(1, max_tensor + 1)}
    return d_mult, d_curv


# ---------------------------------------------------------------------------
# Homology reports and windowed computations


@dataclass
class HomologyReport:
    variant: str
    dims: dict
    stabilization: dict = dc_field(default_factory=dict)


def _assemble_block(src_ks, dst_ks, src_dims, dst_dims, blocks, field):
    """Assemble a block matrix from per-(src_k, dst_k) component matrices."""
    row_off, off = {}, 0
    for k in dst_ks:
        row_off[k] = off
        off += dst_dims[k]
    nrows = off
    col_off, off = {}, 0
    for k in src_ks:
        col_off[k] = off
        off += src_dims[k]
    ncols = off
    ent = {}
    for (sk, dk), mat in blocks.items():
        if sk not in col_off or dk not in row_off:
            continue
        ro, co = row_off[dk], col_off[sk]
        for (i, j), v in mat.entries.items():
            ent[(ro + i, co + j)] = v
    return Matrix(nrows, ncols, field, ent)


def hh_ordinary(algebra, max_tensor=10):
    """Parity-graded homology of the direct-sum total complex, windowed.

    The window at cap M holds all tensor degrees of one parity up to M;
    enlarging M by two adds one column.  A value is accepted once two
    consecutive caps agree.
    """
    if not algebra.curvature:
        raise ValueError("curvature element is zero; use a flat computation")
    win = ChainWindow(algebra, max_tensor + 1)
    bm, bp = win.all_boundaries()
    dims_of = {k: win.dim(k) for k in range(max_tensor + 2)}
    field = algebra.field

    def spot_value(parity, cap):
        # chains: degrees = parity mod 2, k <= cap
        mid = [k for k in range(parity % 2, cap + 1, 2)]
        src = [k for k in range(1 - parity % 2, cap, 2)]      # cap M-1
        dst = [k for k in range(1 - parity % 2, cap + 2, 2)]  # cap M+1
        blocks_in = {}
        for k in src:
            if k >= 1:
                blocks_in[(k, k - 1)] = bm[k]
            blocks_in[(k, k + 1)] = bp[k]
        blocks_out = {}
        for k in mid:
            if k >= 1:
                blocks_out[(k, k - 1)] = bm[k]
            blocks_out[(k, k + 1)] = bp[k]
        d_in = _assemble_block(src, mid, dims_of, dims_of, blocks_in, field)
        d_out = _assemble_block(mid, dst, dims_of, dims_of, blocks_out, field)
        return homology_dim(d_in, d_out)

    dims = {}
    stab = {}
    for parity in (0, 1):
        prev = None
        settled = None
        for cap in range(parity, max_tensor, 2):
            val = spot_value(parity, cap)
            if prev is not None and val == prev:
                settled = val
                stab[parity] = cap
                break
            prev = val
        if settled is None:
            raise NoStabilization(
                "parity %d did not settle within tensor window %d"
                % (parity, max_tensor))
        dims[parity] = settled
    return HomologyReport("ordinary", dims, stab)


# ---------------------------------------------------------------------------
# Polynomial (graded) backend


def poly_chain_basis(ring, k, total_degree, _cache={}):
    """Monomial tensors (m_0 | .. | m_k), interior slots of positive degree."""
    key = (ring, k, total_degree)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    out = []
    if k == 0:
        out = [(m,) for m in ring.monomials_of_degree(total_degree)]
    else:
        min_w = min(ring.weights)
        for last_deg in range(min_w, total_degree - 0 + 1):
            for rest in poly_chain_basis(ring, k - 1, total_degree - last_deg):
                for m in ring.monomials_of_degree(last_deg):
                    out.append(rest + (m,))
    _cache[key] = out
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
        if k < 0 or D < 0:
            continue
        if n - i < i:  # below the diagonal of the first-quadrant complex
            continue
        blocks.append((i, k, D))
    return blocks


def _bm_differential(model, n, q):
    """Assembled differential tot_n -> tot_{n-1} at fixed charge q."""
    ring = model.ring
    field = ring.field
    src_blocks = _bm_spot_spaces(model, n, q)
    dst_blocks = _bm_spot_spaces(model, n - 1, q)
    src_dims = {b: len(poly_chain_basis(ring, b[1], b[2])) for b in src_blocks}
    dst_dims = {b: len(poly_chain_basis(ring, b[1], b[2])) for b in dst_blocks}
    blocks = {}
    for (i, k, D) in src_blocks:
        if k >= 1 and (i, k - 1, D) in dst_dims:
            blocks[((i, k, D), (i, k - 1, D))] = poly_boundary_minus(ring, k, D)
        if i >= 1 and (i - 1, k + 1, D + model.degree) in dst_dims:
            blocks[((i, k, D), (i - 1, k + 1, D + model.degree))] = \
                poly_boundary_plus(model, k, D)
    return _assemble_block(src_blocks, dst_blocks, src_dims, dst_dims, blocks,
                           field)


def bm_spot_homology(model, n, q, ranks=None):
    """Homology dimension of the first-quadrant total complex at (n, charge q).

    ``ranks``, if given, maps (n, q) to the rank of that differential; it
    is read and filled so that no differential is ranked twice.
    """
    d_out = _bm_differential(model, n, q)
    d_in = _bm_differential(model, n + 1, q)
    return homology_dim(d_in, d_out, ranks, ((n + 1, q), (n, q)))


def hh_bm_graded(model, internal_degrees, max_r=5):
    """Borel-Moore dimensions per internal degree, stabilized over shifts.

    For each requested degree the value is read off the tower of
    first-quadrant windows; it is accepted when two consecutive shifts
    agree.  The complementary parity is checked to stabilize to zero.
    """
    model.require_homogeneous()
    n0 = model.ring.nvars
    d = model.degree
    dims = {}
    stab = {}
    # (n, q) -> rank: both parities at shift r use the differential at
    # (n0+2r+1, q), the first as d_in, the second as d_out.
    ranks = {}
    for e in internal_degrees:
        for parity_offset in (0, 1):
            prev = None
            settled = None
            for r in range(max_r + 1):
                n = n0 + parity_offset + 2 * r
                q = e + r * d
                val = bm_spot_homology(model, n, q, ranks)
                if prev is not None and val == prev:
                    settled = val
                    stab[(e, parity_offset)] = r
                    break
                prev = val
            if settled is None:
                raise NoStabilization(
                    "degree %d (parity offset %d) did not settle in %d shifts"
                    % (e, parity_offset, max_r))
            parity = (n0 + parity_offset) % 2
            key = (e, parity)
            dims[key] = dims.get(key, 0) + settled
    return HomologyReport("borel_moore", dims, stab)


# ---------------------------------------------------------------------------
# Compact type


def compact_type_check(algebra, max_internal=4, tensor_cap=None):
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
    # bounded by m + 1 - min_deg; size the window accordingly.
    needed = max_internal + 2 - min_deg * 1
    cap = tensor_cap if tensor_cap is not None else needed + 1
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


# ---------------------------------------------------------------------------
# Bicomplex windows (finite backend)


@dataclass
class BicomplexWindow:
    """Rectangle of the chain bicomplex with its two differentials."""

    algebra: object
    imin: int
    imax: int
    jmin: int
    jmax: int
    horizontal: dict   # (i, j) -> matrix of the raising part, to (i-1, j)
    vertical: dict     # (i, j) -> matrix of the lowering part, to (i, j-1)
    chain_dims: dict   # (i, j) -> dimension of C_{j-i}

    @classmethod
    def build(cls, algebra, imin, imax, jmin, jmax):
        max_k = jmax - imin
        win = ChainWindow(algebra, max(max_k, 1))
        bm, bp = win.all_boundaries()
        horizontal, vertical, dims = {}, {}, {}
        for i in range(imin, imax + 1):
            for j in range(jmin, jmax + 1):
                k = j - i
                if k < 0:
                    continue
                dims[(i, j)] = win.dim(k)
                if k + 1 <= win.max_tensor:
                    horizontal[(i, j)] = bp[k]
                if k >= 1:
                    vertical[(i, j)] = bm[k]
        return cls(algebra, imin, imax, jmin, jmax, horizontal, vertical, dims)

    def check_squares(self):
        """Exact identities on the window interior."""
        for (i, j), h in self.horizontal.items():
            h2 = self.horizontal.get((i - 1, j))
            if h2 is not None and not (h2 @ h).is_zero():
                return False
            v = self.vertical.get((i - 1, j))
            v2 = self.vertical.get((i, j))
            if v2 is not None:
                hv = self.horizontal.get((i, j - 1))
                if hv is not None and v is not None:
                    if not (v @ h + hv @ v2).is_zero():
                        return False
        for (i, j), v in self.vertical.items():
            v2 = self.vertical.get((i, j - 1))
            if v2 is not None and not (v2 @ v).is_zero():
                return False
        return True
