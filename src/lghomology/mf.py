"""Matrix factorizations of a potential and their morphism complexes.

A factorization is a free module E0 + E1 with one odd map
D = [[0, P1], [P0, 0]] squaring to W times the identity; verification, the
Hom differential and the graded degree audit all read D, which each
factorization builds once (``MatrixFactorization.odd_map``).  Morphism spaces
carry the two-periodic commutator differential, which squares to zero
because both D's square to W.  Their cohomology is computed exactly:
over univariate rings from one diagonalization of each differential over
the principal-ideal ring, and for graded factorizations of an isolated
weighted-homogeneous W as a sum of finite pieces, one per internal
degree, over the degrees that graded Serre duality leaves (``ext_dims``).

The graded variant constrains entries to twist-adjusted degrees 0 and d;
such objects also arise from twisted complexes over the cyclic-orbifold
category, whose summands are (residue, shift) pairs and whose endomorphism
entries carry the rescaled grading 2(|f| - b + a)/d - (l - k).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import (DegreeConstraintViolated, FactorizationInvalid,
                     MethodUnsupported, ModelMismatch, NonIsolated,
                     ParityViolation, ShapeMismatch)
from .jacobi import INFINITE, jacobi_data, socle_degree
# ``rank`` is unused here but kept: lghbench pins mf.rank
from .linalg import Matrix, add_to, homology_dim, rank  # noqa: F401
from .poly import Polynomial, mono_mul


# ---------------------------------------------------------------------------
# Dense polynomial matrices


class PolyMatrix:
    """Small dense matrix with polynomial entries."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.data = [[self._coerce(e) for e in row] for row in rows]
        self.nrows = len(self.data)
        self.ncols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged rows")

    def _coerce(self, e):
        if isinstance(e, Polynomial):
            return e
        return self.ring.constant(e)

    @classmethod
    def identity(cls, ring, n, scale=None):
        s = scale if scale is not None else ring.one()
        z = ring.zero()
        return cls(ring, [[s if i == j else z for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, ring, nrows, ncols):
        z = ring.zero()
        return cls(ring, [[z] * ncols for _ in range(nrows)])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeMismatch("inner dimensions differ")
        z = self.ring.zero()
        out = []
        for left in self.data:
            row = [z] * other.ncols
            for a, right in zip(left, other.data):
                if a:
                    for j, b in enumerate(right):
                        row[j] = row[j] + a * b
            out.append(row)
        return PolyMatrix(self.ring, out)

    def __neg__(self):
        return PolyMatrix(self.ring, [[-a for a in row] for row in self.data])

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.data == other.data

    def is_zero(self):
        return all(not e for row in self.data for e in row)

    def __repr__(self):
        return "PolyMatrix(%d x %d)" % (self.nrows, self.ncols)


# ---------------------------------------------------------------------------
# Matrix factorizations


class MatrixFactorization:
    """P0: E0 -> E1 and P1: E1 -> E0, the blocks of the odd map ``_odd_map``.

    ``twists0``/``twists1`` hold per-summand internal-degree twists for the
    graded case (a degree-zero map into the twist B(m) is multiplication
    by a polynomial of degree m); Ext reads its own from D instead.
    """

    def __init__(self, model, P0, P1, twists0=None, twists1=None):
        if P0.ncols != P1.nrows or P0.nrows != P1.ncols:
            raise ShapeMismatch("factor shapes are not composable")
        self.model = model
        self.P0 = P0
        self.P1 = P1
        self.twists0 = twists0
        self.twists1 = twists1

    @property
    def rank0(self):
        return self.P0.ncols

    @property
    def rank1(self):
        return self.P0.nrows

    @cached_property
    def odd_map(self):
        """D, built once by ``_odd_map``; every reader of D reads this."""
        return _odd_map(self)


def _odd_map(mf):
    """D = [[0, P1], [P0, 0]] on E0 + E1, rows and columns E0 first."""
    ring = mf.model.ring
    return _block(ring, [[PolyMatrix.zero(ring, mf.rank0, mf.rank0), mf.P1],
                         [mf.P0, PolyMatrix.zero(ring, mf.rank1, mf.rank1)]])


def verify_mf(mf):
    """True iff D.D = W times the identity."""
    D = mf.odd_map
    return D @ D == PolyMatrix.identity(mf.model.ring, D.nrows,
                                        mf.model.potential)


def koszul_factorization(model, splitting):
    """Rank-2^(n-1) factorization of a sum of products.

    ``splitting`` is a list of (poly, poly) pairs whose products sum to the
    potential; returns the tensor factorization built from the rank-one
    pieces (u, v).
    """
    ring = model.ring
    total = ring.zero()
    for u, v in splitting:
        total = total + u * v
    if total != model.potential:
        raise ValueError("splitting does not multiply out to the potential")
    # start with the rank-one factorization and fold in the rest
    u, v = splitting[0]
    P0 = PolyMatrix(ring, [[u]])
    P1 = PolyMatrix(ring, [[v]])
    for u, v in splitting[1:]:
        n0, n1 = P0.ncols, P0.nrows
        vI0 = PolyMatrix.identity(ring, n0, v)
        uI1 = PolyMatrix.identity(ring, n1, u)
        # block structure of the tensor product of two factorizations
        newP0 = _block(ring, [[P0, vI0], [uI1, -P1]])
        newP1 = _block(ring, [[P1, vI0], [uI1, -P0]])
        P0, P1 = newP0, newP1
    return MatrixFactorization(model, P0, P1)


def direct_sum(a, b):
    """Summand-wise direct sum of two factorizations of the same potential."""
    if a.model != b.model:
        raise ModelMismatch("factorizations live over different models")
    ring = a.model.ring
    P0 = _block(ring, [[a.P0, PolyMatrix.zero(ring, a.rank1, b.rank0)],
                       [PolyMatrix.zero(ring, b.rank1, a.rank0), b.P0]])
    P1 = _block(ring, [[a.P1, PolyMatrix.zero(ring, a.rank0, b.rank1)],
                       [PolyMatrix.zero(ring, b.rank0, a.rank1), b.P1]])
    return MatrixFactorization(a.model, P0, P1)


def trivial_factorization(model):
    """The contractible factorization (1, W)."""
    ring = model.ring
    return MatrixFactorization(model, PolyMatrix(ring, [[ring.one()]]),
                               PolyMatrix(ring, [[model.potential]]))


def _block(ring, grid):
    """The polynomial matrix made of a grid of blocks, row by row."""
    return PolyMatrix(ring, [[e for blockm in brow for e in blockm.data[r]]
                             for brow in grid for r in range(brow[0].nrows)])


# ---------------------------------------------------------------------------
# Hom complexes


# Two-periodic complex of B-linear maps E -> F between two factorizations.
# A coordinate (r, c) is the entry of a map in row r of F0 + F1 and column
# c of E0 + E1; it is even when r and c lie in parts of the same parity.
# The flattened differentials act on these coordinates with polynomial
# coefficients.
HomComplex = namedtuple("HomComplex", "d_even d_odd even_entries odd_entries")


def _hom_entries(src, dst, parity):
    """Coordinates (r, c) of the given parity, row-major."""
    return [(r, c) for r in range(dst.rank0 + dst.rank1)
            for c in range(src.rank0 + src.rank1)
            if ((r >= dst.rank0) != (c >= src.rank0)) == parity]


def _flatten_d(DE, DF, entries, parity):
    """d(phi) = D_F phi - (-1)^|phi| phi D_E from the given parity to the other.

    ``DE`` and ``DF`` are the odd maps of the source and the target, and
    ``entries`` the coordinates of each parity.
    """
    ring = DE.ring
    pos = {e: n for n, e in enumerate(entries[parity])}
    z = ring.zero()
    out = []
    for r, c in entries[1 - parity]:
        row = [z] * len(pos)
        for k, p in enumerate(DF.data[r]):
            if p:
                col = pos[(k, c)]
                row[col] = row[col] + p
        for k, drow in enumerate(DE.data):
            if drow[c]:
                col = pos[(r, k)]
                row[col] = row[col] + (drow[c] if parity else -drow[c])
        out.append(row)
    return PolyMatrix(ring, out)


def hom_complex(src, dst):
    """The Hom complex from ``src`` to ``dst``.

    d^2 phi = D_F^2 phi - phi D_E^2, so the differential squares to zero
    exactly when both factorizations square to the same multiple of the
    identity; ``verify_mf`` on each checks it against W.
    """
    if src.model != dst.model:
        raise ModelMismatch("factorizations live over different models")
    for mf in (src,) if src is dst else (src, dst):
        if not verify_mf(mf):
            raise FactorizationInvalid(
                "compositions do not equal W times the identity")
    DE, DF = src.odd_map, dst.odd_map
    entries = [_hom_entries(src, dst, parity) for parity in (0, 1)]
    return HomComplex(_flatten_d(DE, DF, entries, 0),
                      _flatten_d(DE, DF, entries, 1), *entries)


# ---------------------------------------------------------------------------
# Univariate diagonalization


def _udivmod(a, b):
    """Quotient and remainder of univariate polynomials.

    Works on exponents: ``degree()`` is weighted and overshoots them when
    the variable has weight above 1.
    """
    ring = a.ring
    q = ring.zero()
    r = a
    (db,) = b.leading_monomial()
    lcb = b.leading_coeff()
    while r and r.leading_monomial()[0] >= db:
        shift = r.leading_monomial()[0] - db
        coeff = r.leading_coeff() / lcb
        t = Polynomial(ring, {(shift,): coeff})
        q = q + t
        r = r - t * b
    return q, r


def smith_diagonalize(mat):
    """Nonzero diagonal of a k[x] matrix under unimodular row and column
    operations.

    The diagonal need not be the Smith normal form (diag(x+1, x) is not);
    only its length, the rank, and the sum of its degrees, all the
    cohomology reads, are invariants.
    """
    if mat.ring.nvars != 1:
        raise MethodUnsupported("diagonalization needs one variable")
    M = [row[:] for row in mat.data]
    m, n = mat.nrows, mat.ncols
    diag = []
    for t in range(min(m, n)):
        while True:
            # a nonzero entry of least degree in the block left goes to (t, t)
            nonzero = [(M[i][j].degree(), i, j) for i in range(t, m)
                       for j in range(t, n) if M[i][j]]
            if not nonzero:
                return diag
            _, bi, bj = min(nonzero)
            M[bi], M[t] = M[t], M[bi]
            for row in M:
                row[bj], row[t] = row[t], row[bj]
            # clear row and column t down to remainders of lower degree
            for i in range(t + 1, m):
                if M[i][t]:
                    q, _ = _udivmod(M[i][t], M[t][t])
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
            for j in range(t + 1, n):
                if M[t][j]:
                    q, _ = _udivmod(M[t][j], M[t][t])
                    for row in M:
                        row[j] = row[j] - q * row[t]
            if not any(M[i][t] for i in range(t + 1, m)) and \
                    not any(M[t][j] for j in range(t + 1, n)):
                break
        diag.append(M[t][t])
    return diag


def _entry_shifts(mf):
    """(r, c, 2 deg p - d) for each nonzero entry p = D[r][c], the shift
    None when p is not homogeneous.  Doubled twists T grade the
    factorization when T[r] - T[c] is the shift of every entry."""
    d = mf.model.degree
    return [(r, c, 2 * p.degree() - d if p.is_homogeneous() else None)
            for r, row in enumerate(mf.odd_map.data)
            for c, p in enumerate(row) if p]


def _doubled_twists(mf):
    """Doubled twists read off the odd map, with one free offset, 0, per
    connected component of its nonzero entries.  ``MethodUnsupported``
    when an entry is not homogeneous or no twists fit them all."""
    shifts = _entry_shifts(mf)
    for r, c, s in shifts:
        if s is None:
            raise MethodUnsupported(
                "entry (%d, %d) of the odd map is not homogeneous" % (r, c))
    T = [None] * (mf.rank0 + mf.rank1)
    for root in range(len(T)):
        if T[root] is None:
            T[root], stack = 0, [root]
            while stack:
                u = stack.pop()
                for r, c, s in shifts:
                    for a, b, t in ((r, c, -s), (c, r, s)):
                        if a == u and T[b] is None:
                            T[b] = T[u] + t
                            stack.append(b)
    if any(T[r] - T[c] != s for r, c, s in shifts):
        raise MethodUnsupported("no twists make the odd map homogeneous")
    return T


def _piece(ring, offsets, e):
    """The pairs (k, m) of a Hom coordinate and a monomial with
    2 deg m + offsets[k] = e: the basis of the piece of doubled degree e."""
    return [(k, m) for k, o in enumerate(offsets)
            if e >= o and (e - o) % 2 == 0
            for m in ring.monomials_of_degree((e - o) // 2)]


def _degree_window_matrix(pm, offsets, e, d):
    """Field matrix of a flattened Hom differential from the piece of
    doubled degree e to the piece of degree e + d; ``offsets`` holds the
    coordinate offsets of the source parity and of the target parity."""
    ring = pm.ring
    rows = {key: i for i, key in enumerate(_piece(ring, offsets[1], e + d))}
    cols = _piece(ring, offsets[0], e)
    ent = {}
    for col, (j, mm) in enumerate(cols):
        for i in range(pm.nrows):
            for pmono, c in pm.data[i][j].terms.items():
                add_to(ent, (rows[(i, mono_mul(pmono, mm))], col), c)
    return Matrix(len(rows), len(cols), ring.field, ent)


def _ext_pieces(hom, twists, d, degrees):
    """(even, odd) cohomology at each doubled degree in the range
    ``degrees``, for the doubled twists (T_E, T_F).  Each block is built
    once: d_out of the piece at e and d_in of the piece at e + d."""
    TE, TF = twists
    offsets = [[TE[c] - TF[r] for r, c in entries]
               for entries in (hom.even_entries, hom.odd_entries)]
    blocks = {(q, e): _degree_window_matrix(
        (hom.d_even, hom.d_odd)[q], (offsets[q], offsets[1 - q]), e, d)
        for q in (0, 1) for e in range(degrees.start - d, degrees.stop)}
    return [tuple(homology_dim(blocks[1 - p, e - d], blocks[p, e])
                  for p in (0, 1)) for e in degrees]


def ext_dims(src, dst, method="smith"):
    """(even, odd) cohomology dimensions of the Hom complex.

    ``smith`` needs k[x]; see below.  ``truncate`` needs a weighted-
    homogeneous W with an isolated critical point and homogeneous entries,
    and is exact.  With the doubled twists of ``_doubled_twists``, a
    monomial m at Hom coordinate (r, c) has doubled degree
    e = 2 deg m - T_F[r] + T_E[c], and the differential raises e by
    d = deg W, so Ext^p is the sum over e of the finite pieces H^p_e(E, F)
    (``_ext_pieces``).  Below lo(E, F) = min T_E - max T_F no coordinate
    holds a monomial.  For isolated W in n variables, graded Serre duality
    (Auslander 1978; Kajiura-Saito-Takahashi, Adv. Math. 211, 2007;
    Orlov 2009) reads H^p_e(E, F) = H^{p+n}_{sigma-e}(F, E)^* with
    sigma = n d - 2 sum w_i (``jacobi.socle_degree``), so a piece above
    sigma - lo(F, E) is dual to one below lo(F, E), and is 0.  The sum over
    lo(E, F) <= e <= sigma - lo(F, E) is therefore all of Ext.  An
    infinite Jacobi ring is refused with ``NonIsolated`` before any block
    is built, and entries that no twists make homogeneous with
    ``MethodUnsupported``.
    """
    hom = hom_complex(src, dst)
    if method == "smith":
        if src.model.ring.nvars != 1:
            raise MethodUnsupported("smith method needs a univariate ring")
        # Over k[x], ker(d_out) is saturated, as F / ker(d_out) embeds in a
        # free module.  When the two ranks add up to n it therefore equals
        # the saturation of im(d_in), and ker(d_out) / im(d_in) is the
        # torsion of coker(d_in), of dimension the sum of the exponents of
        # d_in's diagonal; otherwise it has a free part.
        diag_even, diag_odd = map(smith_diagonalize, (hom.d_even, hom.d_odd))
        ranks = len(diag_even) + len(diag_odd)

        def torsion(diag, n):
            if ranks != n:
                return INFINITE
            return sum(e.leading_monomial()[0] for e in diag)

        return (torsion(diag_odd, len(hom.even_entries)),
                torsion(diag_even, len(hom.odd_entries)))
    if method == "truncate":
        model = src.model
        sigma = socle_degree(model)
        if jacobi_data(model).milnor is INFINITE:
            raise NonIsolated("critical points are not isolated")
        TE = _doubled_twists(src)
        TF = TE if dst is src else _doubled_twists(dst)
        degrees = range(min(TE) - max(TF), sigma - min(TF) + max(TE) + 1)
        pieces = _ext_pieces(hom, (TE, TF), model.degree, degrees)
        return tuple(sum(piece[p] for piece in pieces) for p in (0, 1))
    raise MethodUnsupported("unknown method %r" % method)


# ---------------------------------------------------------------------------
# Hat grading and twisted complexes


def hat_degree(f_degree, src, dst, d):
    """Rescaled degree of a morphism (a/d)[k] -> (b/d)[l] of weight f_degree."""
    a, k = src
    b, l = dst
    if (f_degree - (b - a)) % d != 0:
        raise DegreeConstraintViolated(
            "degree %d is not congruent to %d mod %d" % (f_degree, (b - a) % d, d))
    return 2 * (f_degree - b + a) // d - (l - k)


class TwistObject:
    """Direct sum of (residue, shift) summands with an odd twisting map.

    ``delta.data[r][c]`` is the component from summand c to summand r.
    """

    def __init__(self, summands, delta):
        n = len(summands)
        if delta.nrows != n or delta.ncols != n:
            raise ShapeMismatch("delta must be square of the summand count")
        self.summands = summands  # [(a, k)]
        self.delta = delta

    def entry_hat_degree(self, model, r, c):
        """Hat degree of the (r, c) entry, None when the entry vanishes."""
        p = self.delta.data[r][c]
        if not p:
            return None
        if not p.is_homogeneous():
            raise DegreeConstraintViolated("entry is not homogeneous")
        return hat_degree(p.degree(), self.summands[c], self.summands[r],
                          model.degree)


def maurer_cartan_check(obj, model):
    """True iff W id + delta.delta vanishes exactly."""
    return obj.delta @ obj.delta == PolyMatrix.identity(
        model.ring, len(obj.summands), -model.potential)


def twist_to_graded_mf(obj, model):
    """Translate a twisted complex into a graded factorization.

    Even-shift summands carry twist k d/2 + a, odd-shift summands
    (k+1) d/2 + a; the odd-to-even block is negated so the compositions
    equal plus W times the identity.
    """
    ring = model.ring
    d = model.degree
    even_idx = [i for i, (a, k) in enumerate(obj.summands) if k % 2 == 0]
    odd_idx = [i for i, (a, k) in enumerate(obj.summands) if k % 2 != 0]
    if model.potential and (not even_idx or not odd_idx):
        raise ParityViolation(
            "a factorization of a nonzero potential needs both parities")
    for idx, kind in ((even_idx, "even-to-even"), (odd_idx, "odd-to-odd")):
        if any(obj.delta.data[i][j] for i in idx for j in idx):
            raise ParityViolation("twisting map has an %s entry" % kind)
    twists0 = tuple(obj.summands[i][1] * d // 2 + obj.summands[i][0]
                    for i in even_idx)
    twists1 = tuple((obj.summands[i][1] + 1) * d // 2 + obj.summands[i][0]
                    for i in odd_idx)
    P0 = PolyMatrix(ring, [[obj.delta.data[r][c] for c in even_idx]
                           for r in odd_idx]) if odd_idx else \
        PolyMatrix.zero(ring, 0, len(even_idx))
    P1 = PolyMatrix(ring, [[-obj.delta.data[r][c] for c in odd_idx]
                           for r in even_idx]) if even_idx else \
        PolyMatrix.zero(ring, 0, len(odd_idx))
    return MatrixFactorization(model, P0, P1, twists0=twists0, twists1=twists1)


def verify_graded_degrees(gmf):
    """True iff each nonzero D[r][c] is homogeneous of degree t[r] - t[c],
    plus d in the rows of E0 (the P1 block), where t = twists0 + twists1:
    the rule of ``_entry_shifts`` for T = 2 twists0 and 2 twists1 - d."""
    if gmf.twists0 is None or gmf.twists1 is None:
        return False
    d = gmf.model.degree
    T = [2 * t for t in gmf.twists0] + [2 * t - d for t in gmf.twists1]
    return all(s is not None and s == T[r] - T[c]
               for r, c, s in _entry_shifts(gmf))
