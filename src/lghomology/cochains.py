"""The cochain side of curved Hochschild theory over a finite algebra.

``CochainWindow`` holds the truncated cochain spaces Hom(A^{tensor i}, A)
as unnormalized chains with coefficients in the dual bimodule, so every
cochain matrix is the transpose of a chain matrix from ``hochschild``'s
bar-complex engine.  ``vanishing_homotopy_cochain`` is the transpose of
the chain homotopy that ``hochschild._contract`` verifies, and
``compact_type_check`` compares windowed Hochschild cohomology with its
compactly supported version.  No subcommand runs them, so the module
loads only when something calls them.
"""

from __future__ import annotations

from itertools import pairwise

from .errors import InfiniteCarrier, PositiveDegreeCarrier
from .hochschild import ChainWindow, FiniteCurvedAlgebra, _contract
from .linalg import Matrix, homology_dim


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


def vanishing_homotopy_cochain(algebra, L, max_tensor):
    """Cochain-side homotopy h^k = h_{k+1}^T: C^k -> C^{k+1}, k <= ``max_tensor``.

    On a ``CochainWindow`` the curvature part of d on C^k is B_{k-1}^T, so
    d.h + h.d = id on C^k is the transpose of the chain identity that
    ``_contract`` verifies at tensor degree k.
    """
    h = _contract(CochainWindow(algebra, max_tensor + 1), L)
    return {k: h[k + 1].transpose() for k in range(max_tensor + 1)}


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

    maps = (graded_matrix(m, cap + 1)
            for m in range(-max_internal - 1, max_internal + 1))
    for m, (d_in, d_out) in enumerate(pairwise(maps), -max_internal):
        full = homology_dim(d_in, d_out)
        icap = max(0, m + 1 - min_deg) + 1
        capped = homology_dim(graded_matrix(m - 1, icap),
                              graded_matrix(m, icap))
        if full != capped:
            return False
    return True
