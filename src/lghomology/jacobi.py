"""Landau-Ginzburg model invariants from the ideal of partial derivatives.

The critical-locus quotient ring, its dimension (the Milnor number), its
dimension in each weighted degree as a plain ``{degree: dim}`` dict, and
the top-form quotient with its degree shift.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonHomogeneous, NonIsolated, ZeroPotentialGradient
from .poly import buchberger, is_zero_dimensional, standard_monomials

INFINITE = math.inf


class LGModel:
    """A polynomial ring with graded variables plus a potential.

    A value type: equal rings and potentials give equal models.
    """

    def __init__(self, ring, potential):
        if potential.ring != ring:
            raise ValueError("potential lives in a different ring")
        if potential.degree() < 1:
            raise ValueError("potential must be nonconstant")
        self.ring = ring
        self.potential = potential

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ring == other.ring and self.potential == other.potential

    def __hash__(self):
        return hash((self.ring, self.potential))

    def __repr__(self):
        return "LGModel(%r, %r)" % (self.ring, self.potential)

    @property
    def degree(self):
        """Weighted degree of the potential."""
        return self.potential.degree()

    def is_homogeneous(self):
        return self.potential.is_homogeneous()

    def require_homogeneous(self):
        if not self.is_homogeneous():
            raise NonHomogeneous("potential is not weighted-homogeneous")

    @property
    def weight_sum(self):
        return sum(self.ring.weights)


class JacobiData:
    def __init__(self, ideal, milnor, dims):
        self.ideal = ideal      # GroebnerBasis
        self.milnor = milnor    # int or INFINITE
        self.dims = dims        # {degree: dim}, empty when milnor is infinite


class CanonicalData:
    """Graded data of the top-form quotient: shifted {degree: dim} + parity."""

    def __init__(self, dims, parity, shift):
        self.dims = dims
        self.parity = parity
        self.shift = shift


def jacobi_ideal(model):
    """Reduced Groebner basis of the ideal of partial derivatives."""
    partials = [model.potential.diff(i) for i in range(model.ring.nvars)]
    partials = [p for p in partials if p]
    if not partials:
        raise ZeroPotentialGradient("all partial derivatives vanish")
    return buchberger(partials, model.ring)


def jacobi_data(model):
    gb = jacobi_ideal(model)
    if not is_zero_dimensional(gb):
        return JacobiData(gb, INFINITE, {})
    dims = {}
    for m in standard_monomials(gb):
        d = model.ring.weighted_degree(m)
        dims[d] = dims.get(d, 0) + 1
    return JacobiData(gb, sum(dims.values()), dims)


def canonical_module(model):
    """Top-form quotient data of the model; see :func:`canonical_data`."""
    return canonical_data(model, jacobi_data(model))


def canonical_data(model, data):
    """Top-form quotient data from the model's :class:`JacobiData`.

    The quotient-ring dims are shifted by the weighted degree of the volume
    form (sum of the variable weights); the parity is the variable count
    mod 2.
    """
    if data.milnor is INFINITE:
        raise NonIsolated("critical points are not isolated")
    model.require_homogeneous()
    shift = model.weight_sum
    return CanonicalData(dims={d + shift: n for d, n in data.dims.items()},
                         parity=model.ring.nvars % 2,
                         shift=shift)


def expected_weighted_milnor(model):
    """Classical product formula for weighted-homogeneous isolated potentials.

    Independent oracle: the Milnor number is prod over variables of
    (d - w_i) / w_i (Milnor-Orlik 1970), taken exactly, so a factor need
    not be an integer for the product to be one.  None when the product is
    not an integer, which no isolated W gives.
    """
    model.require_homogeneous()
    d = model.degree
    value = math.prod(Fraction(d - w, w) for w in model.ring.weights)
    return value.numerator if value.denominator == 1 else None


def socle_degree(model):
    """Top weighted degree of the quotient ring for homogeneous potentials."""
    model.require_homogeneous()
    return model.ring.nvars * model.degree - 2 * model.weight_sum
