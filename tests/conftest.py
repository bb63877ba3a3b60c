"""Shared helpers for the test suite."""

from lghomology.jacobi import LGModel
from lghomology.poly import PolyRing, parse_polynomial


def make_model(source, names, weights=None, field=None):
    kwargs = {}
    if field is not None:
        kwargs["field"] = field
    ring = PolyRing(tuple(names), tuple(weights) if weights else None, **kwargs)
    return LGModel(ring, parse_polynomial(source, ring))


def record_eliminations(monkeypatch):
    """The matrix behind each run of ``linalg._eliminate``, in call order.

    The list keeps the matrices alive, so their ids stay distinct.
    """
    import lghomology.linalg as linalg
    real_rank, real_eliminate = linalg.rank, linalg._eliminate
    ranking, eliminated = [], []

    def rank(m, *rest):
        ranking.append(m)
        try:
            return real_rank(m, *rest)
        finally:
            ranking.pop()

    def eliminate(rows, kind):
        eliminated.append(ranking[-1])
        return real_eliminate(rows, kind)
    monkeypatch.setattr(linalg, "rank", rank)
    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    return eliminated
