"""Acceptance gate: one test per advertised guarantee.

Each test prints a single ``criterion N: PASS`` line when its checks all
hold; a failing test reports through pytest as usual.
"""

import random
import time
from fractions import Fraction

from conftest import make_model
from lghomology.cochains import (compact_type_check,
                                 vanishing_homotopy_cochain)
from lghomology.crossproduct import psi_chain_check
from lghomology.hochschild import (FiniteCurvedAlgebra, hh_bm_graded,
                                   hh_ordinary, mixed_complex_check,
                                   vanishing_homotopy)
from lghomology.jacobi import canonical_module, jacobi_data
from lghomology.koszul import (koszul_concentrated, koszul_homology_dims,
                               split_insertion_identity)
from lghomology.linalg import QQ
from lghomology.mf import twist_to_graded_mf, verify_graded_degrees
from lghomology.orbifold import GroupAction, cross_product, orbifold_hh_bm
from test_mf import random_twist_object


def ok(n):
    print("criterion %d: PASS" % n)


def test_criterion_1_fermat_quartic_invariants():
    start = time.monotonic()
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    data = jacobi_data(model)
    assert data.milnor == 81
    assert data.dims[0] == 1
    assert data.dims[4] == 19
    assert data.dims[8] == 1
    assert time.monotonic() - start < 5.0
    ok(1)


def test_criterion_2_orbifold_quartic():
    start = time.monotonic()
    model = make_model("x^4+y^4+z^4+w^4", "xyzw")
    action = GroupAction.cyclic(4, (1, 1, 1, 1))
    rep = orbifold_hh_bm(model, action)
    assert rep.combined == {Fraction(0): 1, Fraction(4): 22, Fraction(8): 1}
    assert rep.twisted_count == 3
    assert time.monotonic() - start < 10.0
    ok(2)


def test_criterion_3_twisted_sector_count():
    for d in (3, 4, 5):
        names = "xyz"[: 1]
        model = make_model("x^%d" % d, names)
        action = GroupAction.cyclic(d, (1,))
        rep = orbifold_hh_bm(model, action)
        assert rep.twisted_count == d - 1
    ok(3)


def test_criterion_4_vanishing_theorem():
    start = time.monotonic()
    for power, curv in ((2, {1: 1}), (3, {2: 1})):
        alg = FiniteCurvedAlgebra.truncated_polynomial(power, curv)
        rep = hh_ordinary(alg)
        assert rep.dims == {0: 0, 1: 0}
    assert time.monotonic() - start < 30.0
    ok(4)


def test_criterion_5_homotopy_identities():
    rng = random.Random(5)
    for _ in range(5):
        dim = rng.randint(2, 3)
        curv = {rng.randrange(dim): QQ.from_int(rng.choice([1, 2, -1]))}
        space = FiniteCurvedAlgebra(dim, {}, curv, unit=None, check=False)
        L = {b: QQ.from_int(rng.choice([1, 2]))
             for b in range(dim) if rng.random() < 0.7}
        target = next(iter(curv))
        L[target] = QQ.from_int(rng.choice([1, 3]))
        window = rng.randint(4, 6)
        # both raise on any failure of h.b + b.h = id
        vanishing_homotopy(space, L, window)
        vanishing_homotopy_cochain(space, L, window)
    ok(5)


def test_criterion_6_mixed_complex_identities():
    golden = [
        FiniteCurvedAlgebra.truncated_polynomial(2, {1: 1}),
        FiniteCurvedAlgebra.truncated_polynomial(3, {2: 1}),
        FiniteCurvedAlgebra.graded_points([-1]),
        cross_product(GroupAction.cyclic(2, (1,)), (3,), {(2,): 1}).algebra,
    ]
    for alg in golden[:3]:
        assert mixed_complex_check(alg, 5)
    assert mixed_complex_check(golden[3], 4)
    ok(6)


def test_criterion_7_hkr_compatibility():
    cases = [
        (make_model("x^2+y^2", "xy"), None),
        (make_model("x^3", "x"), None),
        (make_model("x^3+y^2", "xy", weights=(2, 3)), None),
    ]
    for model, _ in cases:
        for k in range(5):
            for g in (k, k + 2, k + 4):
                assert split_insertion_identity(model, k, g)
    ok(7)


def test_criterion_8_koszul_concentration():
    for src, names in (("x^3", "x"), ("x^2+y^2", "xy"),
                       ("x^3+y^3+z^3", "xyz")):
        model = make_model(src, names)
        assert koszul_concentrated(model)
        dims = koszul_homology_dims(model, 3 * len(names))
        total = sum(dims.get(0, {}).values())
        assert total == jacobi_data(model).milnor
    ok(8)


def test_criterion_9_borel_moore_vs_canonical():
    for src, names in (("x^2", "x"), ("x^3", "x"), ("x^2+y^2", "xy")):
        start = time.monotonic()
        model = make_model(src, names)
        can = canonical_module(model)
        degrees = sorted(can.dims)
        rep = hh_bm_graded(model, degrees)
        for e in degrees:
            assert rep.dims[(e, can.parity)] == can.dims[e]
            assert rep.dims.get((e, 1 - can.parity), 0) == 0
        assert time.monotonic() - start < 60.0
    ok(9)


def test_criterion_10_graded_twist_degree_audit():
    rng = random.Random(10)
    checked = 0
    while checked < 100:
        d = rng.choice([2, 3, 4])
        model, obj = random_twist_object(rng, d)
        try:
            gmf = twist_to_graded_mf(obj, model)
        except Exception:
            continue
        checked += 1
        assert verify_graded_degrees(gmf)
        # twist-adjusted entry degrees are 0 on one parity and d on the
        # other, hence always divisible by d
        t0, t1 = gmf.twists0, gmf.twists1
        for r, row in enumerate(gmf.P0.data):
            for c, p in enumerate(row):
                if p:
                    assert (p.degree() - (t1[r] - t0[c])) % d == 0
        for r, row in enumerate(gmf.P1.data):
            for c, p in enumerate(row):
                if p:
                    assert (p.degree() - (t0[r] - t1[c])) % d == 0
    ok(10)


def test_criterion_11_psi_commutation():
    cases = [
        (cross_product(GroupAction.cyclic(2, (1,)), (2,), {(0,): 0}), 4),
        (cross_product(GroupAction.cyclic(2, (1,)), (3,), {(2,): 1}), 3),
        (cross_product(GroupAction.cyclic(4, (1,)), (4,), {(0,): 0}), 3),
        (cross_product(GroupAction.cyclic(1, (0,)), (2,), {(1,): 1}), 4),
    ]
    for cp, window in cases:
        assert psi_chain_check(cp, window)
    ok(11)


def test_criterion_12_compact_type():
    algebras = [
        FiniteCurvedAlgebra.graded_points([-1]),
        FiniteCurvedAlgebra.graded_points([-1, -2]),
        FiniteCurvedAlgebra.truncated_polynomial(2, {}, generator_degree=-2),
    ]
    for alg in algebras:
        assert compact_type_check(alg, max_internal=2)
    ok(12)
