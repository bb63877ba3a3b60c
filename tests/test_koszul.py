"""Forms, polyvector fields, contraction homology, and the splitting map."""

import pytest

from conftest import make_model, record_eliminations
import lghomology.koszul as koszul
from lghomology.errors import (CharacteristicTooSmall, NonHomogeneous,
                               WindowTooLarge)
from lghomology.jacobi import canonical_module, jacobi_data
from lghomology.koszul import (check_koszul_window, contract_dW, e2_page,
                               form_basis,
                               form_comparison, hkr_split,
                               koszul_concentrated, koszul_homology_dims,
                               polyvector_basis, split_insertion_identity,
                               wedge_dW)
from lghomology.linalg import PrimeField


def test_basis_counts():
    ring = make_model("x^2+y^2", "xy").ring
    # 1-forms of grade 2 in two variables: x dx, y dx, x dy, y dy
    assert len(form_basis(ring, 1, 2)) == 4
    # 1-vectors of grade 0: x @x, y @x, x @y, y @y
    assert len(polyvector_basis(ring, 1, 0)) == 4
    assert len(polyvector_basis(ring, 2, -2)) == 1


def test_wedge_squares_to_zero():
    model = make_model("x^3+y^3+z^3", "xyz")
    for k in (0, 1):
        for g in (0, 1, 2, 3):
            a = wedge_dW(model, k + 1, g + model.degree)
            b = wedge_dW(model, k, g)
            assert (a @ b).is_zero()


def test_contraction_squares_to_zero():
    model = make_model("x^3+y^3+z^3", "xyz")
    for k in (2, 3):
        for g in (-3, -2, 0, 2):
            a = contract_dW(model, k - 1, g + model.degree)
            b = contract_dW(model, k, g)
            assert (a @ b).is_zero()


def test_concentration_on_isolated_singularities():
    for src, names in (("x^3", "x"), ("x^2+y^2", "xy"),
                       ("x^3+y^3+z^3", "xyz")):
        assert koszul_concentrated(make_model(src, names))


def test_concentration_spot_dims_match_quotient():
    model = make_model("x^2+y^2", "xy")
    dims = koszul_homology_dims(model, 4)
    assert set(dims) == {0}
    assert dims[0] == dict(jacobi_data(model).dims.dims)


def test_homology_builds_each_contraction_once(monkeypatch):
    import lghomology.koszul as koszul
    built = []

    def recorded(model, k, grade):
        built.append((k, grade))
        return contract_dW(model, k, grade)
    monkeypatch.setattr(koszul, "contract_dW", recorded)
    model = make_model("x^3+y^3+z^3", "xyz")
    dims = koszul_homology_dims(model, 6)
    assert set(dims) == {0}
    assert dims[0] == dict(jacobi_data(model).dims.dims)
    assert list(dims[0]) == sorted(dims[0])
    # contract_dW(1, 0) is d_in at spot (0, 3) and d_out at spot (1, 0)
    assert (1, 0) in built
    assert len(built) == len(set(built))


def test_homology_eliminates_each_contraction_once(monkeypatch):
    eliminated = record_eliminations(monkeypatch)
    model = make_model("x^3+y^3+z^3", "xyz")
    dims = koszul_homology_dims(model, 6)
    assert dims[0] == dict(jacobi_data(model).dims.dims)
    # contract_dW(1, 0) is d_in at spot (0, 3) and d_out at spot (1, 0)
    assert len(eliminated) == len(set(map(id, eliminated)))


def test_homology_builds_each_polyvector_basis_once(monkeypatch):
    import lghomology.koszul as koszul
    asked, built = [], []
    real_basis, real_combinations = koszul.polyvector_basis, koszul.combinations

    def basis(ring, k, grade):
        asked.append((k, grade))
        return real_basis(ring, k, grade)

    def combinations(pool, k):      # called once per basis actually built
        built.append(k)
        return real_combinations(pool, k)
    monkeypatch.setattr(koszul, "polyvector_basis", basis)
    monkeypatch.setattr(koszul, "combinations", combinations)
    model = make_model("x^3+y^3+z^3", "xyz")
    dims = koszul_homology_dims(model, 6)
    assert dims[0] == dict(jacobi_data(model).dims.dims)
    # each basis is the target of one contraction and the source of the next
    assert len(asked) > len(set(asked))
    assert len(built) == len(set(asked))


def test_split_insertion_identity_small_windows():
    model = make_model("x^2+y^2", "xy")
    for k in range(5):
        for g in (k, k + 1, k + 2):
            assert split_insertion_identity(model, k, g)


def test_split_insertion_identity_weighted():
    model = make_model("x^3+y^2", "xy", weights=(2, 3))
    for k in range(4):
        assert split_insertion_identity(model, k, 2 * k + 2)


def test_form_comparison_matches():
    model = make_model("x^2+y^2", "xy")
    for k in range(4):
        for g in (k, k + 1, k + 2):
            h, forms = form_comparison(model, k, g)
            assert h == forms


def test_split_requires_large_characteristic():
    model = make_model("x^4+y^4", "xy", field=PrimeField(3))
    with pytest.raises(CharacteristicTooSmall):
        hkr_split(model, 3, 3)
    # k below the characteristic is fine
    hkr_split(model, 2, 2)


def test_koszul_maps_refuse_a_potential_that_is_not_homogeneous():
    # x^5 + y^3 at unit weights: the row lookups of both Koszul rules miss
    # their graded targets, so they must be refused first
    model = make_model("x^5+y^3", "xy")
    with pytest.raises(NonHomogeneous):
        koszul_homology_dims(model, 1)
    with pytest.raises(NonHomogeneous):
        wedge_dW(model, 0, 1)
    with pytest.raises(NonHomogeneous):
        contract_dW(model, 1, 0)
    with pytest.raises(NonHomogeneous):
        split_insertion_identity(model, 1, 1)


def test_e2_support_univariate_cubic():
    model = make_model("x^3", "x")
    page = e2_page(model, max_column=2, max_row=3, max_charge=8)
    omega = dict(canonical_module(model).dims.dims)  # {1: 1, 2: 1}
    assert page[(0, 1)] == omega
    assert page[(1, 2)] == {g + 3: n for g, n in omega.items()}
    assert page[(2, 3)] == {g + 6: n for g, n in omega.items()}
    # the (0, 0) corner carries the whole polynomial line
    assert page[(0, 0)] == {q: 1 for q in range(9)}


def test_e2_vanishes_off_support_rows():
    model = make_model("x^2+y^2", "xy")
    page = e2_page(model, max_column=2, max_row=4, max_charge=8)
    for (i, j) in page:
        assert i == 0 or j - i == model.ring.nvars


@pytest.mark.parametrize("src, names, weights", [
    ("x^3", "x", None), ("x^2+y^2", "xy", None),
    ("x^3+y^3+z^3", "xyz", None), ("x^4+y^2", "xy", (1, 2)),
    ("x^3*y+y^4", "xy", None)])
def test_koszul_window_counts_the_bases_the_walk_builds(src, names, weights):
    model = make_model(src, names, weights=weights)
    ring = model.ring
    max_grade = 2 * model.degree
    counted = check_koszul_window(ring, model.degree, max_grade)
    koszul_homology_dims(model, max_grade)
    # polyvector bases are cached under (k, grade, 1)
    assert counted == sum(len(basis) for key, basis in ring._cache.items()
                          if isinstance(key, tuple) and len(key) == 3
                          and key[2] == 1)


def test_koszul_refuses_a_complex_over_the_limit_before_building_it(
        monkeypatch):
    model = make_model("x^3+y^3+z^3", "xyz")
    limit = check_koszul_window(model.ring, model.degree, 6)
    monkeypatch.setattr(koszul, "MAX_KOSZUL_BASIS", limit - 1)
    built = []
    real_basis = koszul._basis
    monkeypatch.setattr(koszul, "_basis",
                        lambda *a: built.append(a) or real_basis(*a))
    with pytest.raises(WindowTooLarge):
        koszul_homology_dims(model, 6)
    assert built == []
    monkeypatch.setattr(koszul, "MAX_KOSZUL_BASIS", limit)
    assert koszul_homology_dims(model, 6) == {0: {0: 1, 1: 3, 2: 3, 3: 1}}
