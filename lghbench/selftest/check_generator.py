"""The job generator is deterministic and keeps every seed in its size class.

Run from the root of a checkout:  python3 -m pytest lghbench/selftest
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402

ALL = sorted(workloads.WORKLOADS) + sorted(workloads.EXTRA)
SEEDS = range(12)


def _shape(jobs):
    return sorted((job.name, job.expect_exit) for job in jobs)


@pytest.mark.parametrize("workload", ALL)
def test_same_seed_same_jobs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seeds_change_inputs_not_composition(workload):
    base = workloads.build(workload, 0)
    for seed in SEEDS[1:]:
        jobs = workloads.build(workload, seed)
        assert _shape(jobs) == _shape(base)
        assert [j.files for j in jobs] != [j.files for j in base]


def test_interactive_size_class():
    for seed in SEEDS:
        jobs = workloads.build("interactive", seed)
        assert len(jobs) >= 100
        malformed = [j for j in jobs if j.expect_exit == workloads.EXIT_PARSE]
        assert 0.08 <= len(malformed) / len(jobs) <= 0.12
        for job in jobs:
            if job.expect_exit != 0:
                continue
            if job.argv[0] == "jacobi":
                assert job.expect["milnor"] <= 64
            if job.argv[0] == "orbifold":
                assert job.expect["sectors"]["(0,)"]["classes"] <= 16


def test_heavy_workloads_size_class():
    for seed in SEEDS:
        groebner = workloads.build("groebner", seed)
        assert sorted(j.expect.get("milnor") for j in groebner
                      if j.argv[0] == "jacobi") == [50, 81, 256, 256]
        elimination = workloads.build("elimination", seed)
        assert sorted(j.expect.get("total") for j in elimination
                      if j.expect.get("variant") == "bm") == [4, 4, 4]
        windows = workloads.build("windows", seed)
        assert sorted(j.name for j in windows) == [
            "hh-ordinary-x2-w10", "hh-ordinary-x3-w10",
            "hh-ordinary-x3-w10-b", "hh-ordinary-x4-w8"]


def test_job_names_and_files_are_unique():
    for workload in ALL:
        jobs = workloads.build(workload, 3)
        assert len({j.name for j in jobs}) == len(jobs)
        files = [f for j in jobs for f in j.files]
        assert len(set(files)) == len(files)


def test_large_primes_are_prime():
    for p in workloads.LARGE_PRIMES + workloads.SMALL_PRIMES:
        assert all(p % q for q in range(2, int(p ** 0.5) + 1))


def test_polynomial_text():
    assert workloads.polynomial([(1, "x^3"), (-1, "y^3"), (2, "x*y")]) == \
        "x^3-y^3+2*x*y"
    assert workloads.polynomial([(-2, "x")]) == "-2*x"
