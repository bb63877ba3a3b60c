"""Failing jobs are counted, not fatal; a checkout without the program fails.

Run from the root of a checkout:  python3 -m pytest lghbench/selftest
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import EXIT_PARSE, Job  # noqa: E402

CUBIC = "field rational\nvariables x\npotential x^3\n"


@pytest.fixture
def build_dir():
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=build))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_wrong_answers_raise_fail_frac_instead_of_aborting():
    jobs = [
        Job("good", ["jacobi", "good.lg"], {"good.lg": CUBIC},
            expect=oracles.jacobi([1], 3, "x^3")),
        Job("wrong", ["jacobi", "wrong.lg"], {"wrong.lg": CUBIC},
            expect=dict(oracles.jacobi([1], 3, "x^3"), milnor=3)),
        Job("crash", ["jacobi", "crash.lg"],
            {"crash.lg": "variables x:0\npotential x^3\n"},
            expect_exit=EXIT_PARSE),
        Job("refused", ["jacobi", "refused.lg"],
            {"refused.lg": "variables x\n"}),
    ]
    checkout = run.Checkout()
    try:
        checkout.write(jobs)
        metrics, result, failed, summary = run.end_to_end(checkout, jobs, 0)
    finally:
        checkout.close()
    assert not checkout.workdir.exists()
    assert result.attempted == 4 and failed == 3
    assert set(result.failures) == {"wrong", "crash", "refused"}
    assert result.failures["wrong"] == ["milnor = 2, oracle 3"]
    assert "traceback on stderr" in result.failures["crash"]
    assert result.failures["refused"] == ["exit 2, expected 0"]
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert summary["samples"] == 4


def test_outputs_must_repeat_byte_for_byte():
    job = Job("j", ["jacobi", "j.lg"], {}, expect={})
    result = run.Run([job])
    assert result.record(job, (0.1, 0, 1.0, b'{"schema_version":1}', b""))
    assert not result.record(job, (0.1, 0, 1.0, b'{"schema_version": 1}',
                                   b""))
    assert result.failures["j"] == ["output differs between repeats"]


def test_benchmark_alone_exits_nonzero_without_a_result(build_dir):
    shutil.copytree(BENCH, build_dir / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", build_dir)
    proc = subprocess.run(
        [sys.executable, "%s/run.py" % BENCH.name, "--workload",
         "interactive", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=build_dir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
