"""``tools/compare_outputs.py`` against a checkout that answers differently.

The benchmark's jobs are replaced by two tiny ones.  The other checkout
is a stub ``lghomology.cli`` that repeats this checkout's answer to the
first job and gives another to the second.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

X3 = "variables x\npotential x^3\n"

STUB = """\
import sys

if sys.argv[1:3] == ["jacobi", "same.lg"]:
    sys.stdout.buffer.write(%r)
    sys.stderr.buffer.write(%r)
    sys.exit(%d)
print("{}")
"""


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_outputs_counts_the_jobs_that_differ(tmp_path, monkeypatch,
                                                     capsys):
    tool = _tool()
    Job = tool.workloads.Job
    jobs = [Job("same", ["jacobi", "same.lg"], {"same.lg": X3}),
            Job("other", ["jacobi", "other.lg"], {"other.lg": X3})]
    monkeypatch.setattr(tool, "SEEDS", {"tiny": (1,)})
    monkeypatch.setattr(tool.workloads, "build", lambda workload, seed: jobs)

    workdir = tmp_path / "work"
    workdir.mkdir()
    (workdir / "same.lg").write_text(X3)
    code, out, err = tool.run(tool.ROOT, jobs[0], workdir)
    assert code == 0 and out
    stub = tmp_path / "other" / "src" / "lghomology"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text(STUB % (out, err, code))

    assert tool.main([str(tmp_path / "other")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["tiny seed 1 other: stdout differ", "jobs 2 differing 1"]

    assert tool.main([str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines() == ["jobs 2 differing 0"]
