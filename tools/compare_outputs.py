"""Compare the ``lgh`` output of this checkout with another, job by job.

Usage: python3 tools/compare_outputs.py OTHER_CHECKOUT

Builds every job that ``lghbench/workloads.py`` makes: each timed workload
at seeds 1-3 and ``defects`` at seed 1.  Runs each job with ``--format
machine`` in both checkouts, one process at a time, and prints every job
whose exit code, stdout or stderr differ, then ``jobs N differing M``.
Each checkout's own path is replaced by ``<checkout>`` in stderr, so a
traceback differs only where its frames do.  Exits 1 if any job differs.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "lghbench"))

import workloads  # noqa: E402

SEEDS = {**{name: (1, 2, 3) for name in workloads.WORKLOADS},
         **{name: (1,) for name in workloads.EXTRA}}


def run(checkout, job, workdir):
    """(exit code, stdout, stderr) of one job in one checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "lghomology.cli", *job.argv,
            "--format", "machine"]
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                              timeout=job.timeout_s)
    except subprocess.TimeoutExpired:
        return "timeout", b"", b""
    return (proc.returncode, proc.stdout,
            proc.stderr.replace(str(checkout).encode(), b"<checkout>"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path,
                        help="root of the checkout to compare against")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "lghomology" / "cli.py").is_file():
        parser.error("no program at %s" % (other / "src"))
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload, seeds in SEEDS.items():
            for seed in seeds:
                jobs = workloads.build(workload, seed)
                workdir = Path(tmp, "%s-%d" % (workload, seed))
                workdir.mkdir()
                for job in jobs:
                    for name, text in job.files.items():
                        (workdir / name).write_text(text)
                for job in jobs:
                    total += 1
                    ours = run(ROOT, job, workdir)
                    theirs = run(other, job, workdir)
                    if ours != theirs:
                        differing += 1
                        parts = [part for part, a, b in zip(
                            ("exit code", "stdout", "stderr"), ours, theirs)
                            if a != b]
                        print("%s seed %d %s: %s differ"
                              % (workload, seed, job.name, ", ".join(parts)),
                              flush=True)
    print("jobs %d differing %d" % (total, differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
