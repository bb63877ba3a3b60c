"""The ``lgh`` parser against its traffic and its documentation.

Every job the benchmark builds must parse, so removing an option that
traffic uses fails here; and the README's usage block must name exactly
the options the parser defines, so an undocumented option fails too.
"""

import argparse
import re
import sys
from pathlib import Path

import pytest

from lghomology.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "lghbench"))

import workloads  # noqa: E402

SHARED = {"-h", "--help", "--format"}


def _subparsers(parser):
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload",
                         sorted(workloads.WORKLOADS) + sorted(workloads.EXTRA))
def test_every_benchmark_job_parses(workload, seed):
    parser = build_parser()
    for job in workloads.build(workload, seed):
        args = parser.parse_args(job.argv + ["--format", "machine"])
        assert args.command == job.argv[0]


def test_readme_usage_names_exactly_the_parser_options():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```sh\n(lgh .*?)```", readme, re.S).group(1)
    documented = {}
    for line in block.splitlines():
        command = line.split()[1]
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    defined = {name: {opt for action in sub._actions
                      for opt in action.option_strings} - SHARED
               for name, sub in _subparsers(build_parser()).items()}
    assert documented == defined
