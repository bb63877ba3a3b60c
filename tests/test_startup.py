"""What a fresh `lgh` process imports.

Without a bytecode cache every run compiles each module it imports, so a
subcommand loads only the modules it uses: `mf` and `koszul` load on
demand, and no module imports `dataclasses`.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lghomology

SRC = Path(lghomology.__file__).resolve().parent.parent
WATCHED = ("dataclasses", "lghomology.mf", "lghomology.koszul")

# Run subcommands in this process, then report the exit codes and which
# watched modules ended up loaded.
PROBE = """
import contextlib, io, json, sys
from lghomology.cli import main
runs = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes,
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (WATCHED,)


def probe(tmp_path, runs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # -S: no site hooks, which may import modules of their own.
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, json.dumps(runs)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_jacobi_and_compact_hh_load_neither_mf_nor_koszul(tmp_path):
    (tmp_path / "x3.lg").write_text("variables x y\npotential x^3+y^3\n")
    doc = probe(tmp_path, [["jacobi", "x3.lg"],
                           ["hh", "x3.lg", "--variant", "compact-cohomology"]])
    assert doc == {"codes": [0, 0], "loaded": []}


def test_mf_verify_loads_mf(tmp_path):
    (tmp_path / "x3.lg").write_text("variables x\npotential x^3\n")
    (tmp_path / "x3.mf").write_text("P0 x\nP1 x^2\n")
    doc = probe(tmp_path, [["mf", "x3.lg", "x3.mf", "verify"]])
    assert doc == {"codes": [0], "loaded": ["lghomology.mf"]}


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import\s+dataclasses|from\s+dataclasses\s)",
                         re.MULTILINE)
    offenders = [path.name for path in (SRC / "lghomology").glob("*.py")
                 if pattern.search(path.read_text())]
    assert offenders == []
