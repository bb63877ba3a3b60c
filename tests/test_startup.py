"""What a fresh `lgh` process imports, and how it exits.

Without a bytecode cache every run compiles each module it imports, so a
subcommand loads only the modules it uses: `mf` and `koszul` load on
demand, no subcommand loads the Q(zeta) field, the cross product or the
cochain side, and no module imports `dataclasses`.  A process freezes the
objects it leaves alive before the interpreter shuts down, and prints
what `main` prints in-process; `main` itself freezes nothing.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lghomology

SRC = Path(lghomology.__file__).resolve().parent.parent
# Code that no subcommand runs: tests and library callers load it.
UNUSED_BY_CLI = ("lghomology.cyclotomic", "lghomology.crossproduct",
                 "lghomology.cochains")
WATCHED = ("dataclasses", "lghomology.mf", "lghomology.koszul") + UNUSED_BY_CLI

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


# Run each argv through main() in this process and report what it printed,
# its exit code and the freeze count after all of them.
IN_PROCESS = """
import contextlib, gc, io, json, sys
from lghomology.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([out.getvalue(), err.getvalue(), code])
print(json.dumps({"runs": runs, "frozen": gc.get_freeze_count()}))
"""

# The process entry with an exit hook that reports whether the objects
# alive at exit were frozen.
ENTRY = """
import atexit, gc
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from lghomology.cli import entry
entry()
"""


def python(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # -S: no site hooks, which may import modules of their own.
    return subprocess.run([sys.executable, "-S", *args], cwd=tmp_path,
                          env=env, capture_output=True, timeout=60)


def probe(tmp_path, runs):
    proc = python(tmp_path, "-c", PROBE, json.dumps(runs))
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


def test_no_subcommand_loads_the_cross_product_or_cochain_side(tmp_path):
    (tmp_path / "x3.lg").write_text("variables x y\npotential x^3+y^3\n")
    (tmp_path / "x2.lg").write_text("variables x\npotential x^2\n"
                                    "carrier truncated 3\n")
    (tmp_path / "z3.lg").write_text("variables x y\npotential x^3+y^3\n"
                                    "group order 3 weights 1 1\n")
    (tmp_path / "u3.lg").write_text("variables x\npotential x^3\n")
    (tmp_path / "u3.mf").write_text("P0 x\nP1 x^2\n"
                                    "twists0 0\ntwists1 1\n")
    runs = [["jacobi", "x3.lg"],
            ["hh", "x3.lg", "--variant", "bm"],
            ["hh", "x3.lg", "--variant", "compact-cohomology"],
            ["hh", "x2.lg", "--variant", "ordinary"],
            ["orbifold", "z3.lg"],
            ["mf", "u3.lg", "u3.mf", "verify"],
            ["mf", "u3.lg", "u3.mf", "graded-audit"],
            ["mf", "u3.lg", "u3.mf", "ext"],
            ["koszul", "x3.lg"]]
    doc = probe(tmp_path, runs)
    assert doc == {"codes": [0] * len(runs),
                   "loaded": ["lghomology.mf", "lghomology.koszul"]}


def test_cross_product_loads_its_module_on_the_first_call(tmp_path):
    script = """
import json, sys
from lghomology.orbifold import GroupAction, cross_product
before = [m for m in %r if m in sys.modules]
cp = cross_product(GroupAction.cyclic(4, (1,)), (4,), {(0,): 0})
print(json.dumps({"before": before, "dim": cp.algebra.dim,
                  "field": repr(cp.field),
                  "after": [m for m in %r if m in sys.modules]}))
""" % (UNUSED_BY_CLI, UNUSED_BY_CLI)
    proc = python(tmp_path, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "before": [], "dim": 16, "field": "QQ(zeta_4)",
        "after": ["lghomology.cyclotomic", "lghomology.crossproduct"]}


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import\s+dataclasses|from\s+dataclasses\s)",
                         re.MULTILINE)
    offenders = [path.name for path in (SRC / "lghomology").glob("*.py")
                 if pattern.search(path.read_text())]
    assert offenders == []


def test_process_prints_what_main_prints(tmp_path):
    (tmp_path / "x3.lg").write_text("variables x\npotential x^3\n")
    (tmp_path / "junk.lg").write_text("variables x\nfrobnicate 3\n")
    (tmp_path / "bad.mf").write_text("P0 x\nP1 x\n")
    runs = [["jacobi", "x3.lg", "--format", "machine"],
            ["jacobi", "junk.lg", "--format", "machine"],
            ["mf", "x3.lg", "bad.mf", "verify", "--format", "machine"]]
    proc = python(tmp_path, "-c", IN_PROCESS, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["frozen"] == 0
    assert [code for _, _, code in doc["runs"]] == [0, 2, 5]
    for argv, (out, err, code) in zip(runs, doc["runs"]):
        proc = python(tmp_path, "-m", "lghomology.cli", *argv)
        assert (proc.stdout, proc.stderr, proc.returncode) == \
            (out.encode(), err.encode(), code)


def test_process_entry_freezes_before_exit_hooks(tmp_path):
    (tmp_path / "x3.lg").write_text("variables x\npotential x^3\n")
    proc = python(tmp_path, "-c", ENTRY, "jacobi", "x3.lg")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "frozen True"
