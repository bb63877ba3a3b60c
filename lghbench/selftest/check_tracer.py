"""The traced driver wraps every listed name and aggregates spans correctly.

Run from the root of a checkout:  python3 -m pytest lghbench/selftest
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


@pytest.fixture
def workdir():
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=build))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    proc = subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


ROUTING = """
import json
import tracer
import lghomology.cli as cli
import lghomology.hochschild as hochschild
import lghomology.koszul as koszul
from lghomology.linalg import Matrix, QQ
from lghomology.poly import PolyRing, parse_polynomial
from lghomology.jacobi import LGModel

t = tracer.Tracer("routing")
t.install()
names = {}
for mod in tracer.MODULES:
    m = __import__("lghomology." + mod, fromlist=["x"])
    for key, value in vars(m).items():
        span = getattr(value, "__wrapped_span__", None)
        if span:
            names["%s.%s" % (mod, key)] = span
one = Matrix(1, 1, QQ, {(0, 0): QQ.one})
zero = Matrix(1, 1, QQ, {})
koszul.rank(one)
hochschild.homology_dim(zero, zero)
ring = PolyRing(("x",))
cli.jacobi_data(LGModel(ring, parse_polynomial("x^3", ring)))
print(json.dumps({"names": names, "spans": [s[0] for s in t.spans]}))
"""


def test_every_binding_routes_through_its_span(workdir):
    doc = json.loads(_python(["-c", ROUTING], workdir))
    names = doc["names"]
    for binding, span in [("koszul.rank", "linalg.rank"),
                          ("hochschild.rank", "linalg.rank"),
                          ("mf.rank", "linalg.rank"),
                          ("linalg.rank", "linalg.rank"),
                          ("hochschild.homology_dim", "linalg.homology_dim"),
                          ("koszul.homology_dim", "linalg.homology_dim"),
                          ("mf.homology_dim", "linalg.homology_dim"),
                          ("cli.jacobi_data", "jacobi.jacobi_data"),
                          ("cli.canonical_module", "jacobi.canonical_module"),
                          ("cli.parse_polynomial", "poly.parse"),
                          ("jacobi.buchberger", "poly.buchberger"),
                          ("orbifold.jacobi_ideal", "jacobi.jacobi_ideal"),
                          ("cli.hh_ordinary", "hochschild.hh_ordinary"),
                          ("cli.orbifold_hh_bm", "orbifold.orbifold_hh_bm")]:
        assert names.get(binding) == span, binding
    # Every listed function is reachable under at least one binding.
    assert {span for _m, _a, span in tracer.SPANS} <= set(names.values())
    spans = doc["spans"]
    assert spans[:2] == ["linalg.rank", "linalg.homology_dim"]
    assert "linalg.rank" in spans[2:]       # homology_dim calls rank twice
    assert "jacobi.jacobi_data" in spans
    assert "poly.buchberger" in spans


def _trace(workdir, name, model, args):
    (workdir / (name + ".lg")).write_text(model)
    out = _python([str(BENCH / "tracer.py"), name + ".json", name, "--"]
                  + [args[0], name + ".lg"] + args[1:]
                  + ["--format", "machine"], workdir)
    with open(workdir / (name + ".json")) as fh:
        return json.loads(out), json.load(fh)


def test_driver_spans_and_layer_metrics(workdir):
    out, koszul = _trace(workdir, "k", "variables x y\npotential x^3+y^3\n",
                         ["koszul"])
    assert out["concentrated"] is True
    out, window = _trace(workdir, "w", "variables x\npotential x\n"
                         "carrier truncated 2\nwindow tensor=6\n",
                         ["hh", "--variant", "ordinary"])
    assert out["dims"] == {"even": 0, "odd": 0}
    m, layer_self = tracer.layer_metrics([koszul, window])
    assert m["koszul.complexes"] > 0
    assert m["koszul.complexes"] < m["linalg.homology_dim.calls"]
    assert m["linalg.rank.calls"] >= 2 * m["linalg.homology_dim.calls"]
    assert m["linalg.rank.cells"] >= m["linalg.rank.nnz"] > 0
    assert m["poly.monomials_of_degree.calls"] > 0
    assert m["hochschild.window.tensors_built"] > 0
    assert 0 < m["hochschild.window.used_frac"] <= 1
    assert m["cli.load_s"] > 0 and m["cli.emit_s"] > 0
    assert set(layer_self) == set(tracer.LAYERS)
    for dump in (koszul, window):
        assert dump["spans"][0][0] == "cli.main"
        assert dump["spans"][0][3] == -1


def test_self_time_subtracts_direct_children():
    spans = [["a.x", 0.0, 10.0, -1, None],
             ["b.y", 1.0, 4.0, 0, None],
             ["c.z", 2.0, 3.0, 1, None],
             ["b.y", 5.0, 6.0, 0, None]]
    assert tracer._self_times(spans) == [6.0, 2.0, 1.0, 1.0]
