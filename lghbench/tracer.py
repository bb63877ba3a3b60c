"""Traced driver: run one ``lgh`` command with spans around each layer.

Usage: python3 tracer.py SPANS_OUT JOB_ID -- LGH_ARGS...

The driver imports the program, wraps the public functions and methods
listed in ``SPANS`` and ``METHOD_SPANS``, runs ``lghomology.cli.main`` and
writes the spans it kept in memory to SPANS_OUT as JSON.  A wrapped
function is rebound under every name that refers to it in every
``lghomology`` module, so calls through ``from .linalg import rank`` and
the names ``cli`` imports are traced too.  Each span records its name,
start, end and parent index, plus a few counts (matrix cells, nonzeros,
basis sizes) taken from the arguments and results; the dump carries the
job id that all its spans share.

``layer_metrics`` turns the spans of one pass of a workload into the
per-layer metrics; it does not import the program.
"""

import functools
import json
import sys
import time

# (module, attribute, span name).  The layer is the part before the dot.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_model_file", "cli.load"),
    ("cli", "load_mf_file", "cli.load"),
    ("cli", "emit", "cli.emit"),
    ("poly", "parse_polynomial", "poly.parse"),
    ("poly", "buchberger", "poly.buchberger"),
    ("poly", "standard_monomials", "poly.standard_monomials"),
    ("jacobi", "jacobi_ideal", "jacobi.jacobi_ideal"),
    ("jacobi", "jacobi_data", "jacobi.jacobi_data"),
    ("jacobi", "canonical_module", "jacobi.canonical_module"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "homology_dim", "linalg.homology_dim"),
    ("hochschild", "hh_ordinary", "hochschild.hh_ordinary"),
    ("hochschild", "hh_bm_graded", "hochschild.hh_bm_graded"),
    ("hochschild", "bm_spot_homology", "hochschild.bm.spot"),
    ("hochschild", "_bm_differential", "hochschild.bm.assembly"),
    ("koszul", "koszul_concentrated", "koszul.koszul_concentrated"),
    ("koszul", "koszul_homology_dims", "koszul.koszul_homology_dims"),
    ("koszul", "contract_dW", "koszul.assembly"),
    ("koszul", "wedge_dW", "koszul.assembly"),
    ("mf", "verify_mf", "mf.verify_mf"),
    ("mf", "hom_complex", "mf.hom_complex"),
    ("mf", "ext_dims", "mf.ext_dims"),
    ("mf", "_degree_window_matrix", "mf.ext.assembly"),
    ("orbifold", "orbifold_hh_bm", "orbifold.orbifold_hh_bm"),
    ("orbifold", "sector_hh_bm", "orbifold.sector_hh_bm"),
    ("orbifold", "cross_product", "orbifold.cross_product"),
]
# (module, class, method, span name)
METHOD_SPANS = [
    ("cli", "ModelFile", "build", "cli.load"),
    ("hochschild", "ChainWindow", "__init__", "hochschild.window"),
    ("hochschild", "ChainWindow", "boundary_minus", "hochschild.window"),
    ("hochschild", "ChainWindow", "boundary_plus", "hochschild.window"),
]
# (module, class, method, counter name): counted, not timed.
METHOD_COUNTS = [
    ("poly", "PolyRing", "monomials_of_degree", "poly.monomials_of_degree"),
]
MODULES = ("cli", "errors", "hochschild", "jacobi", "koszul", "linalg", "mf",
           "orbifold", "poly")


def _rank_attrs(args, result):
    m = args[0]
    kind = type(m.field).__name__
    return {"cells": m.rows * m.cols, "nnz": len(m.entries),
            "field": {"RationalField": "q", "PrimeField": "fp"}.get(kind,
                                                                   kind)}


def _basis_attrs(args, result):
    return {"basis_len": len(result.generators)}


def _window_attrs(args, result):
    return {"dims": [len(b) for b in args[0].bases]}


def _ordinary_attrs(args, result):
    return {"cap": max(result.stabilization.values())}


ATTRS = {"linalg.rank": _rank_attrs, "poly.buchberger": _basis_attrs,
         "hochschild.hh_ordinary": _ordinary_attrs}
METHOD_ATTRS = {("ChainWindow", "__init__"): _window_attrs}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []     # [name, start, end, parent, attrs]
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result
        traced.__wrapped_span__ = name
        return traced

    def count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped_span__ = name
        return counted

    def install(self):
        """Wrap every listed function, rebinding it under every name that
        refers to it in the program's modules, and every listed method."""
        import importlib
        mods = {m: importlib.import_module("lghomology." + m) for m in MODULES}
        for modname, attr, span in SPANS:
            orig = getattr(mods[modname], attr)
            traced = self.wrap(span, orig, ATTRS.get(span))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        for modname, cls_name, meth, span in METHOD_SPANS:
            cls = getattr(mods[modname], cls_name)
            setattr(cls, meth, self.wrap(span, getattr(cls, meth),
                                         METHOD_ATTRS.get((cls_name, meth))))
        for modname, cls_name, meth, counter in METHOD_COUNTS:
            cls = getattr(mods[modname], cls_name)
            setattr(cls, meth, self.count(counter, getattr(cls, meth)))

    def dump(self):
        return {"job": self.job_id, "spans": self.spans,
                "counts": self.counts}


# ---------------------------------------------------------------------------
# Aggregation


def _self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [end - start for _name, start, end, _parent, _attrs in spans]
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


LAYER_METRICS = (
    "cli.load_s", "cli.emit_s",
    "poly.buchberger.calls", "poly.buchberger.self_s",
    "poly.buchberger.basis_len", "poly.parse.self_s",
    "poly.monomials_of_degree.calls",
    "jacobi.jacobi_ideal.calls", "jacobi.self_s",
    "linalg.rank.calls", "linalg.rank.self_s", "linalg.rank.q_s",
    "linalg.rank.fp_s", "linalg.rank.cells", "linalg.rank.nnz",
    "linalg.homology_dim.calls", "linalg.check_s",
    "hochschild.window.self_s", "hochschild.window.tensors_built",
    "hochschild.window.used_frac", "hochschild.bm.assembly_s",
    "hochschild.bm.spots",
    "koszul.assembly_s", "koszul.complexes",
    "mf.hom_complex.self_s", "mf.ext.assembly_s",
    "orbifold.self_s", "orbifold.sectors",
)
LAYERS = ("cli", "poly", "jacobi", "linalg", "hochschild", "koszul", "mf",
          "orbifold")


def layer_metrics(dumps):
    """Per-layer metrics of one pass, from the dumps of its jobs.

    Also returns each layer's self time, so callers can report shares of
    the traced wall time.
    """
    m = {k: 0 for k in LAYER_METRICS}
    layer_self = {k: 0.0 for k in LAYERS}
    built = used = 0
    for dump in dumps:
        spans = dump["spans"]
        own = _self_times(spans)
        for idx, (name, start, end, parent, attrs) in enumerate(spans):
            layer_self[name.split(".", 1)[0]] += own[idx]
            total = end - start
            if attrs is None and name in ATTRS:
                attrs = {}      # the call raised; it has no counts
            if name == "cli.load":
                m["cli.load_s"] += total
            elif name == "cli.emit":
                m["cli.emit_s"] += total
            elif name == "poly.buchberger":
                m["poly.buchberger.calls"] += 1
                m["poly.buchberger.self_s"] += own[idx]
                m["poly.buchberger.basis_len"] += attrs.get("basis_len", 0)
            elif name == "poly.parse":
                m["poly.parse.self_s"] += own[idx]
            elif name == "linalg.rank":
                m["linalg.rank.calls"] += 1
                m["linalg.rank.self_s"] += own[idx]
                if attrs.get("field") in ("q", "fp"):
                    m["linalg.rank.%s_s" % attrs["field"]] += own[idx]
                m["linalg.rank.cells"] += attrs.get("cells", 0)
                m["linalg.rank.nnz"] += attrs.get("nnz", 0)
            elif name == "linalg.homology_dim":
                m["linalg.homology_dim.calls"] += 1
                m["linalg.check_s"] += own[idx]
                if "koszul.koszul_homology_dims" in _ancestors(spans, idx):
                    m["koszul.complexes"] += 1
            elif name == "hochschild.window":
                m["hochschild.window.self_s"] += own[idx]
                if attrs is not None:
                    built += sum(attrs["dims"])
            elif name == "hochschild.hh_ordinary" and attrs:
                cap = attrs["cap"]
                for child in spans:
                    if child[3] == idx and child[4] and "dims" in child[4]:
                        used += sum(child[4]["dims"][:cap + 2])
            elif name == "hochschild.bm.assembly":
                m["hochschild.bm.assembly_s"] += total
            elif name == "hochschild.bm.spot":
                m["hochschild.bm.spots"] += 1
            elif name == "koszul.assembly":
                m["koszul.assembly_s"] += total
            elif name == "mf.hom_complex":
                m["mf.hom_complex.self_s"] += own[idx]
            elif name == "mf.ext.assembly":
                m["mf.ext.assembly_s"] += total
            elif name == "orbifold.sector_hh_bm":
                m["orbifold.sectors"] += 1
            if name.startswith("jacobi."):
                m["jacobi.self_s"] += own[idx]
                if name == "jacobi.jacobi_ideal":
                    m["jacobi.jacobi_ideal.calls"] += 1
            elif name.startswith("orbifold."):
                m["orbifold.self_s"] += own[idx]
        m["poly.monomials_of_degree.calls"] += dump["counts"].get(
            "poly.monomials_of_degree", 0)
    m["hochschild.window.tensors_built"] = built
    m["hochschild.window.used_frac"] = used / built if built else 0.0
    return m, layer_self


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT JOB_ID -- LGH_ARGS...",
              file=sys.stderr)
        return 64
    out_path, job_id, lgh_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    tracer.install()
    import lghomology.cli
    try:
        return lghomology.cli.main(lgh_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
