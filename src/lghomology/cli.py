"""Command-line front end.

Model files are line-oriented: each line starts with a keyword followed by
its arguments; ``#`` starts a comment.  Recognized keywords:

    field rational | field prime P
    variables x:1 y:2 ...          (name:weight, or a bare name of weight 1)
    potential <expression>
    group order D weights w1 ... wn       (optional, D <= MAX_GROUP_ORDER)
    carrier truncated p1 ... pn           (optional finite carrier)
    window tensor=N degrees=d1,d2         (optional truncation data)

``window tensor=`` is parsed and must be at least ``MIN_TENSOR_WINDOW``,
but changes nothing: ordinary HH is proved on one window of that size.
``window degrees=`` picks the internal degrees Borel-Moore HH reports.
A key repeated on one ``window`` line is a parse error, as a repeated
keyword line is.

Factorization files use ``P0`` / ``P1`` lines with rows separated by ``;``
and entries by ``,``, plus optional ``twists0`` / ``twists1`` integer lists.

Machine output is versioned JSON with sorted keys; the human tables are
derived from the same data.  Exit codes: 2 parse, 3 isolation, 4
``WindowTooLarge`` (an ordinary-HH window over ``MAX_WINDOW_TENSORS``,
Borel-Moore degrees over ``MAX_BM_TENSORS`` or Koszul bases over
``MAX_KOSZUL_BASIS``), 5 factorization verification, 6 sector.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from fractions import Fraction
from math import prod

from .errors import FactorizationInvalid, LGError, NonIsolated, ParseError
from .hochschild import (MIN_TENSOR_WINDOW, FiniteCurvedAlgebra,
                         check_window, hh_bm_graded, hh_ordinary)
from .jacobi import (INFINITE, LGModel, canonical_data, canonical_module,
                     jacobi_data, socle_degree)
from .linalg import PrimeField, QQ
from .orbifold import GroupAction, orbifold_hh_bm
from .poly import PolyRing, parse_polynomial

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Model files


class ModelFile:
    def __init__(self):
        self.field = QQ
        self.names = None
        self.weights = None
        self.potential_src = None
        self.group = None          # GroupAction
        self.carrier = None        # tuple of truncation powers
        self.window = {}

    def build(self):
        if self.names is None:
            raise ParseError("model file declares no variables")
        if self.potential_src is None:
            raise ParseError("model file declares no potential")
        ring = PolyRing(self.names, self.weights, field=self.field)
        potential = parse_polynomial(self.potential_src, ring)
        if potential.degree() < 1:
            raise ParseError("potential must be nonconstant")
        if self.group is not None and len(self.group.weights) != ring.nvars:
            raise ParseError("group line needs one weight per variable")
        if self.carrier is not None:
            if len(self.carrier) != ring.nvars:
                raise ParseError("carrier line needs one truncation power "
                                 "per variable")
            if any(e >= p for mono in potential.terms
                   for e, p in zip(mono, self.carrier)):
                raise ParseError("potential does not fit in the carrier "
                                 "truncated %s"
                                 % " ".join(map(str, self.carrier)))
        return LGModel(ring, potential)


# The largest group order a model file may declare: the orbifold lists
# every element and prints a sector for each.  On x^3+y^3 with weights d/3,
# order 9,999 takes 1.2 s and prints 0.66 MB, order 60,000 5.8 s and 4 MB
# (2 vCPU).
MAX_GROUP_ORDER = 10 ** 4


def _window_int(name, val, lineno):
    try:
        return int(val)
    except ValueError:
        raise ParseError("bad window value %s=%r (line %d)"
                         % (name, val, lineno))


def _keyed_lines(text):
    """(line number, key, rest) of each line of a model or factorization
    file that is not blank once its ``#`` comment is cut; a key seen
    before raises ``ParseError``."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in seen:
            raise ParseError("duplicate %r line (line %d)" % (key, lineno))
        seen.add(key)
        yield lineno, key, rest.strip()


def parse_model_file(text):
    mf = ModelFile()
    for lineno, key, rest in _keyed_lines(text):
        if key == "field":
            toks = rest.split()
            if toks == ["rational"]:
                mf.field = QQ
            elif len(toks) == 2 and toks[0] == "prime":
                try:
                    mf.field = PrimeField(int(toks[1]))
                except ValueError as exc:
                    raise ParseError("bad prime (line %d): %s" % (lineno, exc))
            else:
                raise ParseError("bad field spec (line %d)" % lineno)
        elif key == "variables":
            names, weights = [], []
            for tok in rest.split():
                name, colon, w = tok.partition(":")
                if not name.isidentifier():
                    raise ParseError("bad variable %r (line %d)" % (tok, lineno))
                if name in names:
                    raise ParseError("variable %r repeats (line %d)"
                                     % (name, lineno))
                names.append(name)
                try:
                    weights.append(int(w) if colon else 1)
                except ValueError:
                    raise ParseError("bad weight %r (line %d)" % (tok, lineno))
            if not names:
                raise ParseError("empty variables line (line %d)" % lineno)
            mf.names, mf.weights = tuple(names), tuple(weights)
        elif key == "potential":
            mf.potential_src = rest
        elif key == "group":
            toks = rest.split()
            if len(toks) < 3 or toks[0] != "order" or toks[2] != "weights":
                raise ParseError("group line must read "
                                 "'group order D weights w1 ...' (line %d)"
                                 % lineno)
            try:
                d = int(toks[1])
                ws = [int(t) for t in toks[3:]]
            except ValueError:
                raise ParseError("bad group numbers (line %d)" % lineno)
            if d < 1:
                raise ParseError("group order must be positive (line %d)"
                                 % lineno)
            if d > MAX_GROUP_ORDER:
                raise ParseError("group order %d is over the limit of %d "
                                 "(line %d)" % (d, MAX_GROUP_ORDER, lineno))
            mf.group = GroupAction.cyclic(d, tuple(ws))
        elif key == "carrier":
            toks = rest.split()
            if not toks or toks[0] != "truncated":
                raise ParseError("carrier line must read "
                                 "'carrier truncated p1 ...' (line %d)" % lineno)
            try:
                mf.carrier = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise ParseError("bad truncation powers (line %d)" % lineno)
            if any(p < 1 for p in mf.carrier):
                raise ParseError("truncation powers must be positive (line %d)"
                                 % lineno)
        elif key == "window":
            for tok in rest.split():
                name, _, val = tok.partition("=")
                if name in mf.window:
                    raise ParseError("duplicate window key %r (line %d)"
                                     % (name, lineno))
                if name == "tensor":
                    mf.window["tensor"] = _window_int(name, val, lineno)
                    if mf.window["tensor"] < MIN_TENSOR_WINDOW:
                        raise ParseError("window tensor must be at least %d "
                                         "(line %d)"
                                         % (MIN_TENSOR_WINDOW, lineno))
                elif name == "degrees":
                    degrees = [_window_int(name, v, lineno)
                               for v in val.split(",")]
                    if len(set(degrees)) != len(degrees):
                        raise ParseError("window degrees repeat (line %d)"
                                         % lineno)
                    mf.window["degrees"] = degrees
                else:
                    raise ParseError("unknown window key %r (line %d)"
                                     % (name, lineno))
        else:
            raise ParseError("unknown keyword %r (line %d)" % (key, lineno))
    return mf


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


def load_model_file(path):
    return parse_model_file(_read(path))


def parse_mf_file(text, ring):
    """Factorization file: P0/P1 matrices plus optional twist lists."""
    from .mf import PolyMatrix
    data = {}
    for lineno, key, rest in _keyed_lines(text):
        if key in ("P0", "P1"):
            rows = [[parse_polynomial(e.strip(), ring)
                     for e in row_src.split(",")]
                    for row_src in rest.split(";")]
            if len({len(row) for row in rows}) > 1:
                raise ParseError("rows of %s differ in length (line %d)"
                                 % (key, lineno))
            data[key] = PolyMatrix(ring, rows)
        elif key in ("twists0", "twists1"):
            try:
                data[key] = tuple(int(t) for t in rest.split())
            except ValueError:
                raise ParseError("bad twist list (line %d)" % lineno)
        else:
            raise ParseError("unknown keyword %r (line %d)" % (key, lineno))
    if "P0" not in data or "P1" not in data:
        raise ParseError("factorization file needs P0 and P1 lines")
    P0, P1 = data["P0"], data["P1"]
    if (P1.nrows, P1.ncols) != (P0.ncols, P0.nrows):
        raise ParseError("P0 is %dx%d, so P1 must be %dx%d, not %dx%d"
                         % (P0.nrows, P0.ncols, P0.ncols, P0.nrows,
                            P1.nrows, P1.ncols))
    return data


def load_mf_file(path, model):
    from .mf import MatrixFactorization
    data = parse_mf_file(_read(path), model.ring)
    # one twist per summand: E0 is the source of P0, E1 its target
    for key, need in (("twists0", data["P0"].ncols),
                      ("twists1", data["P0"].nrows)):
        if key in data and len(data[key]) != need:
            raise ParseError("%s needs %d entries, one per summand, not %d"
                             % (key, need, len(data[key])))
    return MatrixFactorization(model, data["P0"], data["P1"],
                               twists0=data.get("twists0"),
                               twists1=data.get("twists1"))


# ---------------------------------------------------------------------------
# Reports


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if value is INFINITE:
        return "infinite"
    if isinstance(value, dict):
        return {_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _key(k):
    if isinstance(k, (tuple, Fraction)):
        return str(_jsonable(k) if isinstance(k, tuple) else k)
    return str(k)


def emit(report, fmt, elapsed):
    if fmt == "machine":
        doc = dict(report)
        doc["schema_version"] = SCHEMA_VERSION
        print(json.dumps(_jsonable(doc), sort_keys=True,
                         separators=(",", ":")))
        return
    print("command: %s" % report.get("command"))
    for key, value in report.items():
        if key == "command":
            continue
        if isinstance(value, dict):
            print("%s:" % key)
            for k in sorted(value, key=str):
                print("  %-16s %s" % (k, value[k]))
        else:
            print("%s: %s" % (key, value))
    print("elapsed: %.3fs" % elapsed)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_jacobi(args, mf, model):
    data = jacobi_data(model)
    isolated = data.milnor is not INFINITE
    if args.require_isolated and not isolated:
        raise NonIsolated("critical points are not isolated")
    report = {
        "command": "jacobi",
        "potential": mf.potential_src,
        "isolated": isolated,
        "milnor": data.milnor if isolated else "infinite",
        "graded_dims": data.dims,
    }
    if isolated and model.is_homogeneous():
        can = canonical_data(model, data)
        report["canonical_shift"] = can.shift
        report["canonical_parity"] = can.parity
        report["canonical_dims"] = can.dims
    return report


def cmd_hh(args, mf, model):
    if args.variant == "ordinary":
        if mf.carrier is None:
            raise ParseError("the ordinary variant needs a carrier line")
        # the carrier costs dim^2 products: refuse one whose window is
        # over the limit before building it
        check_window(prod(mf.carrier), MIN_TENSOR_WINDOW)
        carrier = FiniteCurvedAlgebra.truncated(
            mf.carrier, model.potential.terms, model.ring.field)
        rep = hh_ordinary(carrier)
        return {
            "command": "hh",
            "variant": "ordinary",
            "potential": mf.potential_src,
            "dims": {"even": rep.dims[0], "odd": rep.dims[1]},
            "stabilized_at": dict(rep.stabilization),
        }
    if args.variant == "bm":
        degrees = mf.window.get("degrees")
        if degrees is None:
            can = canonical_module(model)
            degrees = sorted(can.dims)
        rep = hh_bm_graded(model, degrees)
        by_parity = {0: 0, 1: 0}
        per_degree = {}
        for (deg, parity), dim in rep.dims.items():
            by_parity[parity] += dim
            if dim:
                per_degree[deg] = per_degree.get(deg, 0) + dim
        return {
            "command": "hh",
            "variant": "bm",
            "potential": mf.potential_src,
            "dims_per_degree": per_degree,
            "even_total": by_parity[0],
            "odd_total": by_parity[1],
            "total": by_parity[0] + by_parity[1],
        }
    # argparse's choices leave compact-cohomology
    data = jacobi_data(model)
    if data.milnor is INFINITE:
        raise NonIsolated("critical points are not isolated")
    return {
        "command": "hh",
        "variant": "compact-cohomology",
        "potential": mf.potential_src,
        "dims_per_degree": data.dims,
        "parity": "even",
        "total": data.milnor,
    }


def cmd_mf(args, mf, model):
    from .mf import ext_dims, verify_graded_degrees, verify_mf
    fact = load_mf_file(args.factorization, model)
    if args.action == "ext":
        method = args.method
        if method is None:
            method = "smith" if model.ring.nvars == 1 else "truncate"
        # ext_dims checks D.D = W.I (in hom_complex) before anything else
        even, odd = ext_dims(fact, fact, method=method)
        return {"command": "mf", "action": "ext", "method": method,
                "even": even, "odd": odd}
    if not verify_mf(fact):
        raise FactorizationInvalid(
            "compositions do not equal W times the identity")
    if args.action == "verify":
        return {"command": "mf", "action": "verify", "verified": True,
                "rank0": fact.rank0, "rank1": fact.rank1}
    # argparse's choices leave graded-audit
    return {"command": "mf", "action": "graded-audit", "verified": True,
            "graded_degrees": verify_graded_degrees(fact),
            "twists0": list(fact.twists0 or []),
            "twists1": list(fact.twists1 or [])}


def cmd_orbifold(args, mf, model):
    if mf.group is None:
        raise ParseError("orbifold command needs a group line")
    rep = orbifold_hh_bm(model, mf.group)
    sectors = {}
    for sec in rep.sectors:
        sectors[str(sec.g)] = {
            "fixed_vars": list(sec.fixed_vars),
            "classes": len(sec.classes),
            "invariant": rep.invariant_counts[sec.g],
            "parity": sec.parity,
        }
    return {
        "command": "orbifold",
        "potential": mf.potential_src,
        "group_order": mf.group.order,
        "sectors": sectors,
        "combined": {k: v for k, v in sorted(rep.combined.items())},
        "even_total": rep.even_total,
        "odd_total": rep.odd_total,
        "twisted_count": rep.twisted_count,
        "total": rep.total,
    }


def cmd_koszul(args, mf, model):
    from . import koszul
    max_grade = socle_degree(model) + model.degree
    dims = koszul.koszul_homology_dims(model, max_grade)
    return {
        "command": "koszul",
        "potential": mf.potential_src,
        "concentrated": koszul.dims_concentrated(model, dims, max_grade),
        "homology": {str(k): dict(v) for k, v in dims.items()},
    }


# ---------------------------------------------------------------------------
# Entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lgh",
        description="Exact invariants of Landau-Ginzburg models.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "machine"),
                        default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobi", parents=[common],
                       help="Milnor number and graded quotient dims")
    p.add_argument("model")
    p.add_argument("--require-isolated", action="store_true")
    p.set_defaults(func=cmd_jacobi)

    p = sub.add_parser("hh", parents=[common], help="Hochschild-type invariants")
    p.add_argument("model")
    p.add_argument("--variant",
                   choices=("ordinary", "bm", "compact-cohomology"),
                   default="bm")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("mf", parents=[common], help="matrix factorization checks")
    p.add_argument("model")
    p.add_argument("factorization")
    p.add_argument("action", choices=("verify", "ext", "graded-audit"))
    p.add_argument("--method", choices=("smith", "truncate"), default=None)
    p.set_defaults(func=cmd_mf)

    p = sub.add_parser("orbifold", parents=[common], help="orbifold sector invariants")
    p.add_argument("model")
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("koszul", parents=[common], help="Koszul concentration check")
    p.add_argument("model")
    p.set_defaults(func=cmd_koszul)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        mf = load_model_file(args.model)
        result = args.func(args, mf, mf.build())
    except LGError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    emit(result, args.format, time.monotonic() - start)
    return 0


def entry():
    """Process entry of ``lgh`` and ``python -m lghomology.cli``.

    Runs ``main``, then freezes every live object, so that the collections
    the interpreter runs at shutdown skip what the job created or imported,
    and exits with ``main``'s code.  Flushing, ``atexit`` and refcount
    teardown still run.  ``main`` itself leaves collection alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
