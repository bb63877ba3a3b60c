"""Command-line front end.

Model files are line-oriented: each line starts with a keyword followed by
its arguments; ``#`` starts a comment.  Recognized keywords:

    field rational | field prime P
    variables x:1 y:2 ...          (name:weight, weight defaults to 1)
    potential <expression>
    group order D weights w1 ... wn       (optional)
    carrier truncated p1 ... pn           (optional finite carrier)
    window tensor=N maxr=R degrees=d1,d2  (optional truncation data)

Borel-Moore homology is exact at one shift, so ``maxr`` is accepted, checked
to be at least 1, and otherwise ignored.

Factorization files use ``P0`` / ``P1`` lines with rows separated by ``;``
and entries by ``,``, plus optional ``twists0`` / ``twists1`` integer lists.

Machine output is versioned JSON with sorted keys; the human tables are
derived from the same data.  Exit codes: 2 parse, 3 isolation, 4
stabilization, 5 factorization verification, 6 sector.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import (FactorizationInvalid, LGError, NoStabilization,
                     NonIsolated, NonIsolatedSector, ParseError)
from .hochschild import FiniteCurvedAlgebra, hh_bm_graded, hh_ordinary
from .jacobi import (INFINITE, LGModel, canonical_data, canonical_module,
                     jacobi_data, socle_degree)
from .linalg import PrimeField, QQ
from .orbifold import GroupAction, orbifold_hh_bm
from .poly import PolyRing, parse_polynomial

SCHEMA_VERSION = 1

EXIT_PARSE = ParseError.exit_code
EXIT_ISOLATION = NonIsolated.exit_code
EXIT_STABILIZATION = NoStabilization.exit_code
EXIT_MF_VERIFY = FactorizationInvalid.exit_code
EXIT_SECTOR = NonIsolatedSector.exit_code

# hh_ordinary settles parity 1 on caps 1, 3, ... below the tensor window and
# needs two of them, so a smaller window can never settle.
MIN_TENSOR_WINDOW = 4


# ---------------------------------------------------------------------------
# Model files


class ModelFile:
    def __init__(self):
        self.field = QQ
        self.field_desc = "rational"
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


def _window_int(name, val, lineno):
    try:
        return int(val)
    except ValueError:
        raise ParseError("bad window value %s=%r (line %d)"
                         % (name, val, lineno))


def parse_model_file(text):
    mf = ModelFile()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in seen:
            raise ParseError("duplicate %r line (line %d)" % (key, lineno))
        seen.add(key)
        if key == "field":
            toks = rest.split()
            if toks == ["rational"]:
                mf.field, mf.field_desc = QQ, "rational"
            elif len(toks) == 2 and toks[0] == "prime":
                try:
                    p = int(toks[1])
                    mf.field = PrimeField(p)
                except ValueError as exc:
                    raise ParseError("bad prime (line %d): %s" % (lineno, exc))
                mf.field_desc = "prime %d" % p
            else:
                raise ParseError("bad field spec (line %d)" % lineno)
        elif key == "variables":
            names, weights = [], []
            for tok in rest.split():
                name, _, w = tok.partition(":")
                if not name.isidentifier():
                    raise ParseError("bad variable %r (line %d)" % (tok, lineno))
                if name in names:
                    raise ParseError("variable %r repeats (line %d)"
                                     % (name, lineno))
                names.append(name)
                try:
                    weights.append(int(w) if w else 1)
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
                if name == "tensor":
                    mf.window["tensor"] = _window_int(name, val, lineno)
                    if mf.window["tensor"] < MIN_TENSOR_WINDOW:
                        raise ParseError("window tensor must be at least %d "
                                         "(line %d)"
                                         % (MIN_TENSOR_WINDOW, lineno))
                elif name == "maxr":
                    # validated as before, so the same files load, then
                    # ignored: BM homology is exact at one shift
                    if _window_int(name, val, lineno) < 1:
                        raise ParseError("window maxr must be at least 1 "
                                         "(line %d)" % lineno)
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


def load_model_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    return parse_model_file(text)


def parse_mf_file(text, ring):
    """Factorization file: P0/P1 matrices plus optional twist lists."""
    from .mf import PolyMatrix
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key in data:
            raise ParseError("duplicate %r line (line %d)" % (key, lineno))
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
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    data = parse_mf_file(text, model.ring)
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


def emit(report, fmt, elapsed, out=None):
    out = out or sys.stdout
    if fmt == "machine":
        doc = dict(report)
        doc["schema_version"] = SCHEMA_VERSION
        print(json.dumps(_jsonable(doc), sort_keys=True,
                         separators=(",", ":")), file=out)
        return
    print("command: %s" % report.get("command"), file=out)
    for key, value in report.items():
        if key == "command":
            continue
        if isinstance(value, dict):
            print("%s:" % key, file=out)
            for k in sorted(value, key=str):
                print("  %-16s %s" % (k, value[k]), file=out)
        else:
            print("%s: %s" % (key, value), file=out)
    print("elapsed: %.3fs" % elapsed, file=out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_jacobi(args):
    mf = load_model_file(args.model)
    model = mf.build()
    data = jacobi_data(model)
    isolated = data.milnor is not INFINITE
    if args.require_isolated and not isolated:
        raise NonIsolated("critical points are not isolated")
    report = {
        "command": "jacobi",
        "potential": mf.potential_src,
        "isolated": isolated,
        "milnor": data.milnor if isolated else "infinite",
        "graded_dims": dict(data.dims.dims),
    }
    if isolated and model.is_homogeneous():
        can = canonical_data(model, data)
        report["canonical_shift"] = can.shift
        report["canonical_parity"] = can.parity
        report["canonical_dims"] = dict(can.dims.dims)
    return report


def cmd_hh(args):
    mf = load_model_file(args.model)
    model = mf.build()
    if args.variant == "ordinary":
        if mf.carrier is None:
            raise ParseError("the ordinary variant needs a carrier line")
        carrier = FiniteCurvedAlgebra.truncated(
            mf.carrier, model.potential.terms, model.ring.field)
        window = args.window if args.window is not None else \
            mf.window.get("tensor", 10)
        if window < MIN_TENSOR_WINDOW:
            raise ParseError("--window must be at least %d"
                             % MIN_TENSOR_WINDOW)
        rep = hh_ordinary(carrier, max_tensor=window)
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
            degrees = sorted(can.dims.dims)
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
    if args.variant == "compact-cohomology":
        data = jacobi_data(model)
        if data.milnor is INFINITE:
            raise NonIsolated("critical points are not isolated")
        return {
            "command": "hh",
            "variant": "compact-cohomology",
            "potential": mf.potential_src,
            "dims_per_degree": dict(data.dims.dims),
            "parity": "even",
            "total": data.milnor,
        }
    raise ParseError("unknown variant %r" % args.variant)


def cmd_mf(args):
    from .mf import ext_dims, verify_graded_degrees, verify_mf
    mf = load_model_file(args.model)
    model = mf.build()
    fact = load_mf_file(args.factorization, model)
    if not verify_mf(fact):
        raise FactorizationInvalid(
            "compositions do not equal W times the identity")
    if args.action == "verify":
        return {"command": "mf", "action": "verify", "verified": True,
                "rank0": fact.rank0, "rank1": fact.rank1}
    if args.action == "ext":
        method = args.method
        if method is None:
            method = "smith" if model.ring.nvars == 1 else "truncate"
        even, odd = ext_dims(fact, fact, method=method, bound=args.bound)
        return {"command": "mf", "action": "ext", "method": method,
                "even": even, "odd": odd}
    if args.action == "graded-audit":
        return {"command": "mf", "action": "graded-audit", "verified": True,
                "graded_degrees": verify_graded_degrees(fact),
                "twists0": list(fact.twists0 or []),
                "twists1": list(fact.twists1 or [])}
    raise ParseError("unknown mf action %r" % args.action)


def cmd_orbifold(args):
    mf = load_model_file(args.model)
    model = mf.build()
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


def cmd_koszul(args):
    from . import koszul
    mf = load_model_file(args.model)
    model = mf.build()
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
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("mf", parents=[common], help="matrix factorization checks")
    p.add_argument("model")
    p.add_argument("factorization")
    p.add_argument("action", choices=("verify", "ext", "graded-audit"))
    p.add_argument("--method", choices=("smith", "truncate"), default=None)
    p.add_argument("--bound", type=int, default=12)
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
        result = args.func(args)
    except LGError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    emit(result, args.format, time.monotonic() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
