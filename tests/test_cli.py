"""End-to-end command-line tests driven through main()."""

import json
import time

import pytest

import lghomology.jacobi as jacobi
import lghomology.koszul as koszul

from lghomology.cli import (EXIT_ISOLATION, EXIT_MF_VERIFY, EXIT_PARSE,
                            EXIT_SECTOR, EXIT_STABILIZATION, main,
                            parse_model_file)
from lghomology.errors import ParseError
from lghomology.linalg import PRIME_BOUND
from lghomology.poly import MAX_LITERAL_DIGITS, MAX_POWER_DEGREE

QUARTIC = """\
field rational
variables x y z w
potential x^4+y^4+z^4+w^4
group order 4 weights 1 1 1 1
"""

X3 = """\
field rational
variables x
potential x^3
"""

X2_FINITE = """\
field rational
variables x
potential x^2
carrier truncated 3
"""

NONISOLATED = """\
field rational
variables x y
potential x^2*y
"""

MF_X3 = """\
# factorization of x^3 as x * x^2
P0 x
P1 x^2
"""

MF_X3_BAD = """\
P0 x
P1 x
"""

MF_X2_GRADED = """\
P0 x
P1 x
twists0 0
twists1 1
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Golden runs


def test_jacobi_quartic_machine(tmp_path, capsys):
    path = write(tmp_path, "q.lg", QUARTIC)
    code, out, _ = run(capsys, ["jacobi", path, "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["milnor"] == 81
    assert doc["graded_dims"]["0"] == 1
    assert doc["graded_dims"]["4"] == 19
    assert doc["graded_dims"]["8"] == 1
    assert doc["canonical_parity"] == 0


def test_hh_bm_x3(tmp_path, capsys):
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["hh", path, "--variant", "bm",
                                "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 2
    assert doc["odd_total"] == 2
    assert doc["dims_per_degree"] == {"1": 1, "2": 1}


def test_hh_ordinary_vanishes(tmp_path, capsys):
    path = write(tmp_path, "x2.lg", X2_FINITE)
    code, out, _ = run(capsys, ["hh", path, "--variant", "ordinary",
                                "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"even": 0, "odd": 0}


def test_hh_ordinary_vanishes_over_prime_field(tmp_path, capsys):
    text = X2_FINITE.replace("field rational", "field prime 101")
    path = write(tmp_path, "x2p.lg", text + "window tensor=4\n")
    code, out, _ = run(capsys, ["hh", path, "--variant", "ordinary",
                                "--format", "machine"])
    assert code == 0
    assert json.loads(out)["dims"] == {"even": 0, "odd": 0}


def test_hh_compact_cohomology(tmp_path, capsys):
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["hh", path, "--variant", "compact-cohomology",
                                "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 2
    assert doc["parity"] == "even"


def test_orbifold_quartic(tmp_path, capsys):
    path = write(tmp_path, "q.lg", QUARTIC)
    code, out, _ = run(capsys, ["orbifold", path, "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 24
    assert doc["twisted_count"] == 3
    assert doc["combined"] == {"0": 1, "4": 22, "8": 1}


def test_koszul_concentration(tmp_path, capsys):
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["koszul", path, "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["concentrated"] is True
    assert doc["homology"]["0"] == {"0": 1, "1": 1}


def test_mf_verify_and_ext(tmp_path, capsys):
    model = write(tmp_path, "x3.lg", X3)
    fact = write(tmp_path, "f.mf", MF_X3)
    code, out, _ = run(capsys, ["mf", model, fact, "verify",
                                "--format", "machine"])
    assert code == 0
    assert json.loads(out)["verified"] is True
    code, out, _ = run(capsys, ["mf", model, fact, "ext",
                                "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["even"] == 1 and doc["odd"] == 1
    assert doc["method"] == "smith"


def test_mf_graded_audit(tmp_path, capsys):
    model = write(tmp_path, "x2.lg",
                  "field rational\nvariables x\npotential x^2\n")
    fact = write(tmp_path, "g.mf", MF_X2_GRADED)
    code, out, _ = run(capsys, ["mf", model, fact, "graded-audit",
                                "--format", "machine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["graded_degrees"] is True
    assert doc["twists0"] == [0] and doc["twists1"] == [1]


RANK2 = "P0 x, y; -y, x\nP1 x, -y; y, x\n"


@pytest.mark.parametrize("text", [
    RANK2 + "twists0 0\ntwists1 1\n",
    RANK2 + "twists0 0 0 5\ntwists1 1 1\n",
    "P0 x, y; x\nP1 x, -y; y, x\n",
    "P0 x, y; -y, x\nP1 x, -y\n",
    "P0 x, y\nP1 x, y\n",
    "P0 x, y; -y, x\n" + RANK2,
    RANK2 + "P1 x, -y; y, x\n",
    RANK2 + "twists0 0 0\ntwists0 0 1\n",
    RANK2 + "twists0 a\n",
    None,
], ids=["too-short", "too-long", "ragged-rows", "factors-not-composable",
        "factors-same-shape", "repeated-P0", "repeated-P1",
        "repeated-twists0", "twists-not-integers", "missing-file"])
def test_malformed_mf_exits_parse(tmp_path, capsys, text):
    # RANK2 is a factorization of x^2 + y^2 with two summands on each side;
    # no text means the .mf path does not exist
    model = write(tmp_path, "q.lg", "field rational\nvariables x y\n"
                  "potential x^2+y^2\n")
    fact = write(tmp_path, "q.mf", text) if text is not None else \
        str(tmp_path / "missing.mf")
    code, out, err = run(capsys, ["mf", model, fact, "graded-audit",
                                  "--format", "machine"])
    assert code == EXIT_PARSE and out == ""
    assert "error" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Exit codes


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.lg", "variables x\npotential x^\n")
    code, _, err = run(capsys, ["jacobi", path])
    assert code == EXIT_PARSE
    assert "error" in err


def test_unknown_keyword_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.lg", "variabels x\npotential x^2\n")
    code, _, err = run(capsys, ["jacobi", path])
    assert code == EXIT_PARSE


def test_isolation_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ni.lg", NONISOLATED)
    code, _, err = run(capsys, ["jacobi", path, "--require-isolated"])
    assert code == EXIT_ISOLATION


def test_mf_verify_exit_code(tmp_path, capsys):
    model = write(tmp_path, "x3.lg", X3)
    fact = write(tmp_path, "bad.mf", MF_X3_BAD)
    code, _, err = run(capsys, ["mf", model, fact, "verify"])
    assert code == EXIT_MF_VERIFY


@pytest.mark.parametrize("text", [
    "P0 x, y; -y, x\nP1 x, -y; y, x\n",
    "P0 x, 0; 0, y\nP1 x, 0; 0, x\n",
], ids=["factors-another-potential", "square-not-scalar"])
def test_mf_ext_verifies_the_factorization(tmp_path, capsys, text):
    # the first pair factors x^2 + y^2; the second has D^2 = diag(x^2, xy)
    model = write(tmp_path, "q.lg", "variables x y\npotential x^3+y^3\n")
    fact = write(tmp_path, "q.mf", text)
    code, out, err = run(capsys, ["mf", model, fact, "ext",
                                  "--format", "machine"])
    assert code == EXIT_MF_VERIFY and out == ""
    assert "error" in err and "Traceback" not in err


def test_stabilization_exit_code(tmp_path, capsys):
    model = write(tmp_path, "x3.lg", X3)
    fact = write(tmp_path, "x3.mf", MF_X3)
    code, _, err = run(capsys, ["mf", model, fact, "ext", "--method",
                                "truncate", "--bound", "2"])
    assert code == EXIT_STABILIZATION
    assert "error" in err and "Traceback" not in err


def test_sector_exit_code(tmp_path, capsys):
    src = """\
field rational
variables x y
potential x^2*y^2
group order 2 weights 0 1
"""
    path = write(tmp_path, "sec.lg", src)
    code, _, err = run(capsys, ["orbifold", path])
    assert code == EXIT_SECTOR


@pytest.mark.parametrize("command, text", [
    (["jacobi"], "field prime 4\nvariables x\npotential x^3\n"),
    (["jacobi"], "variables x\npotential x^3\nwindow tensor=abc\n"),
    (["hh"], "variables x\npotential x^3\nwindow maxr=1.5\n"),
    (["hh"], "variables x\npotential x^3\nwindow degrees=1,a\n"),
    (["orbifold"], "variables x\npotential x^3\ngroup order 0 weights 1\n"),
    (["hh", "--variant", "ordinary"],
     "variables x\npotential x^3\ncarrier truncated 3\n"),
    (["hh", "--variant", "ordinary"],
     "variables x\npotential x^2\ncarrier truncated 3 3\n"),
    (["hh", "--variant", "ordinary"],
     "variables x\npotential x^2\ncarrier truncated 0\n"),
    (["jacobi"], "variables x\npotential %s*x^2\n"
     % ("1" * (MAX_LITERAL_DIGITS + 1))),
    (["orbifold"], "variables x y\npotential x^3+y^3\n"
     "group order 3 weights 1\n"),
    (["orbifold"], "variables x y\npotential x^3+y^3\n"
     "group order 3 weights 1 2 1\n"),
    (["jacobi"], "variables x x\npotential x^3\n"),
    (["hh"], "variables x\npotential x^3\nwindow maxr=-1\n"),
    (["hh"], "variables x\npotential x^3\nwindow maxr=0\n"),
    (["jacobi"], "variables x:a\npotential x^3\n"),
    (["jacobi"], "variables\npotential x^3\n"),
    (["orbifold"], "variables x\npotential x^3\ngroup order 3 weights a\n"),
    (["hh", "--variant", "ordinary"],
     "variables x\npotential x^2\ncarrier truncated a\n"),
    (["jacobi"], "variables x\npotential 3\n"),
    (["jacobi"], "variables x\npotential 0\n"),
    (["jacobi"], None),
], ids=["prime-4", "window-tensor-abc", "window-maxr-float",
        "window-degrees-abc", "group-order-0", "potential-beyond-carrier",
        "carrier-length", "carrier-power-0", "overlong-literal",
        "group-weights-short", "group-weights-long", "repeated-variable",
        "window-maxr-negative", "window-maxr-0", "weight-not-integer",
        "empty-variables", "group-weights-not-integers",
        "carrier-power-not-integer", "constant-potential", "zero-potential",
        "missing-file"])
def test_malformed_model_exits_parse(tmp_path, capsys, command, text):
    # no text means the model path does not exist
    path = write(tmp_path, "bad.lg", text) if text is not None else \
        str(tmp_path / "missing.lg")
    code, out, err = run(capsys, [command[0], path] + command[1:])
    assert code == EXIT_PARSE and out == ""
    assert "error" in err and "Traceback" not in err


def test_repeated_bm_degree_exits_parse(tmp_path, capsys):
    # degrees=3 alone gives 2; a repeated 3 must not be counted twice
    path = write(tmp_path, "dup.lg", "variables x y\npotential x^3+y^3\n"
                 "window degrees=3,3\n")
    code, out, err = run(capsys, ["hh", path, "--variant", "bm",
                                  "--format", "machine"])
    assert code == EXIT_PARSE and out == ""
    assert "error" in err and "Traceback" not in err


def test_window_below_one_is_rejected(tmp_path, capsys):
    # parity 1 settles on caps 1, 3, ... below the window, so windows 1-3
    # could never settle either
    path = write(tmp_path, "x2.lg", X2_FINITE)
    for window in (0, 1, 2, 3):
        code, _, err = run(capsys, ["hh", path, "--variant", "ordinary",
                                    "--window", str(window)])
        assert code == EXIT_PARSE and "Traceback" not in err
        path_w = write(tmp_path, "x2w.lg",
                       X2_FINITE + "window tensor=%d\n" % window)
        code, _, err = run(capsys, ["hh", path_w, "--variant", "ordinary"])
        assert code == EXIT_PARSE and "Traceback" not in err


@pytest.mark.parametrize("potential", [
    "x^1000000000", "(x^2+1)^%d" % (MAX_POWER_DEGREE // 2 + 1),
    "2^" + "9" * 5000, "(x+y+z)^99", "(x+y+z)^40*(x+y+z)^40",
    "9" * MAX_LITERAL_DIGITS + "^100*x^3",
    ("9" * MAX_LITERAL_DIGITS + "^100*") * 2 + "x^3",
    "(%s*x)^100" % ("9" * MAX_LITERAL_DIGITS),
], ids=["huge-exponent", "degree-above-limit", "5000-digit-exponent",
        "wide-power", "product-of-wide-powers", "huge-coefficient-power",
        "product-of-huge-coefficient-powers", "power-of-huge-coefficient"])
def test_exponent_bomb_is_refused_at_parse_time(tmp_path, capsys, potential):
    path = write(tmp_path, "bomb.lg",
                 "variables x y z\npotential %s\n" % potential)
    start = time.perf_counter()
    code, _, err = run(capsys, ["jacobi", path])
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_PARSE
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("potential", [
    "(" * 600 + "x^3" + ")" * 600, "-" * 2000 + "x^3",
], ids=["600-parentheses", "2000-minus-signs"])
def test_deep_nesting_is_refused_at_parse_time(tmp_path, capsys, potential):
    path = write(tmp_path, "deep.lg", "variables x\npotential %s\n" % potential)
    code, out, err = run(capsys, ["jacobi", path, "--format", "machine"])
    assert code == EXIT_PARSE and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("prime", ["7" * 401, "1000000000000000003"],
                         ids=["401-digit", "above-bound"])
def test_huge_prime_is_refused_fast(tmp_path, capsys, prime):
    assert int(prime) >= PRIME_BOUND
    path = write(tmp_path, "p.lg", "field prime %s\nvariables x\n"
                 "potential x^3\n" % prime)
    start = time.perf_counter()
    code, _, err = run(capsys, ["jacobi", path])
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_PARSE
    assert "error" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Work done once per job


def _counting(monkeypatch, fn, *modules):
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)
    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_jacobi_job_computes_the_jacobi_ideal_once(tmp_path, capsys,
                                                   monkeypatch):
    calls = _counting(monkeypatch, jacobi.jacobi_ideal, jacobi)
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["jacobi", path, "--format", "machine"])
    assert code == 0
    assert json.loads(out)["canonical_dims"] == {"1": 1, "2": 1}
    assert len(calls) == 1


def test_koszul_job_computes_the_homology_once(tmp_path, capsys,
                                               monkeypatch):
    calls = _counting(monkeypatch, koszul.koszul_homology_dims, koszul)
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["koszul", path, "--format", "machine"])
    assert code == 0 and json.loads(out)["concentrated"] is True
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Determinism and parsing details


def test_machine_output_is_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, "q.lg", QUARTIC)
    _, first, _ = run(capsys, ["orbifold", path, "--format", "machine"])
    _, second, _ = run(capsys, ["orbifold", path, "--format", "machine"])
    assert first == second


def test_model_file_parsing_details():
    mf = parse_model_file("variables x:2 y:3\npotential x^3+y^2\n"
                          "window tensor=6 degrees=0,2\n")
    assert mf.names == ("x", "y")
    assert mf.weights == (2, 3)
    assert mf.window == {"tensor": 6, "degrees": [0, 2]}
    with pytest.raises(ParseError):
        parse_model_file("variables x\nvariables y\n")
    with pytest.raises(ParseError):
        parse_model_file("field prime two\n")


def test_human_format_mentions_command(tmp_path, capsys):
    path = write(tmp_path, "x3.lg", X3)
    code, out, _ = run(capsys, ["jacobi", path])
    assert code == 0
    assert "command: jacobi" in out
    assert "elapsed" in out
