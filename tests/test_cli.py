"""End-to-end command-line tests driven through main()."""

import json

import pytest

from lghomology.cli import (EXIT_ISOLATION, EXIT_MF_VERIFY, EXIT_PARSE,
                            EXIT_SECTOR, main, parse_model_file)
from lghomology.errors import ParseError

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
], ids=["prime-4", "window-tensor-abc", "window-maxr-float",
        "window-degrees-abc", "group-order-0", "potential-beyond-carrier",
        "carrier-length", "carrier-power-0"])
def test_malformed_model_exits_parse(tmp_path, capsys, command, text):
    path = write(tmp_path, "bad.lg", text)
    code, _, err = run(capsys, [command[0], path] + command[1:])
    assert code == EXIT_PARSE
    assert "error" in err and "Traceback" not in err


def test_window_below_one_is_rejected(tmp_path, capsys):
    path = write(tmp_path, "x2.lg", X2_FINITE)
    code, _, err = run(capsys, ["hh", path, "--variant", "ordinary",
                                "--window", "0"])
    assert code == EXIT_PARSE and "Traceback" not in err
    path = write(tmp_path, "x2w.lg", X2_FINITE + "window tensor=0\n")
    code, _, err = run(capsys, ["hh", path, "--variant", "ordinary"])
    assert code == EXIT_PARSE and "Traceback" not in err


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
