"""End-to-end command-line tests driven through main()."""

import json
import time

import pytest

import lghomology.jacobi as jacobi
import lghomology.koszul as koszul

from lghomology.cli import MAX_GROUP_ORDER, main, parse_model_file
from lghomology.errors import (FactorizationInvalid, MethodUnsupported,
                               NonIsolated, NonIsolatedSector, ParseError,
                               WindowTooLarge)
from lghomology.linalg import PRIME_BOUND
from lghomology.orbifold import GroupAction
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


def test_window_tensor_changes_nothing(tmp_path, capsys):
    # ordinary HH is proved on one window whatever window tensor= says
    outs = []
    for window in ("window tensor=4\n", "window tensor=10\n", ""):
        path = write(tmp_path, "x2.lg", X2_FINITE + window)
        code, out, _ = run(capsys, ["hh", path, "--variant", "ordinary",
                                    "--format", "machine"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


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
    assert code == ParseError.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Exit codes


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.lg", "variables x\npotential x^\n")
    code, _, err = run(capsys, ["jacobi", path])
    assert code == ParseError.exit_code
    assert "error" in err


def test_unknown_keyword_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.lg", "variabels x\npotential x^2\n")
    code, _, err = run(capsys, ["jacobi", path])
    assert code == ParseError.exit_code


def test_isolation_exit_code(tmp_path, capsys):
    path = write(tmp_path, "ni.lg", NONISOLATED)
    code, _, err = run(capsys, ["jacobi", path, "--require-isolated"])
    assert code == NonIsolated.exit_code


def test_mf_verify_exit_code(tmp_path, capsys):
    model = write(tmp_path, "x3.lg", X3)
    fact = write(tmp_path, "bad.mf", MF_X3_BAD)
    code, _, err = run(capsys, ["mf", model, fact, "verify"])
    assert code == FactorizationInvalid.exit_code


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
    assert code == FactorizationInvalid.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("action", [
    ["verify"], ["ext"], ["ext", "--method", "truncate"], ["graded-audit"]])
def test_mf_builds_d_once_and_checks_it_once(tmp_path, capsys, monkeypatch,
                                             action):
    import lghomology.mf as mf_module
    calls = []
    for name in ("_odd_map", "verify_mf"):
        real = getattr(mf_module, name)
        monkeypatch.setattr(mf_module, name, lambda f, name=name, real=real: (
            calls.append(name) or real(f)))
    model = write(tmp_path, "x3.lg", X3)
    # with twists, graded-audit reads D a second time
    fact = write(tmp_path, "x3.mf", MF_X3 + "twists0 0\ntwists1 1\n")
    code, out, _ = run(capsys, ["mf", model, fact, *action,
                                "--format", "machine"])
    assert code == 0 and json.loads(out)["command"] == "mf"
    assert sorted(calls) == ["_odd_map", "verify_mf"]
    # a wrong factorization exits 5 with one message under every action
    fact = write(tmp_path, "bad.mf", MF_X3_BAD)
    code, out, err = run(capsys, ["mf", model, fact, *action])
    assert (code, out) == (FactorizationInvalid.exit_code, "")
    assert err == "error: compositions do not equal W times the identity\n"


def test_truncate_ext_refuses_a_nonisolated_potential(tmp_path, capsys):
    # x^2*y is not isolated, so graded Serre duality bounds no degree of
    # the Ext of x * xy
    model = write(tmp_path, "ni.lg", NONISOLATED)
    fact = write(tmp_path, "ni.mf", "P0 x\nP1 x*y\n")
    code, _, err = run(capsys, ["mf", model, fact, "ext", "--method",
                                "truncate"])
    assert code == NonIsolated.exit_code
    assert err == "error: critical points are not isolated\n"


def test_truncate_ext_refuses_an_inhomogeneous_entry(tmp_path, capsys):
    # the Koszul factorization of x^2+y^2 conjugated by [[1, x], [0, 1]]
    # on E0: it verifies, but its entry x+x*y has no degree
    model = write(tmp_path, "q.lg", "variables x y\npotential x^2+y^2\n")
    fact = write(tmp_path, "q.mf", "P0 x, -x^2+y; y, -x*y-x\n"
                 "P1 x+x*y, y-x^2; y, -x\n")
    code, out, err = run(capsys, ["mf", model, fact, "ext",
                                  "--format", "machine"])
    assert code == MethodUnsupported.exit_code and out == ""
    assert err == ("error: entry (0, 2) of the odd map is not "
                   "homogeneous\n")


def test_sector_exit_code(tmp_path, capsys):
    src = """\
field rational
variables x y
potential x^2*y^2
group order 2 weights 0 1
"""
    path = write(tmp_path, "sec.lg", src)
    code, _, err = run(capsys, ["orbifold", path])
    assert code == NonIsolatedSector.exit_code


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
    (["jacobi"], "variables x\npotential x^3\npotential x^2\n"),
    (["jacobi"], "field rational\nvariables x\nfield prime 5\n"
     "potential x^3\n"),
    (["hh"], "variables x\npotential x^3\nwindow maxr=5\n"),
    (["jacobi"], "variables x y:\npotential x^3+y^3\n"),
    (["hh"], "variables x\npotential x^3\nwindow degrees=2 degrees=4\n"),
    (["hh"], "variables x\npotential x^3\nwindow tensor=5 tensor=4\n"),
], ids=["prime-4", "window-tensor-abc", "window-maxr-float",
        "window-degrees-abc", "group-order-0", "potential-beyond-carrier",
        "carrier-length", "carrier-power-0", "overlong-literal",
        "group-weights-short", "group-weights-long", "repeated-variable",
        "window-maxr-negative", "window-maxr-0", "weight-not-integer",
        "empty-variables", "group-weights-not-integers",
        "carrier-power-not-integer", "constant-potential", "zero-potential",
        "missing-file", "repeated-potential", "repeated-field",
        "window-maxr-5", "weight-empty", "window-degrees-repeat-key",
        "window-tensor-repeat-key"])
def test_malformed_model_exits_parse(tmp_path, capsys, command, text):
    # no text means the model path does not exist
    path = write(tmp_path, "bad.lg", text) if text is not None else \
        str(tmp_path / "missing.lg")
    code, out, err = run(capsys, [command[0], path] + command[1:])
    assert code == ParseError.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


def test_model_and_factorization_files_read_lines_alike(tmp_path, capsys):
    # comment-only and blank lines are skipped but counted in line numbers
    model = "# x^3\n\nvariables x  # one variable\n   \npotential x^3\n"
    fact = "\n# x^3 = x * x^2\nP0 x  # first factor\n\nP1 x^2\n"
    paths = write(tmp_path, "c.lg", model), write(tmp_path, "c.mf", fact)
    code, out, _ = run(capsys, ["mf", *paths, "verify", "--format", "machine"])
    assert code == 0 and json.loads(out)["verified"] is True
    lg = write(tmp_path, "d.lg", model + "potential x\n")
    mf = write(tmp_path, "d.mf", fact + "P0 x\n")
    for argv, key in [(["jacobi", lg], "potential"),
                      (["mf", paths[0], mf, "verify"], "P0")]:
        code, out, err = run(capsys, argv)
        assert (code, out) == (ParseError.exit_code, "")
        assert err == "error: duplicate %r line (line 6)\n" % key


def test_repeated_bm_degree_exits_parse(tmp_path, capsys):
    # degrees=3 alone gives 2; a repeated 3 must not be counted twice
    path = write(tmp_path, "dup.lg", "variables x y\npotential x^3+y^3\n"
                 "window degrees=3,3\n")
    code, out, err = run(capsys, ["hh", path, "--variant", "bm",
                                  "--format", "machine"])
    assert code == ParseError.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


def test_window_below_one_is_rejected(tmp_path, capsys):
    # window tensor= changes nothing, but a value below 4 is still refused
    for window in (0, 1, 2, 3):
        path_w = write(tmp_path, "x2w.lg",
                       X2_FINITE + "window tensor=%d\n" % window)
        code, _, err = run(capsys, ["hh", path_w, "--variant", "ordinary"])
        assert code == ParseError.exit_code and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["hh", "x2.lg", "--variant", "ordinary", "--window", "8"],
    ["mf", "x3.lg", "x3.mf", "ext", "--bound", "2"],
], ids=["hh-window", "mf-ext-bound"])
def test_removed_options_are_refused(capsys, argv):
    # the model file's window tensor= sets the window, and truncate Ext
    # reads its degree range off the factorizations
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: " in err and "Traceback" not in err


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
    assert code == ParseError.exit_code
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("potential", [
    "(" * 600 + "x^3" + ")" * 600, "-" * 2000 + "x^3",
], ids=["600-parentheses", "2000-minus-signs"])
def test_deep_nesting_is_refused_at_parse_time(tmp_path, capsys, potential):
    path = write(tmp_path, "deep.lg", "variables x\npotential %s\n" % potential)
    code, out, err = run(capsys, ["jacobi", path, "--format", "machine"])
    assert code == ParseError.exit_code and out == ""
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
    assert code == ParseError.exit_code
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("powers", ["6 6", "1000 1000"])
def test_oversized_ordinary_window_is_refused_first(tmp_path, capsys, powers):
    # the one window ordinary HH reads holds 55.6 million tensors over
    # 6 6; over 1000 1000 even the carrier (10^12 products) is never built
    path = write(tmp_path, "big.lg", "variables x y\npotential x*y\n"
                 "carrier truncated %s\n" % powers)
    start = time.perf_counter()
    code, out, err = run(capsys, ["hh", path, "--variant", "ordinary",
                                  "--format", "machine"])
    assert time.perf_counter() - start < 0.5
    assert code == WindowTooLarge.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("degrees", ["14", "2,14", "1000000000"])
def test_oversized_bm_degrees_are_refused_first(tmp_path, capsys, degrees):
    # on x^3+y^3, degree 10 took 4 s and degree 14 over 60 s unbounded
    path = write(tmp_path, "big.lg", "variables x y\npotential x^3+y^3\n"
                 "window degrees=%s\n" % degrees)
    start = time.perf_counter()
    code, out, err = run(capsys, ["hh", path, "--variant", "bm",
                                  "--format", "machine"])
    assert time.perf_counter() - start < 1.0
    assert code == WindowTooLarge.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


def test_oversized_koszul_complex_is_refused_first(tmp_path, capsys,
                                                   monkeypatch):
    # x^3 builds 14 polyvector fields up to grade 4, one over this limit
    monkeypatch.setattr(koszul, "MAX_KOSZUL_BASIS", 13)
    built = []
    monkeypatch.setattr(koszul, "_basis", lambda *a: built.append(a))
    monkeypatch.setattr(koszul, "_dW_map", lambda *a: built.append(a))
    path = write(tmp_path, "x3.lg", X3)
    code, out, err = run(capsys, ["koszul", path, "--format", "machine"])
    assert code == WindowTooLarge.exit_code and out == ""
    assert "error" in err and "Traceback" not in err
    assert built == []


def test_large_koszul_complex_is_refused_fast(tmp_path, capsys):
    # unbounded, n = 20 took 8 s and n = 40 over 40 s
    path = write(tmp_path, "big.lg", "variables x y z\n"
                 "potential x^40+y^40+z^40\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["koszul", path, "--format", "machine"])
    assert time.perf_counter() - start < 1.0
    assert code == WindowTooLarge.exit_code and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("order", [MAX_GROUP_ORDER + 1, 10 ** 12])
def test_oversized_group_order_is_refused_at_the_group_line(
        tmp_path, capsys, monkeypatch, order):
    listed = []
    monkeypatch.setattr(GroupAction, "elements",
                        lambda action: listed.append(action) or [])
    path = write(tmp_path, "big.lg", "variables x y\npotential x^3+y^3\n"
                 "group order %d weights 0 0\n" % order)
    code, out, err = run(capsys, ["orbifold", path, "--format", "machine"])
    assert code == ParseError.exit_code and out == ""
    assert "group order" in err and "Traceback" not in err
    assert listed == []
    at_limit = parse_model_file("variables x\npotential x^3\n"
                                "group order %d weights 0\n"
                                % MAX_GROUP_ORDER)
    assert at_limit.group.order == MAX_GROUP_ORDER


@pytest.mark.parametrize("bad", ["model", "factorization"])
def test_a_file_that_is_not_utf8_exits_parse(tmp_path, capsys, bad):
    model = write(tmp_path, "x3.lg", X3)
    fact = write(tmp_path, "x3.mf", MF_X3)
    path = tmp_path / ("x3.lg" if bad == "model" else "x3.mf")
    path.write_bytes(b"\xff" + path.read_bytes())
    code, out, err = run(capsys, ["mf", model, fact, "verify",
                                  "--format", "machine"])
    assert code == ParseError.exit_code and out == ""
    assert "cannot read" in err and "Traceback" not in err


@pytest.mark.parametrize("command, expected", [
    (["jacobi"], {"isolated": True, "milnor": 0, "graded_dims": {},
                  "canonical_dims": {}}),
    (["hh", "--variant", "bm"], {"dims_per_degree": {}, "total": 0}),
    (["hh", "--variant", "compact-cohomology"], {"total": 0}),
    (["koszul"], {"concentrated": True, "homology": {}}),
    (["orbifold"], {"total": 0, "sectors": {
        "(0,)": {"fixed_vars": [0, 1], "classes": 0, "invariant": 0,
                 "parity": 0},
        "(1,)": {"fixed_vars": [0], "classes": 0, "invariant": 0,
                 "parity": 1}}}),
], ids=["jacobi", "hh-bm", "hh-compact-cohomology", "koszul", "orbifold"])
def test_potential_without_critical_points(tmp_path, capsys, command,
                                           expected):
    # the partials 1 and 2y generate the unit ideal: the Jacobi ring is 0,
    # so the singularity is isolated with Milnor number 0 and every
    # homology that the ring or its sectors carry is 0
    path = write(tmp_path, "unit.lg", "variables x:2 y:1\npotential x + y^2\n"
                 "group order 2 weights 0 1\n")
    code, out, err = run(capsys, [command[0], path] + command[1:]
                         + ["--format", "machine"])
    assert code == 0, err
    doc = json.loads(out)
    assert {key: doc[key] for key in expected} == expected


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
