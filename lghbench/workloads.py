"""Seeded job lists for the benchmark's workloads.

A job is one ``lgh`` invocation on generated files plus the answer an
oracle expects.  ``build(workload, seed)`` returns the same jobs for the
same seed.  The composition of each workload (how many jobs of which
kind and size) is fixed; the seed picks coefficients, fields, primes,
variable names and the job order, so every seed lands in the same size
class.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracles

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MF_VERIFY = 5

NAMES = ("x", "y", "z", "w", "u", "v", "s", "t")
SMALL_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
LARGE_PRIMES = (30011, 31991, 32003, 32009, 32027)
COEFFS = (Fraction(1), Fraction(2), Fraction(3), Fraction(5), Fraction(-1),
          Fraction(-2), Fraction(1, 2), Fraction(2, 3))
INT_COEFFS = (1, 2, 3, -1, -2, -3)
SIGNS = (Fraction(1), Fraction(-1))

# Deformation coefficients for the groebner workload.  Every entry was run
# through `lgh jacobi` and gives an isolated singularity (b = +-2 in the
# quartic makes x^4 + y^4 + b x^2 y^2 a square, and e = -3 in the sextic
# is singular); they are small integers so that the seed keeps the cost
# class.
QUINTIC_DEFORM = (1, 2, 3, -1, -2, -3)
QUARTIC_DEFORM = ((1, 1), (1, -1), (2, 1), (-1, 1), (-1, -1), (2, -3),
                  (3, 1), (-2, -1))
SEXTIC_DEFORM = (1, 2, 3, 4, -1, -2)
# Non-integer rationals of similar height for the elimination workload.
RATIONAL_DEFORM = (Fraction(7, 3), Fraction(-7, 3), Fraction(5, 3),
                   Fraction(-5, 3), Fraction(7, 4), Fraction(-7, 4))


@dataclass
class Job:
    name: str
    argv: list                  # lgh arguments; file names are relative
    files: dict                 # file name -> contents
    expect_exit: int = EXIT_OK
    expect: dict = field(default_factory=dict)   # keys the output must match
    timeout_s: float = 120.0


# ---------------------------------------------------------------------------
# Text helpers


def _coeff(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else str(c)


def _mono(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) or "1"


def polynomial(terms):
    """Source text of sum c * mono for [(c, mono_text)], c nonzero."""
    out = ""
    for c, mono in terms:
        c = Fraction(c)
        body = mono if abs(c) == 1 else "%s*%s" % (_coeff(abs(c)), mono)
        if c < 0:
            out += "-" + body
        else:
            out += ("+" if out else "") + body
    return out


def model_text(field_line, names, weights, potential, extra=()):
    if all(w == 1 for w in weights):
        var_line = " ".join(names)
    else:
        var_line = " ".join("%s:%d" % (n, w) for n, w in zip(names, weights))
    lines = [field_line, "variables " + var_line, "potential " + potential]
    return "\n".join(lines + list(extra)) + "\n"


def _field_line(rng):
    if rng.random() < 0.5:
        return "field rational"
    return "field prime %d" % rng.choice(SMALL_PRIMES)


def fermat_terms(names, exponents, coeffs):
    return [(c, _mono(names, [a if j == i else 0 for j in range(len(names))]))
            for i, (a, c) in enumerate(zip(exponents, coeffs))]


def fermat(names, exponents, coeffs):
    return polynomial(fermat_terms(names, exponents, coeffs))


def koszul_mf_text(pairs):
    """Factorization file of sum u_i * v_i by the tensor-product recursion
    [[P0, v], [u, -P1]], [[P1, v], [u, -P0]]; pairs are (u, v) texts."""
    def neg(e):
        if e == "0":
            return e
        return e[1:] if e.startswith("-") else "-" + e

    def ident(n, e):
        return [[e if i == j else "0" for j in range(n)] for i in range(n)]

    def block(grid):
        rows = []
        for brow in grid:
            for r in range(len(brow[0])):
                rows.append([e for blk in brow for e in blk[r]])
        return rows

    u, v = pairs[0]
    P0, P1 = [[u]], [[v]]
    for u, v in pairs[1:]:
        n = len(P0)
        mP0 = [[neg(e) for e in row] for row in P0]
        mP1 = [[neg(e) for e in row] for row in P1]
        P0, P1 = (block([[P0, ident(n, v)], [ident(n, u), mP1]]),
                  block([[P1, ident(n, v)], [ident(n, u), mP0]]))

    def mat(m):
        return "; ".join(", ".join(row) for row in m)
    return "P0 %s\nP1 %s\n" % (mat(P0), mat(P1))


# ---------------------------------------------------------------------------
# interactive: many small jobs, about 10% malformed


def _small_model(rng, nvars):
    """(names, weights, degree, exponents, coeffs) of a small Fermat-type
    model; two-variable models are weighted half of the time."""
    names = rng.sample(NAMES, nvars)
    if nvars == 1:
        w = rng.choice((1, 2))
        a = rng.randint(2, 8)
        weights, exponents = [w], [a]
    elif nvars == 2 and rng.random() < 0.5:
        degree = rng.choice((4, 6, 8, 12))
        weights = [rng.choice([w for w in (1, 2, 3, 4) if degree % w == 0
                               and degree // w >= 2 and degree // w <= 6])
                   for _ in range(2)]
        exponents = [degree // w for w in weights]
    else:
        a = rng.randint(2, {2: 5, 3: 4, 4: 3}[nvars])
        weights, exponents = [1] * nvars, [a] * nvars
    coeffs = [rng.choice(COEFFS) for _ in range(nvars)]
    return names, weights, exponents[0] * weights[0], exponents, coeffs


def _jacobi_job(rng, name, compact):
    names, weights, degree, exps, coeffs = _small_model(rng, rng.randint(1, 4))
    pot = fermat(names, exps, coeffs)
    files = {name + ".lg": model_text(_field_line(rng), names, weights, pot)}
    if compact:
        return Job(name, ["hh", name + ".lg", "--variant",
                          "compact-cohomology"], files,
                   expect=oracles.compact_cohomology(weights, degree, pot))
    return Job(name, ["jacobi", name + ".lg"], files,
               expect=oracles.jacobi(weights, degree, pot))


def _orbifold_job(rng, name):
    nvars = rng.randint(1, 3)
    a = rng.randint(2, {1: 6, 2: 5, 3: 3}[nvars])
    order = rng.choice([d for d in range(2, a + 1) if a % d == 0])
    chars = [rng.randrange(order) for _ in range(nvars)]
    names = rng.sample(NAMES, nvars)
    pot = fermat(names, [a] * nvars, [rng.choice(COEFFS) for _ in names])
    group = "group order %d weights %s" % (order, " ".join(map(str, chars)))
    files = {name + ".lg": model_text(_field_line(rng), names, [1] * nvars,
                                      pot, [group])}
    return Job(name, ["orbifold", name + ".lg"], files,
               expect=oracles.orbifold([a] * nvars, [1] * nvars, order, chars,
                                       pot))


def _univariate_mf(rng, name, action, broken=False):
    """(x^a, c x^(n-a)); the Smith method hangs on weighted variables at
    the seed commit (see ``defects``), so Ext jobs use weight 1."""
    var = rng.choice(NAMES)
    w = 1 if action == "ext" else rng.choice((1, 2, 3))
    n = rng.randint(2, 9)
    a = rng.randint(1, n - 1)
    c = rng.choice(COEFFS)
    pot = polynomial([(c, _mono([var], [n]))])
    t0 = rng.randint(0, 3)
    graded = rng.random() < 0.75
    t1 = t0 + a * w + (0 if graded else rng.choice((-1, 1)))
    p1 = polynomial([(c, _mono([var], [n - a + (1 if broken else 0)]))])
    mf = "P0 %s\nP1 %s\ntwists0 %d\ntwists1 %d\n" % (
        _mono([var], [a]), p1, t0, t1)
    files = {name + ".lg": model_text(_field_line(rng), [var], [w], pot),
             name + ".mf": mf}
    argv = ["mf", name + ".lg", name + ".mf", action]
    if broken:
        return Job(name, argv, files, expect_exit=EXIT_MF_VERIFY)
    if action == "verify":
        expect = oracles.mf_verify(1)
    elif action == "graded-audit":
        expect = oracles.mf_graded_audit(a, w, [t0], [t1])
    else:
        argv += ["--method", "smith"]
        expect = oracles.ext_univariate(a, n)
    return Job(name, argv, files, expect=expect)


def _malformed_cases(rng):
    """Inputs the README documents as parse errors (exit 2) and that exit 2
    at the seed commit; each is (command, model text, extra files)."""
    x, y = rng.sample(NAMES, 2)
    good_vars = "variables %s %s" % (x, y)
    good_pot = "potential %s^3+%s^3" % (x, y)
    return [
        ("jacobi", "field rational\n%s\ncolour red\n%s\n" % (good_vars,
                                                               good_pot), {}),
        ("jacobi", "field rational\n%s\n" % good_vars, {}),
        ("jacobi", "field rational\n%s\n" % good_pot, {}),
        ("jacobi", "field rational\nvariables 2%s\n%s\n" % (x, good_pot), {}),
        ("jacobi", "field rational\n%s\npotential %s^3 $ %s\n"
         % (good_vars, x, y), {}),
        ("hh", "field rational\nvariables %s\npotential %s^3+%s^3\n"
         % (x, x, y), {}),
        ("jacobi", "field rational\nfield rational\n%s\n%s\n"
         % (good_vars, good_pot), {}),
        ("jacobi", "field complex\n%s\n%s\n" % (good_vars, good_pot), {}),
        ("orbifold", "field prime abc\n%s\n%s\n" % (good_vars, good_pot), {}),
        ("orbifold", "field rational\n%s\n%s\ngroup order 3\n"
         % (good_vars, good_pot), {}),
        ("orbifold", "field rational\n%s\n%s\n" % (good_vars, good_pot), {}),
        ("hh-ordinary", "field rational\nvariables %s\npotential %s^2\n"
         % (x, x), {}),
        ("hh-ordinary", "field rational\nvariables %s\npotential %s^2\n"
         "carrier free 3\n" % (x, x), {}),
        ("jacobi", "field rational\n%s\n%s\nwindow size=3\n"
         % (good_vars, good_pot), {}),
        ("mf", "field rational\nvariables %s\npotential %s^3\n" % (x, x),
         {"mf": "P0 %s\n" % x}),
        ("mf", "field rational\nvariables %s\npotential %s^3\n" % (x, x),
         {"mf": "P0 %s\nP1 %s^2\nshift 1\n" % (x, x)}),
        ("jacobi", "field rational\n%s\npotential %s^3+%s^\n"
         % (good_vars, x, y), {}),
    ]


def _malformed_job(name, case):
    command, text, extra = case
    files = {name + ".lg": text}
    if command == "hh":
        argv = ["hh", name + ".lg", "--variant", "bm"]
    elif command == "hh-ordinary":
        argv = ["hh", name + ".lg", "--variant", "ordinary"]
    elif command == "mf":
        files[name + ".mf"] = extra["mf"]
        argv = ["mf", name + ".lg", name + ".mf", "verify"]
    else:
        argv = [command, name + ".lg"]
    return Job(name, argv, files, expect_exit=EXIT_PARSE)


def interactive(rng):
    jobs = []
    plan = [("jacobi", 22), ("compact", 18), ("orbifold", 18),
            ("verify", 12), ("verify-broken", 3), ("audit", 14),
            ("ext-smith", 14)]
    for kind, count in plan:
        for i in range(count):
            name = "%s-%02d" % (kind, i)
            if kind in ("jacobi", "compact"):
                jobs.append(_jacobi_job(rng, name, kind == "compact"))
            elif kind == "orbifold":
                jobs.append(_orbifold_job(rng, name))
            elif kind == "verify-broken":
                jobs.append(_univariate_mf(rng, name, "verify", broken=True))
            else:
                action = {"verify": "verify", "audit": "graded-audit",
                          "ext-smith": "ext"}[kind]
                jobs.append(_univariate_mf(rng, name, action))
    cases = _malformed_cases(rng)
    rng.shuffle(cases)
    for i, case in enumerate(cases[:12]):
        jobs.append(_malformed_job("malformed-%02d" % i, case))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# groebner: deformed weighted-homogeneous potentials in 3-4 variables


def groebner(rng):
    jobs = []
    n4 = rng.sample(NAMES, 4)
    c1, c2 = rng.sample(QUINTIC_DEFORM, 2)
    quintic, quintic_b = (polynomial(fermat_terms(n4, [5] * 4, [1] * 4)
                                     + [(c, _mono(n4, [2, 1, 1, 1]))])
                          for c in (c1, c2))
    a, b = rng.choice(QUARTIC_DEFORM)
    quartic = polynomial(fermat_terms(n4, [4] * 4, [1] * 4)
                         + [(a, _mono(n4, [1, 1, 1, 1])),
                            (b, _mono(n4, [2, 2, 0, 0]))])
    n3 = rng.sample(NAMES, 3)
    e = rng.choice(SEXTIC_DEFORM)
    sextic = polynomial(fermat_terms(n3, [6, 6, 3], [1] * 3)
                        + [(e, _mono(n3, [2, 2, 1]))])
    k = rng.choice((1, 3))
    q1, q2 = rng.sample((1, 2, 3, 4), 2)
    specs = [
        ("jacobi-quintic4", "jacobi", n4, [1] * 4, quintic, 5, None),
        ("jacobi-quintic4-b", "jacobi", n4, [1] * 4, quintic_b, 5, None),
        ("jacobi-quartic4", "jacobi", n4, [1] * 4, quartic, 4, None),
        ("jacobi-sextic3", "jacobi", n3, [1, 1, 2], sextic, 6, None),
        ("orbifold-quartic4-z4", "orbifold", n4, [1] * 4, quartic, 4,
         (4, [k] * 4)),
        ("orbifold-quintic4-z5", "orbifold", n4, [1] * 4, quintic, 5,
         (5, [q1] * 4)),
        ("orbifold-quintic4-z5-b", "orbifold", n4, [1] * 4, quintic, 5,
         (5, [q2] * 4)),
    ]
    for name, command, names, weights, pot, degree, group in specs:
        extra = []
        if group:
            extra = ["group order %d weights %s"
                     % (group[0], " ".join(map(str, group[1])))]
        files = {name + ".lg": model_text("field rational", names, weights,
                                          pot, extra)}
        if command == "jacobi":
            expect = oracles.jacobi(weights, degree, pot)
        else:
            expect = oracles.orbifold([degree // wt for wt in weights],
                                      weights, group[0], group[1], pot)
        jobs.append(Job(name, [command, name + ".lg"], files, expect=expect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# elimination: linalg-bound jobs over Q, GF(p) and non-integer rationals


def _koszul_pairs(names, coeffs, exponent):
    """W = sum c_i x_i^e split as x_i * (c_i x_i^(e-1))."""
    return [(n, polynomial([(c, _mono([n], [exponent - 1]))]))
            for n, c in zip(names, coeffs)]


def elimination(rng):
    jobs = []
    x, y = rng.sample(NAMES, 2)
    s = [rng.choice(SIGNS) for _ in range(2)]
    bm_q = fermat([x, y], [3, 3], s)
    p = rng.choice(LARGE_PRIMES)
    bm_p = fermat([x, y], [3, 3], [rng.choice(COEFFS[:4]) for _ in range(2)])
    r = rng.choice(RATIONAL_DEFORM)
    bm_r = polynomial(fermat_terms([x, y], [3, 3], [1, 1])
                      + [(r, _mono([x, y], [2, 1]))])
    n3 = rng.sample(NAMES, 3)
    k3 = fermat(n3, [3] * 3, [rng.choice(SIGNS) for _ in n3])
    k3_p = fermat(n3, [3] * 3, [rng.choice(COEFFS[:4]) for _ in n3])
    k4 = fermat(n3, [4] * 3, [rng.choice(SIGNS) for _ in n3])
    k4_p = fermat(n3, [4] * 3, [rng.choice(COEFFS[:4]) for _ in n3])
    ec = [rng.choice(SIGNS) for _ in range(2)]
    ext = fermat([x, y], [3, 3], ec)
    specs = [
        ("hh-bm-q", "field rational", [x, y], bm_q, 3, "bm"),
        ("hh-bm-fp", "field prime %d" % p, [x, y], bm_p, 3, "bm"),
        ("hh-bm-rational", "field rational", [x, y], bm_r, 3, "bm"),
        ("koszul-cubic3", "field rational", n3, k3, 3, "koszul"),
        ("koszul-cubic3-fp", "field prime %d" % p, n3, k3_p, 3, "koszul"),
        ("koszul-quartic3", "field rational", n3, k4, 4, "koszul"),
        ("koszul-quartic3-fp", "field prime %d" % p, n3, k4_p, 4, "koszul"),
        ("ext-truncate-koszul2", "field rational", [x, y], ext, 3, "ext"),
    ]
    for name, field_line, names, pot, degree, kind in specs:
        weights = [1] * len(names)
        files = {name + ".lg": model_text(field_line, names, weights, pot)}
        if kind == "bm":
            argv = ["hh", name + ".lg", "--variant", "bm"]
            expect = oracles.hh_bm(weights, degree, pot)
        elif kind == "koszul":
            argv = ["koszul", name + ".lg"]
            expect = oracles.koszul(weights, degree, pot)
        else:
            files[name + ".mf"] = koszul_mf_text(
                _koszul_pairs(names, ec, degree))
            argv = ["mf", name + ".lg", name + ".mf", "ext", "--method",
                    "truncate"]
            expect = oracles.ext_koszul(len(names))
        jobs.append(Job(name, argv, files, expect=expect))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# windows: ordinary HH of curved truncated polynomial algebras


def windows(rng):
    """All over Q: ``hh --variant ordinary`` over GF(p) fails at the seed
    commit (see ``defects``)."""
    jobs = []
    specs = [("hh-ordinary-x4-w8", 4, 2, 8),
             ("hh-ordinary-x3-w10", 3, 2, 10),
             ("hh-ordinary-x3-w10-b", 3, 2, 10),
             ("hh-ordinary-x2-w10", 2, 1, 10)]
    for name, power, curvature, window in specs:
        var = rng.choice(NAMES)
        pot = polynomial([(rng.choice(INT_COEFFS), _mono([var], [curvature]))])
        text = model_text("field rational", [var], [1], pot,
                          ["carrier truncated %d" % power,
                           "window tensor=%d" % window])
        jobs.append(Job(name, ["hh", name + ".lg", "--variant", "ordinary"],
                        {name + ".lg": text},
                        expect=oracles.hh_ordinary(pot)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# defects: known wrong answers at the seed commit, kept as failures


def defects(rng):
    x, y = rng.sample(NAMES, 2)
    pot = fermat([x, y], [4, 4], [1, 1])
    ext_files = {"ext-truncate-koszul-quartic2.lg":
                 model_text("field rational", [x, y], [1, 1], pot),
                 "ext-truncate-koszul-quartic2.mf":
                 koszul_mf_text(_koszul_pairs([x, y], [1, 1], 4))}
    jobs = [Job("ext-truncate-koszul-quartic2",
                ["mf", "ext-truncate-koszul-quartic2.lg",
                 "ext-truncate-koszul-quartic2.mf", "ext", "--method",
                 "truncate"], ext_files, expect=oracles.ext_koszul(2))]
    cases = [
        ("malformed-field-prime-4", "jacobi",
         "field prime 4\nvariables %s\npotential %s^3\n" % (x, x)),
        ("malformed-window-tensor-abc", "jacobi",
         "field rational\nvariables %s\npotential %s^3\nwindow tensor=abc\n"
         % (x, x)),
        ("malformed-group-order-0", "orbifold",
         "field rational\nvariables %s\npotential %s^3\n"
         "group order 0 weights 1\n" % (x, x)),
        ("malformed-weight-0", "jacobi",
         "field rational\nvariables %s:0\npotential %s^3\n" % (x, x)),
        ("malformed-curvature-beyond-carrier", "hh-ordinary",
         "field rational\nvariables %s\npotential %s^3\n"
         "carrier truncated 3\n" % (x, x)),
    ]
    for name, command, text in cases:
        jobs.append(_malformed_job(name, (command, text, {})))
    name = "hh-ordinary-fp"
    jobs.append(Job(name, ["hh", name + ".lg", "--variant", "ordinary"],
                    {name + ".lg": model_text(
                        "field prime 101", [x], [1], "%s^2" % x,
                        ["carrier truncated 3", "window tensor=4"])},
                    expect=oracles.hh_ordinary("%s^2" % x)))
    name = "ext-smith-weighted"
    jobs.append(Job(name, ["mf", name + ".lg", name + ".mf", "ext",
                           "--method", "smith"],
                    {name + ".lg": model_text("field rational", [x], [2],
                                              "%s^7" % x),
                     name + ".mf": "P0 %s\nP1 %s^6\n" % (x, x)},
                    expect=oracles.ext_univariate(1, 7), timeout_s=10.0))
    return jobs


WORKLOADS = {"interactive": interactive, "groebner": groebner,
             "elimination": elimination, "windows": windows}
EXTRA = {"defects": defects}


def build(workload, seed):
    make = WORKLOADS.get(workload) or EXTRA[workload]
    return make(random.Random("%s:%d" % (workload, seed)))
