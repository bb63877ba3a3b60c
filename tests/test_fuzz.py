"""Fuzzing the input parsers: each input parses or raises an LGError."""

from hypothesis import given, settings, strategies as st

from lghomology.cli import parse_mf_file
from lghomology.errors import LGError
from lghomology.poly import PolyRing, parse_polynomial

# The product budget keeps every power cheap to expand, (x+y+z)^99
# included; "w" and "q" are unknown names.
RING = PolyRing(("x", "y", "z"))

TOKENS = ["x", "y", "z", "w", "q", "0", "1", "7", "12", "99999", "1/2", "x^2",
          "+", "-", "*", "/", "^", "**", "(", ")", " ", ".", "$"]

runs = st.lists(st.tuples(st.sampled_from(TOKENS),
                          st.integers(1, 3) | st.integers(1, 300)),
                max_size=8)
core = (runs.map(lambda rs: "".join(t * n for t, n in rs))
        | st.text(max_size=30))


def nest(opener, n, inner):
    return opener * n + inner + ")" * (n * opener.count("("))


# Each input sits inside a run of opening parentheses and unary minus
# signs, long ones included, so that deep nesting is generated as well.
expressions = st.builds(nest, st.sampled_from(["(", "-", "-("]),
                        st.integers(0, 3) | st.integers(0, 1500), core)

entries = st.lists(expressions, min_size=1, max_size=3).map(", ".join)
matrices = st.lists(entries, min_size=1, max_size=3).map("; ".join)
twists = st.sampled_from(["0 1", "1 -2 3", "a", "9" * 5000])
lines = st.tuples(st.sampled_from(["P0", "P1", "twists0", "twists1",
                                   "#", "bogus", ""]),
                  matrices | twists)
mf_texts = st.lists(lines, max_size=4).map(
    lambda ls: "\n".join("%s %s" % kv for kv in ls))


def parses_or_refuses(parse, text):
    try:
        parse(text, RING)
    except LGError:
        pass


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_parse_polynomial_parses_or_raises_lgerror(text):
    parses_or_refuses(parse_polynomial, text)


@settings(max_examples=100, deadline=None)
@given(mf_texts)
def test_parse_mf_file_parses_or_raises_lgerror(text):
    parses_or_refuses(parse_mf_file, text)
