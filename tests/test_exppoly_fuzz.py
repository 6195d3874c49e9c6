"""Property test: ExpPoly ring results are what the public constructor builds.

The ring operations build their results through an internal constructor that
takes int or Fraction keys and values.  Whatever the operands, each result must
equal the public constructor's normalization of the same terms and be
int-normal: every exponent and coefficient an int when it is integral and a
Fraction with denominator > 1 otherwise, and no zero coefficient.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spdeg.scalars import ExpPoly  # noqa: E402

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# ints and Fractions, so the public constructor has something to wrap
NUMBER = st.integers(-3, 3) | SMALL
POLY = st.dictionaries(NUMBER, NUMBER, max_size=5).map(ExpPoly)
OPERAND = POLY | NUMBER


def _int_normal(q):
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def _clean(p):
    return all(_int_normal(r) and _int_normal(c) and c != 0 for r, c in p.terms.items())


def _terms(x):
    return x.terms if isinstance(x, ExpPoly) else {Fraction(0): Fraction(x)}


def _sum(*pairs):
    acc = defaultdict(int)
    for r, c in pairs:
        acc[r] += c
    return ExpPoly(acc)


@settings(max_examples=300, deadline=None)
@given(POLY, OPERAND)
def test_ring_results_match_the_public_constructor(p, q):
    pt, qt = p.terms.items(), _terms(q).items()
    expected = {
        "add": _sum(*pt, *qt),
        "sub": _sum(*pt, *((r, -c) for r, c in qt)),
        "rsub": _sum(*qt, *((r, -c) for r, c in pt)),
        "mul": _sum(*((r1 + r2, c1 * c2) for r1, c1 in pt for r2, c2 in qt)),
        "neg": _sum(*((r, -c) for r, c in pt)),
    }
    got = {"add": p + q, "sub": p - q, "rsub": q - p, "mul": p * q, "neg": -p}
    for name, want in expected.items():
        assert got[name] == want, name
        assert _clean(got[name]), name
    assert q + p == got["add"] and q * p == got["mul"]


@given(NUMBER, NUMBER)
def test_single_terms_are_clean(r, c):
    for p in (ExpPoly.const(c), ExpPoly.exp(r, c), ExpPoly.coerce(c), ExpPoly({r: c})):
        assert _clean(p)
    assert ExpPoly.exp(r, c) == ExpPoly({r: c})
    assert ExpPoly.const(c) == ExpPoly({0: c}) == ExpPoly.coerce(c)
