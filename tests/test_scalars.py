import random
from fractions import Fraction as F

import pytest

from spdeg.scalars import ExpPoly, format_rational, parse_rational


def test_rational_parse_format_roundtrip():
    for s in ["0", "3", "-7", "1/2", "-22/7", "41/152"]:
        assert format_rational(parse_rational(s)) == s
    assert parse_rational(" 3/6 ") == F(1, 2) and parse_rational("+7/3") == F(7, 3)


def test_exppoly_normalization_drops_zeros():
    p = ExpPoly({F(1): F(2), F(0): F(0)})
    assert list(p.terms) == [F(1)]
    assert ExpPoly({F(2): F(1), F(2): F(1)}).terms == {F(2): F(1)}
    assert not ExpPoly({})
    assert (ExpPoly.exp(1) - ExpPoly.exp(1)) == 0


def test_exppoly_ring_identities():
    p = ExpPoly({F(1): F(2), F(0): F(3)})
    q = ExpPoly({F(-1, 2): F(1), F(0): F(-1)})
    r = ExpPoly.exp(F(2), F(5))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p * 1 == p and p * 0 == ExpPoly({})
    assert 2 * p == p + p


def test_exppoly_exponents_add_under_multiplication():
    p = ExpPoly.exp(F(1, 2), 3)
    q = ExpPoly.exp(F(-2), F(1, 3))
    assert p * q == ExpPoly.exp(F(-3, 2), 1)


def test_exppoly_limits():
    assert ExpPoly.const(F(5, 7)).limit() == F(5, 7)
    assert ExpPoly({F(-1): F(4)}).limit() == 0
    assert ExpPoly({F(-1): F(4), F(0): F(2)}).limit() == 2
    assert ExpPoly({F(1, 3): F(1)}).limit() is None
    assert ExpPoly({F(1): F(1), F(-1): F(1)}).limit() is None


def _random_exppoly(rng, exponents):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        r = F(rng.choice(exponents))
        terms[r] = terms.get(r, F(0)) + F(rng.randint(-4, 4), rng.randint(1, 3))
    return ExpPoly(terms)


def test_limit_multiplicative_on_100_random_pairs():
    rng = random.Random(7)
    neg = [F(-3), F(-2), F(-1), F(-1, 2), F(0)]
    for _ in range(100):
        p = _random_exppoly(rng, neg)
        q = _random_exppoly(rng, neg)
        assert p.limit() is not None and q.limit() is not None
        assert (p * q).limit() == p.limit() * q.limit()


def test_eval_base_exact_substitution():
    p = ExpPoly({F(1, 2): F(3), F(-1, 4): F(1), F(0): F(-2)})
    # exp(t) := 2**4, so exp(t/2) = 4 and exp(-t/4) = 1/2
    assert p.eval_base(4) == 3 * 4 + F(1, 2) - 2
    with pytest.raises(ValueError):
        p.eval_base(2)  # 2 * (-1/4) is not an integer


def test_exppoly_is_int_normal():
    # integral exponents and coefficients are ints, the rest Fractions with
    # denominator > 1, whatever the constructor or the ring operation
    p = ExpPoly({F(2): F(3), F(1, 2): F(4, 2), 0: F(1, 3)})
    assert {(type(r), type(c)) for r, c in p.terms.items()} == {(int, int), (F, int), (int, F)}
    half = ExpPoly.exp(F(1, 2), F(1, 2))
    assert [(type(r), type(c)) for r, c in (half * half * 4).terms.items()] == [(int, int)]
    assert (half * half * 4).terms == {1: 1}


def test_eval_base_and_limit_return_fractions():
    # int / (1 << e) would be true division: an int coefficient at a negative
    # exponent must still evaluate to an exact Fraction, never a float (3**40 / 4
    # has no binary64 value)
    p = ExpPoly({-1: 3 ** 40})
    assert type(p.eval_base(2)) is F and p.eval_base(2) == F(3 ** 40, 4)
    assert type(ExpPoly.exp(2, 3).eval_base(1)) is F
    assert type(ExpPoly().eval_base(5)) is F and ExpPoly().eval_base(5) == 0
    for q in (ExpPoly({-1: 4, 0: 2}), ExpPoly({-1: 4}), ExpPoly.const(F(5, 7))):
        assert type(q.limit()) is F
    assert ExpPoly({-1: 4, 0: 2}).limit() == 2


def test_immutability():
    p = ExpPoly.const(1)
    with pytest.raises(AttributeError):
        p.terms = {}
