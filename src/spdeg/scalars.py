"""Exact scalar domains: rationals and exponential polynomials.

Everything on the verification path is either a ``fractions.Fraction`` or an
:class:`ExpPoly`, a finite sum ``sum_r c_r * exp(r*t)`` with rational
exponents and coefficients.  An :class:`ExpPoly` is evaluated only exactly,
at t = k*log(2).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)


def parse_rational(s: str) -> Fraction:
    """Parse 'p' or 'p/q', p with an optional sign, in ASCII digits between optional
    outer whitespace; ValueError naming s on any other text or a zero q."""
    m = _RATIONAL.fullmatch(s)
    if not m:
        raise ValueError(f"not a rational number: {s!r}")
    p, q = int(m[1]), int(m[2] or 1)
    if not q:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(p, q)


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`; '3', '-1/2', ..."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _normal(q):
    """The rational q as an int when it is integral, else as a Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class ExpPoly:
    """Finite sum of terms c * exp(r*t), keyed by the rational exponent r.

    Supports exact ring arithmetic (exponents add under multiplication), the
    exact limit t -> +inf, and exact evaluation at t = K*log(2) where every
    r*K is an integer.  Exponents and coefficients are int-normal: an int
    when integral, else a Fraction with denominator > 1.  Instances are
    immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        acc = {}
        for r, c in (terms or {}).items():
            r = Fraction(r)
            acc[r] = acc.get(r, 0) + Fraction(c)
        object.__setattr__(self, "terms", {_normal(r): _normal(c) for r, c in acc.items() if c})

    @classmethod
    def _from_clean(cls, terms) -> "ExpPoly":
        """The instance for int or Fraction keys and values: makes them int-normal
        and drops zero coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "terms", {_normal(r): _normal(c) for r, c in terms.items() if c})
        return self

    def __setattr__(self, *a):
        raise AttributeError("ExpPoly is immutable")

    @classmethod
    def const(cls, c) -> "ExpPoly":
        return cls._from_clean({0: Fraction(c)})

    @classmethod
    def exp(cls, r, c=1) -> "ExpPoly":
        """The single term c * exp(r*t)."""
        return cls._from_clean({Fraction(r): Fraction(c)})

    @staticmethod
    def coerce(x) -> "ExpPoly":
        if isinstance(x, ExpPoly):
            return x
        return ExpPoly.const(x)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = ExpPoly.coerce(other)
        out = dict(self.terms)
        for r, c in other.terms.items():
            out[r] = out[r] + c if r in out else c
        return ExpPoly._from_clean(out)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._from_clean({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ExpPoly.coerce(other))

    def __rsub__(self, other):
        return ExpPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = ExpPoly.coerce(other)
        out = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                r = r1 + r2
                out[r] = out[r] + c1 * c2 if r in out else c1 * c2
        return ExpPoly._from_clean(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- limits and evaluation ----------------------------------------------

    def limit(self) -> Optional[Fraction]:
        """Exact limit as t -> +inf; None when a positive exponent survives."""
        if any(r > 0 for r in self.terms):
            return None
        return Fraction(self.terms.get(0, 0))

    def eval_base(self, k: int) -> Fraction:
        """Exact value at t = k*log(2), i.e. with exp(t) := 2**k.

        Every exponent r must satisfy r*k integral so that 2**(r*k) is
        rational.
        """
        total = 0
        for r, c in self.terms.items():
            rk = r * k
            if rk.denominator != 1:
                raise ValueError(f"exponent {r} * {k} is not an integer")
            e = rk.numerator
            total += c * (1 << e) if e >= 0 else Fraction(c, 1 << -e)
        return Fraction(total)

    def __repr__(self):
        if not self.terms:
            return "ExpPoly(0)"
        bits = []
        for r in sorted(self.terms, reverse=True):
            c = self.terms[r]
            if r == 0:
                bits.append(format_rational(c))
            else:
                bits.append(f"{format_rational(c)}*e^({format_rational(r)}t)")
        return "ExpPoly(" + " + ".join(bits) + ")"
