"""Metric geometry of a bracket with the canonical inner product.

Levi-Civita product, Ricci form, Einstein checks, and the degenerate-Ricci
root finder.  The Ricci form of a 4-dimensional bracket runs on ints over
one denominator, as straight-line polynomials in its 24 structure constants;
the root finder takes det Ric of a one-parameter family as an exact
polynomial and counts and isolates its roots with a Sturm chain, with no
binary64 step.
The Riemann tensor, the Levi-Civita contraction and the reduced nilpotent
Ricci formula, which the tests compare the Ricci form against, are in
tests/oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import linalg
from .invariants import SymForm
from .tensor import Bracket, bracket_to_table

HALF = Fraction(1, 2)


def levi_civita(mu: Bracket):
    """Dense table LC[i][j] -> vector of the Levi-Civita product.

    With the dot product as metric the three-term formula reduces to
    LC_{ij}^k = (c_{ij}^k - c_{jk}^i + c_{ki}^j) / 2.
    """
    c = bracket_to_table(mu)
    r = range(mu.dim)
    return [[[(c[i][j][k] - c[j][k][i] + c[k][i][j]) * HALF for k in r] for j in r] for i in r]


def _check_dim(mu: Bracket):
    if mu.dim != 4:
        raise ValueError(f"the Ricci form is implemented in dimension 4, not {mu.dim}")


def _ricci_matrix(mu: Bracket):
    """4*Ric of a 4-dimensional Lie bracket, from its six pair vectors by _besse4."""
    _check_dim(mu)
    return _besse4(*[mu.pair(i, j) for i in range(1, 5) for j in range(i + 1, 5)])


def _moved_ricci_matrix(g, mu: Bracket, ginv):
    """_ricci_matrix(act(g, mu, ginv)), with no Bracket in between.

    For a stored pair (i, j) of mu, mu(ginv e_k, ginv e_l) has the coefficient
    ginv_ik ginv_jl - ginv_jk ginv_il on [e_i, e_j], so the moved pair vector
    g mu(ginv e_k, ginv e_l) is the sum of these 2x2 minors times g [e_i, e_j].
    """
    _check_dim(mu)
    g1, g2, g3, g4 = g
    a1 = a2 = a3 = a4 = b1 = b2 = b3 = b4 = c1 = c2 = c3 = c4 = 0
    d1 = d2 = d3 = d4 = e1 = e2 = e3 = e4 = f1 = f2 = f3 = f4 = 0
    for (i, j), vec in mu.rules.items():
        w1 = w2 = w3 = w4 = 0  # g [e_i, e_j]
        for k, x in vec.items():
            w1, w2, w3, w4 = (w1 + g1[k - 1] * x, w2 + g2[k - 1] * x,
                              w3 + g3[k - 1] * x, w4 + g4[k - 1] * x)
        p1, p2, p3, p4 = ginv[i - 1]
        q1, q2, q3, q4 = ginv[j - 1]
        m = p1 * q2 - q1 * p2
        a1, a2, a3, a4 = a1 + m * w1, a2 + m * w2, a3 + m * w3, a4 + m * w4
        m = p1 * q3 - q1 * p3
        b1, b2, b3, b4 = b1 + m * w1, b2 + m * w2, b3 + m * w3, b4 + m * w4
        m = p1 * q4 - q1 * p4
        c1, c2, c3, c4 = c1 + m * w1, c2 + m * w2, c3 + m * w3, c4 + m * w4
        m = p2 * q3 - q2 * p3
        d1, d2, d3, d4 = d1 + m * w1, d2 + m * w2, d3 + m * w3, d4 + m * w4
        m = p2 * q4 - q2 * p4
        e1, e2, e3, e4 = e1 + m * w1, e2 + m * w2, e3 + m * w3, e4 + m * w4
        m = p3 * q4 - q3 * p4
        f1, f2, f3, f4 = f1 + m * w1, f2 + m * w2, f3 + m * w3, f4 + m * w4
    return _besse4((a1, a2, a3, a4), (b1, b2, b3, b4), (c1, c2, c3, c4),
                   (d1, d2, d3, d4), (e1, e2, e3, e4), (f1, f2, f3, f4))


def _besse4(a, b, c, d, e, f):
    """4*Ric, Ric = M - B/2 - S(ad_H) (Besse, Einstein Manifolds, 7.38) with
    <H, x> = tr ad_x, of the bracket on R^4 whose pair vectors are a = [e1, e2],
    b = [e1, e3], c = [e1, e4], d = [e2, e3], e = [e2, e4] and f = [e3, e4]
    (a_k = c_12^k, ...); symmetric, int for int brackets.  Each entry is the expansion of
    4*Ric_ij = 2(sum_{k<l} c_kl^i c_kl^j - <ad_i, ad_j>_F - tr(ad_i ad_j)
                 - <[H,e_i],e_j> - <[H,e_j],e_i>)
    in the 24 structure constants, written out so that no zero is multiplied.
    Off the Lie variety it differs from the Levi-Civita contraction by a
    constant linear image of the Jacobiator."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    d1, d2, d3, d4 = d
    e1, e2, e3, e4 = e
    f1, f2, f3, f4 = f
    r11 = 2 * (d1 * d1 - a3 * a3 - a4 * a4 - b2 * b2 - b4 * b4 - c2 * c2 - c3 * c3 + e1 * e1
           + f1 * f1) + 4 * (a1 * d3 - a1 * a1 + a1 * e4 - a2 * a2 - a3 * b2 - a4 * c2 - b1 * b1
           - b1 * d2 + b1 * f4 - b3 * b3 - b4 * c3 - c1 * c1 - c1 * e2 - c1 * f3 - c4 * c4)
    r12 = 2 * (a2 * d3 - a1 * b3 - a1 * c4 + a2 * e4 + a3 * b1 - a3 * d2 + a4 * c1 - a4 * e2
           + b2 * f4 - b4 * d4 - b4 * e3 - c2 * f3 - c3 * d4 - c3 * e3 + d1 * f4 - e1 * f3
           + f1 * f2) - 4 * (b1 * d1 + b2 * d2 + b3 * d3 + c1 * e1 + c2 * e2 + c4 * e4)
    r13 = 2 * (a1 * b2 - a2 * b1 + a3 * e4 + a4 * d4 - a4 * f2 - b1 * c4 + b2 * d3 - b3 * d2
           + b3 * f4 + b4 * c1 - b4 * f3 + c2 * d4 - c2 * f2 - c3 * e2 - d1 * e4 + e1 * e3
           - e2 * f1) + 4 * (a1 * d1 + a2 * d2 + a3 * d3 - c1 * f1 - c3 * f3 - c4 * f4)
    r14 = 2 * (a1 * c2 - a2 * c1 + a3 * e3 + a3 * f2 + a4 * d3 + b1 * c3 + b2 * e3 + b2 * f2
           - b3 * c1 - b4 * d2 + c2 * e4 + c3 * f4 - c4 * e2 - c4 * f3 + d1 * d4 + d2 * f1
           - d3 * e1) + 4 * (a1 * e1 + a2 * e2 + a4 * e4 + b1 * f1 + b3 * f3 + b4 * f4)
    r22 = 2 * (b2 * b2 - a3 * a3 - a4 * a4 + c2 * c2 - d1 * d1 - d4 * d4 - e1 * e1 - e3 * e3
           + f2 * f2) + 4 * (a3 * d1 - a1 * a1 - a2 * a2 - a2 * b3 - a2 * c4 + a4 * e1 - b1 * d2
           - c1 * e2 - d2 * d2 + d2 * f4 - d3 * d3 - d4 * e3 - e2 * e2 - e2 * f3 - e4 * e4)
    r23 = 2 * (a1 * d2 - a2 * d1 - a3 * c4 - a4 * b4 + a4 * f1 - b1 * d3 - b2 * c4 + b3 * d1
           + b4 * e1 - c1 * e3 - c1 * f2 + c2 * c3 - d2 * e4 + d3 * f4 + d4 * e2 - d4 * f3
           - e1 * f1) - 4 * (a1 * b1 + a2 * b2 + a3 * b3 + e2 * f2 + e3 * f3 + e4 * f4)
    r24 = 2 * (a1 * e2 - a2 * e1 - a3 * c3 - a3 * f1 - a4 * b3 - b1 * d4 + b1 * f2 + b2 * b4
           - b3 * c2 - c1 * e4 + c3 * d1 + c4 * e1 + d1 * f1 + d2 * e3 - d3 * e2 + e3 * f4
           - e4 * f3) + 4 * (d2 * f2 - a1 * c1 - a2 * c2 - a4 * c4 + d3 * f3 + d4 * f4)
    r33 = 2 * (a3 * a3 - b2 * b2 - b4 * b4 + c3 * c3 - d1 * d1 - d4 * d4 + e3 * e3 - f1 * f1
           - f2 * f2) + 4 * (a1 * d3 - a2 * b3 - b1 * b1 - b2 * d1 - b3 * b3 - b3 * c4 + b4 * f1
           - c1 * f3 - d2 * d2 - d3 * d3 - d3 * e4 + d4 * f2 - e2 * f3 - f3 * f3 - f4 * f4)
    r34 = 2 * (a1 * d4 + a1 * e3 - a2 * b4 - a2 * c3 + a3 * a4 + b1 * f3 - b2 * c2 - b2 * e1
           - b3 * f1 - c1 * f4 - c2 * d1 + c4 * f1 - d1 * e1 + d2 * f3 - d3 * f2 - e2 * f4
           + e4 * f2) - 4 * (b1 * c1 + b3 * c3 + b4 * c4 + d2 * e2 + d3 * e3 + d4 * e4)
    r44 = 2 * (a4 * a4 + b4 * b4 - c2 * c2 - c3 * c3 + d4 * d4 - e1 * e1 - e3 * e3 - f1 * f1
           - f2 * f2) + 4 * (a1 * e4 - a2 * c4 + b1 * f4 - b3 * c4 - c1 * c1 - c2 * e1 - c3 * f1
           - c4 * c4 + d2 * f4 - d3 * e4 - e2 * e2 - e3 * f2 - e4 * e4 - f3 * f3 - f4 * f4)
    return [[r11, r12, r13, r14], [r12, r22, r23, r24],
            [r13, r23, r33, r34], [r14, r24, r34, r44]]


class CurvatureTensors(NamedTuple):
    ricci: SymForm
    scalar_curv: Fraction


def ricci_form(mu: Bracket) -> SymForm:
    """Exact Ricci form of (mu, dot product): ints on m*mu, one division by 4m^2."""
    m, scaled = mu.integer_multiple()
    return SymForm([[Fraction(x, 4 * m * m) for x in row] for row in _ricci_matrix(scaled)])


def ricci(mu: Bracket) -> CurvatureTensors:
    """Ricci form and scalar curvature of (mu, dot product)."""
    form = ricci_form(mu)
    return CurvatureTensors(form, form.trace())


def einstein_constant(form: SymForm) -> Optional[Fraction]:
    """c with form = c * <,> exactly, or None."""
    m = form.m
    n = len(m)
    c = m[0][0]
    for i in range(n):
        for j in range(n):
            want = c if i == j else Fraction(0)
            if m[i][j] != want:
                return None
    return c


def einstein_check(mu: Bracket) -> Optional[Fraction]:
    """c with Ric = c * <,> exactly, or None."""
    return einstein_constant(ricci_form(mu))


# -- degenerate-Ricci root finder ------------------------------------------------

# family(t) is g(t) . mu with g(t) and g(t)^-1 linear in t, so its structure
# constants are cubic in t, Ric is quadratic in them and det Ric quartic in Ric.
DET_DEGREE = 24


class RootRecord(NamedTuple):
    low: Fraction
    high: Fraction
    t_hat: Fraction
    det_at_t_hat: float
    signature_below: tuple
    signature_above: tuple

    def to_json_dict(self):
        return {"low": float(self.low), "high": float(self.high),
                "t_hat": float(self.t_hat), "det_at_t_hat": self.det_at_t_hat,
                "signature_below": list(self.signature_below),
                "signature_above": list(self.signature_above)}


class RootScan(NamedTuple):
    det_poly: list  # det Ric(family(t)), exact coefficients, lowest degree first
    variations: tuple  # Sturm sign variations at lo and at hi
    roots: list  # one RootRecord per distinct root on (lo, hi], left to right


def _det_exact(family: Callable, t: Fraction) -> Fraction:
    return linalg.det(ricci_form(family(t)).m)


def _interpolate(values):
    """Coefficients, lowest degree first, of the polynomial of degree < len(values) that
    takes values[t] at t = 0, 1, ...: Newton's form, whose coefficients on these nodes
    are the forward differences D^k values[0] / k!, expanded by Horner."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    p = []
    for k in reversed(range(len(diffs))):
        p = [a - k * b for a, b in zip([0] + p, p + [0])]  # (t - k) * p
        p[0] += Fraction(diffs[k], math.factorial(k))
    return p


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, for a trimmed nonzero b."""
    r, n = list(a), len(b) - 1
    q = [Fraction(0)] * max(len(a) - n, 0)
    for k in reversed(range(len(q))):
        q[k] = f = r[k + n] / b[n]
        for i, c in enumerate(b):
            r[k + i] -= f * c
    return q, _trim(r[:n])


def _sturm_chain(p):
    """The Sturm chain of p divided by its last member, gcd(p, p'): its sign
    variations drop by one at each distinct root of p and nowhere else, so
    _variations(chain, a) - _variations(chain, b) counts the roots on (a, b]."""
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])
    chain.pop()
    return [_divmod(q, chain[-1])[0] for q in chain]


def _variations(chain, x) -> int:
    return linalg.sign_variations(sum(c * x ** k for k, c in enumerate(p)) for p in chain)


def find_degenerate_ricci(family: Callable, lo, hi) -> RootScan:
    """The distinct roots of det Ric(family(t)) on (lo, hi] for a family cubic in t, all exact.

    det Ric is interpolated as a polynomial at t = 0..DET_DEGREE, its Sturm
    chain counts the roots, and bisection on the counts isolates each root to
    width 2^-50, with the Ricci signatures at both ends.  ValueError when det
    Ric vanishes identically.
    """
    poly = _trim(_interpolate([_det_exact(family, Fraction(t)) for t in range(DET_DEGREE + 1)]))
    if not poly:
        raise ValueError("det Ric vanishes identically on the family")
    chain = _sturm_chain(poly)
    lo, hi = Fraction(lo), Fraction(hi)
    ends = (_variations(chain, lo), _variations(chain, hi))
    roots, todo = [], [(lo, hi, *ends)]
    while todo:  # last in, first out: the left half first, so roots come out in order
        a, b, va, vb = todo.pop()
        if va - vb == 1 and b - a <= Fraction(1, 2 ** 50):
            t_hat = (a + b) / 2
            roots.append(RootRecord(a, b, t_hat, float(_det_exact(family, t_hat)),
                                    ricci_form(family(a)).signature(),
                                    ricci_form(family(b)).signature()))
        elif va != vb:
            m = (a + b) / 2
            vm = _variations(chain, m)
            todo += [(m, b, vm, vb), (a, m, va, vm)]
    return RootScan(poly, ends, roots)
