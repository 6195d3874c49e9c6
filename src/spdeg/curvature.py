"""Metric geometry of a bracket with the canonical inner product.

Levi-Civita product, Ricci form, Einstein checks, and the degenerate-Ricci
root finder.  The Ricci form runs on ints over one denominator; the root
finder takes det Ric of a one-parameter family as an exact polynomial and
counts and isolates its roots with a Sturm chain, with no binary64 step.
The Riemann tensor, the Levi-Civita contraction and the reduced nilpotent
Ricci formula, which the tests compare the Ricci form against, are in
tests/oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul
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


def _ricci_matrix(mu: Bracket):
    """4*Ric of a Lie bracket, from its stored pairs by _ricci_of_pairs."""
    return _ricci_of_pairs(mu.dim, [(i - 1, j - 1, mu.pair(i, j)) for i, j in mu.rules])


def _moved_ricci_matrix(g, mu: Bracket, ginv):
    """_ricci_matrix(act(g, mu, ginv)), with no Bracket in between.

    For a stored pair (a, b) of mu, mu(ginv e_i, ginv e_j) has the coefficient
    ginv_ai ginv_bj - ginv_bi ginv_aj on [e_a, e_b], so the moved pair vector
    g mu(ginv e_i, ginv e_j) is the sum of these 2x2 minors times g [e_a, e_b].
    """
    n = mu.dim
    moved = [(a - 1, b - 1, [sum(row[k - 1] * c for k, c in vec.items()) for row in g])
             for (a, b), vec in mu.rules.items()]  # g [e_a, e_b]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            w = [0] * n
            for a, b, v in moved:
                minor = ginv[a][i] * ginv[b][j] - ginv[b][i] * ginv[a][j]
                w = [x + minor * y for x, y in zip(w, v)]
            pairs.append((i, j, w))
    return _ricci_of_pairs(n, pairs)


def _ricci_of_pairs(n: int, pairs):
    """4*Ric, Ric = M - B/2 - S(ad_H) (Besse, Einstein Manifolds, 7.38) with
    <H, x> = tr ad_x, from the pair vectors (i, j, [e_i, e_j]), 0-based i < j,
    of a bracket on R^n; symmetric term by term, int for int brackets:
    4*Ric_ij = 2(sum_{k<l} c_kl^i c_kl^j - <ad_i, ad_j>_F - tr(ad_i ad_j)
                 - <[H,e_i],e_j> - <[H,e_j],e_i>).
    Off the Lie variety it differs from the Levi-Civita contraction by a
    constant linear image of the Jacobiator."""
    r = range(n)
    ad = [[0] * (n * n) for _ in r]  # ad[i][m*n + k] = c_ik^m, ad_i row-major
    adt = [[0] * (n * n) for _ in r]  # adt[i][k*n + m] = c_ik^m, its transpose
    up = [[0] * len(pairs) for _ in r]  # up[m][p] = c_kl^m, (k, l) the p-th pair
    for p, (i, j, w) in enumerate(pairs):
        for k, c in enumerate(w):
            if c:
                ad[i][k * n + j] = c
                ad[j][k * n + i] = -c
                adt[i][j * n + k] = c
                adt[j][i * n + k] = -c
                up[k][p] = c
    h = [sum(a[::n + 1]) for a in ad]  # H = sum_k (tr ad_k) e_k
    adh = [sum(map(mul, h, col)) for col in zip(*ad)]  # ad_H, row-major
    # <ad_i, ad_j + ad_j^T>_F = <ad_i, ad_j>_F + tr(ad_i ad_j)
    sym = [list(map(add, a, b)) for a, b in zip(ad, adt)]
    out = [[0] * n for _ in r]
    for i in r:
        for j in range(i, n):
            out[i][j] = out[j][i] = 2 * (
                sum(map(mul, up[i], up[j])) - sum(map(mul, ad[i], sym[j]))
                - adh[i * n + j] - adh[j * n + i])
    return out


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
