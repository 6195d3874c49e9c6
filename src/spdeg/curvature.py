"""Metric geometry of a bracket with the canonical inner product.

Levi-Civita product, Ricci form, Einstein checks, and the degenerate-Ricci
root finder.  The Ricci form of a 4-dimensional bracket is Besse's formula 7.38
as its three sums over the structure constants, on ints over one denominator (a
rank-one kernel on the orbit of a bracket with one stored pair); the root finder
takes det Ric of a one-parameter family as an exact polynomial and counts and
isolates its roots with a Sturm chain, with no binary64 step.
The Riemann tensor, the Levi-Civita contraction and the reduced nilpotent
Ricci formula, which the tests compare the Ricci form against, are in
tests/oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
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
    """4*Ric of a 4-dimensional bracket: Ric = M - B/2 - S(ad_H), <H, x> = tr ad_x (Besse,
    Einstein Manifolds, 7.38), as its three sums on the table c[i][k][l] = c_ik^l:
        4*Ric_ij = 2(sum_{k<l} c_kl^i c_kl^j - sum_{k,l} c_ik^l (c_jk^l + c_jl^k)
                     - sum_m h_m (c_mi^j + c_mj^i)),   h_m = tr ad_{e_m}.
    Only + - * of the entries: int for int brackets, ExpPoly for ExpPoly ones.  Off the
    Lie variety it differs from the Levi-Civita contraction by a linear image of the Jacobiator."""
    _check_dim(mu)
    return _ricci_table(bracket_to_table(mu))


def _ricci_table(c):
    """_ricci_matrix on the dense table c[i][k][l] = c_ik^l of a 4-dimensional bracket."""
    r = range(4)
    h = [sum(c[m][k][k] for k in r) for m in r]
    # per i: c_kl^i over k < l, c_ik^l and c_ik^l + c_il^k over all (k, l)
    up = [[c[k][l][i] for k in r for l in range(k + 1, 4)] for i in r]
    flat = [[x for row in c[i] for x in row] for i in r]
    sym = [[c[i][k][l] + c[i][l][k] for k in r for l in r] for i in r]
    out = [[0] * 4 for _ in r]
    for i in r:
        for j in range(i, 4):
            x = sum(map(mul, up[i], up[j])) - sum(map(mul, flat[i], sym[j]))
            x -= sum(h[m] * (c[m][i][j] + c[m][j][i]) for m in r)
            out[i][j] = out[j][i] = 2 * x
    return out


def _ginv_row(g, i):
    """Row i (1-based) of -J g^T J, which is g^-1 for a symplectic 4x4 g: column
    i + 2 or i - 2 of g with its halves swapped and the half now second (i <= 2)
    or first (i >= 3) negated."""
    c = (i + 1) % 4
    x1, x2, x3, x4 = g[2][c], g[3][c], g[0][c], g[1][c]
    return (x1, x2, -x3, -x4) if i <= 2 else (-x1, -x2, x3, x4)


def _rank_one_ricci(p, q, w):
    """4*Ric of the bracket A (x) w, whose pair (k, l) is A_kl w for A = PQ^T - QP^T.
    A (x) w has rank one, and Besse 7.38 collapses to
        4*Ric = 2(s ww^T - |w|^2 AA^T - uu^T + vw^T + wv^T),
    s = sum_{k<l} A_kl^2, u = Aw, v = Au.  As A = PQ^T - QP^T, s = |P|^2|Q|^2 - (P.Q)^2,
    AA^T = |Q|^2 PP^T + |P|^2 QQ^T - (P.Q)(PQ^T + QP^T), u = (Q.w)P - (P.w)Q and
    v = (Q.u)P - (P.u)Q, so 4*Ric = 2 B C B^T for B = (P Q w) and the symmetric 3x3
    C of dot products below.  So Ric x = 0 for each x orthogonal to P, Q and w:
    B is 4x3, so det Ric = 0.  degeneration.rank_one_identity expands both sides once.
    """
    (p1, p2, p3, p4), (q1, q2, q3, q4), (w1, w2, w3, w4) = p, q, w
    pp, qq = p1 * p1 + p2 * p2 + p3 * p3 + p4 * p4, q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4
    pq, ww = p1 * q1 + p2 * q2 + p3 * q3 + p4 * q4, w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4
    pw, qw = p1 * w1 + p2 * w2 + p3 * w3 + p4 * w4, q1 * w1 + q2 * w2 + q3 * w3 + q4 * w4
    # C: PP^T, QQ^T, PQ^T + QP^T from AA^T and uu^T; Pw^T + wP^T, Qw^T + wQ^T from v; ww^T
    cpp, cqq, cpq = -ww * qq - qw * qw, -ww * pp - pw * pw, ww * pq + pw * qw
    cpw, cqw, cww = qw * pq - pw * qq, pw * pq - qw * pp, pp * qq - pq * pq
    b = ((p1, q1, w1), (p2, q2, w2), (p3, q3, w3), (p4, q4, w4))  # the rows of B
    bc = [(2 * (cpp * x + cpq * y + cpw * z), 2 * (cpq * x + cqq * y + cqw * z),
           2 * (cpw * x + cqw * y + cww * z)) for x, y, z in b]  # the rows of 2 B C
    return [[u * x + v * y + t * z for x, y, z in b] for u, v, t in bc]


def _moved_ricci_matrix(g, mu: Bracket):
    """_ricci_matrix(act(g, mu, g^-1)) for a symplectic int g and a bracket with at most one
    stored pair, with no Bracket or inverse built; ValueError for more pairs.  For the pair
    (i, j), x = [e_i, e_j] and the rows P, Q of g^-1, g.mu = A (x) w with w = g x."""
    _check_dim(mu)
    if len(mu.rules) > 1:
        raise ValueError(f"the rank-one kernel takes at most one stored pair, not {len(mu.rules)}")
    if not mu.rules:
        return [[0] * 4 for _ in range(4)]
    ((i, j), vec), = mu.rules.items()
    return _rank_one_ricci(_ginv_row(g, i), _ginv_row(g, j),
                           [sum(row[k - 1] * x for k, x in vec.items()) for row in g])


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
    m, r = form.m, range(len(form.m))
    c = m[0][0]
    return c if all(m[i][j] == (c if i == j else 0) for i in r for j in r) else None


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
    """det Ric(family(t)) = det(4*Ric(m*mu)) / (4m^2)^4, the int det of the int kernel."""
    m, scaled = family(t).integer_multiple()
    return Fraction(linalg.det(_ricci_matrix(scaled)), (4 * m * m) ** 4)


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
    _variations(chain, a) - _variations(chain, b) counts the roots on (a, b].
    ArithmeticError past deg p + 1 members, which strictly falling degrees allow."""
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while chain[-1]:
        if len(chain) > len(p):
            raise ArithmeticError(f"Sturm chain exceeds deg p + 1 = {len(p)} members")
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
    Ric vanishes identically; ArithmeticError, not a loop, when the chain outgrows
    deg p + 1 members or a midpoint count leaves its interval's [count at b, count at a].
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
            if not vb <= vm <= va:
                raise ArithmeticError(f"Sturm count {vm} at t = {m} is not in [{vb}, {va}]")
            todo += [(m, b, vm, vb), (a, m, va, vm)]
    return RootScan(poly, ends, roots)
