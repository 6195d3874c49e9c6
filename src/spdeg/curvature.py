"""Metric geometry of a bracket with the canonical inner product.

Levi-Civita product, Ricci form, Einstein checks, and the degenerate-Ricci
root finder.  The Ricci form runs on ints over one denominator; its binary64
rounding serves the root finder's scan.  The Riemann tensor, the Levi-Civita
contraction and the reduced nilpotent Ricci formula, which the tests compare
the Ricci form against, are in tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Optional

from . import linalg
from .invariants import SymForm
from .tensor import Bracket, bracket_to_table

HALF = Fraction(1, 2)
MAX_EXACT_HALVINGS = 1100  # see find_degenerate_ricci
SCAN_SUBINTERVALS = 120  # binary64 sign scan of find_degenerate_ricci


def levi_civita(mu: Bracket):
    """Dense table LC[i][j] -> vector of the Levi-Civita product.

    With the dot product as metric the three-term formula reduces to
    LC_{ij}^k = (c_{ij}^k - c_{jk}^i + c_{ki}^j) / 2.
    """
    c = bracket_to_table(mu)
    r = range(mu.dim)
    return [[[(c[i][j][k] - c[j][k][i] + c[k][i][j]) * HALF for k in r] for j in r] for i in r]


def _ricci_matrix(mu: Bracket):
    """4*Ric of a Lie bracket, Ric = M - B/2 - S(ad_H) (Besse, Einstein Manifolds,
    7.38) with <H, x> = tr ad_x; symmetric term by term, int for int brackets:
    4*Ric_ij = 2(sum_{k<l} c_kl^i c_kl^j - <ad_i, ad_j>_F - tr(ad_i ad_j)
                 - <[H,e_i],e_j> - <[H,e_j],e_i>).
    Off the Lie variety it differs from the Levi-Civita contraction by a
    constant linear image of the Jacobiator."""
    n = mu.dim
    r = range(n)
    ad = [[0] * (n * n) for _ in r]  # ad[i][m*n + k] = c_ik^m, ad_i row-major
    adt = [[0] * (n * n) for _ in r]  # adt[i][k*n + m] = c_ik^m, its transpose
    up = [[0] * len(mu.rules) for _ in r]  # up[m][p] = c_kl^m, (k, l) the p-th stored pair
    for p, ((i, j), vec) in enumerate(mu.rules.items()):
        i, j = i - 1, j - 1
        for k, c in vec.items():
            k -= 1
            ad[i][k * n + j] = c
            ad[j][k * n + i] = -c
            adt[i][j * n + k] = c
            adt[j][i * n + k] = -c
            up[k][p] = c
    h = [sum(a[::n + 1]) for a in ad]  # H = sum_k (tr ad_k) e_k
    adh = [sum(map(mul, h, col)) for col in zip(*ad)]  # ad_H, row-major
    out = [[0] * n for _ in r]
    for i in r:
        for j in range(i, n):
            out[i][j] = out[j][i] = 2 * (
                sum(map(mul, up[i], up[j])) - sum(map(mul, ad[i], ad[j]))
                - sum(map(mul, ad[i], adt[j])) - adh[i * n + j] - adh[j * n + i])
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


def ricci_matrix_float(mu: Bracket):
    """The exact Ricci form, correctly rounded to binary64; the root finder's scan."""
    return [[float(x) for x in row] for row in ricci_form(mu).m]


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


def _det_float(family: Callable, t: float) -> float:
    import numpy as np

    m = ricci_matrix_float(family(Fraction(t)))
    return float(np.linalg.det(np.array(m)))


def _det_exact(family: Callable, t: Fraction) -> Fraction:
    return linalg.det(ricci_form(family(t)).m)


def find_degenerate_ricci(family: Callable, lo, hi, det_tol: float = 1e-12):
    """All sign changes of det Ric(family(t)) on (lo, hi), bisected to roots.

    The scan and bisection driver run in binary64; each root is then refined
    and certified with exact determinant signs at dyadic rationals until
    |det| < det_tol at the reported t_hat, and the flanking signatures are
    recomputed exactly.  Returns a (possibly empty) list of RootRecord.
    RuntimeError names the bracket whose bisection exceeds MAX_EXACT_HALVINGS.
    """
    if not det_tol > 0:
        raise ValueError(f"det_tol must be positive, got {det_tol}")
    lo, hi = float(lo), float(hi)
    grid = [lo + (hi - lo) * k / SCAN_SUBINTERVALS for k in range(SCAN_SUBINTERVALS + 1)]
    vals = [_det_float(family, t) for t in grid]
    roots = []
    for k in range(SCAN_SUBINTERVALS):
        a, b = grid[k], grid[k + 1]
        fa, fb = vals[k], vals[k + 1]
        if fa == 0.0:
            fa = _det_float(family, a + (b - a) * 1e-9)
        if fa * fb >= 0:
            continue
        # binary64 bisection, keeping the sign bracket
        for _ in range(60):
            mid = 0.5 * (a + b)
            if mid == a or mid == b or (b - a) < 1e-9:
                break
            fm = _det_float(family, mid)
            if fa * fm <= 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
        # exact refinement at dyadic rationals
        ra, rb = Fraction(a), Fraction(b)
        da, db = _det_exact(family, ra), _det_exact(family, rb)
        if da == 0 or db == 0:
            root = ra if da == 0 else rb
            eps = max(rb - ra, Fraction(1, 10 ** 9))
            sig_lo = ricci_form(family(root - eps)).signature()
            sig_hi = ricci_form(family(root + eps)).signature()
            roots.append(RootRecord(root - eps, root + eps, root, 0.0, sig_lo, sig_hi))
            continue
        if (da > 0) == (db > 0):
            continue  # binary64 noise crossing, not a true sign change
        mid = (ra + rb) / 2
        dm = _det_exact(family, mid)
        halvings = 0
        while dm != 0 and abs(float(dm)) >= det_tol:
            if halvings == MAX_EXACT_HALVINGS:  # |det| ~halves per step: below any float now
                raise RuntimeError(f"exact bisection on [{a!r}, {b!r}] did not reach "
                                   f"|det Ric| < {det_tol} in {halvings} halvings")
            halvings += 1
            if (da > 0) != (dm > 0):
                rb, db = mid, dm
            else:
                ra, da = mid, dm
            mid = (ra + rb) / 2
            dm = _det_exact(family, mid)
        sig_lo = ricci_form(family(ra)).signature()
        sig_hi = ricci_form(family(rb)).signature()
        roots.append(RootRecord(ra, rb, mid, float(dm), sig_lo, sig_hi))
    return roots
