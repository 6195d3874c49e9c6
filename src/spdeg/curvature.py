"""Metric geometry of a bracket with the canonical inner product.

Levi-Civita product, Riemann and Ricci tensors, the reduced nilpotent Ricci
formula, Einstein checks, and the degenerate-Ricci root finder.  The exact
path runs on ints over one denominator; floats serve the bisection driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import linalg
from .invariants import SymForm, nilpotent
from .tensor import Bracket, bracket_to_table

HALF = Fraction(1, 2)
MAX_EXACT_HALVINGS = 1100  # see find_degenerate_ricci
SCAN_SUBINTERVALS = 120  # binary64 sign scan of find_degenerate_ricci


def _doubled_levi_civita(c):
    """2*LC from the bracket table c: c_{ij}^k - c_{jk}^i + c_{ki}^j, no 1/2."""
    r = range(len(c))
    return [[[c[i][j][k] - c[j][k][i] + c[k][i][j] for k in r] for j in r] for i in r]


def levi_civita(mu: Bracket):
    """Dense table LC[i][j] -> vector of the Levi-Civita product.

    With the dot product as metric the three-term formula reduces to
    LC_{ij}^k = (c_{ij}^k - c_{jk}^i + c_{ki}^j) / 2.
    """
    return [[[x * HALF for x in v] for v in row] for row in _doubled_levi_civita(bracket_to_table(mu))]


def torsion_free(mu: Bracket, lc=None) -> bool:
    """LC(x,y) - LC(y,x) = mu(x,y) on all basis pairs."""
    lc = lc if lc is not None else levi_civita(mu)
    n = mu.dim
    for i in range(n):
        for j in range(n):
            mij = mu.pair(i + 1, j + 1)
            if any(a - b != m for a, b, m in zip(lc[i][j], lc[j][i], mij)):
                return False
    return True


def metric_compatible(lc) -> bool:
    """<LC(x,y), z> + <y, LC(x,z)> = 0 on all basis triples (dot metric)."""
    n = len(lc)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if lc[i][j][k] + lc[i][k][j] != 0:
                    return False
    return True


def _lc_apply(lc, u, w):
    """LC(u, w) for coordinate vectors, bilinear extension of the table."""
    n = len(lc)
    out = [0 * lc[0][0][0]] * n
    for p in range(n):
        if not u[p]:
            continue
        for q in range(n):
            coef = u[p] * w[q]
            if not coef:
                continue
            out = [x + coef * y for x, y in zip(out, lc[p][q])]
    return out


def riemann(mu: Bracket, lc=None):
    """Dense R[i][j][k] -> vector with R(x,y)z = LC(x,LC(y,z)) - LC(y,LC(x,z)) - LC(mu(x,y),z)."""
    lc = lc if lc is not None else levi_civita(mu)
    n = mu.dim
    basis = linalg.identity(n)
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mij = mu.pair(i + 1, j + 1)
            for k in range(n):
                a = _lc_apply(lc, basis[i], lc[j][k])
                b = _lc_apply(lc, basis[j], lc[i][k])
                c = _lc_apply(lc, mij, basis[k])
                out[i][j][k] = [x - y - z for x, y, z in zip(a, b, c)]
    return out


# Trace-slot sign of the curvature contraction in _ricci_matrix.  The tests
# pin it against the reduced nilpotent formula on xi_family(2) and the
# tabulated diag(-3, -1, -1, 1) of r4_m1_beta at beta = -1.
RICCI_SIGN = -1


def _ricci_matrix(mu: Bracket):
    """4*Ric: the traced curvature contraction of 2*LC and 2*mu, with no 1/2, so
    int brackets give ints and binary64 ones exactly 4x the binary64 result."""
    table = bracket_to_table(mu)
    lc = _doubled_levi_civita(table)
    n = mu.dim
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for c in range(n):
            tr = 0
            for b in range(n):
                w = lc[b][c]
                for m in range(n):
                    if w[m]:
                        tr = tr + w[m] * lc[a][m][b]
                v = lc[a][c]
                for m in range(n):
                    if v[m]:
                        tr = tr - v[m] * lc[b][m][b]
                u = table[a][b]
                for p in range(n):
                    if u[p]:
                        tr = tr - 2 * u[p] * lc[p][c][b]
            out[a][c] = RICCI_SIGN * tr
    return out


@dataclass
class CurvatureTensors:
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
    """Binary64 Ricci matrix; the bisection driver path."""
    fmu = mu.map_scalars(float)
    return [[float(x) / 4 for x in row] for row in _ricci_matrix(fmu)]


def ricci_nilpotent(mu: Bracket) -> SymForm:
    """Reduced Ricci formula for nilpotent metric Lie algebras, polarized.

    B(u,v) = -1/2 sum_{i,j} <mu(u,e_i),e_j><mu(v,e_i),e_j>
             +1/2 sum_{i<j} <mu(e_i,e_j),u><mu(e_i,e_j),v>.
    """
    if not nilpotent(mu):
        raise ValueError("input is not nilpotent")
    n = mu.dim
    rows = [[mu.pair(a + 1, i + 1) for i in range(n)] for a in range(n)]
    m = linalg.zeros(n)
    for a in range(n):
        for b in range(a, n):
            total = Fraction(0)
            for i in range(n):
                for j in range(n):
                    total -= rows[a][i][j] * rows[b][i][j] * HALF
            for i in range(n):
                for j in range(i + 1, n):
                    total += rows[i][j][a] * rows[i][j][b] * HALF
            m[a][b] = total
            m[b][a] = total
    return SymForm(m)


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


@dataclass
class RootRecord:
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
