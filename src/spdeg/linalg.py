"""Exact linear algebra on list-of-list matrices.

Matrices are plain nested lists.  Generic helpers (mat_mul, transpose, ...)
work over any commutative ring of entries (Fraction, int, float, ExpPoly);
the elimination routines require rational (Fraction or int) entries.
Nothing here is specific to floats, and nothing inverts a matrix: every group element
is symplectic, inverted by tensor.symplectic_inverse; tests/oracles.py has Gauss-Jordan.
"""

from __future__ import annotations

import math
from fractions import Fraction


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    """a b over any ring of entries.  A zero factor is skipped, and every sum starts
    at the zero a[0][0] * b[0][0] * 0 of the entries' type, so that a row or column
    of zeros gives 0, Fraction(0) or ExpPoly(0) in an int, Fraction or ExpPoly product."""
    zero = a[0][0] * b[0][0] * 0
    cols = list(zip(*b))
    out = []
    for ai in a:
        terms = [(l, x) for l, x in enumerate(ai) if x]
        row = []
        for col in cols:
            s = zero
            for l, x in terms:
                y = col[l]
                if y:
                    s = s + x * y
            row.append(s)
        out.append(row)
    return out


def mat_vec(a, v):
    """a v, skipping zero factors as :func:`mat_mul` does."""
    zero = a[0][0] * v[0] * 0
    terms = [(l, y) for l, y in enumerate(v) if y]
    out = []
    for row in a:
        s = zero
        for l, y in terms:
            x = row[l]
            if x:
                s = s + x * y
        out.append(s)
    return out


# -- Gaussian elimination over the rationals --------------------------------


def rref(m):
    """Reduced row echelon form over Fraction. Returns (rref, pivot_columns)."""
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def nullspace(m):
    """Basis of the exact kernel, one vector per free column of the RREF."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def clear_denominators(m):
    """(d, d*m) for d the lcm of the entry denominators: d*m has int entries."""
    d = math.lcm(*[x.denominator for row in m for x in row])
    if d == 1:
        return 1, [[x.numerator for x in row] for row in m]
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m]


def rank_bareiss(m) -> int:
    """Rank of a rational (Fraction or int) matrix: fraction-free (Bareiss, Math. Comp. 22
    (1968)) elimination of the int clear_denominators(m), every division exact and a
    column with no pivot skipped."""
    a = clear_denominators(m)[1]
    rows, cols = len(a), len(a[0]) if a else 0
    r, prev = 0, 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top, p = a[r], a[r][c]
        for row in a[r + 1:]:
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        r += 1
    return r


def det(m):
    """det of a 4x4 matrix over any commutative ring: the Laplace expansion of rows 1-2
    against rows 3-4 in complementary 2x2 minors.  Int entries give an int, Fraction
    entries a Fraction; ValueError, from the unpacking, on any other shape."""
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = m
    return ((p0 * q1 - p1 * q0) * (r2 * s3 - r3 * s2) - (p0 * q2 - p2 * q0) * (r1 * s3 - r3 * s1)
            + (p0 * q3 - p3 * q0) * (r1 * s2 - r2 * s1) + (p1 * q2 - p2 * q1) * (r0 * s3 - r3 * s0)
            - (p1 * q3 - p3 * q1) * (r0 * s2 - r2 * s0) + (p2 * q3 - p3 * q2) * (r0 * s1 - r1 * s0))


# -- signatures of symmetric forms -------------------------------------------


def signature_exact(m):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational m: the Descartes count of
    :func:`eigen_certificate`.  ValueError on an asymmetric m, where that count is unsound."""
    n = len(m)
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not symmetric")
    return eigen_certificate(m)[1]


def eigen_certificate(m):
    """(p, signature, beta) for a symmetric rational m and A = m / max|m_ij|.

    p = [1, a1, ..., an] is det(x*I - A), by Faddeev-LeVerrier on the int
    matrix clear_denominators(m) with every division by k exact.  A has only
    real eigenvalues, so Descartes' rule on p(x) and p(-x) and the multiplicity
    of the root 0 give the exact signature.  beta = |an| / (|an| + max(1, |a1|,
    ..., |a(n-1)|)) bounds every |eigenvalue of A| from below (Cauchy's bound).
    """
    n = len(m)
    a = clear_denominators(m)[1]
    scale = max((abs(x) for row in a for x in row), default=0) or 1
    p, c = [Fraction(1)], a  # c = a * M_k, where M_1 = I and M_(k+1) = c + q_k * I
    for k in range(1, n + 1):
        q, r = divmod(-sum(c[i][i] for i in range(n)), k)
        if r:
            raise ArithmeticError(f"Faddeev-LeVerrier step {k}: trace not divisible by {k}")
        p.append(Fraction(q, scale ** k))
        if k < n:
            c = mat_mul(a, [[x + q if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(c)])
    zero = n - max(k for k, x in enumerate(p) if x)
    beta = abs(p[n]) / (abs(p[n]) + max([1, *map(abs, p[1:n])]))
    neg = sign_variations(x if k % 2 == 0 else -x for k, x in enumerate(p))  # p(-x)
    return p, (sign_variations(p), neg, zero), beta


def sign_variations(xs) -> int:
    """Sign changes along the sequence xs, zeros skipped: Descartes' and Sturm's count."""
    signs = [x > 0 for x in xs if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))
