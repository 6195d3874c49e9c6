"""Reference implementations and fixed brackets that only the tests use.

Each oracle is written apart from the production path it checks.
"""

import itertools
import random
from fractions import Fraction

from spdeg import linalg
from spdeg.catalog import bracket_of, scaling_transform, shear_transform
from spdeg.curvature import HALF, levi_civita, ricci_form
from spdeg.invariants import (SymForm, _derivation_rows, _skew_adjoint_rows,
                              composition_trace_form, nilpotent, second_trace)
from spdeg.tensor import (Bracket, act, bracket_to_table, is_lie, is_symplectic,
                          symplectic_inverse)


def tau6():
    """The 6-dimensional validation law, closed for the canonical two-form on R^6."""
    return Bracket(6, {(1, 3): {3: 1}, (1, 6): {6: -1}, (2, 4): {5: 1}, (4, 5): {2: 1}})


def xi_family(t: Fraction) -> Bracket:
    """scaling_transform(t) acting on the nilpotent class n4."""
    g = scaling_transform(t)
    return act(g, bracket_of("n4"), symplectic_inverse(g))


def varrho_family(t: Fraction) -> Bracket:
    """shear_transform(t) acting on d4_1:w1."""
    g = shear_transform(t)
    return act(g, bracket_of("d4_1:w1"), symplectic_inverse(g))


def bracket_distance(a: Bracket, b: Bracket):
    """max over (i<j, k) of |a_{ij}^k - b_{ij}^k|, for rational brackets."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    best = 0
    for key in set(a.rules) | set(b.rules):
        va, vb = a.rules.get(key, {}), b.rules.get(key, {})
        for k in set(va) | set(vb):
            best = max(best, abs(va.get(k, 0) - vb.get(k, 0)))
    return best


def random_rational(rng: random.Random) -> Fraction:
    """The rational draw that degeneration's samplers make in ints, over Fraction."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def a_element(t1, t2):
    """diag(t1, t2, 1/t1, 1/t2) with positive rational t1, t2."""
    t1, t2 = Fraction(t1), Fraction(t2)
    if t1 <= 0 or t2 <= 0:
        raise ValueError("diagonal parameters must be positive")
    return [[t1, 0, 0, 0], [0, t2, 0, 0],
            [0, 0, 1 / t1, 0], [0, 0, 0, 1 / t2]]


def n_element(a, x, y, z):
    """The unipotent factor: unit lower-triangular block paired with a shear.

    Only ring operations, so the entries may be polynomials as well as rationals.
    """
    return [[1, -a, 0, 0], [0, 1, 0, 0], [x, y, 1, 0], [a * x + y, a * y + z, a, 1]]


def fraction_borbit_element(mu: Bracket, a_params, n_params) -> Bracket:
    """(g.h)^{-1} . mu with the product g.h and act over Fraction."""
    gh = linalg.mat_mul(a_element(*a_params), n_element(*n_params))
    return act(symplectic_inverse(gh), mu, gh)


def inverse(a):
    """Exact inverse over Fraction by Gauss-Jordan elimination; ValueError when singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(a)]
    r, pivots = linalg.rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def group_inverse(g):
    """g^-1 of an invertible rational g: -J g^T J when g is symplectic, else by elimination."""
    return symplectic_inverse(g) if is_symplectic(g) else inverse(g)


def table_to_bracket(table) -> Bracket:
    """The bracket of an antisymmetric dense table; ValueError otherwise."""
    dim = len(table)
    rules = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            anti = [(a - b) for a, b in zip(table[i][j], table[j][i])]
            sym = [(a + b) for a, b in zip(table[i][j], table[j][i])]
            if any(sym):
                raise ValueError("table is not antisymmetric")
            vec = {k + 1: anti[k] / 2 for k in range(dim) if anti[k]}
            if vec:
                rules[(i + 1, j + 1)] = vec
    return Bracket(dim, rules)


def act_bilinear(g, table, ginv=None):
    """The change of basis action of ``act`` on a dense bilinear table[i][j] -> vector."""
    dim = len(table)
    if ginv is None:
        ginv = group_inverse(g)
    cols = [[ginv[r][c] for r in range(dim)] for c in range(dim)]
    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            w = [Fraction(0)] * dim
            for a in range(dim):
                ca = cols[i][a]
                if not ca:
                    continue
                for b in range(dim):
                    coef = ca * cols[j][b]
                    if not coef:
                        continue
                    tab = table[a][b]
                    w = [x + coef * y for x, y in zip(w, tab)]
            out[i][j] = linalg.mat_vec(g, w)
    return out


def nullspace(m):
    """Basis of the exact kernel, one vector per free column of the Fraction RREF."""
    cols = len(m[0]) if m else 0
    r, pivots = linalg.rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def nilpotent_rref(mu: Bracket) -> bool:
    """The lower central series reaches zero, each term spanned by its Fraction RREF rows;
    the series stops short of zero where a term spans what the one before spans."""
    basis = linalg.identity(mu.dim)
    current = basis
    for _ in range(mu.dim + 1):
        rows = [v for v in (mu.apply(b, c) for b in basis for c in current) if any(v)]
        if not rows:
            return True
        r, pivots = linalg.rref(rows)
        nxt = r[:len(pivots)]
        if len(nxt) == len(current) and len(linalg.rref(current + nxt)[1]) == len(current):
            return False
        current = nxt
    return False


def derivation_kernel_rank_oracle(mu: Bracket, symplectic: bool = False) -> int:
    """Kernel dimension as columns minus the RREF pivots of the rows of mu itself.

    Production takes columns minus the Bareiss rank of the rows of an integer
    multiple of mu; this counts the pivots of the Fraction elimination instead.
    """
    rows = _derivation_rows(mu)
    if symplectic:
        rows += _skew_adjoint_rows(mu.dim)
    return mu.dim * mu.dim - len(linalg.rref(rows)[1])


def derivation_basis(mu: Bracket, symplectic: bool = False):
    """A basis of the (symplectic) derivations of mu as square matrices: the RREF
    nullspace of the rows that derivations and symplectic_derivations rank."""
    n = mu.dim
    rows = _derivation_rows(mu)
    if symplectic:
        rows += _skew_adjoint_rows(n)
    return [[v[p * n:(p + 1) * n] for p in range(n)] for v in nullspace(rows)]


def leibniz_det(m):
    """det(m) as the signed sum over all permutations, with no elimination."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def is_derivation(mu: Bracket, d) -> bool:
    """D[e_i, e_j] = [De_i, e_j] + [e_i, De_j] for all i < j, exactly."""
    n = mu.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = linalg.mat_vec(d, mu.pair(i, j))
            di = [d[p][i - 1] for p in range(n)]
            dj = [d[p][j - 1] for p in range(n)]
            ei = [Fraction(1) if p == i - 1 else Fraction(0) for p in range(n)]
            ej = [Fraction(1) if p == j - 1 else Fraction(0) for p in range(n)]
            rhs = [a + b for a, b in zip(mu.apply(di, ej), mu.apply(ei, dj))]
            if any(x != y for x, y in zip(lhs, rhs)):
                return False
    return True


def killing_form(mu: Bracket) -> SymForm:
    """trace(ad_x ad_y): the composition trace form of the bracket itself."""
    if not is_lie(mu):
        raise ValueError("input is not a Lie bracket")
    return composition_trace_form(bracket_to_table(mu))


def modified_killing_form(mu: Bracket, c) -> SymForm:
    """Killing form plus c * (tr ad) (x) (tr ad)."""
    k = killing_form(mu)
    tr2 = second_trace(mu)
    c = Fraction(c)
    n = mu.dim
    return SymForm([[k.m[i][j] + c * tr2[i] * tr2[j] for j in range(n)] for i in range(n)])


def torsion_free(mu: Bracket) -> bool:
    """LC(x,y) - LC(y,x) = mu(x,y) on all basis pairs."""
    lc = levi_civita(mu)
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


# Trace-slot sign of the curvature contraction in fraction_ricci_matrix.  The
# tests pin it against the reduced nilpotent formula on xi_family(2) and the
# tabulated diag(-3, -1, -1, 1) of r4_m1_beta at beta = -1.
RICCI_SIGN = -1


def fraction_ricci_matrix(mu: Bracket):
    """Ric as the traced curvature contraction of LC = (c - c + c)/2 and mu:
    the Levi-Civita path that the structure-constant formula replaced."""
    lc = levi_civita(mu)
    n = mu.dim
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for c in range(n):
            tr = Fraction(0)
            for b in range(n):
                w = lc[b][c]
                for m in range(n):
                    if w[m]:
                        tr = tr + w[m] * lc[a][m][b]
                v = lc[a][c]
                for m in range(n):
                    if v[m]:
                        tr = tr - v[m] * lc[b][m][b]
                u = mu.pair(a + 1, b + 1)
                for p in range(n):
                    if u[p]:
                        tr = tr - u[p] * lc[p][c][b]
            out[a][c] = RICCI_SIGN * tr
    return out


def riemann(mu: Bracket):
    """Dense R[i][j][k] -> vector with R(x,y)z = LC(x,LC(y,z)) - LC(y,LC(x,z)) - LC(mu(x,y),z)."""
    lc = levi_civita(mu)
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


def ricci_matrix_float(mu: Bracket):
    """The exact Ricci form, correctly rounded to binary64; the float cross-checks."""
    return [[float(x) for x in row] for row in ricci_form(mu).m]


def signature_congruence(m):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational m by exact
    congruence diagonalization, the reference for linalg.signature_exact.

    A nonzero diagonal pivot p retires its index, and every live row i loses
    (a_ip / p) times the pivot row: on the live indices that leaves the
    symmetric Schur complement.  With no nonzero live diagonal entry, a
    nonzero off-diagonal pair (i, j) is folded onto the diagonal by the
    congruence row_i += row_j, col_i += col_j (valid away from characteristic 2).
    """
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not symmetric")
    np_, nm = 0, 0
    live = list(range(n))
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in live for j in live if i < j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        p = a[pivot][pivot]
        if p > 0:
            np_ += 1
        else:
            nm += 1
        live.remove(pivot)
        for i in live:
            if a[i][pivot] != 0:
                f = a[i][pivot] / p
                a[i] = [x - f * y for x, y in zip(a[i], a[pivot])]
    return np_, nm, n - np_ - nm


def signature_float(m, tol: float = 1e-9):
    """Signature by eigenvalue sign counts; the binary64 cross-check path."""
    import numpy as np

    w = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m]))
    np_ = int((w > tol).sum())
    nm = int((w < -tol).sum())
    return np_, nm, len(w) - np_ - nm


def min_abs_eig_float(m) -> float:
    """min |eigenvalue| of m / max|m_ij| in binary64: the cross-check of the
    exact lower bound linalg.eigen_certificate gives."""
    import numpy as np

    a = np.array([[float(x) for x in row] for row in m])
    return float(abs(np.linalg.eigvalsh(a / abs(a).max())).min())
