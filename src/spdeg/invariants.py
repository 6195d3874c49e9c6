"""Degeneration obstructions: derivation algebras, equivariant products,
trace forms, exact signatures, unimodularity, derived series.

All kernels are computed exactly: a kernel dimension is columns minus the
fraction-free (Bareiss) rank.  The Killing forms, the derivation identity, the
derivation bases and the RREF kernel rank that the tests compare against are in
tests/oracles.py.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import linalg
from .catalog import ClassId, expected_invariants, make
from .tensor import Bracket, canonical_form, is_lie, omega, validate_symplectic


class DerivationAlgebra(NamedTuple):
    """The kernel of linear rows in the n*n entries of D, row-major: dim is n*n minus
    their Bareiss rank.  The verdicts read only dim; the tests build a basis from
    the same rows in tests/oracles.py."""
    dim: int


def _derivation_rows(mu: Bracket):
    """Rows of the linear system D[e_i,e_j] = [De_i,e_j] + [e_i,De_j].

    Unknowns are the dim*dim entries D[p][q] in row-major order; one row per
    (i < j, component m).
    """
    n = mu.dim
    rows = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bij = mu.pair(i, j)
            for m in range(1, n + 1):
                row = [0] * (n * n)
                for k in range(1, n + 1):
                    if bij[k - 1] != 0:
                        row[(m - 1) * n + (k - 1)] += bij[k - 1]
                for p in range(1, n + 1):
                    c = mu.entry(p, j, m)
                    if c != 0:
                        row[(p - 1) * n + (i - 1)] -= c
                    c = mu.entry(i, p, m)
                    if c != 0:
                        row[(p - 1) * n + (j - 1)] -= c
                rows.append(row)
    return rows


def _skew_adjoint_rows(dim: int):
    """Rows of w(De_i, e_j) + w(e_i, De_j) = 0 for i < j (the rest is redundant)."""
    jm = canonical_form(dim)
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            row = [0] * (dim * dim)
            for p in range(dim):
                if jm[p][j] != 0:
                    row[p * dim + i] += jm[p][j]
                if jm[i][p] != 0:
                    row[p * dim + j] += jm[i][p]
            rows.append(row)
    return rows


def derivations(mu: Bracket) -> DerivationAlgebra:
    """The derivation algebra of mu, checked and solved on the int multiple m*mu:
    the Jacobi identity, closedness of w and the rows are homogeneous in mu."""
    mu = mu.integer_multiple()[1]
    if not is_lie(mu):
        raise ValueError("input is not a Lie bracket")
    rows = _derivation_rows(mu)
    return DerivationAlgebra(len(rows[0]) - linalg.rank_bareiss(rows))


def symplectic_derivations(mu: Bracket) -> DerivationAlgebra:
    """The derivations of mu that are also skew-adjoint for w, as in :func:`derivations`."""
    mu = mu.integer_multiple()[1]
    if not validate_symplectic(mu):
        raise ValueError("input is not a symplectic Lie algebra")
    rows = _derivation_rows(mu) + _skew_adjoint_rows(mu.dim)
    return DerivationAlgebra(len(rows[0]) - linalg.rank_bareiss(rows))


# -- symmetric forms -------------------------------------------------------------


class AsymmetryError(ValueError):
    """A form expected to be symmetric came out asymmetric."""


class SymForm:
    """Symmetric bilinear form with exact signature bookkeeping; AsymmetryError otherwise."""

    def __init__(self, m: list):
        n = len(m)
        for i in range(n):
            for j in range(i + 1, n):
                if m[i][j] != m[j][i]:
                    raise AsymmetryError(f"form asymmetric at ({i + 1},{j + 1})")
        self.m = m

    def signature(self):
        return linalg.signature_exact(self.m)

    def trace(self):
        return sum(self.m[i][i] for i in range(len(self.m)))


# -- equivariant products and trace forms ----------------------------------------


def second_trace(mu: Bracket):
    """The 1-form v -> trace(ad_v) on basis vectors, as a coordinate list."""
    n = mu.dim
    return [sum(mu.entry(i, p, p) for p in range(1, n + 1)) for i in range(1, n + 1)]


def equivariant_product(mu: Bracket, coeffs):
    """The six-coefficient equivariant bilinear product attached to a closed bracket.

    Defined through the canonical two-form w by
        w(P(v1,v2), v3) = c1 w(mu(v1,v2),v3) + c2 w(mu(v2,v3),v1)
                        + c3 w(mu(v3,v1),v2) + c4 w(v1,v2) tr(ad_{v3})
                        + c5 w(v2,v3) tr(ad_{v1}) + c6 w(v3,v1) tr(ad_{v2})
    and recovered by raising the third slot.  Returns a dense bilinear table.
    coeffs = (c1..c6).  (c1,c2,c3,c4,c5,c6) = (0,0,-1,0,0,0) is the canonical
    torsion-free flat connection of the symplectic structure.
    """
    c1, c2, c3, c4, c5, c6 = (Fraction(c) for c in coeffs)
    n = mu.dim
    tr2 = second_trace(mu)
    basis = linalg.identity(n)
    jm = canonical_form(n)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mij = mu.pair(i + 1, j + 1)
            r = []
            for k in range(n):
                val = Fraction(0)
                if c1 != 0:
                    val += c1 * omega(mij, basis[k])
                if c2 != 0:
                    val += c2 * omega(mu.pair(j + 1, k + 1), basis[i])
                if c3 != 0:
                    val += c3 * omega(mu.pair(k + 1, i + 1), basis[j])
                if c4 != 0:
                    val += c4 * jm[i][j] * tr2[k]
                if c5 != 0:
                    val += c5 * jm[j][k] * tr2[i]
                if c6 != 0:
                    val += c6 * jm[k][i] * tr2[j]
                r.append(val)
            # w(P, e_k) = (J^T P)_k, so P(i, j) = (J^T)^{-1} r = J r = (r2, -r1)
            out[i][j] = r[n // 2:] + [-x for x in r[:n // 2]]
    return out


def composition_trace_form(table) -> SymForm:
    """The form (X, Y) -> trace(v -> P(X, P(Y, v))) of a bilinear product table.

    Asymmetric results raise AsymmetryError, from :class:`SymForm`.
    """
    n = len(table)
    m = linalg.zeros(n)
    for a in range(n):
        for b in range(n):
            tr = Fraction(0)
            for v in range(n):
                inner = table[b][v]
                w = [Fraction(0)] * n
                for s in range(n):
                    if inner[s] != 0:
                        w = [x + inner[s] * y for x, y in zip(w, table[a][s])]
                tr += w[v]
            m[a][b] = tr
    return SymForm(m)


# -- structural predicates --------------------------------------------------------


def unimodular(mu: Bracket) -> bool:
    """tr(ad_v) = 0 for every basis vector."""
    return all(x == 0 for x in second_trace(mu))


def _span_rows(vectors):
    rows = [v for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return []
    r, pivots = linalg.rref(rows)
    return r[:len(pivots)]


def derived_dim(mu: Bracket) -> int:
    """Dimension of the span of all bracket values."""
    return linalg.rank_bareiss([mu.pair(i, j) for i in range(1, mu.dim + 1)
                                for j in range(i + 1, mu.dim + 1)])


def nilpotent(mu: Bracket) -> bool:
    """Lower central series reaches zero."""
    n = mu.dim
    basis = linalg.identity(n)
    current = basis
    for _ in range(n + 1):
        nxt = _span_rows([mu.apply(b, c) for b in basis for c in current])
        if not nxt:
            return True
        if len(nxt) == len(current) and linalg.rank_bareiss(current + nxt) == len(current):
            return False
        current = nxt
    return False


# -- the obstruction battery -------------------------------------------------------


@lru_cache(maxsize=None)
def der_omega_dim(cid: ClassId) -> int:
    """dim Der_w of a catalog class, computed once per class."""
    return symplectic_derivations(make(cid)).dim


# Necessary conditions for mu -> lambda (Burde-Steinhoff, J. Algebra 214 (1999)):
# (rule, invariant of a class and its bracket, holds(value at mu, value at lambda)).
# Only the strict rule presumes mu and lambda lie in distinct orbits.
OBSTRUCTION_RULES = (
    ("dim_der_omega_strictly_increases", lambda cid, mu: der_omega_dim(cid), operator.lt),
    ("dim_der_does_not_decrease", lambda cid, mu: derivations(mu).dim, operator.le),
    ("unimodularity_preserved", lambda cid, mu: unimodular(mu), lambda s, t: t or not s),
    ("derived_dim_does_not_increase", lambda cid, mu: derived_dim(mu), operator.ge),
)


@lru_cache(maxsize=None)
def class_invariants(cid: ClassId) -> tuple:
    """The invariants of OBSTRUCTION_RULES for one catalog class, in table order."""
    mu = make(cid)
    return tuple(invariant(cid, mu) for _, invariant, _ in OBSTRUCTION_RULES)


def obstruction_report(source: ClassId, target: ClassId) -> list:
    """The rules that source -> target violates, as (name, source value, target value).

    Each certifies non-degeneration; the strict rule, the only one that one bracket
    compared with itself violates, does so only between distinct orbits.
    """
    return [(name, s, t) for (name, _, holds), s, t
            in zip(OBSTRUCTION_RULES, class_invariants(source), class_invariants(target))
            if not holds(s, t)]


def invariants_summary(cid: ClassId) -> dict:
    """All invariants of one class, with the tabulated expectation."""
    mu = make(cid)
    dw, d, uni, dd = class_invariants(cid)
    exp_dw, exp_d = expected_invariants(cid)
    return {
        "class": str(cid),
        "display": cid.display(),
        "dim_der_omega": dw,
        "dim_der": d,
        "expected_dim_der_omega": exp_dw,
        "expected_dim_der": exp_d,
        "matches_expected": (dw, d) == (exp_dw, exp_d),
        "orbit_dim_symplectic": mu.dim * (mu.dim + 1) // 2 - dw,  # dim Sp(n) - dim Der_w
        "orbit_dim_general_linear": mu.dim * mu.dim - d,
        "unimodular": uni,
        "derived_dim": dd,
        "nilpotent": nilpotent(mu),
    }
