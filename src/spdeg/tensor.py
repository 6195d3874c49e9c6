"""Core multilinear algebra: brackets, forms, the group action, musical maps.

Basis indices are 1-based in constructors, serialized forms and reports,
matching the classification tables; dense internal tensors are 0-based.
Scalars may be Fraction (exact path), ExpPoly (curves) or float (cross-check).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from . import linalg
from .scalars import ExpPoly, format_rational, parse_rational

PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)]


def _is_zero(x):
    return not x if isinstance(x, ExpPoly) else x == 0


class TwoForm:
    """Antisymmetric bilinear form given by its matrix: w(x, y) = x^T m y."""

    def __init__(self, m):
        self.dim = len(m)
        for i in range(self.dim):
            for j in range(self.dim):
                if m[i][j] != -m[j][i]:
                    raise ValueError("two-form matrix must be antisymmetric")
        self.m = [list(row) for row in m]

    @classmethod
    def canonical(cls, dim: int) -> "TwoForm":
        """sum_i e_i^* ^ e_{n+i}^* on R^{2n}:  w(e_i, e_{n+i}) = 1."""
        if dim % 2:
            raise ValueError("dimension must be even")
        n = dim // 2
        m = linalg.zeros(dim)
        for i in range(n):
            m[i][n + i] = Fraction(1)
            m[n + i][i] = Fraction(-1)
        return cls(m)

    def __call__(self, u, v):
        return linalg.sum_entries(
            [u[i] * self.m[i][j] * v[j]
             for i in range(self.dim) for j in range(self.dim)
             if self.m[i][j] != 0])

    def pairing(self, i: int, j: int):
        """w(e_i, e_j) with 1-based indices."""
        return self.m[i - 1][j - 1]

    def is_canonical(self) -> bool:
        return linalg.mat_eq(self.m, TwoForm.canonical(self.dim).m)

    def nondegenerate(self) -> bool:
        return linalg.det(self.m) != 0


class InnerProduct:
    """Symmetric positive-definite bilinear form; the canonical one is the dot product."""

    def __init__(self, m):
        self.dim = len(m)
        for i in range(self.dim):
            for j in range(self.dim):
                if m[i][j] != m[j][i]:
                    raise ValueError("inner-product matrix must be symmetric")
        if linalg.signature_exact(m) != (self.dim, 0, 0):
            raise ValueError("inner-product matrix must be positive definite")
        self.m = [list(row) for row in m]

    @classmethod
    def canonical(cls, dim: int) -> "InnerProduct":
        return cls(linalg.identity(dim))

    def __call__(self, u, v):
        return linalg.sum_entries(
            [u[i] * self.m[i][j] * v[j]
             for i in range(self.dim) for j in range(self.dim)
             if self.m[i][j] != 0])


class Bracket:
    """Antisymmetric bilinear product on R^dim via structure constants.

    Stored sparsely as {(i, j): {k: c}} with 1-based i < j; evaluation at
    (j, i) returns the negated constants and unstored entries are zero.
    """

    def __init__(self, dim: int, rules=None):
        if dim < 2 or dim % 2:
            raise ValueError("dimension must be even and >= 2")
        self.dim = dim
        clean = {}
        for (i, j), vec in (rules or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ValueError(f"index out of range in pair ({i},{j})")
            if i == j:
                if any(not _is_zero(c) for c in vec.values()):
                    raise ValueError("nonzero diagonal entry in an antisymmetric product")
                continue
            sign = 1
            if i > j:
                i, j, sign = j, i, -1
            tgt = clean.setdefault((i, j), {})
            for k, c in vec.items():
                if not (1 <= k <= dim):
                    raise ValueError(f"component index {k} out of range")
                c = sign * c
                if (i, j) in clean and k in tgt:
                    c = tgt[k] + c
                if _is_zero(c):
                    tgt.pop(k, None)
                else:
                    tgt[k] = c
            if not tgt:
                del clean[(i, j)]
        self.rules = clean

    # -- access --------------------------------------------------------------

    def entry(self, i: int, j: int, k: int):
        """Structure constant c_{ij}^k, 1-based, antisymmetric in (i, j)."""
        if i == j:
            return Fraction(0)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        return sign * self.rules.get((i, j), {}).get(k, Fraction(0))

    def pair(self, i: int, j: int):
        """The vector [e_i, e_j] as a 0-based coordinate list."""
        out = [Fraction(0)] * self.dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.rules.get((i, j), {}).items():
            out[k - 1] = sign * c
        return out

    def apply(self, u, v):
        """Bilinear extension to coordinate vectors (0-based lists)."""
        out = [Fraction(0)] * self.dim
        for (i, j), vec in self.rules.items():
            coef = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if _is_zero(coef):
                continue
            for k, c in vec.items():
                out[k - 1] = out[k - 1] + coef * c
        return out

    def entries(self):
        """Iterate (i, j, k, c) over stored nonzeros, i < j."""
        for (i, j), vec in sorted(self.rules.items()):
            for k in sorted(vec):
                yield i, j, k, vec[k]

    def is_zero(self) -> bool:
        return not self.rules

    def __eq__(self, other):
        if not isinstance(other, Bracket):
            return NotImplemented
        if self.dim != other.dim:
            return False
        keys = set(self.rules) | set(other.rules)
        for key in keys:
            a = self.rules.get(key, {})
            b = other.rules.get(key, {})
            for k in set(a) | set(b):
                if a.get(k, Fraction(0)) != b.get(k, Fraction(0)):
                    return False
        return True

    def __hash__(self):
        return hash((self.dim, frozenset((p, frozenset(v.items())) for p, v in self.rules.items())))

    def __repr__(self):
        bits = []
        for i, j, k, c in self.entries():
            bits.append(f"[e{i},e{j}]->{c}*e{k}")
        return f"Bracket(dim={self.dim}, {'; '.join(bits) or '0'})"

    def map_scalars(self, f) -> "Bracket":
        return Bracket(self.dim, {p: {k: f(c) for k, c in vec.items()} for p, vec in self.rules.items()})

    def limit(self) -> "Bracket":
        """Exact t -> +inf limit of an ExpPoly-valued bracket.

        Raises ValueError naming the divergent entries when some exponent
        is positive.
        """
        bad = []
        rules = {}
        for (i, j), vec in self.rules.items():
            out = {}
            for k, c in vec.items():
                c = ExpPoly.coerce(c)
                if not c.has_limit():
                    bad.append((i, j, k))
                else:
                    out[k] = c.limit()
            if out:
                rules[(i, j)] = out
        if bad:
            raise ValueError(f"no limit: divergent entries at {sorted(bad)}")
        return Bracket(self.dim, rules)

    def eval_at(self, t: float) -> "Bracket":
        """Binary64 bracket at time t (ExpPoly entries evaluated numerically)."""
        def ev(c):
            return c.eval_at(t) if isinstance(c, ExpPoly) else float(c)
        return self.map_scalars(ev)

    def eval_base(self, k: int, base: int = 2) -> "Bracket":
        """Exact rational bracket at t = k*log(base)."""
        def ev(c):
            return c.eval_base(k, base) if isinstance(c, ExpPoly) else Fraction(c)
        return self.map_scalars(ev)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        bracket = {}
        for (i, j), vec in sorted(self.rules.items()):
            bracket[f"{i},{j}"] = {str(k): format_rational(vec[k]) for k in sorted(vec)}
        return {"dim": self.dim, "scalars": "rational", "bracket": bracket, "omega": "canonical"}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Bracket":
        if d.get("scalars", "rational") != "rational":
            raise ValueError("only rational scalars are supported in files")
        rules = {}
        for key, vec in d.get("bracket", {}).items():
            i, j = (int(x) for x in key.split(","))
            rules[(i, j)] = {int(k): parse_rational(c) for k, c in vec.items()}
        return cls(int(d["dim"]), rules)

    @classmethod
    def from_json(cls, s: str) -> "Bracket":
        return cls.from_json_dict(json.loads(s))


# -- validation ----------------------------------------------------------------


def jacobiator(mu: Bracket) -> dict:
    """Jac(mu)(e_a, e_b, e_c) for all a < b < c, as 0-based coordinate lists."""
    out = {}
    for a, b, c in itertools.combinations(range(1, mu.dim + 1), 3):
        basis = (a, b, c)
        total = [Fraction(0)] * mu.dim
        for perm, sign in PERMS3:
            v = mu.pair(basis[perm[0]], basis[perm[1]])
            ec = [Fraction(0)] * mu.dim
            ec[basis[perm[2]] - 1] = Fraction(1)
            w = mu.apply(v, ec)
            total = [x + sign * y for x, y in zip(total, w)]
        out[(a, b, c)] = total
    return out


def is_lie(mu: Bracket) -> bool:
    return all(all(_is_zero(x) for x in v) for v in jacobiator(mu).values())


def d_omega(mu: Bracket, omega: TwoForm) -> dict:
    """(d_mu w)(e_a, e_b, e_c) over all a < b < c (the signed sum over S3)."""
    if mu.dim != omega.dim:
        raise ValueError("dimension mismatch")
    out = {}
    unit = [Fraction(0)] * mu.dim
    for a, b, c in itertools.combinations(range(1, mu.dim + 1), 3):
        basis = (a, b, c)
        total = Fraction(0)
        for perm, sign in PERMS3:
            v = mu.pair(basis[perm[0]], basis[perm[1]])
            ec = list(unit)
            ec[basis[perm[2]] - 1] = Fraction(1)
            total = total + sign * omega(v, ec)
        out[(a, b, c)] = total
    return out


def is_closed(mu: Bracket, omega: TwoForm) -> bool:
    return all(_is_zero(x) for x in d_omega(mu, omega).values())


def validate_symplectic(mu: Bracket, omega: TwoForm) -> bool:
    return is_lie(mu) and omega.nondegenerate() and is_closed(mu, omega)


# -- the group action ----------------------------------------------------------


def is_symplectic(g, omega: TwoForm = None, tol: float = None) -> bool:
    """Whether g^T J g == J, term-wise exactly (or within tol on floats)."""
    dim = len(g)
    omega = omega or TwoForm.canonical(dim)
    gt = linalg.transpose(g)
    resid = linalg.mat_sub(linalg.mat_mul(gt, linalg.mat_mul(omega.m, g)), omega.m)
    if tol is None:
        return all(_is_zero(x) for row in resid for x in row)
    return max(abs(float(x)) for row in resid for x in row) < tol


def symplectic_inverse(g, omega: TwoForm = None):
    """Inverse of a symplectic g as -J g^T J; exact in every scalar domain."""
    dim = len(g)
    omega = omega or TwoForm.canonical(dim)
    j = omega.m
    return linalg.mat_scale(Fraction(-1), linalg.mat_mul(j, linalg.mat_mul(linalg.transpose(g), j)))


def group_inverse(g, omega: TwoForm = None):
    """Inverse of a group element: -J g^T J when symplectic, elimination otherwise."""
    if is_symplectic(g, omega):
        return symplectic_inverse(g, omega)
    if any(isinstance(x, ExpPoly) for row in g for x in row):
        raise ValueError("ExpPoly group elements must be symplectic")
    return linalg.inverse(g)


def act(g, mu: Bracket, ginv=None) -> Bracket:
    """Change of basis action (g.mu)(x, y) = g mu(g^{-1} x, g^{-1} y)."""
    if len(g) != mu.dim:
        raise ValueError("dimension mismatch")
    if ginv is None:
        ginv = group_inverse(g)
    cols = [[ginv[r][c] for r in range(mu.dim)] for c in range(mu.dim)]
    rules = {}
    for i in range(1, mu.dim + 1):
        for j in range(i + 1, mu.dim + 1):
            w = mu.apply(cols[i - 1], cols[j - 1])
            gw = linalg.mat_vec(g, w)
            vec = {k + 1: gw[k] for k in range(mu.dim) if not _is_zero(gw[k])}
            if vec:
                rules[(i, j)] = vec
    return Bracket(mu.dim, rules)


def act_bilinear(g, table, ginv=None):
    """Same action on a dense bilinear product table[i][j] -> vector."""
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
                if _is_zero(ca):
                    continue
                for b in range(dim):
                    coef = ca * cols[j][b]
                    if _is_zero(coef):
                        continue
                    tab = table[a][b]
                    w = [x + coef * y for x, y in zip(w, tab)]
            out[i][j] = linalg.mat_vec(g, w)
    return out


def transvection(u, c, omega: TwoForm = None):
    """Matrix of v -> v + c*w(v, u)*u; exactly symplectic for rational inputs."""
    dim = len(u)
    omega = omega or TwoForm.canonical(dim)
    ju = linalg.mat_vec(linalg.transpose(omega.m), u)  # w(v,u) = v . (J^T u)
    out = linalg.identity(dim)
    for i in range(dim):
        for j in range(dim):
            out[i][j] = out[i][j] + c * u[i] * ju[j]
    return out


# -- dense multilinear maps -----------------------------------------------------


def bracket_to_table(mu: Bracket):
    """Dense bilinear table: table[i][j] = mu(e_{i+1}, e_{j+1}) (0-based)."""
    return [[mu.pair(i + 1, j + 1) for j in range(mu.dim)] for i in range(mu.dim)]


def table_to_bracket(table) -> Bracket:
    dim = len(table)
    rules = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            anti = [(a - b) for a, b in zip(table[i][j], table[j][i])]
            sym = [(a + b) for a, b in zip(table[i][j], table[j][i])]
            if any(not _is_zero(x) for x in sym):
                raise ValueError("table is not antisymmetric")
            vec = {k + 1: anti[k] / 2 for k in range(dim) if not _is_zero(anti[k])}
            if vec:
                rules[(i + 1, j + 1)] = vec
    return Bracket(dim, rules)


def _tuples(dim, k):
    return itertools.product(range(dim), repeat=k)


class MultiVec:
    """Dense k-linear vector-valued map: data[(i1..ik)] -> coordinate list."""

    def __init__(self, dim, k, data=None):
        self.dim, self.k = dim, k
        self.data = data or {idx: [Fraction(0)] * dim for idx in _tuples(dim, k)}

    @classmethod
    def from_bracket(cls, mu: Bracket) -> "MultiVec":
        data = {(i, j): mu.pair(i + 1, j + 1) for i, j in _tuples(mu.dim, 2)}
        return cls(mu.dim, 2, data)

    def __eq__(self, other):
        return (self.dim, self.k) == (other.dim, other.k) and all(
            all(a == b for a, b in zip(self.data[idx], other.data[idx]))
            for idx in _tuples(self.dim, self.k))


class MultiForm:
    """Dense k-linear scalar form: data[(i1..ik)] -> scalar."""

    def __init__(self, dim, k, data=None):
        self.dim, self.k = dim, k
        self.data = data or {idx: Fraction(0) for idx in _tuples(dim, k)}

    def __eq__(self, other):
        return (self.dim, self.k) == (other.dim, other.k) and all(
            self.data[idx] == other.data[idx] for idx in _tuples(self.dim, self.k))


def flat(mv: MultiVec, slot: int, omega: TwoForm) -> MultiForm:
    """Lower a vector-valued map to a form: feed the map's value to w(., v_slot).

    slot is 1-based among the k+1 arguments of the resulting form.
    """
    k = mv.k
    if not (1 <= slot <= k + 1):
        raise ValueError("slot out of range")
    out = MultiForm(mv.dim, k + 1)
    for idx in _tuples(mv.dim, k + 1):
        rest = idx[:slot - 1] + idx[slot:]
        vi = [Fraction(0)] * mv.dim
        vi[idx[slot - 1]] = Fraction(1)
        out.data[idx] = omega(mv.data[rest], vi)
    return out


def sharp(mf: MultiForm, slot: int, omega: TwoForm) -> MultiVec:
    """Raise a (k+1)-form to a vector-valued k-map; inverse of :func:`flat`."""
    k1 = mf.k
    if not (1 <= slot <= k1):
        raise ValueError("slot out of range")
    if not omega.nondegenerate():
        raise ValueError("degenerate two-form")
    # w(w, e_l) = (M^T w)_l, so w = (M^T)^{-1} r with r_l = form(e_l in slot).
    minv_t = linalg.inverse(linalg.transpose(omega.m))
    out = MultiVec(mf.dim, k1 - 1)
    for idx in _tuples(mf.dim, k1 - 1):
        r = []
        for l in range(mf.dim):
            full = idx[:slot - 1] + (l,) + idx[slot - 1:]
            r.append(mf.data[full])
        out.data[idx] = linalg.mat_vec(minv_t, r)
    return out


def trace_slot(mv: MultiVec, slot: int) -> MultiForm:
    """Trace of the endomorphism got by plugging the free argument into slot."""
    if not (1 <= slot <= mv.k):
        raise ValueError("slot out of range")
    out = MultiForm(mv.dim, mv.k - 1)
    for idx in _tuples(mv.dim, mv.k - 1):
        tr = Fraction(0)
        for l in range(mv.dim):
            full = idx[:slot - 1] + (l,) + idx[slot - 1:]
            tr = tr + mv.data[full][l]
        out.data[idx] = tr
    return out


# -- distances -------------------------------------------------------------------


def bracket_distance(a: Bracket, b: Bracket):
    """max over (i<j, k) of |a_{ij}^k - b_{ij}^k|.

    Works in every scalar domain; ExpPoly entries are compared by eventual
    dominance as t -> +inf.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    keys = set(a.rules) | set(b.rules)
    exp_mode = any(isinstance(c, ExpPoly)
                   for br in (a, b) for vec in br.rules.values() for c in vec.values())
    best = ExpPoly.const(0) if exp_mode else Fraction(0)
    if not exp_mode and any(isinstance(c, float)
                            for br in (a, b) for vec in br.rules.values() for c in vec.values()):
        best = 0.0
    for key in keys:
        va = a.rules.get(key, {})
        vb = b.rules.get(key, {})
        for k in set(va) | set(vb):
            d = va.get(k, 0) - vb.get(k, 0)
            if exp_mode:
                d = abs(ExpPoly.coerce(d))
            else:
                d = abs(d)
            if d > best:
                best = d
    return best
