"""Core multilinear algebra: brackets, the canonical two-form, the Sp(2n,R) action,
dense tables.

Basis indices are 1-based in constructors, serialized forms and reports,
matching the classification tables; dense internal tensors are 0-based.
Scalars are Fraction or int (exact path) or ExpPoly (curves).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from typing import Optional

from . import linalg
from .scalars import ExpPoly, clip, format_rational, parse_int, parse_rational

_INDEX = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)  # a basis index key: ASCII only
# Largest "dim" a bracket file may declare.  Validation runs over all index
# triples: an empty bracket takes 0.3 s at dim 16 and 6.4 s at dim 32.
MAX_FILE_DIM = 16
PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
          ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)]


def canonical_form(dim: int):
    """The matrix J of w = sum_i e_i^* ^ e_{n+i}^* on R^{2n}:  w(e_i, e_{n+i}) = 1."""
    if dim % 2:
        raise ValueError("dimension must be even")
    n = dim // 2
    return [[(j == i + n) - (i == j + n) for j in range(dim)] for i in range(dim)]


def omega(u, v):
    """The canonical two-form w(u, v) = u^T J v = sum_i u_i v_{n+i} - u_{n+i} v_i."""
    n = len(u) // 2
    return sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n))


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
                if any(vec.values()):
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
                if not c:
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
        return sign * self.rules.get((i, j), {}).get(k, 0)

    def pair(self, i: int, j: int):
        """The vector [e_i, e_j] as a 0-based coordinate list."""
        out = [0] * self.dim
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
        out = [0] * self.dim
        for (i, j), vec in self.rules.items():
            coef = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if not coef:
                continue
            for k, c in vec.items():
                out[k - 1] = out[k - 1] + coef * c
        return out

    def entries(self):
        """Iterate (i, j, k, c) over stored nonzeros, i < j."""
        for (i, j), vec in sorted(self.rules.items()):
            for k in sorted(vec):
                yield i, j, k, vec[k]

    def __eq__(self, other):
        if not isinstance(other, Bracket):
            return NotImplemented
        return self.dim == other.dim and not self.differing_entries(other)

    def differing_entries(self, other: "Bracket") -> list:
        """Sorted (i, j, k), i < j, at which c_ij^k of self and of other differ."""
        out = []
        for key in sorted(set(self.rules) | set(other.rules)):
            a, b = self.rules.get(key, {}), other.rules.get(key, {})
            out += [(*key, k) for k in sorted(set(a) | set(b)) if a.get(k, 0) != b.get(k, 0)]
        return out

    def __hash__(self):
        return hash((self.dim, frozenset((p, frozenset(v.items())) for p, v in self.rules.items())))

    def __repr__(self):
        bits = []
        for i, j, k, c in self.entries():
            bits.append(f"[e{i},e{j}]->{c}*e{k}")
        return f"Bracket(dim={self.dim}, {'; '.join(bits) or '0'})"

    def map_scalars(self, f) -> "Bracket":
        return Bracket(self.dim, {p: {k: f(c) for k, c in vec.items()} for p, vec in self.rules.items()})

    def integer_multiple(self):
        """(m, m*self) for m the lcm of the denominators: m*self has int constants."""
        m = math.lcm(*(c.denominator for vec in self.rules.values() for c in vec.values()))
        return m, self.map_scalars(lambda c: c.numerator * (m // c.denominator))

    def divergent_entries(self) -> list:
        """Sorted (i, j, k) of the ExpPoly entries with no finite t -> +inf limit."""
        return sorted((i, j, k) for (i, j), vec in self.rules.items()
                      for k, c in vec.items() if ExpPoly.coerce(c).limit() is None)

    def limit(self) -> Optional["Bracket"]:
        """Exact t -> +inf limit of an ExpPoly-valued bracket; None when an entry diverges."""
        rules = {p: {k: ExpPoly.coerce(c).limit() for k, c in vec.items()}
                 for p, vec in self.rules.items()}
        if any(c is None for vec in rules.values() for c in vec.values()):
            return None
        return Bracket(self.dim, rules)

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
        """Inverse of :meth:`to_json_dict`; ValueError on any malformed part."""
        if not isinstance(d, dict):
            raise ValueError("a bracket file must hold a JSON object")
        if type(d.get("dim")) is not int:
            raise ValueError('"dim" must be an integer')
        if d["dim"] > MAX_FILE_DIM:
            raise ValueError(f'"dim" must be at most {MAX_FILE_DIM}, got {d["dim"]}')
        if d.get("scalars", "rational") != "rational":
            raise ValueError("only rational scalars are supported in files")
        if d.get("omega", "canonical") != "canonical":
            raise ValueError("only the canonical omega is supported in files")
        bracket = d.get("bracket", {})
        if not isinstance(bracket, dict):
            raise ValueError('"bracket" must be an object keyed by "i,j"')
        rules, keys = {}, {}  # keys: the first key of each unordered pair
        for key, vec in bracket.items():
            name = clip(key)
            if not (isinstance(vec, dict) and all(isinstance(c, str) for c in vec.values())):
                raise ValueError(f'bracket entry "{name}" must map components to rational strings')
            pair = key.split(",")
            if len(pair) != 2 or not all(map(_INDEX.fullmatch, pair)):
                raise ValueError(f'bracket key "{name}" must have the form "i,j" with integer indices')
            i, j = (parse_int(x, f'bracket key "{name}"') for x in pair)
            first = keys.setdefault(frozenset((i, j)), key)
            if first != key:
                raise ValueError(f'bracket key "{name}" repeats the pair of key "{clip(first)}"')
            vals = rules[(i, j)] = {}
            for k, c in vec.items():
                where = f'component key "{clip(k)}" of bracket entry "{name}"'
                if not _INDEX.fullmatch(k):
                    raise ValueError(f'{where} must be an integer')
                index = parse_int(k, where)
                if index in vals:
                    raise ValueError(f'{where} repeats index {index}')
                try:
                    vals[index] = parse_rational(c)
                except ValueError as e:
                    raise ValueError(f"{where}: {e}") from None
        return cls(d["dim"], rules)

    @classmethod
    def from_json(cls, s: str) -> "Bracket":
        """:meth:`from_json_dict` of JSON text; ValueError on too many digits or too deep nesting."""
        try:
            d = json.loads(s, object_pairs_hook=_unique_keys,
                           parse_int=lambda t: parse_int(t, f"the JSON number {clip(t)!r}"))
        except RecursionError:
            raise ValueError("the file nests too deeply to be a bracket file") from None
        return cls.from_json_dict(d)


def _unique_keys(pairs) -> dict:
    """The dict of one JSON object; ValueError when the object repeats a key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f'key "{clip(key)}" appears twice in one JSON object')
        out[key] = value
    return out


# -- validation ----------------------------------------------------------------


def jacobiator(mu: Bracket) -> dict:
    """Jac(mu)(e_a, e_b, e_c) for all a < b < c, as 0-based coordinate lists."""
    out = {}
    for a, b, c in itertools.combinations(range(1, mu.dim + 1), 3):
        basis = (a, b, c)
        total = [0] * mu.dim
        for perm, sign in PERMS3:
            v = mu.pair(basis[perm[0]], basis[perm[1]])
            ec = [0] * mu.dim
            ec[basis[perm[2]] - 1] = 1
            w = mu.apply(v, ec)
            total = [x + sign * y for x, y in zip(total, w)]
        out[(a, b, c)] = total
    return out


def is_lie(mu: Bracket) -> bool:
    return not any(x for v in jacobiator(mu).values() for x in v)


def d_omega(mu: Bracket) -> dict:
    """(d_mu w)(e_a, e_b, e_c) over all a < b < c (the signed sum over S3)."""
    out = {}
    unit = [0] * mu.dim
    for a, b, c in itertools.combinations(range(1, mu.dim + 1), 3):
        basis = (a, b, c)
        total = 0
        for perm, sign in PERMS3:
            v = mu.pair(basis[perm[0]], basis[perm[1]])
            ec = list(unit)
            ec[basis[perm[2]] - 1] = 1
            total = total + sign * omega(v, ec)
        out[(a, b, c)] = total
    return out


def is_closed(mu: Bracket) -> bool:
    return not any(d_omega(mu).values())


def validate_symplectic(mu: Bracket) -> bool:
    return is_lie(mu) and is_closed(mu)


# -- the group action ----------------------------------------------------------


def is_symplectic(g) -> bool:
    """Whether g^T J g == J, term-wise exactly."""
    j = canonical_form(len(g))
    return linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(j, g)) == j


def symplectic_inverse(g):
    """Inverse of a symplectic g = [[A, B], [C, D]]: -J g^T J = [[D^T, -B^T], [-C^T, A^T]]."""
    n, odd = divmod(len(g), 2)
    if odd:
        raise ValueError("symplectic_inverse needs an even dimension")
    rotated = [row[n:] + row[:n] for row in g[n:] + g[:n]]  # [[D, C], [B, A]]
    return [[x if (i < n) == (j < n) else -x for j, x in enumerate(col)]
            for i, col in enumerate(zip(*rotated))]


def act(g, mu: Bracket, ginv) -> Bracket:
    """The Sp action (g.mu)(x, y) = g mu(ginv x, ginv y), ginv = symplectic_inverse(g) unchecked.
    Linear in g and quadratic in ginv, so int d*g and d*g^-1 give d^3 (g.mu)."""
    if len(g) != mu.dim:
        raise ValueError("dimension mismatch")
    cols = [[ginv[r][c] for r in range(mu.dim)] for c in range(mu.dim)]
    rules = {}
    for i in range(1, mu.dim + 1):
        for j in range(i + 1, mu.dim + 1):
            w = mu.apply(cols[i - 1], cols[j - 1])
            gw = linalg.mat_vec(g, w)
            vec = {k + 1: gw[k] for k in range(mu.dim) if gw[k]}
            if vec:
                rules[(i, j)] = vec
    return Bracket(mu.dim, rules)


def transvection(u, c):
    """Matrix of v -> v + c*w(u, v)*u; exactly symplectic for rational inputs."""
    dim = len(u)
    ju = linalg.mat_vec(linalg.transpose(canonical_form(dim)), u)  # w(u, v) = (J^T u) . v
    out = linalg.identity(dim)
    for i in range(dim):
        for j in range(dim):
            out[i][j] = out[i][j] + c * u[i] * ju[j]
    return out


# -- dense multilinear maps -----------------------------------------------------


def bracket_to_table(mu: Bracket):
    """Dense bilinear table: table[i][j] = mu(e_{i+1}, e_{j+1}) (0-based)."""
    return [[mu.pair(i + 1, j + 1) for j in range(mu.dim)] for i in range(mu.dim)]
