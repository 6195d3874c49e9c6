"""The orbit-closure engine.

Exact curve-limit verification, triangular-subgroup (B = A.N) orbit
parametrizations and their trapping subspaces, assembly and verification of
the full degeneration diagram, the three worked non-degeneration arguments as
machine checks, and the curvature-signature witness search.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import linalg
from .catalog import (CLASS_DEFS, CLASSES, CURVES, ClassId, CurveInstance, class_id,
                      rescale_time, scaling_transform, shear_transform, make)
from .curvature import _moved_ricci_matrix, _ricci_matrix, ricci_form
from .invariants import (OBSTRUCTION_RULES, class_invariants, composition_trace_form, der_omega_dim,
                         derived_dim, equivariant_product, obstruction_report, second_trace)
from .scalars import ExpPoly, format_rational
from .tensor import Bracket, act, is_symplectic, jacobiator, symplectic_inverse

# exp(t) := 2**k on the distance grid: t = k*log(2) is about 5, 10, 15, 20, 25
K_STEPS = (7, 14, 22, 29, 36)


# -- curve verification ----------------------------------------------------------


class CurveReport(NamedTuple):
    label: str
    symplectic_exact: bool
    status: str                   # verified | no limit | wrong target | not symplectic
    moved: Optional[Bracket]      # the ExpPoly tensor g_t . mu_source
    bad_entries: tuple = ()
    distances: tuple = ()         # (k, exact distance to the target at exp(t) = 2**k)
    decreasing: bool = False
    final_small: bool = False

    @property
    def verified(self):
        return (self.status == "verified" and self.symplectic_exact
                and self.decreasing and self.final_small)

    def to_json_dict(self):
        return {"curve": self.label, "symplectic_exact": self.symplectic_exact,
                "status": self.status,
                "bad_entries": [list(e) for e in self.bad_entries],
                "distances": [[k, format_rational(d)] for k, d in self.distances],
                "decreasing": self.decreasing,
                "final_small": self.final_small,
                "verified": self.verified}


def verify_curve(inst: CurveInstance, dist_tol: float = 1e-8) -> CurveReport:
    """Symbolic symplecticity, exact limit, and the exact distance grid."""
    g = inst.g
    if not is_symplectic(g):
        return CurveReport(inst.label, False, "not symplectic", None)
    moved = act(g, inst.source_bracket, symplectic_inverse(g))
    limit = moved.limit()
    if limit is None:
        return CurveReport(inst.label, True, "no limit", moved, tuple(moved.divergent_entries()))
    wrong = limit.differing_entries(inst.target_bracket)
    if wrong:
        return CurveReport(inst.label, True, "wrong target", moved, tuple(wrong))
    # moved tends to the target entrywise, so the distance at exp(t) := 2**k is the
    # max-norm of the entries' gaps to their limits; it is rational because each k
    # is a multiple of every exponent denominator
    gaps = [ExpPoly.coerce(c) - limit.entry(i, j, k)
            for (i, j), vec in moved.rules.items() for k, c in vec.items()]
    n = math.lcm(*(r.denominator for gap in gaps for r in gap.terms))
    # the multiple of n nearest each step, at least j*n so that the ks strictly increase
    ks = [n * max(j, (2 * big_k + n) // (2 * n)) for j, big_k in enumerate(K_STEPS, 1)]
    dists = [(k, max((abs(gap.eval_base(k)) for gap in gaps), default=Fraction(0)))
             for k in ks]
    # strict decrease, except a curve already sitting on its target (all zeros)
    decreasing = all(b < a or a == b == 0 for (_, a), (_, b) in zip(dists, dists[1:]))
    # relative to the first distance once that exceeds 1: a large parameter scales the grid
    small = dists[-1][1] < Fraction(dist_tol) * max(1, dists[0][1])
    return CurveReport(inst.label, True, "verified", moved, (),
                       tuple(dists), decreasing, small)


# -- B = A.N orbit parametrization ------------------------------------------------


def borbit_element(scaled: tuple, a_params, n_params) -> tuple:
    """(c, C), c > 0 and C = c*xi an int bracket, for xi = (g.h)^{-1} . mu, g = diag(t1,
    t2, 1/t1, 1/t2) with t1, t2 > 0 and h = [[1, -a, 0, 0], [0, 1, 0, 0], [x, y, 1, 0],
    [ax + y, ay + z, a, 1]].  scaled = (m, m*mu) is mu.integer_multiple(), taken once
    per orbit by the caller.  In ints, from the parameters' numerators and denominators
    (ints or Fractions): G = D*(g.h), symplectic_inverse(G) = D*(g.h)^{-1}, and act,
    linear in all three, gives C = m*D^3*xi from m*mu."""
    (p1, q1), (p2, q2) = ((t.numerator, t.denominator) for t in a_params)
    if p1 <= 0 or p2 <= 0:
        raise ValueError("diagonal parameters must be positive")
    (na, da), (nx, dx), (ny, dy), (nz, dz) = ((v.numerator, v.denominator) for v in n_params)
    e = math.lcm(dx, dy, dz)
    x, y, z = nx * (e // dx), ny * (e // dy), nz * (e // dz)  # e*x, e*y, e*z
    dh = da * e
    h = [[dh, -na * e, 0, 0], [0, dh, 0, 0], [da * x, da * y, dh, 0],
         [na * x + da * y, na * y + da * z, na * e, dh]]  # dh*h
    dg = math.lcm(p1, q1, p2, q2)
    g = (dg // q1 * p1, dg // q2 * p2, dg // p1 * q1, dg // p2 * q2)  # dg*g, g diagonal
    big_g = [[gi * v for v in row] for gi, row in zip(g, h)]
    m, imu = scaled
    return m * (dg * dh) ** 3, act(symplectic_inverse(big_g), imu, big_g)


class TrapError(ValueError):
    """A bracket does not fit the trapping-subspace pattern."""


class TrapPattern:
    """A linear subspace of 4-dimensional brackets that traps a B-orbit.

    Coordinate b_n is groups[n-1]: the (i, j, k) slots, i < j, whose
    structure constants c_ij^k all equal b_n.  Every other slot is zero.
    """

    def __init__(self, name: str, groups: tuple):
        self.name, self.groups = name, groups
        self.slots = frozenset(s for group in groups for s in group)

    def coords(self, xi: Bracket) -> tuple:
        """(b1, b2, ...) of xi; TrapError when xi lies outside the subspace."""
        if xi.dim != 4:
            raise TrapError("pattern is 4-dimensional")
        for (i, j), vec in xi.rules.items():
            for k in vec:
                if (i, j, k) not in self.slots:
                    raise TrapError(f"component e{k} of [e{i},e{j}] outside the "
                                    f"{self.name} pattern")
        out = []
        for n, group in enumerate(self.groups, 1):
            values = {xi.entry(*s) for s in group}
            if len(values) > 1:
                raise TrapError(f"shared coordinate b{n} differs across {list(group)}")
            out.append(values.pop())
        return tuple(out)

    def axes(self, coords) -> set:
        """The k of each slot (i, j, k) of the coordinates b_(n+1), n in coords (0-based):
        with every other coordinate zero, each bracket value lies in the span of these e_k."""
        return {k for n in coords for _, _, k in self.groups[n]}

    def embed(self, b) -> Bracket:
        """The bracket with coordinates b."""
        rules = {}
        for value, group in zip(b, self.groups):
            for i, j, k in group:
                rules.setdefault((i, j), {})[k] = value
        return Bracket(4, rules)


# [e1,e2] = b1 e3 + b2 e4, [e1,e3] = b3 e3 + b4 e4, [e2,e3] = b4 e3 + b5 e4,
# [e2,e4] = b6 e4
R2R2_TRAP = TrapPattern("r2r2", (((1, 2, 3),), ((1, 2, 4),), ((1, 3, 3),),
                                 ((1, 3, 4), (2, 3, 3)), ((2, 3, 4),), ((2, 4, 4),)))
# [e1,e2] = b1 e4, [e1,e3] = b2 e3, [e1,e4] = b2 e4, [e2,e3] = b3 e4,
# [e2,e4] = b2 e3 + b4 e4
R2P_TRAP = TrapPattern("r2p", (((1, 2, 4),), ((1, 3, 3), (1, 4, 4), (2, 4, 3)),
                               ((2, 3, 4),), ((2, 4, 4),)))


def r2r2_trap_residual(sample, lam) -> Fraction:
    """b1 b5 - b2 b4 - lam * b3 b4 b6^2 of xi = C/c for sample = (c, C), c > 0;
    identically zero on the r2r2 B-orbit.  Its terms have degrees 2 and 4, so
    it is (c^2 (B1 B5 - B2 B4) den(lam) - num(lam) B3 B4 B6^2) / (c^4 den(lam)).
    """
    c, xi = sample
    b1, b2, b3, b4, b5, b6 = R2R2_TRAP.coords(xi)
    lam = Fraction(lam)
    den = lam.denominator
    return Fraction(c * c * (b1 * b5 - b2 * b4) * den - lam.numerator * b3 * b4 * b6 * b6,
                    c ** 4 * den)


# -- random exact symplectic elements ---------------------------------------------


def _randint(bits, a, n, k):
    """rng.randint(a, a + n - 1) bit for bit, for bits = rng.getrandbits and k = n.bit_length()."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return a + r


def random_symplectic(rng: random.Random) -> tuple:
    """(d, d*g) for g a product of 6 to 12 random symplectic transvections of R^4.

    d is the least positive int that makes d*g integral.  It runs in ints,
    drawing each p/q as Fraction(rng.randint(-3, 3), rng.randint(1, 3)) would,
    unreduced: rng.randint(a, a + n - 1) is a + r for the first draw
    r = rng.getrandbits(n.bit_length()) below n.  For u = U/e and c = p/q the
    transvection v -> v + c*w(u,v)*u is T/s with s = q*e^2 and T = s*I + p*U*(J^T U)^T,
    applied to the running product out, entry by entry, as the rank-one update
    s*out + p*U*((J^T U)^T out).
    """
    bits = rng.getrandbits
    m00, m01, m02, m03 = 1, 0, 0, 0
    m10, m11, m12, m13 = 0, 1, 0, 0
    m20, m21, m22, m23 = 0, 0, 1, 0
    m30, m31, m32, m33 = 0, 0, 0, 1
    den = 1
    n = bits(3)
    while n == 7:
        n = bits(3)
    for _ in range(n + 6):
        # draws x in 0..6 and y in 0..2 make the entries (x - 3)/(y + 1) of u, drawn
        # again until u is nonzero; then p in 0..6 and q in 0..2 make c = (p - 3)/(q + 1)
        while True:
            x0 = bits(3)
            while x0 == 7:
                x0 = bits(3)
            y0 = bits(2)
            while y0 == 3:
                y0 = bits(2)
            x1 = bits(3)
            while x1 == 7:
                x1 = bits(3)
            y1 = bits(2)
            while y1 == 3:
                y1 = bits(2)
            x2 = bits(3)
            while x2 == 7:
                x2 = bits(3)
            y2 = bits(2)
            while y2 == 3:
                y2 = bits(2)
            x3 = bits(3)
            while x3 == 7:
                x3 = bits(3)
            y3 = bits(2)
            while y3 == 3:
                y3 = bits(2)
            if x0 != 3 or x1 != 3 or x2 != 3 or x3 != 3:
                break
        p = bits(3)
        while p == 7:
            p = bits(3)
        q = bits(2)
        while q == 3:
            q = bits(2)
        y0, y1, y2, y3 = y0 + 1, y1 + 1, y2 + 1, y3 + 1
        e = math.lcm(y0, y1, y2, y3)
        u0, u1, u2 = (x0 - 3) * (e // y0), (x1 - 3) * (e // y1), (x2 - 3) * (e // y2)
        u3 = (x3 - 3) * (e // y3)
        s = (q + 1) * e * e
        p -= 3
        # w = (J^T U)^T out, J^T U = (-U2, -U3, U0, U1); then out <- s*out + p*U*w
        w0 = u0 * m20 + u1 * m30 - u2 * m00 - u3 * m10
        w1 = u0 * m21 + u1 * m31 - u2 * m01 - u3 * m11
        w2 = u0 * m22 + u1 * m32 - u2 * m02 - u3 * m12
        w3 = u0 * m23 + u1 * m33 - u2 * m03 - u3 * m13
        v = p * u0
        m00, m01, m02, m03 = s * m00 + v * w0, s * m01 + v * w1, s * m02 + v * w2, s * m03 + v * w3
        v = p * u1
        m10, m11, m12, m13 = s * m10 + v * w0, s * m11 + v * w1, s * m12 + v * w2, s * m13 + v * w3
        v = p * u2
        m20, m21, m22, m23 = s * m20 + v * w0, s * m21 + v * w1, s * m22 + v * w2, s * m23 + v * w3
        v = p * u3
        m30, m31, m32, m33 = s * m30 + v * w0, s * m31 + v * w1, s * m32 + v * w2, s * m33 + v * w3
        den *= s
    k = math.gcd(den, m00, m01, m02, m03, m10, m11, m12, m13,
                 m20, m21, m22, m23, m30, m31, m32, m33)
    return den // k, [[m00 // k, m01 // k, m02 // k, m03 // k],
                      [m10 // k, m11 // k, m12 // k, m13 // k],
                      [m20 // k, m21 // k, m22 // k, m23 // k],
                      [m30 // k, m31 // k, m32 // k, m33 // k]]


# -- the degeneration diagram ------------------------------------------------------


class HasseNode(NamedTuple):
    id: str
    key: str
    param: Optional[Fraction]      # pinned parameter, None for generic families

    def class_ids(self):
        if self.param is not None:
            return [class_id(self.key, self.param)]
        return [class_id(self.key, p) for p in CLASSES[self.key].samples or (None,)]


# the family members that some curve starts or ends at
_PINNED = {(k, p) for c in CURVES.values()
           for k, p in ((c.source_key, c.source_param), (c.target_key, c.target_param))
           if p is not None}

# each class in catalog order, followed by its pinned members
HASSE_NODES = [HasseNode(str(ClassId(spec.key, p)), spec.key, p)
               for spec in CLASS_DEFS
               for p in [None] + sorted(m for k, m in _PINNED if k == spec.key)]

NODE_BY_ID = {n.id: n for n in HASSE_NODES}

# every class instance of the diagram, once, in node order
DIAGRAM_CLASSES = list(dict.fromkeys(c for n in HASSE_NODES for c in n.class_ids()))

# (source node, target node, curve id)
HASSE_EDGES = [
    ("r2r2", "d4_1:w1", "appendix:r2r2-d411"),
    ("r2p", "d4_1:w1", "appendix:r2p-d411"),
    ("d4_1:w2", "d4_1:w1", "appendix:d412-d411"),
    ("d4_1:w2", "n4", "appendix:d412-n4"),
    ("d4_1:w1", "rh3", "appendix:d411-rh3"),
    ("n4", "rh3", "appendix:n4-rh3"),
    ("r2r2", "rr3_0", "appendix:r2r2-rr30"),
    ("rr3_0", "rh3", "appendix:rr30-rh3"),
    ("rh3", "a4", "appendix:rh3-a4"),
    ("d4_2:w2", "r4_alpha:alpha=-1/2", "appendix:d422-r4a"),
    ("d4_2:w3", "r4_alpha:alpha=-1/2", "appendix:d423-r4a"),
    ("d4_2:w3", "d4_2:w1", "appendix:d423-d421"),
    ("d4_2:w1", "n4", "appendix:d421-n4"),
    ("r4_alpha:alpha=-1/2", "n4", "appendix:r4alpha-n4"),
    ("r4_m1", "n4", "appendix:r4m1-n4"),
    ("r4_m1", "r4_m1_beta:beta=-1", "appendix:r4m1-r4m1m1"),
    ("r4_m1_beta:beta=-1", "rh3", "appendix:r4m1m1-rh3"),
    ("r4_0:plus", "n4", "appendix:r40p-n4"),
    ("r4_0:minus", "n4", "appendix:r40m-n4"),
    ("r4_0:plus", "rr3_0", "appendix:r40p-rr30"),
    ("r4_0:minus", "rr3_0", "appendix:r40m-rr30"),
    ("h4:plus", "d4_lambda:lambda=1/2", "appendix:h4p-d4half"),
    ("h4:minus", "d4_lambda:lambda=1/2", "appendix:h4m-d4half"),
    ("h4:plus", "n4", "appendix:h4p-n4"),
    ("h4:minus", "n4", "appendix:h4m-n4"),
    ("d4_lambda:lambda=1/2", "rh3", "appendix:d4half-rh3"),
    ("d4_lambda", "n4", "appendix:d4lambda-n4"),
    ("d4p:plus", "n4", "appendix:d4pp-n4"),
    ("d4p:minus", "n4", "appendix:d4pm-n4"),
    ("r4_alpha", "n4", "appendix:r4alpha-n4"),
    ("r4_m1_beta", "n4", "appendix:r4m1beta-n4"),
    ("r4p_0:plus", "n4", "appendix:r4p0p-n4"),
    ("r4p_0:minus", "n4", "appendix:r4p0m-n4"),
    ("rr3_m1", "n4", "appendix:rr3m1-n4"),
    ("rr3p_0", "n4", "appendix:rr3p0-n4"),
]


class HasseEdge(NamedTuple):
    source: str
    target: str
    curve_id: str
    status: str                   # verified | open
    reports: list
    der_omega_increases: bool

    def to_json_dict(self):
        return {"source": self.source, "target": self.target,
                "curve": self.curve_id, "status": self.status,
                "der_omega_increases": self.der_omega_increases,
                "reports": [r.to_json_dict() for r in self.reports]}


def _edge_instances(source_node, curve_id):
    """The curve at each class of its source node."""
    spec = CURVES[curve_id]
    if spec.param_name is None:
        return [spec.instantiate()]
    return [spec.instantiate(c.param) for c in NODE_BY_ID[source_node].class_ids()]


class HasseReport(NamedTuple):
    edges: list
    dot: str
    closure: dict
    all_verified: bool
    strict_der_omega: bool

    def to_json_dict(self):
        return {"edges": [e.to_json_dict() for e in self.edges],
                "all_verified": self.all_verified,
                "strict_der_omega": self.strict_der_omega}


def _paths(node):
    """{reachable node: first shortest chain of curve ids}, breadth first from node."""
    paths, queue = {node: ()}, [node]
    for a in queue:
        for source, target, curve_id in HASSE_EDGES:
            if source == a and target not in paths:
                paths[target] = paths[a] + (curve_id,)
                queue.append(target)
    return paths


def hasse() -> HasseReport:
    """Verify every diagram edge by its curve and emit the DOT graph."""
    strict, = [h for name, _, h in OBSTRUCTION_RULES if name == "dim_der_omega_strictly_increases"]
    edges = []
    for source, target, curve_id in HASSE_EDGES:
        reports = [verify_curve(inst) for inst in _edge_instances(source, curve_id)]
        edges.append(HasseEdge(
            source, target, curve_id,
            "verified" if all(r.verified for r in reports) else "open", reports,
            all(strict(der_omega_dim(s), der_omega_dim(t))
                for s in NODE_BY_ID[source].class_ids()
                for t in NODE_BY_ID[target].class_ids())))
    closure = {n.id: set(_paths(n.id)) - {n.id} for n in HASSE_NODES}
    lines = ["digraph degenerations {", "  rankdir=TB;"]
    for node in HASSE_NODES:
        lines.append(f'  "{node.id}" [label="{ClassId(node.key, node.param).display()}"];')
    for e in edges:
        style = "solid" if e.status == "verified" else "dashed"
        lines.append(f'  "{e.source}" -> "{e.target}" [style={style}];')
    lines.append("}")
    return HasseReport(edges, "\n".join(lines), closure,
                       all(e.status == "verified" for e in edges),
                       all(e.der_omega_increases for e in edges))


_bracket = lru_cache(maxsize=None)(lambda cid: make(cid))  # make by name: a traced make counts


def _excludes(s: ClassId, t: ClassId) -> bool:
    """The battery excludes s -> t, and s and t are not one bracket, which lies in its own
    orbit closure; brackets differ where an invariant does, so are compared only where none does."""
    return bool(obstruction_report(s, t)) and (class_invariants(s) != class_invariants(t)
                                                or _bracket(s).rules != _bracket(t).rules)


def classify_pairs(report: HasseReport, checks):
    """Status of every ordered node pair: reachable, obstructed, or open.

    'obstructed' means the invariant battery excludes the degeneration for
    every sampled member pair (:func:`_excludes`), or one of the worked non-degeneration
    arguments excludes it; remaining pairs are reported open, with no claim
    of completeness either way.  A pair
    covered by one of ``checks`` (the non_degeneration_suite result) is
    obstructed exactly when that check passed.
    """
    worked = {c.pair: c.passed for c in checks}
    out = []
    for a in HASSE_NODES:
        for b in HASSE_NODES:
            if a.id == b.id:
                continue
            if b.id in report.closure[a.id]:
                out.append((a.id, b.id, "reachable"))
                continue
            if (a.id, b.id) in worked:
                out.append((a.id, b.id, "obstructed" if worked[(a.id, b.id)] else "open"))
                continue
            excluded = all(_excludes(s, t) for s in a.class_ids() for t in b.class_ids())
            out.append((a.id, b.id, "obstructed" if excluded else "open"))
    return out


# -- the three worked non-degeneration arguments -----------------------------------


class SuiteCheck(NamedTuple):
    name: str
    passed: bool
    details: dict
    pair: tuple          # (source node, target node) the argument excludes

    def to_json_dict(self):
        return {"name": self.name, "passed": self.passed, "details": self.details}


def _trace_rows(pattern: TrapPattern):
    """Row i is tr ad_(e_i+1) in the pattern's coordinates; their kernel is the unimodular locus."""
    return linalg.transpose([second_trace(pattern.embed(unit))
                             for unit in linalg.identity(len(pattern.groups))])


def _vanishes_on_kernel(rows, form) -> bool:
    """The form vanishes on the kernel of rows: it lies in their row space, so leaves their rank."""
    return linalg.rank_bareiss(rows + [form]) == linalg.rank_bareiss(rows)


def _quadratic_grid(nvars):
    """The points 0, +-e_i and e_i + e_j (i < j): unisolvent for polynomials of
    degree <= 2, so they pin down any quadratic polynomial exactly."""
    e = linalg.identity(nvars)
    return ([[Fraction(0)] * nvars] + [[s * x for x in v] for v in e for s in (1, -1)]
            + [[x + y for x, y in zip(e[i], e[j])]
               for i in range(nvars) for j in range(i + 1, nvars)])


def quadratics_agree(f, g, nvars) -> bool:
    """Exact equality of two quadratic functions via the polarization grid."""
    return all(f(p) == g(p) for p in _quadratic_grid(nvars))


# p/q with q > 0, unreduced: read by borbit_element like a Fraction, made with no gcd
_Ratio = NamedTuple("_Ratio", [("numerator", int), ("denominator", int)])


def _borbit_samples(rng: random.Random, mu: Bracket, n: int):
    """n points (c, C) of the B-orbit of mu at random rational A- and N-parameters."""
    bits = rng.getrandbits
    scaled = mu.integer_multiple()
    for _ in range(n):
        # six rationals p/q drawn as random_symplectic draws them; t = |p/q| + 1/3 = (3|p| + q)/3q
        pq = [(_randint(bits, -3, 7, 3), _randint(bits, 1, 3, 2)) for _ in range(6)]
        ts = [_Ratio(3 * abs(p) + q, 3 * q) for p, q in pq[:2]]
        yield borbit_element(scaled, ts, [_Ratio(*r) for r in pq[2:]])


def non_degeneration_suite(seed: int = 20240801, samples: int = 1000):
    """The three worked non-degeneration arguments as exact machine checks."""
    rng = random.Random(seed)
    checks = []

    # (1) trace-form signature obstruction: d4_2:w2 does not reach d4_2:w1
    coeffs = (0, 1, 0, -1, 0, -1)
    f17 = composition_trace_form(equivariant_product(make(class_id("d4_2:w1")), coeffs))
    f18 = composition_trace_form(equivariant_product(make(class_id("d4_2:w2")), coeffs))
    s17, s18 = f17.signature(), f18.signature()
    ok1 = s17[1] == 0 and s17[0] > 0 and s18[0] == 0 and s18[1] > 0
    checks.append(SuiteCheck("signature_obstruction_d422_to_d421", ok1,
                             {"signature_target_product": list(s17),
                              "signature_source_product": list(s18)},
                             ("d4_2:w2", "d4_2:w1")))

    # (2) algebraic-set residual: r2r2 does not reach n4
    mu7 = make(class_id("n4"))
    lams = (Fraction(0), Fraction(1), Fraction(7, 3))
    residuals = (r2r2_trap_residual(sample, lam) for lam in lams
                 for sample in _borbit_samples(rng, make(class_id("r2r2", lam)), samples))
    count = sum(1 for _ in itertools.takewhile(lambda r: r == 0, residuals))  # to the first miss
    residual_ok = count == len(lams) * samples
    # the unimodular reduction.  Traces alone force b3 = 0 and b4 = -b6 on the
    # trap subspace (the trace rows have rank 2 and span e3* and e4* + e6*, so both
    # 4-dimensional spaces agree); the Jacobi identity then kills b6 (and hence b4): the
    # (e1,e2,e3) -> e4 jacobiator component (full signed-permutation sum) is
    # identically -4 b6^2 on the trace locus.  Certified as exact quadratic
    # identities on the polarization grid, never by floating point.
    trace6 = _trace_rows(R2R2_TRAP)
    locus_ok = (6 - linalg.rank_bareiss(trace6) == 4
                and _vanishes_on_kernel(trace6, [0, 0, 1, 0, 0, 0])
                and _vanishes_on_kernel(trace6, [0, 0, 0, 1, 0, 1]))

    def jac_component(c):
        b1, b2, b5, b6 = c
        return jacobiator(R2R2_TRAP.embed([b1, b2, 0, -b6, b5, b6]))[(1, 2, 3)][3]

    jacobi_kills_b6 = locus_ok and quadratics_agree(jac_component, lambda c: -4 * c[3] ** 2, 4)
    # with b3 = b4 = b6 = 0 the only bracket values are [e1,e2] and [e2,e3],
    # whose dependence determinant equals the residual itself
    def dependence_det(c):
        b1, b2, b5 = c
        xi = R2R2_TRAP.embed([b1, b2, Fraction(0), Fraction(0), b5, Fraction(0)])
        return xi.entry(1, 2, 3) * xi.entry(2, 3, 4) - xi.entry(1, 2, 4) * xi.entry(2, 3, 3)

    def reduced_residual(c):
        b1, b2, b5 = c
        xi = R2R2_TRAP.embed([b1, b2, Fraction(0), Fraction(0), b5, Fraction(0)])
        return r2r2_trap_residual((1, xi), Fraction(1))

    det_is_residual = quadratics_agree(dependence_det, reduced_residual, 3)
    ok2 = (residual_ok and jacobi_kills_b6 and det_is_residual
           and derived_dim(mu7) == 2)
    checks.append(SuiteCheck("trap_residual_r2r2_to_n4", ok2,
                             {"residual_samples": count,
                              "unimodular_locus_is_b3_0_b4_eq_minus_b6": locus_ok,
                              "jacobi_forces_b6_zero": jacobi_kills_b6,
                              "dependence_det_equals_residual": det_is_residual,
                              "derived_dim_n4": derived_dim(mu7)},
                             ("r2r2", "n4")))

    # (3) trapping subspace for r2p plus the derived-dimension bound
    contained = 0
    for _, xi in _borbit_samples(rng, make(class_id("r2p")), samples):
        try:
            R2P_TRAP.coords(xi)  # membership is unchanged by the scale c > 0
        except TrapError:
            break
        contained += 1
    trace4 = _trace_rows(R2P_TRAP)
    forced6 = {i for i, e in enumerate(linalg.identity(4)) if _vanishes_on_kernel(trace4, e)}
    forced6_ok = forced6 == {1, 3}  # the shared-scale and trailing coordinates
    # with those zero, every bracket value lies on one axis, so derived dim <= 1 for all b
    dd_ok = len(R2P_TRAP.axes(set(range(4)) - forced6)) <= 1
    ok3 = contained == samples and forced6_ok and dd_ok and derived_dim(mu7) == 2
    checks.append(SuiteCheck("trap_containment_r2p_to_n4", ok3,
                             {"containment_samples": contained,
                              "unimodular_forced_zero": sorted(forced6),
                              "derived_dim_bound_holds": dd_ok},
                             ("r2p", "n4")))
    return checks


# -- curvature-signature witnesses (the two theorem directions) --------------------


TARGET_SIGNATURE = (1, 3, 0)
EXCEPTIONAL_KEYS = ("a4", "rh3", "rr3_0")

# reference node -> (transform label, transform) whose image of the node's
# bracket has Ricci signature (1,3,0); a class's witness chain is its diagram
# path to the first reference it reaches
_REFERENCES = {
    "n4": ("scaling:t=2", scaling_transform(Fraction(2))),
    "d4_1:w1": ("shear:t=2", shear_transform(Fraction(2))),
    "d4_lambda:lambda=1/2": ("shear:t=12", shear_transform(Fraction(12))),
    "r4_m1_beta:beta=-1": ("identity", linalg.identity(4)),
}


def _witness_route(node: str):
    """(curve chain, reference node) along the diagram from node, or None."""
    paths = _paths(node)
    ref = next((r for r in _REFERENCES if r in paths), None)
    return None if ref is None else (paths[ref], ref)


_RATE = 16  # rate separation between chained curves


def _witness_matrix_symbolic(cid: ClassId, chain, ref_node):
    """ExpPoly matrix L . g_k(t) . ... . g_1(RATE^{k-1} t), whose limit is _reference(ref_node).

    Earlier curves in a chain run on faster clocks so the errors they leave
    behind stay dominated by everything a later curve can amplify; the caller
    certifies the whole composite by its exact symbolic limit.
    """
    mats = []
    param = cid.param
    for curve_id in chain:
        spec = CURVES[curve_id]
        inst = spec.instantiate(param if spec.param_name else None)
        mats.append(inst.g)
        param = inst.target.param
    total = None
    for depth, g in enumerate(mats):
        g = rescale_time(g, _RATE ** (len(mats) - 1 - depth))
        total = g if total is None else linalg.mat_mul(g, total)
    transform = _REFERENCES[ref_node][1]
    ref = [[ExpPoly.coerce(x) for x in row] for row in transform]
    return ref if total is None else linalg.mat_mul(ref, total)


@lru_cache(maxsize=None)
def _reference(ref_node: str):
    """(bracket, Ricci signature) of a reference node's image under its transform."""
    node, transform = NODE_BY_ID[ref_node], _REFERENCES[ref_node][1]
    bracket = act(transform, make(ClassId(node.key, node.param)), symplectic_inverse(transform))
    return bracket, ricci_form(bracket).signature()


class WitnessRecord(NamedTuple):
    class_id: str
    status: str            # witness | exceptional | exhausted | failed
    signature: Optional[tuple] = None
    k: Optional[int] = None   # the witness sits at exp(t) := 2**k
    provenance: tuple = ()
    char_poly: tuple = ()  # det(x*I - A) for A = Ric / max|Ric_ij|, leading 1
    min_eig_lower_bound: Optional[Fraction] = None   # <= every |eigenvalue of A|
    samples: Optional[int] = None
    all_det_zero: Optional[bool] = None
    reason: Optional[str] = None   # the internal check a failed record broke

    def to_json_dict(self):
        d = {"class": self.class_id, "status": self.status}
        if self.status == "witness":
            d.update({"signature": list(self.signature), "k": self.k,
                      "provenance": list(self.provenance),
                      "char_poly": [format_rational(a) for a in self.char_poly],
                      "min_eig_lower_bound": format_rational(self.min_eig_lower_bound)})
        if self.status == "exceptional":
            d.update({"samples": self.samples, "all_det_zero": self.all_det_zero})
        if self.status == "failed":
            d["reason"] = self.reason
        return d


K_GRID = (4, 8, 12, 16, 20, 24, 28, 32, 36)  # k*log(2) stays below 25


def witness_for_class(cid: ClassId):
    """Exact symplectic witness with curvature signature (1,3,0), exhaustion, or failure."""
    # the pinned node of cid if there is one, else its family's node
    node = str(cid) if str(cid) in NODE_BY_ID else str(ClassId(cid.key))
    route = _witness_route(node)
    if route is None:
        return WitnessRecord(str(cid), "failed",
                             reason=f"no diagram path from {node} to a reference bracket")
    chain, ref_node = route
    reference, signature = _reference(ref_node)
    if signature != TARGET_SIGNATURE:
        return WitnessRecord(str(cid), "failed", reason="reference lacks the target signature")
    sym = _witness_matrix_symbolic(cid, chain, ref_node)
    # the chained matrix must itself converge after the action: certified by
    # checking the symbolic limit against the reference bracket
    mu = make(cid)
    moved_sym = act(sym, mu, symplectic_inverse(sym))
    limit = moved_sym.limit()
    if limit is None:
        return WitnessRecord(str(cid), "failed", reason="symbolic chain diverges at "
                             f"{moved_sym.divergent_entries()}")
    if limit != reference:
        return WitnessRecord(str(cid), "failed", reason="symbolic chain misses its reference")
    # in ints, as the exceptional samples below: 4*Ric(m*d^3*(s.mu)) is a positive
    # multiple of Ric(s.mu), with the same signature and normalised certificate
    _, imu = mu.integer_multiple()
    for k in K_GRID:
        s = [[ExpPoly.coerce(x).eval_base(k) for x in row] for row in sym]
        if not is_symplectic(s):
            return WitnessRecord(str(cid), "failed", reason=f"not symplectic at exp(t) = 2**{k}")
        _, big_s = linalg.clear_denominators(s)
        poly, sig, beta = linalg.eigen_certificate(
            _ricci_matrix(act(big_s, imu, symplectic_inverse(big_s))))
        if sig == TARGET_SIGNATURE:
            prov = chain + (_REFERENCES[ref_node][0], f"exp(t) := 2**{k}")
            return WitnessRecord(str(cid), "witness", TARGET_SIGNATURE, k, prov,
                                 tuple(poly), beta)
    return WitnessRecord(str(cid), "exhausted")


def theorem_b_search(seed: int = 20240801, samples: int = 500):
    """Witnesses for every class instance; exact degeneracy for the exceptions."""
    rng = random.Random(seed)
    records = []
    for cid in DIAGRAM_CLASSES:
        if cid.key not in EXCEPTIONAL_KEYS:
            records.append(witness_for_class(cid))
            continue
        # The samples run in ints.  act is linear in mu, g and g^{-1}, and
        # Ric is quadratic: with m*mu, G = d*g and -J G^T J = d*g^{-1}, the
        # moved bracket is m*d^3*(g.mu), and _moved_ricci_matrix takes its int
        # (and symmetric) 4*m^2*d^6*Ric(g.mu) from G alone: each exceptional
        # bracket has at most one stored pair.  det = 0 is unchanged.
        _, mu = make(cid).integer_multiple()
        all_zero = True
        for _ in range(samples):
            _, g = random_symplectic(rng)
            if linalg.det(_moved_ricci_matrix(g, mu)) != 0:
                all_zero = False
                break
        records.append(WitnessRecord(str(cid), "exceptional",
                                     samples=samples, all_det_zero=all_zero))
    return records
