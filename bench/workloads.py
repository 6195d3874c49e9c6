"""Seeded inputs for the three workloads.

Every input is drawn from ``random.Random(seed)``: the same seed gives the same
argv lists and the same generated bracket files.  The catalog ids and the
printed parameter domains are written out here rather than read from spdeg,
so the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import verdicts

WORKLOADS = ("theorem-b", "theorem-a", "sweep")


@dataclass
class Item:
    """One invocation: the spdeg argv, the verdict check and what it expects."""

    argv: list
    check: str
    expect: dict = field(default_factory=dict)
    known_failure: str = ""       # non-empty: fails today, for this recorded reason


# class key -> (parameter name, domain predicate, closed endpoint or None),
# as printed by `spdeg catalog`
FAMILIES = {
    "r2r2": ("lambda", lambda p: p >= 0, F(0)),
    "r4_m1_beta": ("beta", lambda p: -1 <= p < 1, F(-1)),
    "r4_alpha": ("alpha", lambda p: -1 < p < 0, None),
    "r4p_0:plus": ("delta", lambda p: p > 0, None),
    "r4p_0:minus": ("delta", lambda p: p > 0, None),
    "d4_lambda": ("lambda", lambda p: p >= F(1, 2) and p not in (1, 2), F(1, 2)),
    "d4p:plus": ("delta", lambda p: p > 0, None),
    "d4p:minus": ("delta", lambda p: p > 0, None),
}

CLASS_KEYS = (
    "a4", "rh3", "rr3_0", "rr3_m1", "rr3p_0", "r2r2", "r2p", "n4",
    "r4_0:plus", "r4_0:minus", "r4_m1", "r4_m1_beta", "r4_alpha",
    "r4p_0:plus", "r4p_0:minus", "d4_1:w1", "d4_1:w2", "d4_2:w1", "d4_2:w2",
    "d4_2:w3", "d4_lambda", "d4p:plus", "d4p:minus", "h4:plus", "h4:minus",
)

# curve id -> source family of its parameter (None: the curve takes none)
CURVES = {
    "appendix:d422-r4a": None, "appendix:d423-r4a": None,
    "appendix:d423-d421": None, "appendix:r2r2-d411": "r2r2",
    "appendix:r2r2-rr30": "r2r2", "appendix:r2p-d411": None,
    "appendix:d412-d411": None, "appendix:d412-n4": None,
    "appendix:d411-rh3": None, "appendix:rr30-rh3": None,
    "appendix:h4p-d4half": None, "appendix:h4p-n4": None,
    "appendix:h4m-d4half": None, "appendix:h4m-n4": None,
    "appendix:r40p-rr30": None, "appendix:r40p-n4": None,
    "appendix:r40m-rr30": None, "appendix:r40m-n4": None,
    "appendix:d421-n4": None, "appendix:r4m1-r4m1m1": None,
    "appendix:r4m1-n4": None, "appendix:d4half-rh3": None,
    "appendix:r4m1m1-rh3": None, "appendix:d4lambda-n4": "d4_lambda",
    "appendix:d4pp-n4": "d4p:plus", "appendix:d4pm-n4": "d4p:minus",
    "appendix:r4m1beta-n4": "r4_m1_beta", "appendix:r4alpha-n4": "r4_alpha",
    "appendix:r4p0p-n4": "r4p_0:plus", "appendix:r4p0m-n4": "r4p_0:minus",
    "appendix:rr3m1-n4": None, "appendix:rr3p0-n4": None,
    "appendix:n4-rh3": None, "appendix:rh3-a4": None, "ex2:xi_u": None,
}

# Domain endpoints whose curve matrix divides by zero.  The expected outcome
# is a refusal (exit 2, no traceback); today both crash with a
# ZeroDivisionError traceback and exit 1.  They stay in every sweep and count
# as failed until the CLI refuses them.
KNOWN_FAILURES = {
    ("appendix:d4lambda-n4", F(1, 2)):
        "ZeroDivisionError traceback (exit 1): the curve divides by 2*lambda-1",
    ("appendix:r4m1beta-n4", F(-1)):
        "ZeroDivisionError traceback (exit 1): the curve divides by beta+1",
}

# structure constants of four catalog classes, the bases of the generated
# bracket files: {(i, j): {k: c}} with [e_i, e_j] = sum_k c e_k
BASE_BRACKETS = {
    "n4": {(1, 2): {4: F(1)}, (1, 4): {3: F(1)}},
    "d4_2:w2": {(1, 2): {2: F(-1)}, (1, 3): {3: F(2)}, (1, 4): {4: F(1)},
                (2, 3): {4: F(1)}},
    "r2p": {(1, 3): {3: F(1)}, (1, 4): {4: F(1)}, (2, 3): {4: F(-1)},
            (2, 4): {3: F(1)}},
    "h4:plus": {(1, 2): {2: F(1, 2)}, (1, 3): {3: F(1)},
                (1, 4): {2: F(1), 4: F(1, 2)}, (2, 4): {3: F(1)}},
}

CATALOG_PICKS = 4
FILE_LEVELS = (1, 2, 3, 4)      # rational height of the generated conjugates


def fmt(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def class_text(key: str, param=None) -> str:
    if param is None:
        return key
    name = FAMILIES[key][0]
    head, *tags = key.split(":")
    return ":".join([head, f"{name}={fmt(param)}", *tags])


def draw_interior(rng: random.Random, family: str) -> F:
    """A small-height rational from the family's domain, endpoint excluded."""
    _, inside, endpoint = FAMILIES[family]
    while True:
        p = F(rng.randint(-12, 12), rng.randint(1, 6))
        if inside(p) and p != endpoint:
            return p


def _random_symplectic(rng: random.Random, factors: int, height: int):
    """Product of symplectic transvections v -> v + c w(v, u) u, exactly."""
    g = verdicts.identity4()
    for _ in range(factors):
        u = [F(0)] * 4
        while not any(u):
            u = [F(rng.randint(-height, height), rng.randint(1, height)) for _ in range(4)]
        c = F(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
        ju = verdicts.mat_vec(verdicts.OMEGA, u)
        t = [[F(int(i == j)) + c * u[i] * ju[j] for j in range(4)] for i in range(4)]
        g = verdicts.mat_mul(t, g)
    if not verdicts.is_symplectic(g):
        raise AssertionError("generated transvection product is not symplectic")
    return g


def _bracket_json(rules) -> str:
    bracket = {f"{i},{j}": {str(k): fmt(c) for k, c in sorted(vec.items())}
               for (i, j), vec in sorted(rules.items())}
    return json.dumps({"dim": 4, "scalars": "rational", "bracket": bracket,
                       "omega": "canonical"}, sort_keys=True)


def _file_items(rng: random.Random, inputs: Path, root: Path):
    """Conjugates of catalog classes with growing height, plus perturbed copies."""
    items = []
    for level in FILE_LEVELS:
        key = rng.choice(sorted(BASE_BRACKETS))
        g = _random_symplectic(rng, factors=2 * level, height=level + 1)
        conj = verdicts.conjugate(g, BASE_BRACKETS[key])
        pert = {pair: dict(vec) for pair, vec in conj.items()}
        pair = rng.choice(sorted(verdicts.PAIRS))
        k = rng.randint(1, 4)
        delta = F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
        slot = pert.setdefault(pair, {})
        slot[k] = slot.get(k, F(0)) + delta
        if slot[k] == 0:
            del slot[k]
        for tag, rules in (("conj", conj), ("pert", pert)):
            path = inputs / f"{key.replace(':', '_')}-h{level}-{tag}.json"
            path.write_text(_bracket_json(rules) + "\n", encoding="utf-8")
            jacobi, closed = verdicts.jacobi_holds(rules), verdicts.closed_holds(rules)
            items.append(Item(["--json", "validate", "--file", str(path.relative_to(root))],
                              "validate-file", {"jacobi": jacobi, "closed": closed}))
    return items


def _sweep(rng: random.Random, inputs: Path, root: Path):
    instances = []
    for key in CLASS_KEYS:
        if key in FAMILIES:
            instances.append(class_text(key, draw_interior(rng, key)))
            if FAMILIES[key][2] is not None:
                instances.append(class_text(key, FAMILIES[key][2]))
        else:
            instances.append(key)
    items = []
    for cls in instances:
        items.append(Item(["--json", "validate", "--class", cls], "validate-class", {"class": cls}))
        items.append(Item(["--json", "invariants", "--class", cls], "invariants", {"class": cls}))
        items.append(Item(["--json", "ricci", "--class", cls], "ricci", {"class": cls}))
    for curve, family in CURVES.items():
        params = []
        if family is not None:
            params.append(draw_interior(rng, family))
            if FAMILIES[family][2] is not None:
                params.append(FAMILIES[family][2])
        for p in params or [None]:
            text = curve if p is None else f"{curve}:{FAMILIES[family][0]}={fmt(p)}"
            known = KNOWN_FAILURES.get((curve, p), "")
            items.append(Item(["--json", "degenerate", "--curve", text],
                              "degenerate-refused" if known else "degenerate",
                              {"curve": text}, known))
    for cls in rng.sample(instances, CATALOG_PICKS):
        items.append(Item(["--json", "catalog", "--class", cls], "catalog-class", {"class": cls}))
    items.extend(_file_items(rng, inputs, root))
    items.append(Item(["--json", "remark-check"], "remark-check"))
    rng.shuffle(items)
    return items


def build(workload: str, seed: int, inputs: Path, root: Path):
    """The ordered invocations of one workload pass; files go under ``inputs``."""
    if workload == "theorem-b":
        return [Item(["--json", "--seed", str(seed), "theorem-b"], "theorem-b")]
    if workload == "theorem-a":
        return [Item(["--json", "--seed", str(seed), "theorem-a", "--pairs"], "theorem-a")]
    if workload == "sweep":
        return _sweep(random.Random(seed), inputs, root)
    raise ValueError(f"unknown workload {workload!r}")
