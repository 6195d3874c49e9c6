"""Verdict checks for every invocation, independent of spdeg where possible.

Each check gets the workload item, the exit code and the captured output and
returns ``None`` when the verdict holds, or the reason it does not.  A Python
traceback on stderr fails any invocation.  The bracket checks (Jacobi,
closedness of the canonical form, symplectic conjugation) are a few lines of
``Fraction`` arithmetic written here, not spdeg's.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction as F

import numpy as np

PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
# canonical form on R^4: w(e1, e3) = w(e2, e4) = 1
OMEGA = [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)],
         [F(-1), F(0), F(0), F(0)], [F(0), F(-1), F(0), F(0)]]

THEOREM_B_SAMPLES = 500
THEOREM_A_EDGES = 35
THEOREM_A_RESIDUAL_SAMPLES = 3000
THEOREM_A_CONTAINMENT_SAMPLES = 1000
EXCEPTIONAL = {"a4", "rh3", "rr3_0"}
OBSTRUCTED_PAIRS = {("d4_2:w2", "d4_2:w1"), ("r2r2", "n4"), ("r2p", "n4")}


# -- exact 4x4 helpers -----------------------------------------------------------


def identity4():
    return [[F(int(i == j)) for j in range(4)] for i in range(4)]


def mat_mul(a, b):
    return [[sum((a[i][l] * b[l][j] for l in range(4)), F(0)) for j in range(4)]
            for i in range(4)]


def mat_vec(a, v):
    return [sum((a[i][j] * v[j] for j in range(4)), F(0)) for i in range(4)]


def transpose(a):
    return [list(r) for r in zip(*a)]


def is_symplectic(g):
    return mat_mul(transpose(g), mat_mul(OMEGA, g)) == OMEGA


def _coef(rules, i, j, k):
    """c_ij^k of an antisymmetric bracket stored for i < j."""
    if i == j:
        return F(0)
    if i < j:
        return rules.get((i, j), {}).get(k, F(0))
    return -rules.get((j, i), {}).get(k, F(0))


def conjugate(g, rules):
    """(g . mu)(x, y) = g mu(g^-1 x, g^-1 y) with g^-1 = -J g^T J."""
    ginv = [[-x for x in row] for row in mat_mul(OMEGA, mat_mul(transpose(g), OMEGA))]
    out = {}
    for i, j in PAIRS:
        w = [F(0)] * 4
        for a, b in itertools.product(range(1, 5), repeat=2):
            s = ginv[a - 1][i - 1] * ginv[b - 1][j - 1]
            if s:
                for k in range(1, 5):
                    w[k - 1] += s * _coef(rules, a, b, k)
        gw = mat_vec(g, w)
        vec = {k + 1: x for k, x in enumerate(gw) if x}
        if vec:
            out[(i, j)] = vec
    return out


def jacobi_holds(rules) -> bool:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] = 0 on every basis triple."""
    for a, b, c in itertools.combinations(range(1, 5), 3):
        for m in range(1, 5):
            total = F(0)
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for l in range(1, 5):
                    total += _coef(rules, x, y, l) * _coef(rules, l, z, m)
            if total:
                return False
    return True


def closed_holds(rules) -> bool:
    """w([x,y],z) + w([y,z],x) + w([z,x],y) = 0 on every basis triple."""
    for a, b, c in itertools.combinations(range(1, 5), 3):
        total = F(0)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l in range(1, 5):
                total += _coef(rules, x, y, l) * OMEGA[l - 1][z - 1]
        if total:
            return False
    return True


def parse_rat(s: str) -> F:
    p, _, q = s.partition("/")
    return F(int(p), int(q or 1))


def rules_from_json(d: dict):
    return {tuple(int(x) for x in key.split(",")): {int(k): parse_rat(c) for k, c in vec.items()}
            for key, vec in d["bracket"].items()}


# -- per-verb checks ---------------------------------------------------------------


def _validate_class(item, code, out):
    if code != 0 or not (out["jacobi"] and out["closed"]):
        return f"validate reported jacobi={out['jacobi']} closed={out['closed']}"
    if out["class"] != item.expect["class"]:
        return f"validated {out['class']}, asked for {item.expect['class']}"
    return None


def _invariants(item, code, out):
    if code != 0 or not out["matches_expected"]:
        return "derivation dimensions differ from the table"
    if (out["dim_der_omega"], out["dim_der"]) != (out["expected_dim_der_omega"],
                                                  out["expected_dim_der"]):
        return "matches_expected contradicts the reported dimensions"
    if (out["orbit_dim_symplectic"] != 10 - out["dim_der_omega"]
            or out["orbit_dim_general_linear"] != 16 - out["dim_der"]):
        return "orbit dimensions are not dim G minus the stabilizer dimension"
    return None


def _ricci(item, code, out):
    if code != 0:
        return f"exit {code}"
    m = [[parse_rat(x) for x in row] for row in out["ricci_matrix"]]
    if m != transpose(m):
        return "Ricci matrix is not symmetric"
    trace = sum((m[i][i] for i in range(4)), F(0))
    if trace != parse_rat(out["scalar_curvature"]):
        return "trace differs from scalar_curvature"
    w = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m]))
    tol = 1e-9 * max(1.0, float(np.abs(w).max()))
    sig = [int((w > tol).sum()), int((w < -tol).sum()), int((abs(w) <= tol).sum())]
    if sig != out["signature"]:
        return f"signature {out['signature']} but the eigenvalues give {sig}"
    scalar = all(m[i][j] == (m[0][0] if i == j else 0) for i in range(4) for j in range(4))
    if (out["einstein"] is not None) != scalar or (
            scalar and parse_rat(out["einstein"]) != m[0][0]):
        return "einstein field contradicts the matrix"
    return None


def _degenerate(item, code, out):
    if code != 0 or not out["verified"] or out["status"] != "verified":
        return f"curve status {out['status']}, verified={out['verified']}"
    if not out["symplectic_exact"] or out["curve"] != item.expect["curve"]:
        return "curve report is not exactly symplectic or names another curve"
    return None


def _catalog_class(item, code, out):
    if code != 0 or out["class"] != item.expect["class"]:
        return "catalog did not print the requested class"
    rules = rules_from_json(out["bracket"])
    if not (jacobi_holds(rules) and closed_holds(rules)):
        return "printed bracket fails the Jacobi or closedness check"
    return None


def _validate_file(item, code, out):
    want = item.expect
    if (out["jacobi"], out["closed"]) != (want["jacobi"], want["closed"]):
        return f"jacobi/closed {out['jacobi']}/{out['closed']}, expected {want}"
    expected_code = 0 if want["jacobi"] and want["closed"] else 1
    return None if code == expected_code else f"exit {code}, expected {expected_code}"


def _remark_check(item, code, out):
    if code != 0 or out["signature_at_zero"] != [0, 4, 0] or out["certified_roots"] < 1:
        return "no certified degenerate-Ricci root"
    if not any(r["signature_below"] == [0, 4, 0] and r["signature_above"] == [1, 3, 0]
               and r["low"] <= r["t_hat"] <= r["high"] for r in out["roots"]):
        return "no root flanked by signatures (0,4,0) -> (1,3,0)"
    return None


def _theorem_b(item, code, out):
    if code != 0:
        return f"exit {code}"
    records = out["theorem_b"]
    exceptional = {r["class"] for r in records if r["status"] == "exceptional"}
    if exceptional != EXCEPTIONAL:
        return f"exceptional classes {sorted(exceptional)}"
    for r in records:
        if r["status"] == "exceptional":
            if r["samples"] != THEOREM_B_SAMPLES or not r["all_det_zero"]:
                return f"{r['class']}: {r['samples']} samples, all_det_zero={r['all_det_zero']}"
        elif r["status"] != "witness" or r["signature"] != [1, 3, 0]:
            return f"{r['class']}: status {r['status']}"
    if sum(r["status"] == "witness" for r in records) < 40:
        return "fewer than 40 witnesses"
    return None


def _theorem_a(item, code, out):
    if code != 0:
        return f"exit {code}"
    edges = out["edges"]
    if len(edges) != THEOREM_A_EDGES or not all(
            e["status"] == "verified" and e["der_omega_increases"] for e in edges):
        return f"{sum(e['status'] == 'verified' for e in edges)} verified edges"
    checks = {c["name"]: c for c in out["non_degenerations"]}
    if len(checks) != 3 or not all(c["passed"] for c in checks.values()):
        return "a non-degeneration certificate failed"
    if checks["trap_residual_r2r2_to_n4"]["details"]["residual_samples"] != \
            THEOREM_A_RESIDUAL_SAMPLES:
        return "residual_samples is not 3000"
    if checks["trap_containment_r2p_to_n4"]["details"]["containment_samples"] != \
            THEOREM_A_CONTAINMENT_SAMPLES:
        return "containment_samples is not 1000"
    status = {(p["source"], p["target"]): p["status"] for p in out["pair_status"]}
    if any(status.get(pair) != "obstructed" for pair in OBSTRUCTED_PAIRS):
        return "a worked non-degeneration is not reported obstructed"
    if not set(status.values()) <= {"reachable", "obstructed", "open"}:
        return "unknown pair status"
    return None


CHECKS = {
    "validate-class": _validate_class, "invariants": _invariants, "ricci": _ricci,
    "degenerate": _degenerate,
    "catalog-class": _catalog_class, "validate-file": _validate_file,
    "remark-check": _remark_check, "theorem-b": _theorem_b, "theorem-a": _theorem_a,
}


def check(item, code: int, stdout: bytes, stderr: bytes):
    """None when the invocation's verdict holds, else the reason it does not."""
    if b"Traceback (most recent call last)" in stderr:
        return "Python traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
    if item.check == "degenerate-refused":
        return None if code == 2 else f"exit {code}, expected a refusal (exit 2)"
    try:
        out = json.loads(stdout)
        return CHECKS[item.check](item, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"exit {code}, unreadable output ({type(e).__name__}: {e})"
