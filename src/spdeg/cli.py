"""Command-line front end.

Verbs: catalog, validate, invariants, ricci, degenerate, hasse, theorem-a,
theorem-b, remark-check.  Every verb is a thin wrapper over library calls;
--json output is deterministic (sorted keys, sorted ids, fixed seed).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog, curvature, degeneration, invariants, tensor
from .scalars import clip, format_rational

DEFAULT_SEED = 20240801


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _write_dot(path: str, dot: str) -> int:
    """Write the DOT graph to path: 0, or 3 with the reason on stderr."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    except OSError as e:
        return _fail(3, f"cannot write {path}: {e}")
    return 0


def cmd_catalog(args) -> int:
    if args.cls:
        cid = catalog.parse_class(args.cls)
        mu = catalog.make(cid)
        payload = {"class": str(cid), "display": cid.display(),
                   "bracket": mu.to_json_dict()}
        lines = [f"{cid}  {cid.display()}"]
        for i, j, k, c in mu.entries():
            lines.append(f"  [e{i},e{j}] = {format_rational(c)} e{k}")
        _emit(args, payload, "\n".join(lines))
        return 0
    rows = []
    lines = []
    for spec in catalog.CLASS_DEFS:
        entry = {"key": spec.key, "display": spec.display}
        text = f"{spec.key:16s} {spec.display}"
        if spec.param_name:
            entry["parameter"] = f"{spec.param_name}: {spec.param_doc}"
            text += f"   [{spec.param_name}: {spec.param_doc}]"
        rows.append(entry)
        lines.append(text)
    curve_ids = sorted(c.id for c in catalog.curves())
    _emit(args, {"classes": rows, "curves": curve_ids},
          "\n".join(lines) + "\n\ncurves:\n  " + "\n  ".join(curve_ids))
    return 0


def cmd_validate(args) -> int:
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                mu = tensor.Bracket.from_json(fh.read())
        except OSError as e:
            return _fail(3, f"cannot read {args.file}: {e}")
        label = args.file
    else:
        cid = catalog.parse_class(args.cls)
        mu = catalog.make(cid)
        label = str(cid)
    lie = tensor.is_lie(mu)
    closed = tensor.is_closed(mu)
    payload = {"class": label, "jacobi": lie, "closed": closed}
    _emit(args, payload,
          f"{label}: Jacobi: {'OK' if lie else 'FAIL'}, dw=0: {'OK' if closed else 'FAIL'}")
    return 0 if (lie and closed) else 1


def cmd_invariants(args) -> int:
    cid = catalog.parse_class(args.cls)
    summary = invariants.invariants_summary(cid)
    human = (f"{summary['class']}  {summary['display']}\n"
             f"  dim Der_w = {summary['dim_der_omega']} (expected {summary['expected_dim_der_omega']})\n"
             f"  dim Der   = {summary['dim_der']} (expected {summary['expected_dim_der']})\n"
             f"  orbit dim (symplectic)     = {summary['orbit_dim_symplectic']}\n"
             f"  orbit dim (general linear) = {summary['orbit_dim_general_linear']}\n"
             f"  unimodular = {summary['unimodular']}, derived dim = {summary['derived_dim']}, "
             f"nilpotent = {summary['nilpotent']}")
    _emit(args, summary, human)
    return 0 if summary["matches_expected"] else 1


def _printed(cid, entry: str, q) -> str:
    """format_rational(q), or a ValueError naming the class and the entry past int()'s limit."""
    try:
        return format_rational(q)
    except ValueError:
        raise ValueError(f"class {clip(str(cid))}: {entry} has too many digits to print") from None


def cmd_ricci(args) -> int:
    cid = catalog.parse_class(args.cls)
    form = curvature.ricci_form(catalog.make(cid))
    c = curvature.einstein_constant(form)
    sig = form.signature()
    matrix = [[_printed(cid, f"Ricci entry ({i},{j})", x) for j, x in enumerate(row, 1)]
              for i, row in enumerate(form.m, 1)]
    scal = _printed(cid, "the scalar curvature", form.trace())
    einstein = _printed(cid, "the Einstein constant", c) if c is not None else None
    payload = {"class": str(cid),
               "ricci_matrix": matrix,
               "signature": list(sig),
               "scalar_curvature": scal,
               "einstein": einstein}
    lines = [f"{cid}  Ricci signature {sig}, scalar curvature {scal}"]
    for row in matrix:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append(f"  Einstein: {einstein or 'no'}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_degenerate(args) -> int:
    inst = catalog.parse_curve(args.curve)
    report = degeneration.verify_curve(inst, dist_tol=args.tol)
    payload = report.to_json_dict()
    lines = [f"{report.label}: {report.status}"
             + ("" if report.symplectic_exact else " (not symplectic)")]
    for k, d in report.distances:
        lines.append(f"  d(2**{k}) = {format_rational(d)}")
    lines.append(f"  verified: {report.verified}")
    _emit(args, payload, "\n".join(lines))
    return 0 if report.verified else 1


def cmd_hasse(args) -> int:
    report = degeneration.hasse()
    if args.dot and _write_dot(args.dot, report.dot):
        return 3
    payload = report.to_json_dict()
    lines = []
    for e in sorted(report.edges, key=lambda e: (e.source, e.target)):
        lines.append(f"{e.source:28s} -> {e.target:24s} [{e.status}]"
                     f" der_w strict: {e.der_omega_increases}")
    lines.append(f"all edges verified: {report.all_verified}")
    _emit(args, payload, "\n".join(lines))
    return 0 if (report.all_verified and report.strict_der_omega) else 1


def cmd_theorem_a(args) -> int:
    report = degeneration.hasse()
    suite = degeneration.non_degeneration_suite(seed=args.seed, samples=args.samples)
    ok = (report.all_verified and report.strict_der_omega
          and all(c.passed for c in suite))
    payload = {"edges": [e.to_json_dict() for e in report.edges],
               "non_degenerations": [c.to_json_dict() for c in suite],
               "theorem_b": []}
    if args.pairs:
        payload["pair_status"] = [
            {"source": a, "target": b, "status": s}
            for a, b, s in degeneration.classify_pairs(report, suite)]
    if args.dot and _write_dot(args.dot, report.dot):
        return 3
    lines = [f"edges verified: {sum(e.status == 'verified' for e in report.edges)}"
             f"/{len(report.edges)}",
             f"der_w strictly increases along all edges: {report.strict_der_omega}"]
    for c in suite:
        lines.append(f"non-degeneration {c.name}: {'certified' if c.passed else 'FAILED'}")
    lines.append(f"theorem-a: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def cmd_theorem_b(args) -> int:
    records = degeneration.theorem_b_search(seed=args.seed, samples=args.samples)
    ok = all(r.status == "witness" or (r.status == "exceptional" and r.all_det_zero
                                         and r.identity_holds) for r in records)
    payload = {"edges": [], "non_degenerations": [],
               "theorem_b": [r.to_json_dict() for r in
                             sorted(records, key=lambda r: r.class_id)]}
    lines = []
    for r in sorted(records, key=lambda r: r.class_id):
        if r.status == "witness":
            lines.append(f"{r.class_id:28s} witness at exp(t)=2**{r.k}: signature {r.signature}")
        elif r.status == "exceptional":
            proof = ("det Ric = 0 on the whole orbit: 4*Ric = 2 B C B^T, B 4x3, has rank <= 3 by"
                     if r.identity_holds else "FAILED:") + f" {degeneration.RANK_ONE_IDENTITY} on "
            lines.append(f"{r.class_id:28s} {proof}{r.identity_terms} terms; "
                         f"{r.samples} exact samples: {'OK' if r.all_det_zero else 'FAIL'}")
        elif r.status == "failed":
            lines.append(f"{r.class_id:28s} FAILED: {r.reason}")
        else:
            lines.append(f"{r.class_id:28s} SEARCH EXHAUSTED")
    lines.append(f"theorem-b: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def cmd_remark_check(args) -> int:
    rho0 = catalog.rho_family(Fraction(0))
    sig0 = curvature.ricci_form(rho0).signature()
    try:
        scan = curvature.find_degenerate_ricci(catalog.rho_family, 0, 12)
    except ArithmeticError as e:
        return _fail(1, f"remark-check: FAIL: {e}")
    v0, v12 = scan.variations
    count = v0 - v12
    certified = [r for r in scan.roots
                 if r.signature_below == (0, 4, 0) and r.signature_above == (1, 3, 0)]
    ok = sig0 == (0, 4, 0) and count == 1 and len(certified) == 1
    payload = {"signature_at_zero": list(sig0),
               "det_poly": [format_rational(c) for c in scan.det_poly],
               "sturm_variations": list(scan.variations),
               "roots": [r.to_json_dict() for r in scan.roots],
               "certified_roots": len(certified)}
    lines = [f"signature at t=0: {sig0}",
             f"Sturm variations {v0} at 0, {v12} at 12: {count} root(s) of det Ric on (0, 12]"]
    for r in scan.roots:
        lines.append(f"  root t^ = {float(r.t_hat):.12f} in [{float(r.low):.12f}, {float(r.high):.12f}]"
                     f" |det| = {abs(r.det_at_t_hat):.2e}"
                     f" signatures {r.signature_below} -> {r.signature_above}")
    lines.append(f"remark-check: {'PASS' if ok else 'FAIL'}"
                 + ("" if count == 1 else f": {count} roots of det Ric, expected 1"))
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def positive_int(text: str) -> int:
    """--samples value: an integer of at least 1, so no check passes vacuously."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def positive_float(text: str) -> float:
    """--tol value: a finite float above 0."""
    if not 0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spdeg",
        description="Exact verification of symplectic orbit closures in dimension four "
                    "and their curvature-signature applications.")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized exact sampling")
    sub = p.add_subparsers(dest="verb")

    sp = sub.add_parser("catalog", help="list classes and curves, or show one class")
    sp.add_argument("--class", dest="cls", help="class id, e.g. d4_2:w2 or r2r2:lambda=7/3")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("validate", help="check Jacobi and closedness")
    sp.add_argument("--class", dest="cls")
    sp.add_argument("--file", help="bracket JSON file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("invariants", help="derivation dimensions and structure flags")
    sp.add_argument("--class", dest="cls", required=True)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("ricci", help="Ricci tensor, signature, Einstein check")
    sp.add_argument("--class", dest="cls", required=True)
    sp.set_defaults(func=cmd_ricci)

    sp = sub.add_parser("degenerate", help="verify one degeneration curve")
    sp.add_argument("--curve", required=True,
                    help="curve id, e.g. appendix:rh3-a4 or appendix:d4lambda-n4:lambda=7/3")
    sp.add_argument("--tol", type=positive_float, default=1e-8,
                    help="tolerance of the final exact grid distance (default 1e-8)")
    sp.set_defaults(func=cmd_degenerate)

    sp = sub.add_parser("hasse", help="verify the degeneration diagram and emit DOT")
    sp.add_argument("--dot", help="write DOT graph to this path")
    sp.set_defaults(func=cmd_hasse)

    sp = sub.add_parser("theorem-a", help="full diagram verification plus the "
                                          "non-degeneration certificates")
    sp.add_argument("--dot", help="write DOT graph to this path")
    sp.add_argument("--samples", type=positive_int, default=1000,
                    help="random exact samples per orbit check")
    sp.add_argument("--pairs", action="store_true",
                    help="include the status of every ordered class pair")
    sp.set_defaults(func=cmd_theorem_a)

    sp = sub.add_parser("theorem-b", help="curvature-signature witnesses and "
                                          "exceptional-class degeneracy")
    sp.add_argument("--samples", type=positive_int, default=500,
                    help="random exact samples per exceptional class")
    sp.set_defaults(func=cmd_theorem_b)

    sp = sub.add_parser("remark-check", help="exact degenerate-Ricci root count for "
                                             "the shear family")
    sp.set_defaults(func=cmd_remark_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if not getattr(args, "verb", None):
        parser.print_help()
        return 2
    try:
        if args.verb in ("validate",) and not (args.cls or args.file):
            return _fail(2, "validate needs --class or --file")
        return args.func(args)
    except KeyError as e:  # str() of a KeyError is the repr of its message
        return _fail(2, f"{e.args[0]}")
    except ValueError as e:
        return _fail(2, f"{e}")
    except OSError as e:
        return _fail(3, f"{e}")


if __name__ == "__main__":
    sys.exit(main())
