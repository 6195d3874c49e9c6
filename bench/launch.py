"""Cold-process launcher for the traced and the counting passes.

    python3 bench/launch.py --mode trace --out FILE -- <spdeg argv>
    python3 bench/launch.py --mode count --out FILE -- <spdeg argv>

Both modes time ``import spdeg.cli``, run ``spdeg.cli.main(argv)`` once and
exit with its return code, so the process behaves like the ``spdeg`` console
script.  Nothing inside ``src/`` is changed: the spans are placed from here.

* ``trace`` rebinds the public functions listed in ``SPANS`` in every
  ``spdeg.*`` module namespace that holds the same object, and patches the
  ``ExpPoly`` operators on the class.  Spans live in memory as
  ``[id, parent, name, start_ns, end_ns]`` and are written at exit.
* ``count`` runs ``main`` under ``cProfile`` and writes the number of
  ``fractions.Fraction`` arithmetic calls and of ``math.gcd`` calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

# (span name, module, attribute); "Class.method" attributes are patched on the
# class.  The split of mat_mul and act by scalar type is done by SPLIT.
SPANS = [
    ("cli.main", "spdeg.cli", "main"),
    ("catalog.parse_class", "spdeg.catalog", "parse_class"),
    ("catalog.parse_curve", "spdeg.catalog", "parse_curve"),
    ("catalog.make", "spdeg.catalog", "make"),
    ("scalars.ExpPoly.mul", "spdeg.scalars", "ExpPoly.__mul__"),
    ("scalars.ExpPoly.mul", "spdeg.scalars", "ExpPoly.__rmul__"),
    ("scalars.ExpPoly.add", "spdeg.scalars", "ExpPoly.__add__"),
    ("scalars.ExpPoly.add", "spdeg.scalars", "ExpPoly.__radd__"),
    ("scalars.ExpPoly.add", "spdeg.scalars", "ExpPoly.__sub__"),
    ("scalars.ExpPoly.add", "spdeg.scalars", "ExpPoly.__rsub__"),
    ("scalars.ExpPoly.limit", "spdeg.scalars", "ExpPoly.limit"),
    ("scalars.ExpPoly.eval_base", "spdeg.scalars", "ExpPoly.eval_base"),
    ("linalg.mat_mul", "spdeg.linalg", "mat_mul"),
    ("linalg.det", "spdeg.linalg", "det"),
    ("linalg.signature_exact", "spdeg.linalg", "signature_exact"),
    ("linalg.rref", "spdeg.linalg", "rref"),
    ("linalg.rank_bareiss", "spdeg.linalg", "rank_bareiss"),
    ("tensor.act", "spdeg.tensor", "act"),
    ("tensor.transvection", "spdeg.tensor", "transvection"),
    ("tensor.symplectic_inverse", "spdeg.tensor", "symplectic_inverse"),
    ("tensor.is_symplectic", "spdeg.tensor", "is_symplectic"),
    ("tensor.is_lie", "spdeg.tensor", "is_lie"),
    ("tensor.Bracket.from_json", "spdeg.tensor", "Bracket.from_json"),
    ("curvature.ricci_form", "spdeg.curvature", "ricci_form"),
    ("curvature.levi_civita", "spdeg.curvature", "levi_civita"),
    ("curvature.ricci", "spdeg.curvature", "ricci"),
    ("curvature.find_degenerate_ricci", "spdeg.curvature", "find_degenerate_ricci"),
    ("invariants.symplectic_derivations", "spdeg.invariants", "symplectic_derivations"),
    ("invariants.derivations", "spdeg.invariants", "derivations"),
    ("invariants.obstruction_report", "spdeg.invariants", "obstruction_report"),
    ("invariants.composition_trace_form", "spdeg.invariants", "composition_trace_form"),
    ("degeneration.verify_curve", "spdeg.degeneration", "verify_curve"),
    ("degeneration.borbit_element", "spdeg.degeneration", "borbit_element"),
    ("degeneration.random_symplectic", "spdeg.degeneration", "random_symplectic"),
    ("degeneration.r2r2_trap_residual", "spdeg.degeneration", "r2r2_trap_residual"),
    ("degeneration.witness_for_class", "spdeg.degeneration", "witness_for_class"),
    ("degeneration.hasse", "spdeg.degeneration", "hasse"),
    ("degeneration.non_degeneration_suite", "spdeg.degeneration", "non_degeneration_suite"),
    ("degeneration.theorem_b_search", "spdeg.degeneration", "theorem_b_search"),
    ("degeneration.classify_pairs", "spdeg.degeneration", "classify_pairs"),
    # no metric of its own: its misses are the cache-miss base of the hit ratio
    ("degeneration.der_omega_dim", "spdeg.degeneration", "der_omega_dim"),
]

# spans whose name gets a ".rational" or ".exppoly" suffix from their first
# (matrix) argument
SPLIT = {"linalg.mat_mul", "tensor.act"}

# the Fraction arithmetic kernels in fractions.py; the public operators
# dispatch to these, so each counts one exact operation
FRACTION_OPS = {"_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
                "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__"}


class Tracer:
    """In-memory span recorder for one invocation."""

    def __init__(self, exppoly_type):
        self.spans = []
        self.stack = []
        self.exppoly = exppoly_type

    def _scalar_kind(self, matrix):
        ep = self.exppoly
        for row in matrix:
            for x in row:
                if isinstance(x, ep):
                    return "exppoly"
        return "rational"

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        split = name in SPLIT
        kind = self._scalar_kind

        def traced(*args, **kwargs):
            span = f"{name}.{kind(args[0])}" if split else name
            # ExpPoly.__sub__ calls __add__: one logical add, one span
            if stack and stack[-1][1] == span:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append((sid, span))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [sid, stack[-1][0] if stack else -1, span, start, end]

        return functools.wraps(fn)(traced)


def _rebind(orig, replacement):
    """Point every spdeg.* module global that holds ``orig`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "spdeg" or modname.startswith("spdeg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap every function in SPANS; returns the traced ``cli.main``."""
    for name, modname, attr in SPANS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.wrap(name, orig))
    return sys.modules["spdeg.cli"].main


def fraction_counts(profile):
    """(Fraction arithmetic calls, math.gcd calls) from a cProfile run."""
    import pstats

    ops = gcd = 0
    for (filename, _, funcname), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if filename.endswith("fractions.py") and funcname in FRACTION_OPS:
            ops += ncalls
        elif funcname == "<built-in method math.gcd>":
            gcd += ncalls
    return ops, gcd


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("trace", "count"), required=True)
    p.add_argument("--out", required=True, help="where to write the JSON record")
    p.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the spdeg arguments")
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter_ns()
    import spdeg.cli
    record = {"argv": argv, "import_ns": time.perf_counter_ns() - t0}

    if args.mode == "trace":
        from spdeg.scalars import ExpPoly

        tracer = Tracer(ExpPoly)
        cli_main = install(tracer)
    else:
        import cProfile

        profile = cProfile.Profile(subcalls=False)
        cli_main = functools.partial(profile.runcall, spdeg.cli.main)
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        if args.mode == "trace":
            record["spans"] = tracer.spans
        else:
            record["fraction_ops"], record["gcd_calls"] = fraction_counts(profile)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
