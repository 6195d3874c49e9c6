"""Every span that bench/launch.py places must name a live spdeg function.

A renamed or deleted function would otherwise surface only as an
AttributeError in a traced benchmark run.  The spans behind the exact-sample
count must also stay one call per sample, or the count would drift silently.
"""

import importlib
from collections import Counter

from helpers import bench_launch
from test_src_surface import _fresh_stdout


def test_every_benchmark_span_resolves():
    launch = bench_launch()
    missing = []
    for name, modname, attr in launch.SPANS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((name, modname, attr))
    assert launch.SPANS and not missing


def test_importing_the_cli_loads_every_span_module():
    # launch.py reads sys.modules[modname] for each span right after importing
    # spdeg.cli, so a span module that the CLI imports lazily would be a KeyError
    # there; the test above imports each module itself and cannot see that
    modules = sorted({modname for _, modname, _ in bench_launch().SPANS})
    code = f"import sys, spdeg.cli; print([m for m in {modules!r} if m not in sys.modules])"
    assert len(modules) > 1 and _fresh_stdout(code) == "[]\n"


def _count_calls(monkeypatch, calls, module, name, inner=None):
    """Rebind module.name to a wrapper of inner (module.name by default) that
    adds one to calls[name] per call."""
    inner = inner or getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return inner(*args)
    monkeypatch.setattr(module, name, wrapper)


def test_each_exact_sample_is_one_spanned_call(monkeypatch):
    # degeneration.exact_samples counts the borbit_element span under the suites:
    # one call per sample; each B-orbit sample of theorem-a and each exceptional
    # sample of theorem-b builds one B = A.N matrix, and the latter is one linalg.det span
    from spdeg import degeneration, linalg

    calls = Counter()
    for name in ("borbit_element", "_borbit_matrix", "random_symplectic"):
        _count_calls(monkeypatch, calls, degeneration, name)
    samples = 5
    assert all(c.passed for c in degeneration.non_degeneration_suite(samples=samples))
    assert calls == {"borbit_element": 4 * samples, "_borbit_matrix": 4 * samples}
    _count_calls(monkeypatch, calls, linalg, "det")
    records = degeneration.theorem_b_search(samples=samples)
    assert sum(r.status == "exceptional" for r in records) == 3
    assert calls == {"borbit_element": 4 * samples, "_borbit_matrix": 7 * samples,
                     "det": 3 * samples}


def test_rank_one_identity_is_one_kernel_call(monkeypatch):
    # the identity is one exact expansion, not a grid: theorem_b_search(samples=s)
    # calls the rank-one kernel once for it and once per sample of rh3 and rr3_0 (a4
    # stores no pair), and builds no quadratic grid; counted in every spdeg namespace
    # that holds the kernel
    import sys

    from spdeg import curvature, degeneration

    calls = Counter()
    inner = curvature._rank_one_ricci
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spdeg" and getattr(module, "_rank_one_ricci", None) is inner:
            _count_calls(monkeypatch, calls, module, "_rank_one_ricci", inner)
    _count_calls(monkeypatch, calls, degeneration, "_quadratic_grid")
    for samples in (1, 4):
        calls.clear()
        records = degeneration.theorem_b_search(samples=samples)
        assert sum(r.status == "exceptional" and r.identity_holds for r in records) == 3
        assert calls == {"_rank_one_ricci": 1 + 2 * samples}


def test_exceptional_samples_take_no_symplectic_inverse(monkeypatch):
    # the samples read the rows of g^-1 off g: with only the exceptional classes,
    # theorem-b makes no symplectic_inverse call, counted in every spdeg
    # namespace that holds it, as the tensor.symplectic_inverse span counts
    import sys

    from spdeg import degeneration, linalg, tensor

    calls = Counter()
    inner = tensor.symplectic_inverse
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spdeg" and getattr(module, "symplectic_inverse", None) is inner:
            _count_calls(monkeypatch, calls, module, "symplectic_inverse", inner)
    _count_calls(monkeypatch, calls, degeneration, "_borbit_matrix")
    _count_calls(monkeypatch, calls, linalg, "det")
    exceptional = [c for c in degeneration.DIAGRAM_CLASSES
                   if c.key in degeneration.EXCEPTIONAL_KEYS]
    monkeypatch.setattr(degeneration, "DIAGRAM_CLASSES", exceptional)
    records = degeneration.theorem_b_search(samples=5)
    assert [r.all_det_zero for r in records] == [True] * 3
    assert calls == {"_borbit_matrix": 15, "det": 15}
    assert tensor.symplectic_inverse is not inner  # the count would have seen a call


def test_witness_ladder_computes_each_reference_once(monkeypatch):
    # 40 witnesses over 4 reference nodes: the reference brackets and their
    # signatures are cached, so one cold theorem-b makes 4 ricci_form calls, one
    # per reference, and 2 * 40 + 4 symplectic_inverse calls (the traced counts).
    # Each witness hands its int Ricci kernel to eigen_certificate; only the 4
    # references take signature_exact, which counts by eigen_certificate too: 40 + 4
    from spdeg import degeneration, linalg

    calls = Counter()
    for name in ("ricci_form", "symplectic_inverse"):
        _count_calls(monkeypatch, calls, degeneration, name)
    for name in ("eigen_certificate", "signature_exact"):
        _count_calls(monkeypatch, calls, linalg, name)
    degeneration._reference.cache_clear()
    records = degeneration.theorem_b_search(samples=1)
    assert sum(r.status == "witness" for r in records) == 40
    assert calls == {"ricci_form": 4, "symplectic_inverse": 84,
                     "eigen_certificate": 44, "signature_exact": 4}
    degeneration.theorem_b_search(samples=1)
    assert calls == {"ricci_form": 4, "symplectic_inverse": 164,
                     "eigen_certificate": 84, "signature_exact": 4}


def test_pair_classification_makes_a_fixed_number_of_obstruction_reports(monkeypatch):
    # invariants.obstruction_report.calls: all() stops at the first member pair that
    # the battery does not exclude, so the count pins the member-pair order too;
    # the per-class invariants are cached, so a warm call makes the same count
    from spdeg import degeneration, invariants

    calls = Counter()
    _count_calls(monkeypatch, calls, degeneration, "obstruction_report")
    report = degeneration.hasse()
    checks = degeneration.non_degeneration_suite(samples=5)
    for cache in (invariants.class_invariants, invariants.der_omega_dim, degeneration._bracket):
        cache.cache_clear()
    for total in (1625, 2 * 1625):
        degeneration.classify_pairs(report, checks)
        assert calls == {"obstruction_report": total}


def test_remark_check_makes_a_fixed_number_of_kernel_calls(monkeypatch, capsys):
    # curvature.ricci_form.calls and linalg.det.calls of one --json remark-check:
    # det of the int Ricci kernel at the 25 interpolation nodes and at the one
    # root's t_hat; Ricci forms only for the signatures at t = 0 and at both ends
    # of the root's isolating interval; counted in every spdeg namespace that
    # holds either kernel
    import sys

    from spdeg import cli, curvature, linalg

    calls = Counter()
    for attr, inner in (("ricci_form", curvature.ricci_form), ("det", linalg.det)):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spdeg" and getattr(module, attr, None) is inner:
                _count_calls(monkeypatch, calls, module, attr, inner)
    assert cli.main(["--json", "remark-check"]) == 0
    capsys.readouterr()
    assert calls == {"ricci_form": 3, "det": 26}
