"""Every span that bench/launch.py places must name a live spdeg function.

A renamed or deleted function would otherwise surface only as an
AttributeError in a traced benchmark run.  The spans behind the exact-sample
count must also stay one call per sample, or the count would drift silently.
"""

import importlib
from collections import Counter

from helpers import bench_launch


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


def test_each_exact_sample_is_one_spanned_call(monkeypatch):
    # degeneration.exact_samples counts the borbit_element and
    # random_symplectic spans under the suites: one call per sample each;
    # and each exceptional sample of theorem-b is one linalg.det span
    from spdeg import degeneration, linalg

    calls = Counter()

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("borbit_element", "random_symplectic"):
        counting(degeneration, name)
    samples = 5
    assert all(c.passed for c in degeneration.non_degeneration_suite(samples=samples))
    assert calls == {"borbit_element": 4 * samples}
    counting(linalg, "det")
    records = degeneration.theorem_b_search(samples=samples)
    assert sum(r.status == "exceptional" for r in records) == 3
    assert calls == {"borbit_element": 4 * samples, "random_symplectic": 3 * samples,
                     "det": 3 * samples}
