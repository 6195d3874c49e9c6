"""Every span that bench/launch.py places must name a live spdeg function.

A renamed or deleted function would otherwise surface only as an
AttributeError in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "bench" / "launch.py"


def test_every_benchmark_span_resolves():
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    missing = []
    for name, modname, attr in launch.SPANS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((name, modname, attr))
    assert launch.SPANS and not missing
