"""Byte-for-byte regression of every verb's --json output.

``golden_json.json`` holds, for a fixed set of invocations, the SHA-256 of
``spdeg --json ...`` stdout and the exit code.  Refactors must keep both.
Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden_json.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from spdeg import catalog
from spdeg.catalog import ClassId
from spdeg.cli import main

from helpers import curve_instances

GOLDEN = pathlib.Path(__file__).with_name("golden_json.json")


def invocations():
    """catalog; four class verbs per sample class; every curve; the theorems."""
    out = [["catalog"]]
    for spec in catalog.CLASS_DEFS:
        for p in (spec.samples if spec.param_name else (None,)):
            cid = str(ClassId(spec.key, p))
            for verb in ("catalog", "validate", "invariants", "ricci"):
                out.append([verb, "--class", cid])
    for spec in catalog.curves():
        for inst in curve_instances(spec):
            out.append(["degenerate", "--curve", inst.label])
    out += [["hasse"], ["remark-check"],
            ["theorem-a", "--samples", "20", "--pairs"],
            ["theorem-b", "--samples", "5"]]
    return out


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--json"] + argv)
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()}


def test_json_output_matches_golden_capture():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 222
    for want in golden:
        got = run(want["argv"])
        assert got == want, f"spdeg --json {' '.join(want['argv'])}"


if __name__ == "__main__":
    rows = [json.dumps(run(a)) for a in invocations()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")
