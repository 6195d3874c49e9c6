"""Each verdict a verb prints can fail: a plausible defect in the kernel behind it
turns the verb's exit code to 1 and names the failing record.

theorem-b's exceptional records rest on the rank-one Ricci identity, which the
verb proves by one exact expansion of both sides.  Their samples alone cannot
fail: 4*Ric = 2 B C B^T with B of size 4x3 has det 0 whatever the 3x3 matrix C is.
"""

import json
import sys

import pytest

from spdeg import cli, curvature
from spdeg.degeneration import EXCEPTIONAL_KEYS, RANK_ONE_IDENTITY

from helpers import rank_one_ricci_without_v_terms


def _patch_everywhere(monkeypatch, name, replacement):
    """Rebind curvature.name in every spdeg namespace that holds it."""
    inner = getattr(curvature, name)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "spdeg" and getattr(module, name, None) is inner:
            monkeypatch.setattr(module, name, replacement)


def _zero_core():
    return lambda p, q, w: [[0] * 4 for _ in range(4)]


@pytest.mark.parametrize("make_core", [_zero_core, rank_one_ricci_without_v_terms],
                         ids=["zero", "without_v_terms"])
def test_theorem_b_fails_on_a_broken_rank_one_kernel(monkeypatch, capsys, make_core):
    _patch_everywhere(monkeypatch, "_rank_one_ricci", make_core())
    assert cli.main(["--json", "--seed", "7", "theorem-b", "--samples", "5"]) == 1
    records = json.loads(capsys.readouterr().out)["theorem_b"]
    exceptional = [r for r in records if r["status"] == "exceptional"]
    assert sorted(r["class"] for r in exceptional) == sorted(EXCEPTIONAL_KEYS)
    for r in exceptional:
        assert r["identity"] == RANK_ONE_IDENTITY and r["identity_holds"] is False, r
        assert r["identity_terms"] == 1008
        assert r["all_det_zero"] is True  # the samples do not see the defect
    assert cli.main(["--seed", "7", "theorem-b", "--samples", "5"]) == 1
    out = capsys.readouterr().out
    for key in EXCEPTIONAL_KEYS:
        line, = [s for s in out.splitlines() if s.split()[0] == key]
        assert f"FAILED: {RANK_ONE_IDENTITY} on 1008 terms" in line
    assert out.splitlines()[-1] == "theorem-b: FAIL"
