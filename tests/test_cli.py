import inspect
import json
import re
import signal
import time
from fractions import Fraction as F

import pytest

from spdeg import catalog, curvature, linalg
from spdeg.cli import main
from spdeg.scalars import parse_rational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_class(capsys):
    code, out, _ = run(capsys, "validate", "--class", "n4")
    assert code == 0
    assert "Jacobi: OK" in out and "dw=0: OK" in out


def test_validate_needs_input(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2 and "needs" in err


def test_validate_file_roundtrip(tmp_path, capsys):
    mu = catalog.bracket_of("h4:plus")
    path = tmp_path / "bracket.json"
    path.write_text(mu.to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 0 and "Jacobi: OK" in out


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "--file", "/nonexistent/x.json")
    assert code == 3


def test_validate_broken_bracket_fails(tmp_path, capsys):
    broken = {"dim": 4, "scalars": "rational", "omega": "canonical",
              "bracket": {"1,2": {"2": "1"}, "1,3": {"3": "2"},
                          "1,4": {"4": "1"}, "2,3": {"4": "1"}}}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken), encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 1 and "Jacobi: FAIL" in out


@pytest.mark.parametrize("content, named", [
    ([1, 2], "JSON object"),
    ({"dim": 4, "bracket": []}, '"bracket"'),
    ({"dim": 4, "bracket": {"1,2": 5}}, '"1,2"'),
    ({"dim": 4, "bracket": {"1,2": {"4": 1}}}, '"1,2"'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1"}}, "omega": "dual"}, "omega"),
    ({"dim": [4], "bracket": {}}, '"dim"'),
    ({"dim": 4, "bracket": {"1": {"4": "1"}}}, 'key "1" must have the form "i,j"'),
    ({"dim": 4, "bracket": {"1,x": {"4": "1"}}}, 'key "1,x" must have the form "i,j"'),
    ({"dim": 4, "bracket": {"1,2": {"z": "1"}}}, 'component key "z"'),
    ({"dim": 18, "bracket": {}}, '"dim" must be at most 16, got 18'),
    ({"dim": 10 ** 9, "bracket": {}}, '"dim" must be at most 16'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1"}, "2,1": {"4": "1"}}},
     'bracket key "2,1" repeats the pair of key "1,2"'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1"}, " 1,2": {"4": "1"}}}, 'bracket key " 1,2"'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1", "04": "5"}}},
     'component key "04" of bracket entry "1,2" repeats index 4'),
    ({"dim": 4, "bracket": {"\uff11,\uff12": {"4": "1"}}}, 'key "\uff11,\uff12" must have the form'),
    ({"dim": 4, "bracket": {"1,2": {"\uff14": "1"}}}, 'component key "\uff14"'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1_0"}}}, "not a rational number: '1_0'"),
    ({"dim": 4, "bracket": {"1,2": {"4": "\uff11"}}}, "not a rational number: '\uff11'"),
], ids=["top-level-list", "bracket-list", "vector-number", "coefficient-number",
        "omega-not-canonical", "dim-list", "key-one-index", "key-not-integer",
        "component-key-not-integer", "dim-18", "dim-huge", "pair-key-repeated",
        "pair-key-repeated-with-space", "component-key-repeated", "key-full-width",
        "component-key-full-width", "coefficient-underscore", "coefficient-full-width"])
def test_malformed_bracket_file_is_usage_error(tmp_path, capsys, content, named):
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize("verb", ["theorem-a", "theorem-b"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_usage_error(capsys, verb, samples):
    code, out, err = run(capsys, verb, "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples" in err and "at least 1" in err


def test_invariants_verb(capsys):
    code, out, _ = run(capsys, "invariants", "--class", "d4_2:w2")
    assert code == 0
    assert "dim Der_w = 1" in out and "dim Der   = 5" in out


def test_unknown_class_is_usage_error(capsys):
    code, _, err = run(capsys, "invariants", "--class", "zzz")
    assert code == 2


@pytest.mark.parametrize("argv, line", [
    (("ricci", "--class", "nope"), "unknown class key: 'nope'"),
    (("degenerate", "--curve", "appendix:nope"), "unknown curve id: 'appendix:nope'"),
])
def test_unknown_key_message_is_printed_unquoted(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", line + "\n")


def test_bad_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "--class", "d4_lambda:lambda=1")
    assert code == 2 and "lambda" in err


@pytest.mark.parametrize("value", ["1_0", "\uff11", "1/_2", "+-1", "1/+2", "1.0"])
def test_id_value_outside_the_ascii_grammar_is_usage_error(capsys, value):
    # int() would read "1_0" as 10 and a full-width digit as its ASCII twin
    code, out, err = run(capsys, "catalog", "--class", f"r2r2:lambda={value}")
    assert (code, out) == (2, "") and f"not a rational number: {value!r}" in err
    code, out, err = run(capsys, "degenerate", "--curve", f"appendix:d4lambda-n4:lambda={value}")
    assert (code, out) == (2, "") and f"not a rational number: {value!r}" in err


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "catalog", "--class", "r2r2:lambda=1/0")
    assert code == 2 and "denominator" in err
    code, _, err = run(capsys, "degenerate", "--curve", "appendix:d4lambda-n4:lambda=1/0")
    assert code == 2 and "denominator" in err
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps({"dim": 4, "bracket": {"1,2": {"4": "1/0"}}}),
                    encoding="utf-8")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2 and "denominator" in err


@pytest.mark.parametrize("extra", [False, True], ids=["top-level", "under-extra-key"])
def test_deeply_nested_file_is_usage_error(tmp_path, capsys, extra):
    # past the JSON decoder's recursion limit; no traceback, and 2, not 1
    deep = "[" * 100000 + "]" * 100000
    text = '{"dim": 4, "bracket": {"1,2": {"4": "1"}}, "extra": %s}' % deep if extra else deep
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert (code, out) == (2, "") and "nests too deeply" in err and "Traceback" not in err


ONES = "1" * 5000  # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("content, named", [
    ({"dim": 4, "bracket": {"1,2": {"4": ONES}}}, 'component key "4" of bracket entry "1,2"'),
    ({"dim": 4, "bracket": {"1,2": {"4": "1/" + ONES}}}, 'bracket entry "1,2"'),
    ({"dim": 4, "bracket": {"1," + ONES: {"4": "1"}}}, 'bracket key "1,111'),
    ({"dim": 4, "bracket": {"1,2": {ONES: "1"}}}, 'component key "111'),
    ('{"dim": %s, "bracket": {}}' % ONES, "JSON number '111"),
], ids=["coefficient", "denominator", "pair-key", "component-key", "dim"])
def test_file_number_past_the_digit_limit_names_its_key(tmp_path, capsys, content, named):
    path = tmp_path / "bracket.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert (code, out) == (2, "") and named in err and "digits" in err
    assert len(err) < 200 and "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv, named", [
    (("catalog", "--class", f"r2r2:lambda={ONES}"), "segment 'lambda=111"),
    (("catalog", "--class", f"mu{ONES}"), "class key 'mu111"),
    (("degenerate", "--curve", f"appendix:d4lambda-n4:lambda=1/{ONES}"), "segment 'lambda=1/111"),
], ids=["class-parameter", "class-alias", "curve-parameter"])
def test_id_number_past_the_digit_limit_names_its_segment(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and named in err and "digits" in err and len(err) < 200


def test_curve_matrix_pole_is_usage_error(capsys):
    for curve in ("appendix:d4lambda-n4:lambda=1/2", "appendix:r4m1beta-n4:beta=-1"):
        code, out, err = run(capsys, "degenerate", "--curve", curve)
        assert code == 2 and out == "", curve
        assert curve.split(":")[1] in err and "pole" in err, err


@pytest.mark.parametrize("curve", ["appendix:r2r2-d411", "appendix:r2r2-rr30"])
@pytest.mark.parametrize("lam", ["1000", str(10 ** 20), pytest.param(str(10 ** 400), id="10**400")])
def test_large_curve_parameter_verifies(capsys, curve, lam):
    # the distances scale with lambda, so the last is judged relative to the first;
    # they are exact, so a lambda far beyond binary64 is no special case
    code, out, err = run(capsys, "degenerate", "--curve", f"{curve}:lambda={lam}")
    assert code == 0 and "verified: True" in out and err == ""
    code, out, _ = run(capsys, "--json", "degenerate", "--curve", f"{curve}:lambda={lam}")
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True
    assert parse_rational(payload["distances"][-1][1]) > 0


def test_slowed_curve_still_fails_the_distance_check():
    # the negative control: rh3 -> a4 on the clock t/8 is still far from a4 at the
    # grid's end, exp(t) = 2**40, where the distance is 2**-5
    from spdeg import degeneration

    inst = catalog.parse_curve("appendix:rh3-a4")
    slow = inst._replace(g=catalog.rescale_time(inst.g, F(1, 8)))
    report = degeneration.verify_curve(slow)
    assert [k for k, _ in report.distances] == [8, 16, 24, 32, 40]
    assert report.distances[-1][1] == F(1, 32)
    assert report.status == "verified" and report.decreasing
    assert not report.final_small and not report.verified


def test_unknown_verb_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_no_verb_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2 and "usage" in out.lower()


def test_ricci_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "ricci", "--class", "d4_lambda:lambda=1/2")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"class", "ricci_matrix", "signature",
                            "scalar_curvature", "einstein"}
    assert payload["einstein"] == "-3/2"
    assert payload["signature"] == [0, 4, 0]
    assert payload["ricci_matrix"][0][0] == "-3/2"


def test_degenerate_verb(capsys):
    code, out, _ = run(capsys, "degenerate", "--curve", "appendix:rh3-a4")
    assert code == 0 and "verified: True" in out


def test_degenerate_parametrized(capsys):
    code, out, _ = run(capsys, "--json", "degenerate", "--curve",
                       "appendix:d4lambda-n4:lambda=7/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["status"] == "verified"


def test_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "--seed", "7", "theorem-a", "--samples", "20")
    code2, out2, _ = run(capsys, "--json", "--seed", "7", "theorem-a", "--samples", "20")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"edges", "non_degenerations", "theorem_b"}


def test_hasse_writes_dot(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, "hasse", "--dot", str(dot))
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.startswith("digraph") and text.rstrip().endswith("}")


def test_catalog_single_class(capsys):
    code, out, _ = run(capsys, "--json", "catalog", "--class", "r2r2:lambda=7/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "r2r2:lambda=7/3"
    assert payload["bracket"]["bracket"]["1,2"] == {"3": "-7/3"}


def test_theorem_b_small(capsys):
    code, out, _ = run(capsys, "theorem-b", "--samples", "3")
    assert code == 0 and "PASS" in out


def test_theorem_b_failed_witness_exits_1(monkeypatch, capsys):
    from spdeg import degeneration

    monkeypatch.setattr(degeneration, "is_symplectic", lambda g: False)
    rec = degeneration.witness_for_class(catalog.parse_class("n4"))
    assert rec.status == "failed" and "not symplectic" in rec.reason
    assert rec.to_json_dict() == {"class": "n4", "status": "failed", "reason": rec.reason}
    code, out, _ = run(capsys, "theorem-b", "--samples", "1")
    assert code == 1 and "theorem-b: FAIL" in out
    assert any(line.split()[:2] == ["n4", "FAILED:"] for line in out.splitlines())


def test_theorem_b_divergent_chain_exits_1(monkeypatch, capsys):
    from spdeg import degeneration, linalg
    from spdeg.scalars import ExpPoly

    plain = degeneration._witness_matrix_symbolic

    def diverging(cid, chain, ref_node):
        # diag(1, e^-5t, 1, e^5t) in front: the moved bracket has no limit
        kick = [[ExpPoly.exp(r) if i == j else ExpPoly.const(0) for j in range(4)]
                for i, r in enumerate((0, -5, 0, 5))]
        return linalg.mat_mul(kick, plain(cid, chain, ref_node))

    monkeypatch.setattr(degeneration, "_witness_matrix_symbolic", diverging)
    rec = degeneration.witness_for_class(catalog.parse_class("n4"))
    assert rec.status == "failed" and rec.reason.startswith("symbolic chain diverges at [(")
    code, out, err = run(capsys, "theorem-b", "--samples", "1")
    assert code == 1 and "theorem-b: FAIL" in out and err == ""
    assert any(line.split()[:2] == ["n4", "FAILED:"] for line in out.splitlines())


def test_remark_check(capsys):
    code, out, _ = run(capsys, "remark-check")
    assert code == 0
    assert "PASS" in out and "(0, 4, 0) -> (1, 3, 0)" in out


@pytest.mark.parametrize("verb", [["degenerate", "--curve", "appendix:rh3-a4"], ["remark-check"]],
                         ids=["degenerate", "remark-check"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite(capsys, verb, tol):
    # --tol is an option of degenerate alone: any other verb refuses it
    code, out, err = run(capsys, *verb, "--tol", tol)
    assert code == 2 and out == ""
    if verb[0] == "degenerate":
        assert "--tol" in err and "positive and finite" in err
        assert run(capsys, *verb, "--tol", "5")[0] == 0
    else:
        assert f"unrecognized arguments: --tol {tol}" in err
        for argv in (["--tol", "5", *verb], [*verb, "--tol", "5"]):
            assert run(capsys, *argv)[:2] == (2, "")


def test_remark_check_exits_1_unless_one_root(monkeypatch, capsys):
    from spdeg import curvature

    # det Ric replaced by (t - 1)(t - 2): two roots on (0, 12]
    monkeypatch.setattr(curvature, "_det_exact", lambda family, t: (t - 1) * (t - 2))
    code, out, err = run(capsys, "remark-check")
    assert code == 1 and err == ""
    assert "remark-check: FAIL: 2 roots of det Ric, expected 1" in out
    code, out, _ = run(capsys, "--json", "remark-check")
    payload = json.loads(out)
    assert code == 1 and payload["det_poly"] == ["2", "-3", "1"]
    assert payload["sturm_variations"] == [2, 0] and len(payload["roots"]) == 2


def _mutant(module, name, old, new):
    """module.name with the one occurrence of old in its source replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


@pytest.mark.parametrize("module,name,old,new,reason", [
    (curvature, "_divmod", "len(b) - 1", "len(b) + 1",
     "Sturm chain exceeds deg p + 1 = 7 members"),
    (linalg, "sign_variations", "s != t", "s == t",
     "Sturm count 4 at t = 6 is not in [4, 0]"),
], ids=["remainder", "count"])
def test_broken_sturm_scan_fails_instead_of_looping(monkeypatch, capsys, module, name, old,
                                                    new, reason):
    # a wrong remainder grows the chain and a wrong count keeps the bisection
    # going; both break a bound of every Sturm chain and end in exit 1
    monkeypatch.setattr(module, name, _mutant(module, name, old, new))
    handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the Sturm scan loops"))
    signal.alarm(10)
    try:
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=re.escape(reason)):
            curvature.find_degenerate_ricci(catalog.rho_family, 0, 12)
        assert time.perf_counter() - start < 1
        code, out, err = run(capsys, "remark-check")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert (code, out, err) == (1, "", f"remark-check: FAIL: {reason}\n")
