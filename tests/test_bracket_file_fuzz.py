"""Property test: no JSON document given to `validate --file` escapes cli.main.

Exit codes keep their contract on any input: 0 a valid Lie bracket with a
closed form, 1 a failed Jacobi or closedness check, 2 a malformed file.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spdeg.cli import main  # noqa: E402

SMALL = st.integers(-3, 8)
VALUES = st.recursive(
    st.none() | st.booleans() | SMALL | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)


def rarely(good, bad):
    """Draws from good, and from bad one time in ten, so most files get deep."""
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[2] if t[0] == 7 else t[1])


INDEX = rarely(st.sampled_from("1234"), st.sampled_from(["0", "7", " 2", "+1", "x", "", "1.0"]))
RATIONAL = rarely(st.builds("{}/{}".format, SMALL, st.integers(1, 3)) | SMALL.map(str),
                  st.sampled_from(["", "1/", "/2", " 3 ", "1/0", "0.5", "-2/-3"])
                  | st.sampled_from([1, 0.5, None, [], {}]))
KEY = rarely(st.builds("{},{}".format, INDEX, INDEX), INDEX)
ODD = st.sampled_from([5, "1", [], None, {}])
FILE = st.fixed_dictionaries(
    {"dim": rarely(st.just(4), st.sampled_from([6, 2, 3, 0, -2, "4", 4.0, [4], None])
                   | st.integers(min_value=17)),
     "bracket": rarely(st.dictionaries(KEY, rarely(st.dictionaries(INDEX, RATIONAL, min_size=1, max_size=2),
                                                   ODD), max_size=4), ODD)},
    optional={"omega": rarely(st.just("canonical"), st.sampled_from(["dual", 0])),
              "scalars": rarely(st.just("rational"), st.sampled_from(["float", None]))})


@pytest.mark.parametrize("documents, examples", [(VALUES, 50), (FILE, 150)],
                         ids=["any-json", "bracket-shaped"])
def test_any_bracket_file_keeps_the_exit_contract(tmp_path, documents, examples):
    path = tmp_path / "bracket.json"

    @settings(max_examples=examples, deadline=None, database=None)
    @given(documents)
    def check(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--file", str(path)]) in (0, 1, 2)

    check()
