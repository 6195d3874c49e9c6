"""Property test: no class or curve id escapes cli.main.

Ids follow the grammar name[:p=v][:tag].  Whatever the segments say, and
however large the rational value, every verb keeps the exit contract: 0 or 1
for a check that ran, 2 for an id it refuses.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spdeg import catalog  # noqa: E402
from spdeg.cli import main  # noqa: E402
from spdeg.scalars import format_rational  # noqa: E402


def rarely(good, bad):
    """Draws from good, and from bad one time in ten."""
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[2] if t[0] == 7 else t[1])


TEXT = st.text(max_size=6)
# a fraction times 10**-400 to 10**400, often at the ends; mostly positive,
# as most domains are
NUMBER = st.builds(lambda f, e: f * Fraction(10) ** e,
                   rarely(st.fractions(min_value=0), st.fractions()),
                   st.integers(-400, 400) | st.sampled_from((-400, 400)))
VALUE = rarely(NUMBER.map(format_rational), TEXT)


@st.composite
def ids(draw, bases):
    """A real id with a p=v segment for its parameter, and maybe a stray segment.

    Ids with a parameter are drawn as often as those without.
    """
    base, name = draw(st.sampled_from([b for b in bases if b[1]])
                      | st.sampled_from([b for b in bases if not b[1]]))
    segs = base.split(":")
    if name or draw(st.integers(0, 9)) == 0:
        segs.append(f"{draw(rarely(st.just(name or 'lambda'), TEXT))}={draw(VALUE)}")
    if draw(st.integers(0, 4)) == 0:
        segs.insert(draw(st.integers(0, len(segs))), draw(TEXT))
    return ":".join(segs)


CLASS_IDS = ids([(s.key, s.param_name) for s in catalog.CLASS_DEFS] + [("mu11", "beta")])
CURVE_IDS = ids([(c.id, c.param_name) for c in catalog.curves()])


@pytest.mark.parametrize("verb, option, strategy, examples", [
    ("catalog", "--class", CLASS_IDS, 100),
    ("validate", "--class", CLASS_IDS, 60),
    ("ricci", "--class", CLASS_IDS, 60),
    ("degenerate", "--curve", CURVE_IDS, 150),
], ids=["catalog", "validate", "ricci", "degenerate"])
def test_any_id_keeps_the_exit_contract(verb, option, strategy, examples):
    @settings(max_examples=examples, deadline=None, database=None)
    @given(strategy)
    def check(text):
        assert main([verb, f"{option}={text}"]) in (0, 1, 2)

    check()
