from fractions import Fraction as F

import pytest

from spdeg import catalog
from spdeg.catalog import ClassId, DomainError, class_id, parse_class, parse_curve
from spdeg.degeneration import DIAGRAM_CLASSES
from spdeg.tensor import Bracket, act, is_closed, is_lie, is_symplectic, symplectic_inverse

from helpers import curve_instances
from oracles import tau6, varrho_family, xi_family


def test_make_n4_structure():
    mu = catalog.bracket_of("n4")
    assert dict(mu.rules) == {(1, 2): {4: F(1)}, (1, 4): {3: F(1)}}
    assert mu == catalog.make(class_id("n4"))


def test_make_abelian_is_zero():
    mu = catalog.bracket_of("a4")
    assert mu == Bracket(4)


@pytest.mark.parametrize("key,param", [
    ("d4_lambda", F(1)), ("d4_lambda", F(2)), ("d4_lambda", F(1, 3)),
    ("r2r2", F(-1)), ("r4_m1_beta", F(1)), ("r4_m1_beta", F(-2)),
    ("r4_alpha", F(0)), ("r4_alpha", F(-1)), ("r4p_0:plus", F(0)),
    ("d4p:minus", F(-1)),
])
def test_out_of_domain_parameters_raise(key, param):
    with pytest.raises(DomainError) as err:
        catalog.bracket_of(key, param)
    assert key.split(":")[0] in str(err.value)


def test_missing_or_extra_parameter_raise():
    with pytest.raises(DomainError):
        catalog.bracket_of("r2r2")
    with pytest.raises(DomainError):
        catalog.bracket_of("n4", F(1))


def test_every_class_is_lie_and_closed():
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        assert is_lie(mu), str(cid)
        assert is_closed(mu), str(cid)


def test_no_two_classes_coincide():
    # known printed overlap: the one-parameter family at beta = 0 has a
    # vanishing e3 coefficient and reproduces the decomposable class verbatim
    known_overlap = {("r4_m1_beta:beta=0", "rr3_m1")}
    seen = {}
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        for other, bracket in seen.items():
            pair = tuple(sorted((str(cid), other)))
            if pair in known_overlap:
                assert bracket == mu
                continue
            assert bracket != mu, f"{cid} equals {other}"
        seen[str(cid)] = mu


def test_r4_m1_beta_at_opposite_parameters_is_one_orbit():
    # a known coincidence the catalog keeps: the symplectic signed permutation g
    # takes the member at beta to the member at -beta.  Both sides are affine in
    # beta, so beta = 0 and 1/3 prove it on the whole domain -1 < beta < 1, and
    # the sampled members -1/2 and 1/2 are one Sp(4,R)-orbit
    g = [[-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0]]
    assert is_symplectic(g)
    assert {F(-1, 2), F(1, 2)} <= set(catalog.CLASSES["r4_m1_beta"].samples)
    for beta in (F(0), F(1, 3), F(1, 2), F(-1, 2)):
        mu = catalog.bracket_of("r4_m1_beta", beta)
        assert act(g, mu, symplectic_inverse(g)) == catalog.bracket_of("r4_m1_beta", -beta)
    assert catalog.bracket_of("r4_m1_beta", F(1, 2)) != catalog.bracket_of("r4_m1_beta", F(-1, 2))


def test_expected_invariants_lookup_examples():
    assert catalog.expected_invariants(class_id("d4_2:w2")) == (1, 5)
    assert catalog.expected_invariants(class_id("a4")) == (10, 16)
    assert catalog.expected_invariants(class_id("rr3_0")) == (4, 8)
    assert catalog.expected_invariants(class_id("r4_m1_beta", F(-1))) == (3, 8)
    assert catalog.expected_invariants(class_id("d4_lambda", F(1, 2))) == (4, 7)


def test_tau6_fixture():
    tau = tau6()
    assert tau.dim == 6
    assert is_lie(tau)
    assert is_closed(tau)
    assert tau.pair(4, 5)[1] == 1  # [e4,e5] = e2


def test_class_grammar_roundtrip():
    for text in ["n4", "d4_2:w2", "r2r2:lambda=7/3", "d4p:delta=2:plus",
                 "r4p_0:delta=5/2:minus", "r4_m1_beta:beta=-1/2", "h4:minus"]:
        assert str(parse_class(text)) == text


def test_class_grammar_mu_aliases():
    assert parse_class("mu7") == class_id("n4")
    assert parse_class("mu18") == class_id("d4_2:w2")
    assert parse_class("mu5:lambda=1") == class_id("r2r2", F(1))


def test_class_grammar_rejects_garbage():
    with pytest.raises(KeyError):
        parse_class("nope")
    with pytest.raises(ValueError):
        parse_class("r2r2:beta=1")
    with pytest.raises(DomainError):
        parse_class("d4_lambda:lambda=1")
    with pytest.raises(ValueError):
        parse_class("r2r2:lambda=7/3:lambda=3")


def test_every_curve_matrix_exactly_symplectic():
    count = 0
    for spec in catalog.curves():
        for inst in curve_instances(spec):
            assert is_symplectic(inst.g), inst.label
            count += 1
    assert count >= 35


def test_curve_listing_and_parse():
    ids = {spec.id for spec in catalog.curves()}
    assert "appendix:rh3-a4" in ids
    assert "ex2:xi_u" in ids
    inst = parse_curve("appendix:d4lambda-n4:lambda=7/3")
    assert inst.source == class_id("d4_lambda", F(7, 3))
    assert inst.target == class_id("n4")
    with pytest.raises(KeyError):
        parse_curve("appendix:nothing")
    with pytest.raises(ValueError):
        parse_curve("appendix:d4lambda-n4")
    with pytest.raises(ValueError):
        parse_curve("appendix:rh3-a4:lambda=1")
    with pytest.raises(ValueError):
        parse_curve("appendix:d4lambda-n4:lambda=7/3:lambda=3")


def test_curve_metadata_records_normalizations():
    assert catalog.CURVES["appendix:r2p-d411"].orientation == "transposed"
    assert catalog.CURVES["appendix:d4half-rh3"].orientation == "inverse"
    assert catalog.CURVES["appendix:d4pp-n4"].time_scale == 2
    assert any("target" in note for note in catalog.CURVES["appendix:n4-rh3"].notes)


def test_pinned_curve_sources():
    assert parse_curve("appendix:d4half-rh3").source == class_id("d4_lambda", F(1, 2))
    assert parse_curve("appendix:r4m1m1-rh3").source == class_id("r4_m1_beta", F(-1))


def test_named_families():
    assert xi_family(F(2)).entry(1, 2, 4) == 2
    assert xi_family(F(2)).entry(1, 4, 3) == 4
    rho = catalog.rho_family(F(12))
    assert rho.entry(1, 2, 2) == F(1, 2)
    assert rho.entry(1, 2, 3) == -6  # -t/2 at t = 12
    vr = varrho_family(F(2))
    assert vr.entry(1, 2, 3) == -2
    assert is_lie(rho) and is_lie(vr)


def test_class_display_strings():
    assert ClassId("n4").display() == "(n4, w)"
    assert class_id("r2r2", F(7, 3)).display() == "(r2r2, w_7/3)"
