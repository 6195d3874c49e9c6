import random
from fractions import Fraction as F

import pytest

from spdeg import catalog, linalg
from spdeg.scalars import ExpPoly
from spdeg.tensor import (Bracket, act, bracket_to_table,
                          canonical_form, d_omega, is_closed, is_lie,
                          is_symplectic, jacobiator, omega, symplectic_inverse,
                          transvection)

from helpers import rational_symplectic
from oracles import bracket_distance, table_to_bracket


def _mu(key, param=None):
    return catalog.bracket_of(key, param)


# -- construction ----------------------------------------------------------------


def test_bracket_antisymmetry_by_construction():
    mu = Bracket(4, {(2, 1): {3: F(5)}})
    assert mu.entry(1, 2, 3) == -5
    assert mu.entry(2, 1, 3) == 5
    assert mu.entry(1, 2, 1) == 0
    assert mu.pair(3, 4) == [F(0)] * 4


def test_bracket_rejects_diagonal_and_bad_indices():
    with pytest.raises(ValueError):
        Bracket(4, {(1, 1): {2: F(1)}})
    with pytest.raises(ValueError):
        Bracket(4, {(1, 5): {2: F(1)}})
    with pytest.raises(ValueError):
        Bracket(3)


def test_canonical_two_form():
    j = canonical_form(4)
    assert j == [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert linalg.det(j) == 1
    assert canonical_form(6)[2][5] == 1
    with pytest.raises(ValueError):
        canonical_form(5)
    rng = random.Random(53)
    for dim in (2, 4, 6):
        jm = canonical_form(dim)
        for _ in range(10):
            u = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
            v = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
            assert omega(u, v) == sum(u[i] * jm[i][k] * v[k]
                                      for i in range(dim) for k in range(dim))
            assert omega(v, u) == -omega(u, v)


# -- validation ------------------------------------------------------------------


def test_jacobiator_zero_bracket():
    jac = jacobiator(Bracket(4))
    assert all(all(x == 0 for x in v) for v in jac.values())


def test_jacobiator_table_law_and_broken_variant():
    assert is_lie(_mu("d4_2:w2"))
    broken = Bracket(4, {(1, 2): {2: F(1)}, (1, 3): {3: F(2)},
                         (1, 4): {4: F(1)}, (2, 3): {4: F(1)}})
    assert not is_lie(broken)


def test_d_omega_examples():
    assert is_closed(_mu("n4"))
    assert is_closed(Bracket(4))
    single = Bracket(4, {(1, 2): {1: F(1)}})
    vals = d_omega(single)
    assert vals[(1, 2, 3)] != 0


def test_is_lie_and_is_closed_stop_at_the_first_nonzero_component(monkeypatch):
    # a dense 16-dimensional bracket (120 pairs x 16 components) fails Jacobi and
    # d w = 0 at (1, 2, 3) already: the verdicts read that component alone, 6 S3
    # terms each, where jacobiator and d_omega compute all 560
    from spdeg import tensor

    rng = random.Random(16)
    mu = Bracket(16, {(i, j): {k: rng.randint(1, 9) for k in range(1, 17)}
                      for i in range(1, 17) for j in range(i + 1, 17)})
    calls = {"apply": 0, "omega": 0}
    apply, omega = Bracket.apply, tensor.omega

    def counted_apply(self, u, v):
        calls["apply"] += 1
        return apply(self, u, v)

    def counted_omega(u, v):
        calls["omega"] += 1
        return omega(u, v)
    monkeypatch.setattr(Bracket, "apply", counted_apply)
    monkeypatch.setattr(tensor, "omega", counted_omega)
    assert not is_lie(mu) and not is_closed(mu)
    assert calls == {"apply": 6, "omega": 6}


# -- the action ------------------------------------------------------------------


def test_act_identity():
    mu = _mu("n4")
    assert act(linalg.identity(4), mu, linalg.identity(4)) == mu


def test_act_worked_example_family():
    g = [[ExpPoly.const(1) if i == j else ExpPoly.const(0) for j in range(4)]
         for i in range(4)]
    g[1][1] = ExpPoly.exp(1)
    g[3][3] = ExpPoly.exp(-1)
    moved = act(g, _mu("d4_2:w2"), symplectic_inverse(g))
    assert moved.entry(1, 2, 2) == ExpPoly.const(-1)
    assert moved.entry(1, 3, 3) == ExpPoly.const(2)
    assert moved.entry(1, 4, 4) == ExpPoly.const(1)
    assert moved.entry(2, 3, 4) == ExpPoly.exp(-2)


def test_act_is_group_action_50_random_pairs():
    rng = random.Random(41)
    mu = _mu("r2r2", F(1))
    for _ in range(50):
        g = rational_symplectic(rng)
        h = rational_symplectic(rng)
        gh = linalg.mat_mul(g, h)
        moved = act(g, act(h, mu, symplectic_inverse(h)), symplectic_inverse(g))
        assert act(gh, mu, symplectic_inverse(gh)) == moved


# -- symplectic membership ---------------------------------------------------------


def test_is_symplectic_block_scaling():
    g = [[F(3), 0, 0, 0], [0, F(-2, 7), 0, 0], [0, 0, F(1, 3), 0], [0, 0, 0, F(-7, 2)]]
    assert is_symplectic(g)


def test_is_symplectic_exppoly_curve():
    inst = catalog.parse_curve("appendix:d411-rh3")
    assert is_symplectic(inst.g)
    gi = symplectic_inverse(inst.g)
    prod = linalg.mat_mul(inst.g, gi)
    ident = [[ExpPoly.const(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert all(prod[i][j] == ident[i][j] for i in range(4) for j in range(4))


def test_is_symplectic_counterexample():
    g = [[F(2), 0, 0, 0], [0, F(1), 0, 0], [0, 0, F(1), 0], [0, 0, 0, F(1)]]
    assert not is_symplectic(g)


def test_symplectic_closure_under_inverse_and_product_50_samples():
    rng = random.Random(43)
    for _ in range(50):
        g = rational_symplectic(rng)
        h = rational_symplectic(rng)
        assert is_symplectic(g)
        assert is_symplectic(symplectic_inverse(g))
        assert is_symplectic(linalg.mat_mul(g, h))


def test_transvection_is_symplectic_for_any_vector():
    t = transvection([F(1), F(-2), F(1, 3), F(5)], F(-3, 7))
    assert is_symplectic(t)


def test_closedness_is_equivariant():
    rng = random.Random(47)
    for key in ("n4", "d4_2:w2", "h4:plus"):
        mu = _mu(key)
        assert is_closed(mu)
        for _ in range(5):
            g = rational_symplectic(rng)
            assert is_closed(act(g, mu, symplectic_inverse(g)))


# -- distances -------------------------------------------------------------------


def test_bracket_distance_examples():
    mu = _mu("n4")
    assert bracket_distance(mu, mu) == 0
    assert bracket_distance(_mu("a4"), _mu("rh3")) == 1


def test_bracket_distance_dim_mismatch():
    with pytest.raises(ValueError):
        bracket_distance(Bracket(4), Bracket(6))


# -- dense conversions and serialization ---------------------------------------------


def test_bracket_file_repeating_a_json_key_is_refused():
    # json.loads alone keeps the last of two equal keys, so c_12^4 would read as 5
    for text in ('{"dim": 4, "bracket": {"1,2": {"4": "1"}, "1,2": {"4": "5"}}}',
                 '{"dim": 4, "bracket": {"1,2": {"4": "1", "4": "5"}}}'):
        with pytest.raises(ValueError, match='key "(1,2|4)" appears twice'):
            Bracket.from_json(text)


def test_table_bracket_roundtrip():
    mu = _mu("d4p:plus", F(5, 2))
    assert table_to_bracket(bracket_to_table(mu)) == mu


def test_json_roundtrip_bit_exact():
    for key, param in (("n4", None), ("h4:plus", None), ("r2r2", F(7, 3)),
                       ("d4p:minus", F(5, 2))):
        mu = _mu(key, param)
        text = mu.to_json()
        again = Bracket.from_json(text)
        assert again == mu
        assert again.to_json() == text


def test_json_schema_shape():
    d = _mu("n4").to_json_dict()
    assert d == {"dim": 4, "scalars": "rational", "omega": "canonical",
                 "bracket": {"1,2": {"4": "1"}, "1,4": {"3": "1"}}}
