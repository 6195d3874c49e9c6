import random
from fractions import Fraction as F

import pytest

from spdeg import catalog, linalg
from spdeg.catalog import class_id
from spdeg.degeneration import DIAGRAM_CLASSES, hasse
from spdeg.invariants import (AsymmetryError, SymForm, class_invariants, composition_trace_form,
                              der_omega_dim, derivations,
                              derived_dim, equivariant_product, invariants_summary,
                              nilpotent, obstruction_report, symplectic_derivations,
                              unimodular)
from spdeg.tensor import Bracket, act, canonical_form, symplectic_inverse

from helpers import rational_symplectic
from oracles import (act_bilinear, derivation_basis, derivation_kernel_rank_oracle, inverse,
                     is_derivation, killing_form, modified_killing_form, table_to_bracket)

EX1_COEFFS = (0, 1, 0, -1, 0, -1)


def _mu(key, param=None):
    return catalog.bracket_of(key, param)


# -- derivation algebras ------------------------------------------------------------


@pytest.mark.parametrize("key,param,dim", [
    ("a4", None, 16), ("n4", None, 7), ("d4_2:w2", None, 5),
])
def test_derivations_dims(key, param, dim):
    assert derivations(_mu(key, param)).dim == dim


@pytest.mark.parametrize("key,param,dim", [
    ("rh3", None, 5), ("a4", None, 10), ("d4_2:w3", None, 1),
])
def test_symplectic_derivations_dims(key, param, dim):
    assert symplectic_derivations(_mu(key, param)).dim == dim


def test_derivation_basis_satisfies_identity_exactly():
    # .dim comes from the Bareiss rank, the oracle's basis from the RREF nullspace
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        for symplectic, alg in ((False, derivations(mu)), (True, symplectic_derivations(mu))):
            basis = derivation_basis(mu, symplectic)
            assert all(is_derivation(mu, d) for d in basis), str(cid)
            assert len(basis) == alg.dim, str(cid)


def test_theorem_a_dimensions_build_no_rref(monkeypatch):
    def no_rref(m):
        raise AssertionError("the dimension path built an RREF")

    der_omega_dim.cache_clear()
    class_invariants.cache_clear()
    monkeypatch.setattr(linalg, "rref", no_rref)
    reports = [obstruction_report(s, t) for s in DIAGRAM_CLASSES for t in DIAGRAM_CLASSES]
    assert len(reports) == len(DIAGRAM_CLASSES) ** 2
    report = hasse()
    assert report.edges and report.all_verified and report.strict_der_omega


def test_symplectic_derivations_are_skew_adjoint():
    mu = _mu("d4_1:w1")
    j = canonical_form(4)
    for d in derivation_basis(mu, symplectic=True):
        dt_j = linalg.mat_mul(linalg.transpose(d), j)
        j_d = linalg.mat_mul(j, d)
        assert all(dt_j[i][j] + j_d[i][j] == 0 for i in range(4) for j in range(4))


def test_kernel_dims_match_fraction_free_oracle():
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        assert derivations(mu).dim == derivation_kernel_rank_oracle(mu)
        assert (symplectic_derivations(mu).dim
                == derivation_kernel_rank_oracle(mu, symplectic=True))


def test_der_omega_never_exceeds_der():
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        assert symplectic_derivations(mu).dim <= derivations(mu).dim


def test_derivations_rejects_non_lie():
    broken = Bracket(4, {(1, 2): {2: F(1)}, (1, 3): {3: F(2)},
                         (1, 4): {4: F(1)}, (2, 3): {4: F(1)}})
    with pytest.raises(ValueError):
        derivations(broken)


def test_symplectic_derivations_rejects_non_closed_pair():
    # a Lie bracket whose two-form is not closed: [e1,e2] = e1
    open_law = Bracket(4, {(1, 2): {1: F(1)}})
    with pytest.raises(ValueError):
        symplectic_derivations(open_law)


@pytest.mark.parametrize("key,param,group,dim", [
    ("a4", None, "symplectic", 0),
    ("d4_2:w2", None, "symplectic", 9),
    ("n4", None, "symplectic", 7),
    ("n4", None, "general-linear", 9),
])
def test_orbit_dims(key, param, group, dim):
    summary = invariants_summary(class_id(key, param))
    assert summary[f"orbit_dim_{group.replace('-', '_')}"] == dim


# -- equivariant products and trace forms ---------------------------------------------


def test_equivariant_product_identity_coefficients():
    for key in ("d4_2:w1", "n4", "r2r2"):
        mu = _mu(key, F(1) if key == "r2r2" else None)
        table = equivariant_product(mu, (1, 0, 0, 0, 0, 0))
        assert table_to_bracket(table) == mu


def test_chu_connection_is_torsion_free_for_the_bracket():
    for key in ("d4_2:w1", "n4"):
        mu = _mu(key)
        conn = equivariant_product(mu, (0, 0, -1, 0, 0, 0))
        for i in range(4):
            for j in range(4):
                mij = mu.pair(i + 1, j + 1)
                assert [a - b for a, b in zip(conn[i][j], conn[j][i])] == mij


def test_equivariant_product_redundancy_identity():
    rng = random.Random(13)
    for key in ("d4_2:w2", "h4:minus"):
        mu = _mu(key)
        c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6)]
        reduced = (c[0] - c[2], c[1] - c[2], F(0), c[3], c[4], c[5])
        assert equivariant_product(mu, c) == equivariant_product(mu, reduced)


def test_worked_products_match_printed_values():
    lam1 = equivariant_product(_mu("d4_2:w1"), EX1_COEFFS)
    got1 = {(i + 1, j + 1, k + 1): v[k] for i in range(4) for j in range(4)
            for k, v in ((k, lam1[i][j]) for k in range(4)) if v[k] != 0}
    assert got1 == {(1, 1, 1): F(1), (1, 2, 2): F(-1), (1, 3, 3): F(1),
                    (1, 4, 4): F(-1), (2, 1, 2): F(3), (2, 4, 3): F(3)}
    lam2 = equivariant_product(_mu("d4_2:w2"), EX1_COEFFS)
    got2 = {(i + 1, j + 1, k + 1): v[k] for i in range(4) for j in range(4)
            for k, v in ((k, lam2[i][j]) for k in range(4)) if v[k] != 0}
    assert got2 == {(2, 1, 2): F(1), (2, 2, 1): F(-1), (2, 3, 4): F(-1),
                    (2, 4, 3): F(1), (4, 1, 4): F(3), (4, 2, 3): F(-3)}


def test_trace_form_verdicts():
    lam1 = equivariant_product(_mu("d4_2:w1"), EX1_COEFFS)
    lam2 = equivariant_product(_mu("d4_2:w2"), EX1_COEFFS)
    f1, f2 = composition_trace_form(lam1), composition_trace_form(lam2)
    assert f1.signature() == (1, 0, 3)  # positive semidefinite, nonzero
    assert f2.signature() == (0, 1, 3)  # negative semidefinite, nonzero
    zero = composition_trace_form([[[F(0)] * 4 for _ in range(4)] for _ in range(4)])
    assert zero.m == linalg.zeros(4) and zero.signature() == (0, 0, 4)


def test_trace_form_symmetric_on_arbitrary_products():
    # tr(M_X M_Y) = tr(M_Y M_X), so the asymmetry guard stays dormant on any
    # exactly-computed product; it exists to flag transcription errors rather
    # than to average them away
    rng = random.Random(59)
    for _ in range(10):
        table = [[[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
                 for _ in range(4)]
        form = composition_trace_form(table)
        assert form.m == linalg.transpose(form.m)
    assert issubclass(AsymmetryError, ValueError)


def test_symform_names_its_first_asymmetric_entry():
    m = [[F(i + j) for j in range(4)] for i in range(4)]
    m[1][2], m[3][0] = F(7), F(9)  # (2,3) and (1,4) asymmetric, (1,4) first
    with pytest.raises(AsymmetryError, match=r"^form asymmetric at \(1,4\)$"):
        SymForm(m)
    m[3][0] = m[0][3]
    with pytest.raises(AsymmetryError, match=r"^form asymmetric at \(2,3\)$"):
        SymForm(m)


def test_killing_form_examples():
    assert killing_form(_mu("a4")).m == linalg.zeros(4)
    k2 = killing_form(_mu("rr3_0"))
    assert k2.m == [[F(1), F(0), F(0), F(0)], [F(0)] * 4,
                    [F(0)] * 4, [F(0)] * 4]
    mk = modified_killing_form(_mu("rr3_0"), F(-1))
    assert mk.m[0][0] == 0  # killing minus the squared trace form


# -- structural predicates -------------------------------------------------------------


def test_unimodular_derived_nilpotent_examples():
    n4 = _mu("n4")
    assert unimodular(n4) and derived_dim(n4) == 2 and nilpotent(n4)
    mu5 = _mu("r2r2", F(1))
    assert not unimodular(mu5)
    a4 = _mu("a4")
    assert unimodular(a4) and derived_dim(a4) == 0 and nilpotent(a4)
    assert not nilpotent(_mu("rr3_0"))


# -- the obstruction battery ------------------------------------------------------------


def test_obstruction_examples():
    assert obstruction_report(class_id("d4_2:w2"), class_id("a4")) == []
    r = obstruction_report(class_id("rh3"), class_id("n4"))
    names = [name for name, _, _ in r]
    assert "dim_der_omega_strictly_increases" in names
    r = obstruction_report(class_id("n4"), class_id("r2r2", F(1)))
    names = [name for name, _, _ in r]
    assert "unimodularity_preserved" in names


@pytest.mark.parametrize("source,target,violated", [
    # battery-equal: every invariant agrees, so only the strict rule fails
    ("rr3_m1", "rr3p_0", ("dim_der_omega_strictly_increases", 2, 2)),
    ("r4_0:plus", "d4_1:w1", ("dim_der_does_not_decrease", 6, 5)),
    ("rr3_m1", "rr3_0", ("unimodularity_preserved", True, False)),
    ("r2r2:lambda=0", "r4_m1_beta:beta=-1", ("derived_dim_does_not_increase", 2, 3)),
])
def test_each_rule_fails_alone_on_its_control_pair(source, target, violated):
    # each pair violates exactly one rule, so flipping or loosening any relation of
    # the table changes one of these lists
    assert obstruction_report(catalog.parse_class(source),
                              catalog.parse_class(target)) == [violated]


def test_invariants_summary_matches_expected():
    s = invariants_summary(class_id("d4_2:w2"))
    assert s["dim_der_omega"] == 1 and s["dim_der"] == 5
    assert s["matches_expected"]
    assert s["orbit_dim_symplectic"] == 9


# -- equivariance properties -------------------------------------------------------------


def _pullback(form_matrix, ginv):
    git = linalg.transpose(ginv)
    return linalg.mat_mul(git, linalg.mat_mul(form_matrix, ginv))


def test_equivariant_product_is_sp_equivariant_25_samples():
    rng = random.Random(71)
    brackets = [_mu("r2r2", F(1)), _mu("d4_2:w1"), _mu("d4_2:w2")]
    for i in range(25):
        g = rational_symplectic(rng)
        mu = brackets[i % 3]
        lhs = equivariant_product(act(g, mu, symplectic_inverse(g)), EX1_COEFFS)
        rhs = act_bilinear(g, equivariant_product(mu, EX1_COEFFS))
        assert lhs == rhs


def _random_invertible(rng):
    while True:
        g = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)] for _ in range(4)]
        if linalg.det(g) != 0:
            return g


def test_trace_form_and_killing_are_gl_equivariant_25_samples():
    rng = random.Random(73)
    mu = _mu("d4_2:w2")
    theta = equivariant_product(mu, EX1_COEFFS)
    for _ in range(25):
        g = _random_invertible(rng)
        ginv = inverse(g)
        moved_theta = act_bilinear(g, theta, ginv)
        lhs = composition_trace_form(moved_theta).m
        rhs = _pullback(composition_trace_form(theta).m, ginv)
        assert lhs == rhs
        lhs_k = killing_form(act(g, mu, ginv)).m
        rhs_k = _pullback(killing_form(mu).m, ginv)
        assert lhs_k == rhs_k
