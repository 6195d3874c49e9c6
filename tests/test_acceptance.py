"""Acceptance suite: one test per criterion, each printing its own verdict.

Every assertion here is exact (Fraction / ExpPoly identities) unless the
criterion itself states a binary64 tolerance, which is then pinned verbatim.
"""

import random
from fractions import Fraction as F

from spdeg import catalog, linalg
from spdeg.catalog import parse_curve, rho_family
from spdeg.curvature import einstein_check, find_degenerate_ricci, ricci
from spdeg.degeneration import (DIAGRAM_CLASSES, EXCEPTIONAL_KEYS, NODE_BY_ID,
                                classify_pairs)
from spdeg.invariants import (composition_trace_form, derivations,
                              equivariant_product, obstruction_report,
                              symplectic_derivations)
from spdeg.scalars import ExpPoly
from spdeg.tensor import act, is_closed, is_lie, symplectic_inverse

from helpers import rational_symplectic
from oracles import act_bilinear, inverse, tau6, varrho_family, xi_family


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_derivation_dimension_table():
    table = [(c, catalog.expected_invariants(c)) for c in DIAGRAM_CLASSES]
    for cid, (exp_dw, exp_d) in table:
        mu = catalog.make(cid)
        dw = symplectic_derivations(mu).dim
        d = derivations(mu).dim
        assert (dw, d) == (exp_dw, exp_d), f"{cid}: got ({dw}, {d})"
    _ok(1, f"(dim Der_w, dim Der) matches the table exactly for all "
           f"{len(table)} class instances")


def test_criterion_02_catalog_soundness():
    count = 0
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        assert is_lie(mu), str(cid)
        assert is_closed(mu), str(cid)
        count += 1
    tau = tau6()
    assert is_lie(tau) and is_closed(tau)
    _ok(2, f"Jacobi and closedness hold exactly for {count} class instances "
           f"and the 6-dimensional fixture")


def test_criterion_03_curve_list_verification(curve_reports):
    appendix = [r for r in curve_reports if r.label.startswith("appendix:")]
    assert len(appendix) >= 34
    for r in curve_reports:
        assert r.symplectic_exact, r.label
        assert r.status == "verified", (r.label, r.status, r.bad_entries)
        ds = [d for _, d in r.distances]
        assert all(b < a or a == b == 0 for a, b in zip(ds, ds[1:])), r.label
        assert ds[-1] < 1e-8, (r.label, ds[-1])
    _ok(3, f"all {len(curve_reports)} curve instances: exact symplecticity, "
           f"exact limits, exact distance tails strictly decreasing below 1e-8")


def test_criterion_04_worked_degeneration_curve():
    inst = parse_curve("ex2:xi_u")
    moved = act(inst.g, inst.source_bracket, symplectic_inverse(inst.g))
    assert moved.entry(1, 2, 2) == ExpPoly.const(-1)
    assert moved.entry(1, 3, 3) == ExpPoly.const(2)
    assert moved.entry(1, 4, 4) == ExpPoly.const(1)
    assert moved.entry(2, 3, 4) == ExpPoly.exp(-2)
    nonconst = [(i, j, k) for (i, j), vec in moved.rules.items()
                for k, c in vec.items() if any(ExpPoly.coerce(c).terms)]  # an exponent != 0
    assert nonconst == [(2, 3, 4)]
    assert moved.limit() == catalog.bracket_of("r4_alpha", F(-1, 2))
    _ok(4, "the scaled family equals the printed law with the single "
           "decaying entry and the stated limit")


def test_criterion_05_trace_form_obstruction():
    coeffs = (0, 1, 0, -1, 0, -1)
    lam1 = equivariant_product(catalog.bracket_of("d4_2:w1"), coeffs)
    lam2 = equivariant_product(catalog.bracket_of("d4_2:w2"), coeffs)
    printed1 = {(1, 1, 1): F(1), (1, 2, 2): F(-1), (1, 3, 3): F(1),
                (1, 4, 4): F(-1), (2, 1, 2): F(3), (2, 4, 3): F(3)}
    printed2 = {(2, 1, 2): F(1), (2, 2, 1): F(-1), (2, 3, 4): F(-1),
                (2, 4, 3): F(1), (4, 1, 4): F(3), (4, 2, 3): F(-3)}
    for table, printed in ((lam1, printed1), (lam2, printed2)):
        got = {(i + 1, j + 1, k + 1): table[i][j][k]
               for i in range(4) for j in range(4) for k in range(4)
               if table[i][j][k] != 0}
        assert got == printed
    s1 = composition_trace_form(lam1).signature()
    s2 = composition_trace_form(lam2).signature()
    assert s1[1] == 0 and s1[0] > 0
    assert s2[0] == 0 and s2[1] > 0
    _ok(5, f"both products match the printed laws; trace-form signatures "
           f"{s1} (psd, nonzero) and {s2} (nsd, nonzero)")


def test_criterion_06_trap_subspace_certificates(nondeg_checks):
    by_name = {c.name: c for c in nondeg_checks}
    resid = by_name["trap_residual_r2r2_to_n4"]
    assert resid.passed
    assert resid.details["residual_samples"] == 3000  # 1000 per parameter value
    assert resid.details["derived_dim_n4"] == 2
    contain = by_name["trap_containment_r2p_to_n4"]
    assert contain.passed
    assert contain.details["containment_samples"] == 1000
    _ok(6, "residual exactly zero on 3000 orbit samples; unimodular trap "
           "elements capped at derived dimension 1 < 2")


def test_criterion_07_curvature_reference_values():
    for t in (F(1, 2), F(2), F(3)):
        got = ricci(xi_family(t)).ricci.m
        expect = [[F(0)] * 4 for _ in range(4)]
        for i, v in enumerate((-t * t / 2 - t ** 4 / 2, -t * t / 2,
                               t ** 4 / 2, t * t / 2 - t ** 4 / 2)):
            expect[i][i] = v
        assert got == expect, f"t={t}"
    assert ricci(xi_family(F(1, 2))).ricci.signature() == (2, 2, 0)
    assert ricci(xi_family(F(2))).ricci.signature() == (1, 3, 0)
    assert ricci(xi_family(F(3))).ricci.signature() == (1, 3, 0)
    mu11 = catalog.bracket_of("r4_m1_beta", F(-1))
    assert ricci(mu11).ricci.m == [
        [F(-3), 0, 0, 0], [0, F(-1), 0, 0], [0, 0, F(-1), 0], [0, 0, 0, F(1)]]
    assert ricci(rho_family(F(12))).ricci.signature() == (1, 3, 0)
    assert ricci(varrho_family(F(2))).ricci.signature() == (1, 3, 0)
    c = einstein_check(rho_family(F(0)))
    assert c is not None and c < 0
    _ok(7, f"scaling-family Ricci diagonals exact at three times; reference "
           f"signatures (1,3,0); Einstein constant {c}")


def test_criterion_08_degenerate_ricci_root():
    assert ricci(rho_family(F(0))).ricci.signature() == (0, 4, 0)
    roots = find_degenerate_ricci(rho_family, 0, 12).roots
    assert roots, "no sign change found on (0, 12)"
    certified = [r for r in roots
                 if r.signature_below == (0, 4, 0)
                 and r.signature_above == (1, 3, 0)
                 and abs(r.det_at_t_hat) < 1e-12
                 and 0 < float(r.t_hat) < 12]
    assert certified
    r = certified[0]
    _ok(8, f"degenerate-Ricci time t^ = {float(r.t_hat):.9f} certified with "
           f"|det| = {abs(r.det_at_t_hat):.2e} and exact flanking signatures")


def test_criterion_09_signature_witnesses(theorem_b_records):
    witnesses = [r for r in theorem_b_records if r.status == "witness"]
    exceptional = [r for r in theorem_b_records if r.status == "exceptional"]
    exhausted = [r for r in theorem_b_records if r.status == "exhausted"]
    assert not exhausted
    assert len(exceptional) == len(EXCEPTIONAL_KEYS) == 3
    for r in exceptional:
        assert r.all_det_zero and r.samples == 500, r.class_id
    expected_instances = sum(
        1 for spec in catalog.CLASS_DEFS if spec.key not in EXCEPTIONAL_KEYS
        for _ in (spec.samples or (None,))) + 2  # the two pinned-parameter rows
    assert len(witnesses) == expected_instances
    for r in witnesses:
        assert r.signature == (1, 3, 0), r.class_id
        assert r.min_eig_lower_bound > 1e-6, r.class_id
        assert r.k <= 36, r.class_id
    _ok(9, f"{len(witnesses)} exact witnesses with signature (1,3,0); "
           f"500 exact degenerate samples for each of the 3 exceptional classes")


def test_criterion_10_obstruction_consistency(hasse_report, nondeg_checks):
    assert hasse_report.all_verified
    assert hasse_report.strict_der_omega
    for a, b, status in classify_pairs(hasse_report, nondeg_checks):
        if status != "reachable":
            continue
        for s in NODE_BY_ID[a].class_ids():
            for t in NODE_BY_ID[b].class_ids():
                assert obstruction_report(s, t) == [], (a, b)
    _ok(10, "dim Der_w strictly increases along all 35 edges; the battery "
            "contradicts no reachable pair (transitivity included)")


def test_criterion_11_equivariance():
    rng = random.Random(20240801)
    coeffs = (0, 1, 0, -1, 0, -1)
    brackets = [catalog.bracket_of("r2r2", F(1)),
                catalog.bracket_of("d4_2:w1"),
                catalog.bracket_of("d4_2:w2")]
    for i in range(25):
        g = rational_symplectic(rng)
        mu = brackets[i % 3]
        lhs = equivariant_product(act(g, mu, symplectic_inverse(g)), coeffs)
        rhs = act_bilinear(g, equivariant_product(mu, coeffs))
        assert lhs == rhs
    theta = equivariant_product(brackets[2], coeffs)
    base_form = composition_trace_form(theta).m
    for _ in range(25):
        g = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
             for _ in range(4)]
        if linalg.det(g) == 0:
            continue
        ginv = inverse(g)
        lhs = composition_trace_form(act_bilinear(g, theta, ginv)).m
        rhs = linalg.mat_mul(linalg.transpose(ginv),
                             linalg.mat_mul(base_form, ginv))
        assert lhs == rhs
    _ok(11, "the six-coefficient product is Sp-equivariant and the trace "
            "form GL-equivariant on 25 exact samples each")
