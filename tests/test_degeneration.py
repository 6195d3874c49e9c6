import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from spdeg import catalog, degeneration, linalg
from spdeg.catalog import CurveInstance, class_id, parse_curve
from spdeg.degeneration import (DIAGRAM_CLASSES, EXCEPTIONAL_KEYS, HASSE_EDGES, HASSE_NODES,
                                NODE_BY_ID, R2P_TRAP, R2R2_TRAP, SuiteCheck, _REFERENCES,
                                _borbit_samples, _edge_instances, _trace_rows,
                                _vanishes_on_kernel, _witness_route, TrapError, TrapPattern,
                                borbit_element, classify_pairs, hasse, quadratics_agree,
                                r2r2_trap_residual, verify_curve, witness_for_class)
from spdeg.invariants import derived_dim, obstruction_report
from spdeg.scalars import ExpPoly
from spdeg.tensor import Bracket, act, is_closed, is_lie, is_symplectic, symplectic_inverse

from helpers import curve_instances, rational_borbit, rational_symplectic
from oracles import (a_element, bracket_distance, min_abs_eig_float, n_element, nullspace,
                     random_rational)


# -- curve verification -----------------------------------------------------------


def test_verify_curve_first_item(curve_reports):
    by_label = {r.label: r for r in curve_reports}
    r = by_label["appendix:d422-r4a"]
    assert r.symplectic_exact and r.status == "verified" and r.verified
    ds = [d for _, d in r.distances]
    assert all(b < a for a, b in zip(ds, ds[1:]))
    assert ds[-1] < 1e-8


def test_grid_distances_are_exact_without_math_exp(monkeypatch):
    # every grid value comes from exp(t) := 2**k: no call reaches a float exponential
    def no_exp(x):
        raise AssertionError("math.exp called")
    monkeypatch.setattr(math, "exp", no_exp)
    reports = [verify_curve(inst) for spec in catalog.curves() for inst in curve_instances(spec)]
    reports += [r for e in hasse().edges for r in e.reports]
    for r in reports:
        assert r.verified, r.label
        assert [k for k, _ in r.distances] == [7, 14, 22, 29, 36], r.label
        assert all(type(d) is F for _, d in r.distances), r.label


def test_grid_distance_is_the_max_norm_at_each_grid_point(curve_reports):
    # the grid's gap evaluation against the max-norm of the whole evaluated bracket
    for r in curve_reports:
        inst = parse_curve(r.label)
        for k, d in r.distances:
            at_k = r.moved.map_scalars(lambda c: ExpPoly.coerce(c).eval_base(k))
            assert d == bracket_distance(at_k, inst.target_bracket), (r.label, k)


def test_verify_curve_worked_example_structure():
    inst = parse_curve("ex2:xi_u")
    r = verify_curve(inst)
    assert r.verified
    nonconst = [(i, j, k, c) for (i, j), vec in r.moved.rules.items()
                for k, c in vec.items() if any(ExpPoly.coerce(c).terms)]  # an exponent != 0
    assert nonconst == [(2, 3, 4, ExpPoly.exp(-2))]
    assert r.moved.limit() == catalog.bracket_of("r4_alpha", F(-1, 2))


def test_verify_curve_identity_is_nonproper_limit():
    mu = catalog.bracket_of("n4")
    ident = [[ExpPoly.const(1 if i == j else 0) for j in range(4)] for i in range(4)]
    inst = CurveInstance("identity", None, class_id("n4"), class_id("n4"),
                         ident, mu, mu)
    r = verify_curve(inst)
    assert r.status == "verified"
    assert r.moved.limit() == mu
    assert r.verified  # distances identically zero


def test_verify_curve_divergence_and_wrong_target_reports():
    inst = parse_curve("appendix:rh3-a4")
    backwards = CurveInstance("backwards", None, inst.source, inst.target,
                              linalg.transpose(inst.g), inst.source_bracket,
                              inst.target_bracket)
    # transposing the diagonal matrix changes nothing; flip the clock instead
    flipped = [[ExpPoly({-r: c for r, c in x.terms.items()}) for x in row]
               for row in inst.g]
    diverging = CurveInstance("flipped", None, inst.source, inst.target,
                              flipped, inst.source_bracket, inst.target_bracket)
    r = verify_curve(diverging)
    assert r.status == "no limit"
    assert r.bad_entries
    wrong = CurveInstance("wrong", None, inst.source, inst.target, inst.g,
                          inst.source_bracket, catalog.bracket_of("n4"))
    r = verify_curve(wrong)
    assert r.status == "wrong target"
    assert set(r.bad_entries) == {(1, 2, 4), (1, 4, 3)}


def test_divergent_limit_is_none_and_the_report_names_its_entries():
    # Bracket.limit returns None on a divergent entry; verify_curve then names the
    # divergent entries, and only those, for the report
    ident = [[ExpPoly.const(1 if i == j else 0) for j in range(4)] for i in range(4)]
    mu = Bracket(4, {(1, 2): {3: ExpPoly.exp(1), 4: ExpPoly.exp(-1)},
                     (1, 3): {3: ExpPoly({2: 1, -2: 1})}, (2, 4): {4: ExpPoly.const(3)}})
    assert mu.limit() is None
    r = verify_curve(CurveInstance("divergent", None, class_id("n4"), class_id("n4"),
                                   ident, mu, Bracket(4)))
    assert r.status == "no limit" and not r.verified
    assert r.bad_entries == ((1, 2, 3), (1, 3, 3))


def test_verify_curve_takes_each_entry_limit_once(monkeypatch):
    # one limit pass serves the target check and the distance grid
    seen = []
    real = ExpPoly.limit
    monkeypatch.setattr(ExpPoly, "limit", lambda self: seen.append(self) or real(self))
    for label in ("ex2:xi_u", "appendix:d422-r4a", "appendix:rh3-a4"):
        seen.clear()
        r = verify_curve(parse_curve(label))
        assert r.verified, label
        assert seen == [c for vec in r.moved.rules.values() for c in vec.values()], label


def test_verify_curve_needs_a_strict_decrease():
    # the gap e^-t - c e^-2t, c = 2**14 / 129, is 1/16512 at both exp(t) = 2**7 and
    # 2**14: a grid that stays flat is no decrease, though the limit is right
    gap = ExpPoly({-1: 1, -2: F(-2 ** 14, 129)})
    ident = [[ExpPoly.const(1 if i == j else 0) for j in range(4)] for i in range(4)]
    r = verify_curve(CurveInstance("flat", None, class_id("n4"), class_id("a4"), ident,
                                   Bracket(4, {(1, 2): {3: gap}}), Bracket(4)))
    assert r.status == "verified" and r.final_small
    assert r.distances[:2] == ((7, F(1, 16512)), (14, F(1, 16512)))
    assert not r.decreasing and not r.verified


def test_verify_curve_final_distance_must_fall_strictly_below_the_tolerance():
    # the first distance is 1/128 < 1, so the bound is dist_tol itself, and the
    # last distance is exactly 2**-36: a tie is not small
    r = verify_curve(parse_curve("appendix:rh3-a4"), dist_tol=2 ** -36)
    assert r.distances[0] == (7, F(1, 128)) and r.distances[-1] == (36, F(1, 2 ** 36))
    assert r.status == "verified" and r.decreasing
    assert not r.final_small and not r.verified


def test_verify_curve_flags_non_symplectic():
    mu = catalog.bracket_of("n4")
    bad = [[ExpPoly.const(2 if i == j == 0 else (1 if i == j else 0))
            for j in range(4)] for i in range(4)]
    r = verify_curve(CurveInstance("bad", None, class_id("n4"), class_id("n4"),
                                   bad, mu, mu))
    assert r.status == "not symplectic" and not r.verified


# -- B-orbit parametrization --------------------------------------------------------


def test_borbit_identity_parameters():
    mu = catalog.bracket_of("r2r2", F(7, 3))
    c, big = borbit_element(mu.integer_multiple(), (F(1), F(1)), (0, 0, 0, 0))
    assert c > 0 and big == mu.map_scalars(lambda x: c * x)


def test_borbit_matches_printed_form():
    lam = F(7, 3)
    mu = catalog.bracket_of("r2r2", lam)
    t1, t2, a, x, y, z = F(2), F(3, 2), F(1, 3), F(-1, 2), F(2), F(1, 5)
    xi = rational_borbit(mu, (t1, t2), (a, x, y, z))
    assert xi.pair(1, 3)[2] == t1 and xi.pair(1, 3)[3] == -t1 * a
    assert xi.pair(2, 4)[3] == t2
    assert xi.pair(2, 3)[2] == -t1 * a and xi.pair(2, 3)[3] == a * (t2 + t1 * a)
    assert xi.pair(1, 2)[2] == (a * x + y - t2 * t1 * lam) * t1


def test_borbit_outputs_are_symplectic_lie_algebras():
    rng = random.Random(19)
    for key, param in (("r2r2", F(1)), ("r2p", None), ("d4_2:w2", None)):
        mu = catalog.bracket_of(key, param)
        for _ in range(10):
            t1 = abs(F(rng.randint(1, 5), rng.randint(1, 3)))
            t2 = abs(F(rng.randint(1, 5), rng.randint(1, 3)))
            xi = rational_borbit(mu, (t1, t2),
                                 tuple(F(rng.randint(-3, 3), 2) for _ in range(4)))
            assert is_lie(xi) and is_closed(xi)


def test_borbit_rejects_nonpositive_diagonal():
    mu = catalog.bracket_of("r2p")
    with pytest.raises(ValueError):
        borbit_element(mu.integer_multiple(), (F(0), F(1)), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        borbit_element(mu.integer_multiple(), (F(1), F(-2)), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        borbit_element(mu.integer_multiple(), (F(1), F(0)), (0, 0, 0, 0))


def test_n_element_is_symplectic():
    h = n_element(F(1, 3), F(-2), F(5, 2), F(7))
    assert is_symplectic(h)


# the root subgroups of N in factor order: {(row, col): sign} of the
# off-diagonal entries, and the root in (eps1, eps2) coordinates
ROOT_SUBGROUPS = [({(1, 2): -1, (4, 3): 1}, (1, -1)),
                  ({(3, 1): 1}, (-2, 0)),
                  ({(3, 2): 1, (4, 1): 1}, (-1, -1)),
                  ({(4, 2): 1}, (0, -2))]


def _root_element(entries, s):
    u = linalg.identity(4)
    for (i, j), sign in entries.items():
        u[i - 1][j - 1] = sign * s
    return u


def test_n_element_is_the_ordered_root_subgroup_product():
    rng = random.Random(59)
    for _ in range(25):
        params = [random_rational(rng) for _ in range(4)]
        factors = [_root_element(e, s) for (e, _), s in zip(ROOT_SUBGROUPS, params)]
        assert all(is_symplectic(u) for u in factors)
        prod = factors[0]
        for u in factors[1:]:
            prod = linalg.mat_mul(prod, u)
        assert prod == n_element(*params)


def test_n_is_the_whole_unipotent_radical():
    # a = diag(t1, t2, 1/t1, 1/t2) scales the root subgroup of alpha by
    # t1^alpha1 * t2^alpha2; at the primes t = (2, 3) that factor names alpha
    t1, t2, s = F(2), F(3), F(5, 7)
    a, a_inv = a_element(t1, t2), a_element(1 / t1, 1 / t2)
    c2_roots = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
                if (abs(x), abs(y)) in {(1, 1), (2, 0), (0, 2)}]
    assert len(c2_roots) == 8
    found = []
    for entries, root in ROOT_SUBGROUPS:
        conj = linalg.mat_mul(linalg.mat_mul(a, _root_element(entries, s)), a_inv)
        found += [r for r in c2_roots
                  if conj == _root_element(entries, s * t1 ** r[0] * t2 ** r[1])]
    assert found == [root for _, root in ROOT_SUBGROUPS]
    # they are exactly the roots of C2 positive on phi = (-1, -2): N is the
    # unipotent radical of that positive system, not a subgroup of it
    assert sorted(found) == sorted(r for r in c2_roots if -r[0] - 2 * r[1] > 0)


def test_a_element_covers_the_positive_diagonal():
    for t1, t2 in ((1, 1), (F(2, 3), F(7)), (F(1, 100), 5)):
        g = a_element(t1, t2)
        assert is_symplectic(g)
        assert [g[i][i] for i in range(4)] == [t1, t2, 1 / F(t1), 1 / F(t2)]
    for bad in ((0, 1), (1, 0), (F(-1, 2), 1), (1, -3)):
        with pytest.raises(ValueError):
            a_element(*bad)


# -- trapping subspaces ---------------------------------------------------------------


def test_trap_residual_on_orbit_samples():
    rng = random.Random(29)
    for lam in (F(0), F(1), F(7, 3)):
        mu = catalog.bracket_of("r2r2", lam)
        for _ in range(25):
            t1 = abs(F(rng.randint(1, 4), rng.randint(1, 3)))
            t2 = abs(F(rng.randint(1, 4), rng.randint(1, 3)))
            sample = borbit_element(mu.integer_multiple(), (t1, t2),
                                    tuple(F(rng.randint(-2, 2), 3) for _ in range(4)))
            assert r2r2_trap_residual(sample, lam) == 0


def test_trap_residual_reads_the_scale_of_its_sample():
    # b1 b5 - b2 b4 has degree 2 and lam b3 b4 b6^2 degree 4: C alone is not the
    # point C/c.  Dropping the scale or a wrong lambda must show, or the zero
    # check on the orbit samples would pass vacuously.
    lam = F(7, 3)
    samples = list(_borbit_samples(random.Random(71), catalog.bracket_of("r2r2", lam), 50))
    assert all(r2r2_trap_residual(s, lam) == 0 for s in samples)
    unscaled = sum(r2r2_trap_residual((1, big), lam) != 0 for _, big in samples)
    wrong_lam = sum(r2r2_trap_residual(s, 2) != 0 for s in samples)
    assert unscaled >= 40 and wrong_lam >= 40, (unscaled, wrong_lam)


def test_trap_rejects_off_pattern_brackets():
    with pytest.raises(TrapError):
        R2R2_TRAP.coords(catalog.bracket_of("n4"))
    with pytest.raises(TrapError):
        R2P_TRAP.coords(catalog.bracket_of("n4"))


def test_trap_residual_handcrafted():
    xi = Bracket(4, {(1, 2): {3: F(1)}, (2, 3): {4: F(1)}})
    assert R2R2_TRAP.coords(xi) == (F(1), F(0), F(0), F(0), F(1), F(0))
    assert R2R2_TRAP.embed(R2R2_TRAP.coords(xi)) == xi
    assert r2r2_trap_residual((1, xi), F(1)) == 1
    # (2, 2*xi) names the same point xi
    assert r2r2_trap_residual((2, xi.map_scalars(lambda x: 2 * x)), F(1)) == 1


def test_trap_shared_coordinate_enforced():
    bad = Bracket(4, {(1, 3): {4: F(1)}, (2, 3): {3: F(2)}})
    with pytest.raises(TrapError):
        R2R2_TRAP.coords(bad)
    b = (F(1), F(2), F(3), F(4))
    xi = R2P_TRAP.embed(b)
    assert xi.entry(1, 3, 3) == xi.entry(1, 4, 4) == xi.entry(2, 4, 3) == 2
    assert R2P_TRAP.coords(xi) == b
    with pytest.raises(TrapError):
        R2P_TRAP.coords(Bracket(4, {(1, 3): {3: F(1)}, (1, 4): {4: F(2)}}))


def test_unimodular_loci_by_rank_match_the_rref_kernel():
    # a form vanishes on ker T exactly when it is in the row space of T; the oracle's
    # kernel basis gives the same r2r2 locus and r2p forced-zero set
    checks = {c.name: c for c in degeneration.non_degeneration_suite(samples=1)}
    trace6 = _trace_rows(R2R2_TRAP)
    basis = nullspace(trace6)
    assert len(basis) == 4 and all(v[2] == 0 and v[3] == -v[5] for v in basis)
    assert checks["trap_residual_r2r2_to_n4"].details[
        "unimodular_locus_is_b3_0_b4_eq_minus_b6"] is True
    for form in ([0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1], [1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]):
        on_kernel = all(sum(f * x for f, x in zip(form, v)) == 0 for v in basis)
        assert _vanishes_on_kernel(trace6, form) == on_kernel
    assert not _vanishes_on_kernel(trace6, [1, 0, 0, 0, 0, 0])  # control: e1* is free
    trace4 = _trace_rows(R2P_TRAP)
    forced = {i for i in range(4) if all(v[i] == 0 for v in nullspace(trace4))}
    assert forced == {1, 3}
    assert checks["trap_containment_r2p_to_n4"].details["unimodular_forced_zero"] == [1, 3]
    assert {i for i, e in enumerate(linalg.identity(4)) if _vanishes_on_kernel(trace4, e)} == forced


def test_derived_dim_bound_is_read_off_the_free_slots():
    # b2 = b4 = 0 on the r2p unimodular locus leaves b1 and b3, whose slots (1,2,4) and
    # (2,3,4) both write into e4: derived dim <= 1 for every (b1, b3), not only at samples
    rng = random.Random(37)
    assert R2P_TRAP.axes({0, 2}) == {4} and R2P_TRAP.axes({1}) == {3, 4}
    for _ in range(20):
        b1, b3 = random_rational(rng), random_rational(rng)
        assert derived_dim(R2P_TRAP.embed([b1, F(0), b3, F(0)])) <= 1
    check = {c.name: c for c in degeneration.non_degeneration_suite(samples=2)}[
        "trap_containment_r2p_to_n4"]
    assert check.passed and check.details["derived_dim_bound_holds"] is True
    # control: free slots into e3 and e4 fail the check, and the bound does fail there
    control = TrapPattern("control", (((1, 2, 3),), ((1, 3, 4),)))
    assert control.axes({0, 1}) == {3, 4}
    assert derived_dim(control.embed([F(1), F(1)])) == 2


@pytest.mark.parametrize("k", [1, 3])
def test_containment_samples_count_the_checked_ones(monkeypatch, k):
    from spdeg import degeneration

    r2p, n4 = catalog.bracket_of("r2p"), catalog.bracket_of("n4")
    calls = []

    def leaves_pattern_at_k(scaled, a_params, n_params):
        if scaled == r2p.integer_multiple():
            calls.append(scaled)
            if len(calls) == k:
                return 1, n4  # off the r2p pattern
        return borbit_element(scaled, a_params, n_params)

    monkeypatch.setattr(degeneration, "borbit_element", leaves_pattern_at_k)
    check = {c.name: c for c in degeneration.non_degeneration_suite(samples=5)}[
        "trap_containment_r2p_to_n4"]
    assert not check.passed and len(calls) == k
    assert check.details["containment_samples"] == k - 1


def test_r2p_orbit_lands_in_trap():
    rng = random.Random(31)
    mu = catalog.bracket_of("r2p")
    for _ in range(25):
        t1 = abs(F(rng.randint(1, 4), rng.randint(1, 3)))
        t2 = abs(F(rng.randint(1, 4), rng.randint(1, 3)))
        c, big = borbit_element(mu.integer_multiple(), (t1, t2),
                                tuple(F(rng.randint(-2, 2), 3) for _ in range(4)))
        coords = R2P_TRAP.coords(big)
        assert len(coords) == 4 and all(type(b) is int for b in coords)
        assert R2P_TRAP.coords(big.map_scalars(lambda x: F(x, c))) == tuple(F(b, c) for b in coords)


def test_quadratics_agree_tells_every_quadratic_from_zero():
    # x^2 - x vanishes at 0, e_i and e_1 + e_2; only -e_1 tells it from zero
    assert not quadratics_agree(lambda p: p[0] * p[0] - p[0], lambda p: 0, 2)
    assert quadratics_agree(lambda p: (p[0] - p[2]) ** 2,
                            lambda p: p[0] ** 2 - 2 * p[0] * p[2] + p[2] ** 2, 3)


# -- the assembled diagram --------------------------------------------------------------


def test_hasse_all_edges_verified(hasse_report):
    assert hasse_report.all_verified
    assert hasse_report.strict_der_omega
    assert len(hasse_report.edges) == len(HASSE_EDGES) == 35


def test_hasse_edge_curves_join_their_nodes():
    for source, target, curve_id in HASSE_EDGES:
        insts = _edge_instances(source, curve_id)
        assert ({str(i.source) for i in insts}
                == {str(c) for c in NODE_BY_ID[source].class_ids()}), curve_id
        assert ({str(i.target) for i in insts}
                == {str(c) for c in NODE_BY_ID[target].class_ids()}), curve_id
    in_no_edge = {c.id for c in catalog.curves()} - {row[2] for row in HASSE_EDGES}
    assert in_no_edge == {"ex2:xi_u"}


def test_hasse_rejects_self_loops():
    # the degeneration order is strict
    assert all(source != target for source, target, _ in HASSE_EDGES)


def test_hasse_dot_output(hasse_report):
    dot = hasse_report.dot
    assert dot.startswith("digraph")
    assert '"d4_2:w2" -> "r4_alpha:alpha=-1/2"' in dot
    assert '"rh3" -> "a4"' in dot
    assert dot.count("->") == 35
    assert dot.count(" [style=solid];") == 35  # every edge verified, none dashed
    assert '[label="(n4, w)"]' in dot


def test_hasse_needs_der_omega_to_strictly_increase(monkeypatch):
    # with dim Der_w equal on every class, no edge increases it
    from spdeg import degeneration

    monkeypatch.setattr(degeneration, "der_omega_dim", lambda cid: 4)
    report = hasse()
    assert not any(e.der_omega_increases for e in report.edges)
    assert not report.strict_der_omega and report.all_verified


def test_hasse_applies_the_strict_rule_of_the_battery_table(monkeypatch):
    # hasse reads the relation of dim_der_omega_strictly_increases from
    # OBSTRUCTION_RULES: made non-strict there, equal dim Der_w passes every edge
    import operator

    from spdeg import degeneration

    rules = [(name, value, operator.le if name == "dim_der_omega_strictly_increases" else holds)
             for name, value, holds in degeneration.OBSTRUCTION_RULES]
    monkeypatch.setattr(degeneration, "OBSTRUCTION_RULES", tuple(rules))
    monkeypatch.setattr(degeneration, "der_omega_dim", lambda cid: 4)
    report = hasse()
    assert all(e.der_omega_increases for e in report.edges) and report.strict_der_omega


def test_hasse_closure_contains_composites(hasse_report):
    closure = hasse_report.closure
    assert "a4" in closure["d4_2:w2"]      # via r4_alpha and n4 and rh3
    assert "rh3" in closure["h4:plus"]
    assert "n4" not in closure["r2r2"]     # excluded by the worked argument


def test_battery_never_contradicts_reachable_pairs(hasse_report, nondeg_checks):
    for a, b, status in classify_pairs(hasse_report, nondeg_checks):
        if status != "reachable":
            continue
        for s in NODE_BY_ID[a].class_ids():
            for t in NODE_BY_ID[b].class_ids():
                assert obstruction_report(s, t) == [], (a, b)


def test_pair_classification_is_exhaustive(hasse_report, nondeg_checks):
    pairs = classify_pairs(hasse_report, nondeg_checks)
    n = len(NODE_BY_ID)
    assert len(pairs) == n * (n - 1)
    assert {s for _, _, s in pairs} == {"reachable", "obstructed", "open"}
    status = {(a, b): s for a, b, s in pairs}
    for check in nondeg_checks:
        assert status[check.pair] == "obstructed", check.name


def test_family_pair_is_obstructed_only_when_every_member_is(hasse_report, nondeg_checks):
    # beta = 0 is unimodular and these targets are not, so that member alone is
    # excluded; beta = -1/2 and 1/2 pass the battery, so the family pair stays open
    status = {(a, b): s for a, b, s in classify_pairs(hasse_report, nondeg_checks)}
    for target in ("rr3_0", "r4_m1_beta:beta=-1", "d4_lambda:lambda=1/2"):
        assert status[("r4_m1_beta", target)] == "open", target
        members = NODE_BY_ID[target].class_ids()
        assert all(obstruction_report(class_id("r4_m1_beta", F(0)), t)
                   for t in members), target


def test_a_member_pair_of_one_bracket_is_never_obstructed(hasse_report, nondeg_checks):
    # rr3_m1 is r4_m1_beta:beta=0 verbatim, and the r4_alpha family samples its
    # pinned member alpha = -1/2.  The battery excludes each such member pair
    # by the strict rule alone (dim Der_w cannot strictly increase), yet a bracket lies
    # in its own orbit closure
    same = [(class_id("rr3_m1"), class_id("r4_m1_beta", F(0))),
            (class_id("r4_alpha", F(-1, 2)), class_id("r4_alpha", F(-1, 2)))]
    for s, t in same:
        assert catalog.make(s) == catalog.make(t)
        assert [name for name, _, _ in obstruction_report(s, t)] == [
            "dim_der_omega_strictly_increases"]
    pairs = classify_pairs(hasse_report, nondeg_checks)
    status = {(a, b): s for a, b, s in pairs}
    for a, b in (("rr3_m1", "r4_m1_beta"), ("r4_alpha", "r4_alpha:alpha=-1/2")):
        assert status[(a, b)] == status[(b, a)] == "open", (a, b)
    assert Counter(s for _, _, s in pairs) == {"reachable": 84, "obstructed": 587, "open": 85}


def test_worked_pairs_follow_their_checks(hasse_report):
    worked = [("d4_2:w2", "d4_2:w1"), ("r2r2", "n4"), ("r2p", "n4")]
    checks = [SuiteCheck("failed", False, {}, worked[0]),
              SuiteCheck("passed", True, {}, worked[1])]
    status = {(a, b): s for a, b, s in classify_pairs(hasse_report, checks)}
    assert status[worked[0]] == "open"
    assert status[worked[1]] == "obstructed"
    # with no certificate the battery alone does not exclude the r2p pair
    assert status[worked[2]] == "open"


def test_worked_nondegenerations_not_reachable(hasse_report):
    closure = hasse_report.closure
    assert "d4_2:w1" not in closure["d4_2:w2"]
    assert "n4" not in closure["r2r2"]
    assert "n4" not in closure["r2p"]


@pytest.mark.parametrize("zeroed", [0, 1])
def test_signature_obstruction_needs_nonzero_trace_forms(monkeypatch, zeroed):
    # the argument needs d4_2:w1's form positive and d4_2:w2's negative semidefinite,
    # both nonzero: a zero form in either place (call 0 or 1) must fail the check
    from spdeg import degeneration
    from spdeg.invariants import SymForm

    real, calls = degeneration.composition_trace_form, []

    def one_zero(table):
        calls.append(table)
        return SymForm(linalg.zeros(4)) if len(calls) == zeroed + 1 else real(table)
    monkeypatch.setattr(degeneration, "composition_trace_form", one_zero)
    check = degeneration.non_degeneration_suite(samples=1)[0]
    assert check.name == "signature_obstruction_d422_to_d421" and len(calls) == 2
    assert not check.passed


# -- random symplectic sampling -----------------------------------------------------------


def test_random_symplectic_products_exact():
    rng = random.Random(37)
    for _ in range(50):
        assert is_symplectic(rational_symplectic(rng))


# -- witness search ------------------------------------------------------------------------


def test_witness_for_single_class():
    rec = witness_for_class(class_id("n4"))
    assert rec.status == "witness"
    assert rec.signature == (1, 3, 0)
    assert rec.min_eig_lower_bound > 1e-6
    assert rec.k <= 36


def test_witness_chained_class():
    rec = witness_for_class(class_id("d4_2:w2"))
    assert rec.status == "witness"
    assert "appendix:d422-r4a" in rec.provenance
    assert "appendix:r4alpha-n4" in rec.provenance


def test_witness_special_parameters_use_pinned_plans():
    # at these parameter values the generic family curves are singular, so
    # the witnesses come straight from the reference transforms
    rec = witness_for_class(class_id("d4_lambda", F(1, 2)))
    assert rec.status == "witness" and "shear:t=12" in rec.provenance
    rec = witness_for_class(class_id("r4_m1_beta", F(-1)))
    assert rec.status == "witness" and "identity" in rec.provenance


def _sign_changes(cs):
    signs = [c > 0 for c in cs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def test_witness_certificates_hold(monkeypatch):
    # the Ricci matrix each witness certifies, caught on its way into linalg; the
    # cached reference signatures, which signature_exact takes, are computed first
    from spdeg.degeneration import _reference

    for node in _REFERENCES:
        _reference(node)
    seen = []
    real = linalg.eigen_certificate
    monkeypatch.setattr(linalg, "eigen_certificate", lambda m: seen.append(m) or real(m))
    checked = 0
    for cid in DIAGRAM_CLASSES:
        if cid.key in EXCEPTIONAL_KEYS:
            continue
        rec = witness_for_class(cid)
        assert rec.status == "witness", str(cid)
        ric = seen.pop()
        scale = max(abs(x) for row in ric for x in row)
        a = [[F(x, scale) for x in row] for row in ric]
        # Cayley-Hamilton: p_A(A) = 0 exactly, by Horner's scheme
        p = rec.char_poly
        assert p[0] == 1 and p[1] == -sum(a[i][i] for i in range(4)) and p[4] == linalg.det(a)
        value = linalg.zeros(4)
        for c in p:
            value = [[x + c * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(linalg.mat_mul(value, a))]
        assert value == linalg.zeros(4), str(cid)
        # Descartes on p(x) and p(-x): one positive and three negative eigenvalues
        assert _sign_changes(p) == 1, str(cid)
        assert _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(p)]) == 3, str(cid)
        assert 1e-6 < rec.min_eig_lower_bound <= min_abs_eig_float(ric), str(cid)
        checked += 1
    assert checked == 40 and not seen


def test_witness_signature_is_the_descartes_count(monkeypatch, capsys):
    # control: the witness reads its signature from eigen_certificate alone, so
    # a certificate reporting (2,2,0) at every k leaves no witness and fails theorem-b
    from spdeg.cli import main

    real = linalg.eigen_certificate
    monkeypatch.setattr(linalg, "eigen_certificate", lambda m: (real(m)[0], (2, 2, 0), F(1)))
    assert witness_for_class(class_id("n4")).status == "exhausted"
    assert main(["theorem-b", "--samples", "1"]) == 1
    out = capsys.readouterr().out
    assert "theorem-b: FAIL" in out
    assert ["n4", "SEARCH", "EXHAUSTED"] in [line.split() for line in out.splitlines()]


def test_theorem_b_samples_see_a_nondegenerate_ricci(monkeypatch):
    # control: n4 and d4_1:w1 have Ricci witnesses of signature (1,3,0), so run
    # through the exceptional sample loop they must break all_det_zero, or the
    # loop could pass the three exceptional classes vacuously; they store two
    # pairs, so the loop's rank-one kernel is swapped for the Ricci matrix of
    # the moved bracket, which it equals wherever it applies
    from spdeg import degeneration
    from spdeg.curvature import _ricci_matrix

    controls = [class_id("n4"), class_id("d4_1:w1")]
    monkeypatch.setattr(degeneration, "DIAGRAM_CLASSES", controls)
    monkeypatch.setattr(degeneration, "EXCEPTIONAL_KEYS", ("n4", "d4_1:w1"))
    monkeypatch.setattr(degeneration, "_moved_ricci_matrix",
                        lambda g, mu: _ricci_matrix(act(g, mu, symplectic_inverse(g))))
    records = degeneration.theorem_b_search(samples=20)
    assert [(r.class_id, r.status, r.all_det_zero) for r in records] == [
        ("n4", "exceptional", False), ("d4_1:w1", "exceptional", False)]


def test_reference_transforms_are_symplectic():
    # the witness search acts by them through symplectic_inverse, unchecked
    assert len(_REFERENCES) == 4
    assert all(is_symplectic(g) for _, g in _REFERENCES.values())


def test_witness_routes_follow_the_diagram():
    # the Theorem B dichotomy: exactly the exceptional nodes reach no reference
    unrouted = {n.id for n in HASSE_NODES if _witness_route(n.id) is None}
    assert unrouted == set(EXCEPTIONAL_KEYS)
    for node in ("d4_lambda:lambda=1/2", "r4_m1_beta:beta=-1", "n4", "d4_1:w1"):
        assert _witness_route(node) == ((), node)
    assert _witness_route("d4_2:w3") == (("appendix:d423-r4a", "appendix:r4alpha-n4"), "n4")
    rec = witness_for_class(class_id("a4"))
    assert rec.status == "failed"
    assert rec.reason == "no diagram path from a4 to a reference bracket"
    # a member off the sampled set takes its family's chain
    rec = witness_for_class(class_id("d4_lambda", F(4)))
    assert rec.status == "witness"
    assert rec.provenance[:2] == ("appendix:d4lambda-n4", "scaling:t=2")
