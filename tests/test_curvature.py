import random
from fractions import Fraction as F

import pytest

from spdeg import catalog, linalg
from spdeg.catalog import scaling_transform, shear_transform, rho_family
from spdeg.curvature import (_moved_ricci_matrix, einstein_check, find_degenerate_ricci,
                             levi_civita, ricci, ricci_form)
from spdeg.degeneration import DIAGRAM_CLASSES
from spdeg.tensor import act, is_symplectic, symplectic_inverse

from helpers import rational_symplectic
from oracles import (RICCI_SIGN, fraction_ricci_matrix, metric_compatible, ricci_matrix_float,
                     ricci_nilpotent, riemann, signature_float, tau6, torsion_free,
                     varrho_family, xi_family)


def _diag(*xs):
    return [[F(x) if i == j else F(0) for j in range(len(xs))] for i, x in enumerate(xs)]


def _mu(key, param=None):
    return catalog.bracket_of(key, param)


def test_levi_civita_flat_abelian():
    lc = levi_civita(_mu("a4"))
    assert all(all(x == 0 for x in lc[i][j]) for i in range(4) for j in range(4))


def test_torsion_and_metric_compatibility_all_classes():
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid)
        assert torsion_free(mu), str(cid)
        assert metric_compatible(levi_civita(mu)), str(cid)


def test_riemann_antisymmetric_in_first_two_slots():
    mu = _mu("d4_1:w1")
    r = riemann(mu)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert r[i][j][k] == [-x for x in r[j][i][k]]


def test_riemann_traces_to_the_ricci_form():
    # sum_b R(e_b, e_a)e_c . e_b: the full tensor as an oracle for the
    # traced contraction, on every tabulated class and a few conjugates
    brackets = [catalog.make(cid) for cid in DIAGRAM_CLASSES]
    rng = random.Random(17)
    conjugators = [rational_symplectic(rng) for _ in brackets[::8]]
    brackets += [act(g, mu, symplectic_inverse(g)) for g, mu in zip(conjugators, brackets[::8])]
    for mu in brackets:
        r = riemann(mu)
        traced = [[sum(r[b][a][c][b] for b in range(4)) for c in range(4)] for a in range(4)]
        assert traced == ricci_form(mu).m, repr(mu)


def test_ricci_sign_matches_both_fixtures():
    # the contraction's trace-slot sign is a constant; these two fixtures
    # (reduced nilpotent formula, tabulated diag(-3,-1,-1,1)) pin it
    assert RICCI_SIGN == -1
    xi2 = xi_family(F(2))
    r4 = _mu("r4_m1_beta", F(-1))
    assert ricci_form(xi2).m == fraction_ricci_matrix(xi2) == ricci_nilpotent(xi2).m
    assert ricci_form(r4).m == fraction_ricci_matrix(r4) == _diag(-3, -1, -1, 1)


def test_ricci_form_is_four_dimensional():
    # both Ricci kernels work on R^4 only; any other dimension is refused by name
    tau = tau6()
    with pytest.raises(ValueError, match="dimension 4, not 6"):
        ricci_form(tau)
    g = linalg.identity(6)
    with pytest.raises(ValueError, match="dimension 4, not 6"):
        _moved_ricci_matrix(g, tau)


def test_ricci_reference_values():
    assert ricci(_mu("r4_m1_beta", F(-1))).ricci.m == _diag(-3, -1, -1, 1)
    assert ricci(_mu("a4")).ricci.m == linalg.zeros(4)


@pytest.mark.parametrize("t", [F(1, 2), F(2), F(3)])
def test_ricci_scaling_family_diagonal(t):
    got = ricci(xi_family(t)).ricci.m
    expect = _diag(-t * t / 2 - t ** 4 / 2, -t * t / 2, t ** 4 / 2, t * t / 2 - t ** 4 / 2)
    assert got == expect


def test_ricci_scaling_family_signatures():
    assert ricci(xi_family(F(1, 2))).ricci.signature() == (2, 2, 0)
    assert ricci(xi_family(F(2))).ricci.signature() == (1, 3, 0)
    assert ricci(xi_family(F(3))).ricci.signature() == (1, 3, 0)


def test_ricci_nilpotent_agrees_with_full_path_on_nilpotent_classes():
    from spdeg.invariants import nilpotent

    nil = [cid for cid in DIAGRAM_CLASSES if nilpotent(catalog.make(cid))]
    assert len(nil) >= 3  # a4, rh3, n4
    for cid in nil:
        mu = catalog.make(cid)
        assert ricci_nilpotent(mu).m == ricci(mu).ricci.m
    for t in (F(1, 2), F(2), F(5)):
        assert ricci_nilpotent(xi_family(t)).m == ricci(xi_family(t)).ricci.m


def test_ricci_nilpotent_example_values():
    assert ricci_nilpotent(xi_family(F(2))).m == _diag(-10, -2, 8, -6)
    assert ricci_nilpotent(_mu("a4")).m == linalg.zeros(4)


def test_ricci_nilpotent_rejects_solvable_input():
    with pytest.raises(ValueError):
        ricci_nilpotent(rho_family(F(12)))
    # the shear family is handled by the full path instead
    assert ricci(rho_family(F(12))).ricci.signature() == (1, 3, 0)
    assert ricci(varrho_family(F(2))).ricci.signature() == (1, 3, 0)


def test_einstein_checks():
    c = einstein_check(rho_family(F(0)))
    assert c is not None and c < 0
    assert einstein_check(_mu("a4")) == 0
    assert einstein_check(_mu("r4_m1_beta", F(-1))) is None


def test_scalar_curvature_is_trace():
    tensors = ricci(rho_family(F(0)))
    assert tensors.scalar_curv == sum(tensors.ricci.m[i][i] for i in range(4))
    assert tensors.scalar_curv < 0


def test_lemma_transforms_are_symplectic():
    assert is_symplectic(scaling_transform(F(2)))
    assert is_symplectic(scaling_transform(F(1, 2)))
    for t in (F(0), F(-7, 3), F(1, 2), F(12)):
        assert is_symplectic(shear_transform(t))
    with pytest.raises(ValueError):
        scaling_transform(F(0))


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_at(p, t):
    return sum(c * t ** k for k, c in enumerate(p))


def test_find_degenerate_ricci_on_shear_family():
    scan = find_degenerate_ricci(rho_family, 0, 12)
    assert scan.variations == (3, 2)
    assert len(scan.roots) == 1
    r = scan.roots[0]
    assert 0 < float(r.t_hat) < 12
    assert abs(r.det_at_t_hat) < 1e-12
    assert r.signature_below == (0, 4, 0)
    assert r.signature_above == (1, 3, 0)
    assert r.low <= r.t_hat <= r.high
    # the root is t^2 = (sqrt(1201) - 25)/2, t = 2.19720810374517...
    assert r.high - r.low <= F(1, 2 ** 50)
    assert (2 * r.low ** 2 + 25) ** 2 < 1201 < (2 * r.high ** 2 + 25) ** 2


def test_det_ricci_polynomial_is_exact_off_the_nodes():
    # -(t^2 + 18)(t^4 + 25t^2 - 144)/512; the nodes are t = 0..24, so agreement at
    # other points guards the degree bound
    want = [c / -512 for c in _poly_mul([18, 0, 1], [-144, 0, 25, 0, 1])]
    poly = find_degenerate_ricci(rho_family, 0, 12).det_poly
    assert poly == want
    for t in (F(25), F(1, 3), F(-7, 2)):
        assert _poly_at(poly, t) == linalg.det(ricci_form(rho_family(t)).m)


def _vandermonde_solution(values):
    """The interpolating coefficients by rref of [t^k | value] over Fraction."""
    nodes = range(len(values))
    rows = [[F(t) ** k for k in nodes] + [F(v)] for t, v in zip(nodes, values)]
    return [row[-1] for row in linalg.rref(rows)[0]]


def test_newton_interpolation_matches_the_vandermonde_solution():
    from spdeg.curvature import DET_DEGREE, _det_exact, _interpolate

    values = [_det_exact(rho_family, F(t)) for t in range(DET_DEGREE + 1)]
    want = [c / -512 for c in _poly_mul([18, 0, 1], [-144, 0, 25, 0, 1])]
    got = _interpolate(values)
    assert got == _vandermonde_solution(values) == want + [0] * (DET_DEGREE + 1 - len(want))
    rng = random.Random(37)
    for n in (1, 2, 5, 13):
        values = [F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
        assert _interpolate(values) == _vandermonde_solution(values)


def test_sturm_count_sees_two_roots_in_one_scan_cell(monkeypatch):
    from spdeg import curvature

    # roots 1/3 and 1/3 + 1/1000 in the cell [0.3, 0.4]; positive at every point
    # of the 120-cell grid on [0, 12], so a sign scan of that grid finds nothing
    r1, r2 = F(1, 3), F(1003, 3000)
    p = _poly_mul(_poly_mul([-r1, 1], [-r2, 1]), [1, 0, 1])
    assert all(_poly_at(p, F(k, 10)) > 0 for k in range(121))
    # t = 3 is a double root that the bisection of (0, 12] lands on: it counts once
    for q, want in ((p, [r1, r2]), (_poly_mul(p, [9, -6, 1]), [r1, r2, F(3)])):
        monkeypatch.setattr(curvature, "_det_exact", lambda family, t: _poly_at(q, t))
        scan = find_degenerate_ricci(rho_family, 0, 12)
        assert scan.det_poly == q
        assert scan.variations[0] - scan.variations[1] == len(scan.roots) == len(want)
        for r, t in zip(scan.roots, want):
            assert r.low < t <= r.high and r.high - r.low <= F(1, 2 ** 50)


def test_degree_det_degree_polynomial_is_interpolated_whole(monkeypatch):
    # rho's det Ric has degree 6; a det of degree exactly DET_DEGREE needs every node
    from spdeg import curvature

    p = _poly_mul([-F(1, 3), 1], [1] + [0] * (curvature.DET_DEGREE - 2) + [1])
    assert len(p) == curvature.DET_DEGREE + 1
    monkeypatch.setattr(curvature, "_det_exact", lambda family, t: _poly_at(p, t))
    scan = find_degenerate_ricci(rho_family, 0, 1)
    assert scan.det_poly == p
    assert len(scan.roots) == 1 and scan.roots[0].low < F(1, 3) <= scan.roots[0].high


def test_isolating_interval_stops_at_width_two_to_the_minus_fifty(monkeypatch):
    # bisecting the dyadic (0, 1] gives widths 2**-n, so the isolation stops at
    # exactly 2**-50, not one halving later
    from spdeg import curvature

    p = _poly_mul([-F(1, 3), 1], [1, 0, 1])
    monkeypatch.setattr(curvature, "_det_exact", lambda family, t: _poly_at(p, t))
    scan = find_degenerate_ricci(rho_family, 0, 1)
    assert len(scan.roots) == 1
    assert all(r.high - r.low == F(1, 2 ** 50) for r in scan.roots)


def test_find_degenerate_ricci_reports_no_root():
    # no sign change of det Ric on (0, 1): negative definite throughout
    assert find_degenerate_ricci(rho_family, 0, 1).roots == []


def test_signature_locally_constant_where_nondegenerate():
    mu = _mu("r4_m1_beta", F(-1))
    base = signature_float(ricci_matrix_float(mu), tol=1e-6)
    rng = random.Random(5)
    for _ in range(5):
        from spdeg.tensor import transvection
        u = [F(rng.randint(-2, 2), 97) for _ in range(4)]
        g = transvection(u, F(1, 89))
        moved = act(g, mu, symplectic_inverse(g))
        assert signature_float(ricci_matrix_float(moved), tol=1e-6) == base


def test_ricci_pullback_equivariance_orthogonal_symplectic_float_path():
    # orthogonal-symplectic block rotations built from rational unit pairs
    a1, b1 = F(3, 5), F(4, 5)
    a2, b2 = F(5, 13), F(12, 13)
    g = [[a1, 0, -b1, 0], [0, a2, 0, -b2], [b1, 0, a1, 0], [0, b2, 0, a2]]
    assert is_symplectic(g)
    gt = linalg.transpose(g)
    assert linalg.mat_mul(gt, g) == linalg.identity(4)
    for key in ("n4", "d4_1:w1"):
        mu = _mu(key)
        ginv = symplectic_inverse(g)
        lhs = ricci_matrix_float(act(g, mu, ginv))
        rhs_exact = linalg.mat_mul(linalg.transpose(ginv),
                                   linalg.mat_mul(ricci_form(mu).m, ginv))
        rhs = [[float(x) for x in row] for row in rhs_exact]
        assert all(abs(lhs[i][j] - rhs[i][j]) < 1e-9 for i in range(4) for j in range(4))
