"""Differential tests of the integer exact kernels against Fraction oracles.

The oracles are the implementations that the integer kernels replaced:
the Levi-Civita contraction with its 1/2 factor (tests/oracles.py), Gaussian
elimination over Fraction for the determinant, -J g^T J as matrix products
for the symplectic inverse, and the B-orbit element as Fraction matrix
products.  All must agree exactly.  random_symplectic is itself the Fraction
transvection product now; its draw-stream test pins the stream it draws.
The structure-constant Ricci formula differs from the contraction off the
Lie variety; one polarization check proves that the difference is a fixed
linear image of the Jacobiator, so the two agree on every Lie bracket.
"""

import cProfile
import random
from fractions import Fraction as F

import pytest

from spdeg import catalog, degeneration, linalg
from spdeg.curvature import (_moved_ricci_matrix, _rank_one_ricci, _ricci_matrix, _ricci_table,
                             ricci_form)
from spdeg.degeneration import (DIAGRAM_CLASSES, EXCEPTIONAL_KEYS, _borbit_samples,
                                _quadratic_grid, borbit_element, quadratics_agree,
                                random_symplectic)
from spdeg.scalars import ExpPoly
from spdeg.tensor import (Bracket, act, canonical_form, is_lie, jacobiator,
                          symplectic_inverse, transvection)

from helpers import (bench_launch, curve_instances, rank_one_ricci_without_v_terms,
                     rational_symplectic)
from oracles import (a_element, fraction_borbit_element, fraction_ricci_matrix, inverse,
                     leibniz_det, n_element, random_rational, ricci_matrix_float)


def fraction_det(m):
    """Determinant by Gaussian elimination over Fraction."""
    a = [[F(x) for x in row] for row in m]
    n = len(a)
    out = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def old_random_symplectic(rng, factors=(6, 12)):
    """The transvection product as linalg.mat_mul over Fraction matrices."""
    out = linalg.identity(4)
    for _ in range(rng.randint(*factors)):
        u = [random_rational(rng) for _ in range(4)]
        while all(x == 0 for x in u):
            u = [random_rational(rng) for _ in range(4)]
        c = random_rational(rng)
        out = linalg.mat_mul(transvection(u, c), out)
    return out


def old_borbit_samples(rng, mu, n):
    """The draws of _borbit_samples, each acted on by fraction_borbit_element."""
    out = []
    for _ in range(n):
        t1 = abs(random_rational(rng)) + F(1, 3)
        t2 = abs(random_rational(rng)) + F(1, 3)
        nparams = [random_rational(rng) for _ in range(4)]
        out.append(fraction_borbit_element(mu, (t1, t2), nparams))
    return out


def mat_mul_symplectic_inverse(g):
    """-J g^T J as two linalg.mat_mul products with the canonical J."""
    j = canonical_form(len(g))
    return [[-x for x in row] for row in linalg.mat_mul(j, linalg.mat_mul(linalg.transpose(g), j))]


@pytest.fixture(scope="module")
def conjugators():
    """129 seeded random_symplectic elements, three per tabulated instance."""
    rng = random.Random(23)
    return [rational_symplectic(rng) for _ in range(3 * 43)]


@pytest.fixture(scope="module")
def brackets(conjugators):
    """The 43 tabulated instances and three random conjugates of each."""
    base = [catalog.make(cid) for cid in DIAGRAM_CLASSES]
    return base + [act(g, base[i // 3], symplectic_inverse(g)) for i, g in enumerate(conjugators)]


def test_ricci_form_matches_fraction_contraction(brackets):
    assert len(brackets) == 4 * 43
    for mu in brackets:
        form = ricci_form(mu).m
        assert form == fraction_ricci_matrix(mu), repr(mu)
        assert all(type(x) is F for row in form for x in row)


def test_ricci_matrix_float_is_correctly_rounded(brackets):
    for mu in brackets:
        assert ricci_matrix_float(mu) == [[float(x) for x in row]
                                          for row in fraction_ricci_matrix(mu)]


# the 24 structure constants c_ij^k (i < j) of a 4-dimensional bracket
PAIRS = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]


def _bracket(point):
    return Bracket(4, {(i, j): {k: point[4 * p + k - 1] for k in range(1, 5)}
                       for p, (i, j) in enumerate(PAIRS)})


def _difference(point):
    """The 16 entries of _ricci_matrix - 4 * the Levi-Civita contraction."""
    mu = _bracket(point)
    return [x - 4 * y for a, b in zip(_ricci_matrix(mu), fraction_ricci_matrix(mu))
            for x, y in zip(a, b)]


def _jacobiator(point):
    return [x for v in jacobiator(_bracket(point)).values() for x in v]


def _jacobiator_map():
    """The constant L with difference = L . Jac, by least squares over the
    polarization grid, where both are known exactly."""
    grid = _quadratic_grid(24)
    jac = [_jacobiator(p) for p in grid]
    diff = [_difference(p) for p in grid]
    gram = [[sum(r[a] * r[b] for r in jac) for b in range(16)] for a in range(16)]
    rhs = [[sum(r[a] * d[e] for r, d in zip(jac, diff)) for e in range(16)] for a in range(16)]
    return linalg.transpose(linalg.mat_mul(inverse(gram), rhs))


def test_ricci_formula_is_the_contraction_on_every_lie_bracket():
    # both sides are quadratic in the 24 constants, so agreement on the 325
    # grid points is an identity; on a Lie bracket Jac = 0, so the formula
    # equals the contraction
    lmap = _jacobiator_map()
    assert quadratics_agree(_difference, lambda p: linalg.mat_vec(lmap, _jacobiator(p)), 24)
    # control: the difference is not zero off the Lie variety, so L = 0 fails
    assert any(any(row) for row in lmap)
    assert not quadratics_agree(_difference, lambda p: [0] * 16, 24)
    mu = Bracket(4, {(1, 2): {3: 1}, (1, 3): {1: 1}})  # Jac(e1, e2, e3) = -e3
    assert not is_lie(mu)
    assert fraction_ricci_matrix(mu)[0][1] != fraction_ricci_matrix(mu)[1][0]
    assert _ricci_matrix(mu) != [[4 * x for x in row] for row in fraction_ricci_matrix(mu)]


@pytest.mark.parametrize("label", ["appendix:r2r2-d411:lambda=7/3",
                                   "appendix:d4lambda-n4:lambda=7/3", "appendix:h4p-n4",
                                   "appendix:d4pp-n4:delta=2", "appendix:rh3-a4"])
def test_ricci_matrix_is_ring_generic(label):
    # the kernel takes only + - * of its entries: on the ExpPoly moved bracket of a
    # curve, evaluating 4*Ric at exp(t) := 2**k equals 4*Ric of the evaluated bracket
    inst = catalog.parse_curve(label)
    moved = act(inst.g, inst.source_bracket, symplectic_inverse(inst.g))
    ric = _ricci_matrix(moved)
    assert any(isinstance(x, ExpPoly) for row in ric for x in row)
    for k in (4, 8, 12):
        def at(x):
            return ExpPoly.coerce(x).eval_base(k)
        assert [[at(x) for x in row] for row in ric] == _ricci_matrix(moved.map_scalars(at))


def test_integer_ricci_makes_no_fraction_operation(monkeypatch):
    # ints in, ints out; and one exceptional sample of theorem-b, counted as
    # bench/launch.py --mode count counts Fraction arithmetic, makes none
    rng = random.Random(31)
    for key in EXCEPTIONAL_KEYS + ("n4", "d4_1:w1", "r2r2:lambda=7/3"):
        _, mu = catalog.make(catalog.parse_class(key)).integer_multiple()
        _, g = random_symplectic(rng)
        for nu in (mu, act(g, mu, symplectic_inverse(g))):
            assert all(type(x) is int for row in _ricci_matrix(nu) for x in row)
    launch = bench_launch()
    exceptional = [cid for cid in DIAGRAM_CLASSES if cid.key in EXCEPTIONAL_KEYS]
    monkeypatch.setattr(degeneration, "DIAGRAM_CLASSES", exceptional)

    def fraction_ops(samples):
        profile = cProfile.Profile(subcalls=False)
        records = profile.runcall(degeneration.theorem_b_search, 5, samples)
        assert [r.all_det_zero for r in records] == [True] * len(exceptional)
        return launch.fraction_counts(profile)[0]

    assert fraction_ops(2) == fraction_ops(1)


def test_moved_ricci_matrix_refuses_more_than_one_pair():
    # theorem-b runs the rank-one kernel on the exceptional classes only, each
    # with at most one stored pair; a bracket with more is refused by its count
    _, g = random_symplectic(random.Random(47))
    rank_one, counts = set(), set()
    for cid in DIAGRAM_CLASSES:
        mu = catalog.make(cid).integer_multiple()[1]
        if len(mu.rules) <= 1:
            rank_one.add(cid.key)
            continue
        with pytest.raises(ValueError, match=f"one stored pair, not {len(mu.rules)}$"):
            _moved_ricci_matrix(g, mu)
        counts.add(len(mu.rules))
    assert rank_one == set(EXCEPTIONAL_KEYS) and min(counts) == 2


def _single_pair_samples():
    """(g, mu) for 20 random_symplectic g on each exceptional bracket, and 240
    seeded brackets with one stored pair and a dense int pair vector."""
    rng = random.Random(53)
    out = []
    for key in EXCEPTIONAL_KEYS:
        _, mu = catalog.make(catalog.parse_class(key)).integer_multiple()
        out += [(random_symplectic(rng)[1], mu) for _ in range(20)]
    for _ in range(240):
        x = {k: rng.choice((-1, 1)) * rng.randint(1, 9) for k in range(1, 5)}
        out.append((random_symplectic(rng)[1], Bracket(4, {rng.choice(PAIRS): x})))
    return out


def test_rank_one_ricci_matches_the_besse4_path_and_the_contraction():
    # at most one stored pair: the rank-one kernel against act then the three
    # sums of Besse 7.38 in _ricci_matrix (the test id keeps the name of the
    # kernel it replaced), and against the Fraction contraction; every such
    # bracket is Lie, as e^i ^ e^j ^ i_x(e^i ^ e^j) = 0
    samples = _single_pair_samples()
    assert sum(not mu.rules for _, mu in samples) == 20  # a4
    for g, mu in samples:
        assert len(mu.rules) <= 1 and is_lie(mu)
        fused = _moved_ricci_matrix(g, mu)
        moved = act(g, mu, symplectic_inverse(g))
        assert fused == _ricci_matrix(moved), repr(mu)
        assert fused == [[4 * x for x in row] for row in fraction_ricci_matrix(moved)]
        assert all(type(x) is int for row in fused for x in row)
        assert any(any(row) for row in fused) == bool(mu.rules)


def test_rank_one_mutant_without_the_v_terms_is_caught(monkeypatch):
    # the kernel with vw^T + wv^T dropped, that is the Pw^T + wP^T and Qw^T + wQ^T
    # coefficients of C set to 0, is refused by the comparison above wherever
    # those terms live: u = Aw is H, here (x_j P - x_i Q) up to scale, so it
    # vanishes exactly on the unimodular rh3 ([e1, e2] = e3) and never on
    # rr3_0 ([e1, e3] = e3) or a dense pair vector
    from spdeg import curvature
    monkeypatch.setattr(curvature, "_rank_one_ricci", rank_one_ricci_without_v_terms())
    caught = []
    for g, mu in _single_pair_samples():
        if mu.rules:
            ((i, j), x), = mu.rules.items()
            wrong = curvature._moved_ricci_matrix(g, mu) != _ricci_matrix(
                act(g, mu, symplectic_inverse(g)))
            assert wrong == bool(x.get(i) or x.get(j)), repr(mu)
            caught.append(wrong)
    assert sum(caught) == 260 and len(caught) == 280


def test_single_pair_ricci_kills_the_normal_of_p_q_w():
    # the proof that det Ric = 0 on the orbit of every single-pair bracket: with
    # P, Q the rows i, j of g^-1 and w = g [e_i, e_j], 4*Ric lies in the span of
    # PP^T, QQ^T, ww^T and their symmetric products, so the vector x of signed
    # 3x3 minors of (P; Q; w), orthogonal to all three, has Ric x = 0
    rng = random.Random(59)
    for key in ("rh3", "rr3_0"):
        _, mu = catalog.make(catalog.parse_class(key)).integer_multiple()
        ((i, j), vec), = mu.rules.items()
        for _ in range(50):
            _, g = random_symplectic(rng)
            ginv = symplectic_inverse(g)
            w = linalg.mat_vec(g, [vec.get(k, 0) for k in range(1, 5)])
            rows = (ginv[i - 1], ginv[j - 1], w)
            x = [(-1) ** k * leibniz_det([[r[c] for c in range(4) if c != k] for r in rows])
                 for k in range(4)]
            assert any(x) and all(sum(a * b for a, b in zip(r, x)) == 0 for r in rows)
            assert linalg.mat_vec(_moved_ricci_matrix(g, mu), x) == [0] * 4


def _rank_one_sides(x):
    """Both sides of degeneration.rank_one_identity at the 12 coordinates x of P, Q and
    w: the rank-one kernel and Besse 7.38 on the table of A (x) w, 16 entries each."""
    p, q, w, r = x[:4], x[4:8], x[8:], range(4)
    table = [[[(p[k] * q[l] - q[k] * p[l]) * y for y in w] for l in r] for k in r]
    return ([e for row in _rank_one_ricci(p, q, w) for e in row],
            [e for row in _ricci_table(table) for e in row])


def _kronecker_sides(base):
    """_rank_one_sides under x_n -> exp(base^n t)."""
    return _rank_one_sides([ExpPoly.exp(base ** n) for n in range(12)])


def _digit_sums(base, sides):
    """The base-digit sums of every exponent on both sides."""
    out = set()
    for e in (e for side in sides for entry in side for e in entry.terms):
        s = 0
        while e:
            e, d = divmod(e, base)
            s += d
        out.add(s)
    return out


def test_rank_one_identity_has_no_carry_in_base_7():
    # the premise of the expansion proof: both sides are homogeneous of degree 6
    # in the 12 coordinates, so with no carry every exponent sum_n e_n 7^n has
    # base-7 digit sum 6; base 2 carries (2 = 10 in base 2), and the check sees it
    lhs, rhs = _kronecker_sides(7)
    assert lhs == rhs and sum(len(e.terms) for e in rhs) == 1008
    assert _digit_sums(7, (lhs, rhs)) == {6}
    assert _digit_sums(2, _kronecker_sides(2)) != {6}
    assert degeneration.rank_one_identity() == (1008, True)


def test_rank_one_identity_matches_a_sympy_expansion():
    # the oracle: both sides expanded as polynomials in 12 symbols agree, and the
    # number of monomials over the 16 entries is the record's identity_terms
    sympy = pytest.importorskip("sympy")
    lhs, rhs = (list(map(sympy.expand, side)) for side in _rank_one_sides(sympy.symbols("x0:12")))
    assert all(sympy.expand(a - b) == 0 for a, b in zip(lhs, rhs))
    terms = sum(len(sympy.Add.make_args(e)) for e in rhs if e != 0)
    assert terms == degeneration.rank_one_identity()[0] == 1008


def test_det_matches_fraction_elimination(brackets):
    for mu in brackets:
        m = ricci_form(mu).m
        assert linalg.det(m) == fraction_det(m)
    rng = random.Random(41)
    for _ in range(100):
        # sparse, so that the elimination oracle misses pivots and swaps rows
        a = [[F(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.5 else F(0)
              for _ in range(4)] for _ in range(4)]
        if rng.random() < 0.3:
            a[-1] = [2 * x - y for x, y in zip(a[0], a[1])]
        if rng.random() < 0.3:
            a[0] = [0] * 4  # int entries and a zero row
        assert linalg.det(a) == fraction_det(a)


@pytest.mark.parametrize("seed", range(8))
def test_random_symplectic_keeps_its_draw_stream(seed):
    # call after call on one generator: an extra or a missing draw would shift
    # every later sample, so the state must agree after each call
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(12):
        d, g = random_symplectic(new)
        # the least common denominator, as clearing the Fraction matrix gives it
        assert (d, g) == linalg.clear_denominators(old_random_symplectic(old))
        assert all(type(x) is int for row in g for x in row)
        assert new.getstate() == old.getstate()


# r2r2 at three lambdas and r2p are the suite's B-orbits and n4 its target;
# d4_lambda:1/2 and h4:plus have constants 1/2, and a4 has none
BORBIT_KEYS = ["r2r2:lambda=0", "r2r2:lambda=1", "r2r2:lambda=7/3", "r2p", "n4",
               "d4_lambda:lambda=1/2", "h4:plus", "a4"]


def assert_borbit_matches_oracle(mu, a_params, n_params):
    """borbit_element's (c, C) is a positive int scale and an int bracket of the oracle's point."""
    c, big = borbit_element(mu.integer_multiple(), a_params, n_params)
    assert type(c) is int and c > 0
    assert all(type(x) is int for vec in big.rules.values() for x in vec.values())
    assert big.map_scalars(lambda x: F(x, c)) == fraction_borbit_element(mu, a_params, n_params)


@pytest.mark.parametrize("key", BORBIT_KEYS)
def test_borbit_element_matches_fraction_oracle(key):
    mu = catalog.make(catalog.parse_class(key))
    rng = random.Random(61)
    for _ in range(40):
        a_params = (abs(random_rational(rng)) + F(1, 3), abs(random_rational(rng)) + F(1, 3))
        n_params = [random_rational(rng) for _ in range(4)]
        assert_borbit_matches_oracle(mu, a_params, n_params)


@pytest.mark.parametrize("a_params,n_params", [
    ((1, 1), (0, 0, 0, 0)),
    ((F(2), F(1, 3)), (0, 0, 0, 0)),
    ((3, F(5, 2)), (0, F(1, 2), 0, -1)),
    ((F(7, 4), 2), (F(-2, 3), 0, 1, 0)),
])
def test_borbit_element_takes_int_parameters(a_params, n_params):
    for key in ("r2r2:lambda=7/3", "r2p", "h4:plus"):
        mu = catalog.make(catalog.parse_class(key))
        assert_borbit_matches_oracle(mu, a_params, n_params)


@pytest.mark.parametrize("key", ["r2r2:lambda=7/3", "r2p"])
def test_borbit_samples_keep_their_draw_stream(key):
    mu = catalog.make(catalog.parse_class(key))
    new, old = random.Random(67), random.Random(67)
    samples = list(_borbit_samples(new, mu, 30))
    assert all(type(c) is int and c > 0 and all(type(x) is int for vec in big.rules.values()
                                                 for x in vec.values()) for c, big in samples)
    got = [big.map_scalars(lambda x: F(x, c)) for c, big in samples]
    assert got == old_borbit_samples(old, mu, 30)
    assert new.getstate() == old.getstate()


def test_theorem_b_samples_are_the_borbit_draws(monkeypatch):
    # each exceptional sample is the B = A.N matrix D*(g.h) of one draw of the stream of
    # _borbit_samples: the oracle's g.h over Fraction, draw for draw
    seen = []
    inner = degeneration._borbit_matrix
    monkeypatch.setattr(degeneration, "_borbit_matrix", lambda a, n: seen.append(inner(a, n))
                        or seen[-1])
    monkeypatch.setattr(degeneration, "DIAGRAM_CLASSES",
                        [cid for cid in DIAGRAM_CLASSES if cid.key in EXCEPTIONAL_KEYS])
    degeneration.theorem_b_search(seed=71, samples=20)
    assert len(seen) == 60
    old = random.Random(71)
    for d, g in seen:
        t1, t2 = (abs(random_rational(old)) + F(1, 3) for _ in range(2))
        gh = linalg.mat_mul(a_element(t1, t2), n_element(*[random_rational(old) for _ in range(4)]))
        assert [[F(x, d) for x in row] for row in g] == gh


def test_integer_conjugate_scales_ricci_by_d6():
    # theorem-b acts with G = d*g on m*mu: Ric grows by m^2*d^6 > 0 only
    rng = random.Random(29)
    keys = list(EXCEPTIONAL_KEYS) + ["n4", "d4_1:w1", "r2r2:lambda=7/3", "r4_m1_beta:beta=-1"]
    for key in keys:
        mu = catalog.make(catalog.parse_class(key))
        m, imu = mu.integer_multiple()
        for _ in range(3):
            g = rational_symplectic(rng)
            d, big_g = linalg.clear_denominators(g)
            ginv = symplectic_inverse(big_g)
            assert ginv == [[d * x for x in row] for row in symplectic_inverse(g)]
            moved = act(big_g, imu, ginv)
            assert all(type(c) is int for vec in moved.rules.values() for c in vec.values())
            exact = ricci_form(act(g, mu, symplectic_inverse(g)))
            assert ricci_form(moved).m == [[m * m * d ** 6 * x for x in row] for row in exact.m]
            assert ricci_form(moved).signature() == exact.signature()


def _scaled_identity(m, c):
    return all(x == c * (i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def test_symplectic_inverse_matches_mat_mul_oracle(conjugators):
    for g in conjugators:
        inv = symplectic_inverse(g)
        assert inv == mat_mul_symplectic_inverse(g)
        assert _scaled_identity(linalg.mat_mul(g, inv), 1)
        d, big_g = linalg.clear_denominators(g)  # ints; the inverse formula gives d*g^-1
        inv = symplectic_inverse(big_g)
        assert inv == mat_mul_symplectic_inverse(big_g)
        assert all(type(x) is int for row in inv for x in row)
        assert _scaled_identity(linalg.mat_mul(big_g, inv), d * d)
        fg = [[float(x) for x in row] for row in g]
        assert symplectic_inverse(fg) == mat_mul_symplectic_inverse(fg)


def test_symplectic_inverse_of_curves_and_float_matrices():
    curves = [inst.g for spec in catalog.curves() for inst in curve_instances(spec)]
    assert len(curves) == 53
    for g in curves:
        inv = symplectic_inverse(g)
        assert inv == mat_mul_symplectic_inverse(g)
        assert _scaled_identity(linalg.mat_mul(g, inv), 1)
    # small integer transvection data keeps every float product exact
    rng = random.Random(37)
    for _ in range(20):
        g = linalg.identity(4)
        for _ in range(3):
            u = [rng.randint(-2, 2) for _ in range(4)]
            g = linalg.mat_mul(transvection(u, rng.randint(-2, 2)), g)
        fg = [[float(x) for x in row] for row in g]
        inv = symplectic_inverse(fg)
        assert inv == mat_mul_symplectic_inverse(fg)
        assert all(type(x) is float for row in inv for x in row)
        assert _scaled_identity(linalg.mat_mul(fg, inv), 1)


def test_symplectic_inverse_refuses_other_forms():
    with pytest.raises(ValueError, match="even dimension"):
        symplectic_inverse(linalg.identity(3))
