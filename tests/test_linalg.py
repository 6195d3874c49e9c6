import functools
import operator
import random
from fractions import Fraction as F

import pytest

from spdeg import catalog, linalg
from spdeg.curvature import _moved_ricci_matrix, ricci_form
from spdeg.degeneration import DIAGRAM_CLASSES, random_symplectic
from spdeg.scalars import ExpPoly

from oracles import (inverse, leibniz_det, min_abs_eig_float, signature_congruence,
                     signature_float)


def _random_matrix(rng, n, m):
    return [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]


def _random_invertible(rng, n):
    while True:
        a = _random_matrix(rng, n, n)
        if leibniz_det(a) != 0:
            return a


def test_rref_identity_and_pivots():
    a = [[F(2), F(4)], [F(1), F(3)]]
    r, pivots = linalg.rref(a)
    assert r == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_nullspace_known_system():
    # x + y + z = 0 has a 2-dimensional kernel
    basis = linalg.nullspace([[F(1), F(1), F(1)]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_nullspace_members_satisfy_system():
    rng = random.Random(3)
    for _ in range(20):
        a = _random_matrix(rng, rng.randint(2, 5), rng.randint(2, 6))
        for v in linalg.nullspace(a):
            assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in a)


def test_bareiss_rank_agrees_with_rref_rank():
    rng = random.Random(11)
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, n, m)
        if rng.random() < 0.4 and n > 1:  # force dependent rows sometimes
            a[n - 1] = [2 * x for x in a[0]]
        assert linalg.rank_bareiss(a) == len(linalg.rref(a)[1])


def test_bareiss_rank_of_empty_and_zero_matrices():
    assert linalg.rank_bareiss([]) == 0
    assert linalg.rank_bareiss([[]]) == 0
    assert linalg.rank_bareiss(linalg.zeros(3)) == 0
    assert linalg.rank_bareiss([[0, 0, 0], [0, 0, 5]]) == 1


def _random_of_rank(rng, n, r):
    """An n x n Fraction matrix of rank r: a product of n x r and r x n factors."""
    while True:
        left, right = _random_matrix(rng, n, r), _random_matrix(rng, r, n)
        a = [[sum((left[i][k] * right[k][j] for k in range(r)), F(0)) for j in range(n)]
             for i in range(n)]
        if len(linalg.rref(a)[1]) == r:
            return a


def _random_int_of_rank(rng, r, bits):
    """A 4 x 4 int matrix of rank r, with entries of about 2 * bits bits."""
    while True:
        left = [[rng.getrandbits(bits) - (1 << bits - 1) for _ in range(r)] for _ in range(4)]
        right = [[rng.getrandbits(bits) - (1 << bits - 1) for _ in range(4)] for _ in range(r)]
        a = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(4)]
             for i in range(4)]
        if len(linalg.rref(a)[1]) == r:
            return a


def test_det_and_rank_match_leibniz_on_every_rank():
    # singular matrices run the elimination on past a column with no pivot; det is 4x4
    rng = random.Random(17)
    for n in range(1, 6):
        for r in range(n + 1):
            for _ in range(4):
                a = _random_of_rank(rng, n, r)
                assert linalg.rank_bareiss(a) == r
                zero_col = [[F(0)] + row[1:] for row in a]
                zero_row = a[:-1] + [[F(0)] * n]
                if n == 4:
                    assert linalg.det(a) == leibniz_det(a)
                    assert linalg.det(zero_col) == leibniz_det(zero_col) == 0
                    assert linalg.det(zero_row) == leibniz_det(zero_row) == 0
                assert linalg.rank_bareiss(zero_col) == len(linalg.rref(zero_col)[1])
                assert linalg.rank_bareiss(zero_row) == len(linalg.rref(zero_row)[1])
    # the 4 x 4 path: int entries of about 300 bits, every rank; an int matrix
    # gives the exact int, the same matrix in Fractions, or over 3, a Fraction
    for r in range(5):
        for _ in range(4):
            a = _random_int_of_rank(rng, r, 150)
            assert r == 0 or max(abs(x) for row in a for x in row).bit_length() > 280
            assert type(linalg.det(a)) is int and linalg.det(a) == leibniz_det(a)
            assert linalg.rank_bareiss(a) == r
            fa = [[F(x) for x in row] for row in a]
            assert type(linalg.det(fa)) is F and linalg.det(fa) == leibniz_det(a)
            thirds = [[F(x, 3) for x in row] for row in a]
            assert linalg.det(thirds) == leibniz_det(thirds) == F(leibniz_det(a), 81)
    # and theorem-b's singular symmetric 4*Ric of moved rh3 and rr3_0 samples
    for key in ("rh3", "rr3_0"):
        _, mu = catalog.make(catalog.parse_class(key)).integer_multiple()
        for _ in range(3):
            _, g = random_symplectic(rng)
            ric = _moved_ricci_matrix(g, mu)
            assert ric == linalg.transpose(ric) and any(any(row) for row in ric)
            assert linalg.det(ric) == leibniz_det(ric) == 0


def test_det_is_one_4x4_expansion_over_any_ring():
    rng = random.Random(43)
    for _ in range(20):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        fa = [[F(x, rng.randint(1, 5)) for x in row] for row in a]
        assert type(linalg.det(a)) is int and linalg.det(a) == leibniz_det(a)
        assert type(linalg.det(fa)) is F and linalg.det(fa) == leibniz_det(fa)
    ea = [[ExpPoly({rng.randint(-1, 1): rng.randint(-3, 3)}) for _ in range(4)] for _ in range(4)]
    assert linalg.det(ea) == leibniz_det(ea)
    for shape in ([], [[1, 2, 3], [4, 5, 6], [7, 8, 10]], [[1] * 5] * 4, [[1] * 4] * 5):
        with pytest.raises(ValueError):
            linalg.det(shape)


def _random_exppoly(rng):
    return ExpPoly({F(rng.randint(-2, 2), 2): F(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 2))})


def _dense_mat_mul(a, b):
    return [[functools.reduce(operator.add, map(operator.mul, row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("kind, zero", [("int", 0), ("Fraction", F(0)), ("ExpPoly", ExpPoly())])
def test_products_skip_zeros_and_keep_the_entry_type(kind, zero):
    draw = {"int": lambda rng: rng.randint(-9, 9),
            "Fraction": lambda rng: F(rng.randint(-9, 9), rng.randint(1, 4)),
            "ExpPoly": _random_exppoly}[kind]
    rng = random.Random(53)
    for _ in range(30):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        # sparse, with zeros of the entry type; then one zero row of a and one zero column of b
        a = [[draw(rng) if rng.random() < 0.4 else zero for _ in range(k)] for _ in range(n)]
        b = [[draw(rng) if rng.random() < 0.4 else zero for _ in range(m)] for _ in range(k)]
        zrow = rng.randrange(n)
        a[zrow] = [zero] * k
        zcol = rng.randrange(m)
        for row in b:
            row[zcol] = zero
        v = [row[0] for row in b]
        prod = linalg.mat_mul(a, b)
        assert prod == _dense_mat_mul(a, b)
        assert linalg.mat_vec(a, v) == [x[0] for x in _dense_mat_mul(a, [[y] for y in v])]
        assert linalg.mat_vec(b, [zero] * m) == [zero] * k
        assert prod[zrow] == [zero] * m and [row[zcol] for row in prod] == [zero] * n
        assert all(type(x) is type(zero) for row in prod for x in row)
        assert all(type(x) is type(zero) for x in linalg.mat_vec(b, [zero] * m))


def test_inverse_and_det():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_invertible(rng, 4)
        inv = inverse(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(4)
        assert linalg.det(inv) * linalg.det(a) == 1
    with pytest.raises(ValueError):
        inverse([[F(1), F(2)], [F(2), F(4)]])


def test_signature_examples():
    diag = lambda *xs: [[F(x) if i == j else F(0) for j in range(len(xs))]
                        for i, x in enumerate(xs)]
    assert linalg.signature_exact(diag(-3, -1, -1, 1)) == (1, 3, 0)
    assert linalg.signature_exact(linalg.zeros(4)) == (0, 0, 4)
    t = F(1, 2)
    m = diag(-t * t / 2 - t ** 4 / 2, -t * t / 2, t ** 4 / 2, t * t / 2 - t ** 4 / 2)
    assert linalg.signature_exact(m) == (2, 2, 0)


def test_signature_off_diagonal_pivoting():
    # hyperbolic plane: no nonzero diagonal entry anywhere
    m = [[F(0), F(1)], [F(1), F(0)]]
    assert linalg.signature_exact(m) == (1, 1, 0)


def test_signature_congruence_invariance_25_samples():
    rng = random.Random(17)
    base = [[F(2), F(1), F(0), F(0)],
            [F(1), F(-3), F(1), F(0)],
            [F(0), F(1), F(0), F(2)],
            [F(0), F(0), F(2), F(0)]]
    sig = linalg.signature_exact(base)
    for _ in range(25):
        g = _random_invertible(rng, 4)
        congruent = linalg.mat_mul(linalg.transpose(g), linalg.mat_mul(base, g))
        assert linalg.signature_exact(congruent) == sig


def test_signature_float_agrees_on_rationals():
    rng = random.Random(23)
    for _ in range(10):
        a = _random_matrix(rng, 4, 4)
        m = linalg.mat_mul(linalg.transpose(a), a)  # psd
        assert signature_float(m) == linalg.signature_exact(m)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.signature_exact([[F(0), F(1)], [F(2), F(0)]])


def test_signature_matches_the_congruence_oracle_and_float():
    rng = random.Random(31)
    cases = []
    for n in range(1, 7):
        # P^T D P for a random invertible P and every (+, -, 0) count of D
        for plus in range(n + 1):
            for minus in range(n + 1 - plus):
                d = ([F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(plus)]
                     + [F(-rng.randint(1, 9), rng.randint(1, 4)) for _ in range(minus)]
                     + [F(0)] * (n - plus - minus))
                p = _random_invertible(rng, n)
                dp = [[x * y for y in row] for x, row in zip(d, p)]
                m = linalg.mat_mul(linalg.transpose(p), dp)
                cases.append((m, (plus, minus, n - plus - minus)))
        # zero diagonal: k hyperbolic planes on random disjoint index pairs
        for k in range(n // 2 + 1):
            m = linalg.zeros(n)
            idx = rng.sample(range(n), 2 * k)
            for i, j in zip(idx[::2], idx[1::2]):
                m[i][j] = m[j][i] = F(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))
            cases.append((m, (k, k, n - 2 * k)))
    for cid in DIAGRAM_CLASSES:
        m = ricci_form(catalog.make(cid)).m
        cases.append((m, signature_congruence(m)))
    assert len(cases) == 83 + 15 + 43
    for m, sig in cases:
        assert linalg.signature_exact(m) == signature_congruence(m) == signature_float(m) == sig


def test_eigen_certificate_known_spectrum():
    # A = diag(-3, -1, -1, 1) / 3, so p = (x + 1)(x + 1/3)^2 (x - 1/3)
    m = [[F(x) if i == j else F(0) for j in range(4)] for i, x in enumerate((-3, -1, -1, 1))]
    p, sig, beta = linalg.eigen_certificate(m)
    assert p == [1, F(4, 3), F(2, 9), F(-4, 27), F(-1, 27)]
    assert sig == (1, 3, 0)
    assert beta == F(1, 27) / (F(1, 27) + F(4, 3))


def test_eigen_certificate_on_random_symmetric_matrices():
    rng = random.Random(29)
    for n in (1, 2, 3, 4, 4, 5):
        for rank in range(n + 1):
            a = _random_matrix(rng, rank, n) if rank else [[F(0)] * n]
            d = [F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)) for _ in a]
            m = linalg.mat_mul(linalg.transpose(a), [[x * y for y in row] for x, row in zip(d, a)])
            p, sig, beta = linalg.eigen_certificate(m)
            assert sig == linalg.signature_exact(m)
            # p is det(x*I - A), checked at n + 1 points by elimination
            scale = max(abs(x) for row in m for x in row) or 1
            for x in range(-n, 1):
                xa = [[x * (i == j) - y / scale for j, y in enumerate(row)]
                      for i, row in enumerate(m)]
                assert leibniz_det(xa) == sum(c * x ** (n - k) for k, c in enumerate(p))
            assert (beta == 0) == (sig[2] > 0)
            if beta:
                assert float(beta) <= min_abs_eig_float(m) * (1 + 1e-12)
