import random
from fractions import Fraction as F

import pytest

from spdeg import linalg

from oracles import leibniz_det, min_abs_eig_float, signature_float


def _random_matrix(rng, n, m):
    return [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]


def _random_invertible(rng, n):
    while True:
        a = _random_matrix(rng, n, n)
        if linalg.det(a) != 0:
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


def test_det_and_rank_match_leibniz_on_every_rank():
    # singular matrices run the elimination on past a column with no pivot
    rng = random.Random(17)
    for n in range(1, 6):
        for r in range(n + 1):
            for _ in range(4):
                a = _random_of_rank(rng, n, r)
                assert linalg.det(a) == leibniz_det(a)
                assert linalg.rank_bareiss(a) == r
                zero_col = [[F(0)] + row[1:] for row in a]
                assert linalg.det(zero_col) == leibniz_det(zero_col) == 0
                zero_row = a[:-1] + [[F(0)] * n]
                assert linalg.det(zero_row) == leibniz_det(zero_row) == 0
                assert linalg.rank_bareiss(zero_col) == len(linalg.rref(zero_col)[1])
                assert linalg.rank_bareiss(zero_row) == len(linalg.rref(zero_row)[1])
    assert (linalg.det([[F(0), F(1)], [F(1), F(0)]])
            == leibniz_det([[F(0), F(1)], [F(1), F(0)]]) == -1)


def test_inverse_and_det():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_invertible(rng, 4)
        inv = linalg.inverse(a)
        assert linalg.mat_mul(a, inv) == linalg.identity(4)
        assert linalg.det(inv) * linalg.det(a) == 1
    with pytest.raises(ValueError):
        linalg.inverse([[F(1), F(2)], [F(2), F(4)]])


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
                assert linalg.det(xa) == sum(c * x ** (n - k) for k, c in enumerate(p))
            assert (beta == 0) == (sig[2] > 0)
            if beta:
                assert float(beta) <= min_abs_eig_float(m) * (1 + 1e-12)
