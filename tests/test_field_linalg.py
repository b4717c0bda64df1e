from fractions import Fraction as F

import pytest

from logres.corpus import random_scalar, rng
from logres.errors import IrrationalEigenvalue, NonCommuting
from logres.field import GaussRat, ONE, ZERO, format_scalar
from logres.linalg import (Matrix, eigen_decompose, gaussian_rational_roots,
                           matrix_eigenvalues, matrix_rank, reassemble)
from logres.textio import parse_scalar_text

from oracles import faddeev_leverrier_charpoly, minor_rank, naive_matmul


def test_scalar_arithmetic_exact():
    a = GaussRat(F(1, 2), F(3, 4))
    b = GaussRat(F(-2, 3), F(1, 6))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * GaussRat(0) == GaussRat(0)
    assert (a / a) == GaussRat(1)
    with pytest.raises(ZeroDivisionError):
        a / GaussRat(0)


def test_scalar_format_parse_round_trip():
    cases = [GaussRat(0), GaussRat(5), GaussRat(F(1, 2)),
             GaussRat(0, 1), GaussRat(0, -1), GaussRat(F(-1, 2), F(3, 7)),
             GaussRat(F(2, 3), -1)]
    for s in cases:
        assert parse_scalar_text(format_scalar(s)) == s


def test_matrix_rank_examples():
    assert matrix_rank(Matrix.zero(3)) == 0
    assert matrix_rank(Matrix.identity(3)) == 3
    assert matrix_rank(Matrix([[1, 2], [2, 4]])) == 1


def test_matrix_rank_against_minor_oracle():
    import random

    r = random.Random(7)
    for _ in range(12):
        m = Matrix([[F(r.randint(-3, 3), r.randint(1, 3)) for _ in range(5)]
                    for _ in range(5)])
        assert matrix_rank(m) == minor_rank(m)


def test_charpoly_roots():
    m = Matrix([[F(1, 2), 1], [0, F(1, 2)]])
    roots, split = gaussian_rational_roots(m.charpoly())
    assert split and roots == {GaussRat(F(1, 2)): 2}


def _random_matrix(r, rows, cols, imaginary_prob=0.5):
    if rows == 0:
        return Matrix([])  # a matrix without rows has no columns either
    return Matrix([[random_scalar(r, denom_max=6, imaginary_prob=imaginary_prob)
                    for _ in range(cols)] for _ in range(rows)])


def test_product_matches_naive_oracle():
    r = rng(7301)
    shapes = [(3, 0, 0), (0, 0, 0), (2, 3, 0), (1, 4, 2), (2, 5, 3), (4, 1, 3)]
    shapes += [(n, n, n) for n in range(1, 9)]
    for rows, inner, cols in shapes:
        for prob_a, prob_b in ((0.5, 0.5), (0.0, 0.0), (0.0, 0.5), (0.5, 0.0)):
            a = _random_matrix(r, rows, inner, prob_a)
            b = _random_matrix(r, inner, cols, prob_b)
            prod = a * b
            assert prod == naive_matmul(a, b)
            assert (prod.rows, prod.cols) == (rows, cols if rows else 0)
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.identity(3)


def test_charpoly_matches_faddeev_oracle():
    r = rng(7302)
    assert Matrix([]).charpoly() == [ONE]
    for n in range(1, 9):
        for prob in (0.5, 0.0):
            m = _random_matrix(r, n, n, prob)
            assert m.charpoly() == faddeev_leverrier_charpoly(m)
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).charpoly()


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(s):
        return (sympy.Rational(s.re.numerator, s.re.denominator)
                + sympy.I * sympy.Rational(s.im.numerator, s.im.denominator))

    r = rng(7303)
    x = sympy.Symbol("x")
    for n in range(1, 6):
        m = _random_matrix(r, n, n)
        sm = sympy.Matrix([[to_sympy(v) for v in row] for row in m.entries])
        expected = [sympy.expand(c) for c in sm.charpoly(x).all_coeffs()[::-1]]
        got = [to_sympy(c) for c in m.charpoly()]
        assert all(sympy.expand(g - e) == 0 for g, e in zip(got, expected))
        assert len(got) == len(expected)


def _poly_from_roots(roots):
    """Monic low-to-high coefficients of prod (x - z) over the roots."""
    p = [ONE]
    for z in roots:
        shifted = [ZERO] + p
        p = [s - z * c for s, c in zip(shifted, p + [ZERO])]
    return p


HALF, I = GaussRat(F(1, 2)), GaussRat(0, 1)


@pytest.mark.parametrize("roots, kwargs, expected, split", [
    # zero roots are stripped before the divisor search
    ([ZERO, ZERO, ZERO, GaussRat(2)], {}, {ZERO: 3, GaussRat(2): 1}, True),
    ([ZERO, ZERO], {}, {ZERO: 2}, True),
    # repeated roots, scaled search: y = 2x makes the coefficients integral
    ([HALF] * 3 + [-I] * 2, {"scale": 2, "root_norm_cap": 9},
     {HALF: 3, -I: 2}, True),
    # the same polynomial unscaled: denominators cleared by the fallback
    ([HALF] * 3 + [-I] * 2, {}, {HALF: 3, -I: 2}, True),
    # x^2 + 1 splits over Q(i)
    ([I, -I], {}, {I: 1, -I: 1}, True),
    # scale 2 leaves 1/3 fractional: the fallback clears denominators and
    # drops the norm cap, which would otherwise exclude 7
    ([GaussRat(F(1, 3)), GaussRat(7)], {"scale": 2, "root_norm_cap": 1},
     {GaussRat(F(1, 3)): 1, GaussRat(7): 1}, True),
])
def test_gaussian_rational_roots_cases(roots, kwargs, expected, split):
    assert gaussian_rational_roots(_poly_from_roots(roots), **kwargs) == \
        (expected, split)


def test_gaussian_rational_roots_irrational():
    x2_minus_2 = [GaussRat(-2), ZERO, ONE]
    assert gaussian_rational_roots(x2_minus_2) == ({}, False)
    # (x - 1)(x^2 - 2): the rational root is found, the rest is not
    cubic = [GaussRat(2), GaussRat(-2), GaussRat(-1), ONE]
    assert gaussian_rational_roots(cubic) == ({ONE: 1}, False)


def test_matrix_eigenvalues_random_triangular():
    r = rng(7304)
    for n in range(1, 9):
        diag = [random_scalar(r, denom_max=6, imaginary_prob=0.5)
                for _ in range(n)]
        diag[n // 2:] = diag[:n - n // 2]  # force repeated eigenvalues
        m = Matrix([[diag[i] if i == j else
                     (random_scalar(r, denom_max=6) if j > i else ZERO)
                     for j in range(n)] for i in range(n)])
        expected = {}
        for z in diag:
            expected[z] = expected.get(z, 0) + 1
        assert matrix_eigenvalues(m) == (expected, True)


def test_eigen_triangular_example():
    m = Matrix([[F(1, 2), 1], [0, F(1, 2)]])
    blocks = eigen_decompose([m])
    assert len(blocks) == 1
    b = blocks[0]
    assert b.label == (GaussRat(F(1, 2)),)
    assert b.nilpotents[0] == Matrix([[0, 1], [0, 0]])


def test_eigen_diagonal_pair():
    u1 = Matrix([[0, 0], [0, 1]])
    u2 = Matrix.zero(2)
    blocks = eigen_decompose([u1, u2])
    labels = [tuple(str(x) for x in b.label) for b in blocks]
    assert labels == [("0", "0"), ("1", "0")]
    assert all(b.nilpotents[k].is_zero() for b in blocks for k in range(2))


def test_eigen_irrational_rejected():
    # oracle: x^2 - 2 is irreducible over Q(i)
    with pytest.raises(IrrationalEigenvalue):
        eigen_decompose([Matrix([[0, 1], [2, 0]])])


def test_eigen_noncommuting_rejected():
    with pytest.raises(NonCommuting):
        eigen_decompose([Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])])


def test_eigen_gaussian_eigenvalues():
    m = Matrix([[GaussRat(0, 1), 0], [0, GaussRat(0, -1)]])
    blocks = eigen_decompose([m])
    assert sorted(str(b.label[0]) for b in blocks) == ["-i", "i"]


def test_eigen_reassembly_invariant():
    import random

    r = random.Random(3)
    for _ in range(6):
        lams = [F(1, 2), F(1, 2), F(-1, 3), 2, F(5, 6)]
        n = len(lams)
        tri = [[lams[i] if i == j else
                (F(r.randint(0, 2)) if j > i and lams[i] == lams[j] else 0)
                for j in range(n)] for i in range(n)]
        ents = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = r.sample(range(n), 2)
            c = r.randint(-2, 2)
            for k in range(n):
                ents[i][k] += c * ents[j][k]
        p = Matrix(ents)
        m = p * Matrix(tri) * p.inverse()
        blocks = eigen_decompose([m])
        assert reassemble(blocks, 0) == m
        assert sum(b.dim for b in blocks) == n
        labels = [b.label for b in blocks]
        assert len(set(labels)) == len(labels)
        for b in blocks:
            nil = b.nilpotents[0]
            assert nil.is_nilpotent()


def test_kron_and_direct_sum_shapes():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (4, 4)
    assert k.entries[0][1] == GaussRat(1)
    s = a.direct_sum(b)
    assert (s.rows, s.cols) == (4, 4)
    assert s.entries[2][2] == GaussRat(0)
