"""Exact matrix and polynomial helpers."""

from fractions import Fraction
from random import Random

import pytest

from wittpoint.core import CertificateError
from wittpoint.linalg import Mat
from wittpoint.poly import int_poly, int_poly_at, int_poly_quotient, int_sturm_chain


def test_zero_dimensional_matrices():
    empty = Mat.zeros(0, 0)
    assert empty.rank() == 0
    assert empty.det() == 1
    assert (empty * empty).m == 0
    tall = Mat.zeros(3, 0)
    assert tall.hstack(Mat.identity(3)).n == 3
    assert Mat.zeros(0, 3).nullspace().n == 3


def test_solve_and_inverse():
    a = Mat.from_rows([[2, 1], [1, 1]])
    b = Mat.from_rows([[1], [0]])
    x = a.solve(b)
    assert a * x == b
    assert a * a.inv() == Mat.identity(2)
    singular = Mat.from_rows([[1, 2], [2, 4]])
    assert singular.solve(Mat.from_rows([[1], [0]])) is None
    with pytest.raises(ValueError):
        singular.inv()


def test_nullspace_and_column_space():
    a = Mat.from_rows([[1, 2, 3], [2, 4, 6]])
    ns = a.nullspace()
    assert ns.n == 2
    assert (a * ns).is_zero()
    assert a.column_space_basis().n == 1


def test_from_columns_refuses_columns_of_another_length():
    assert Mat.from_columns([[1, 2], [3, 4]], m=2) == Mat.from_rows([[1, 3], [2, 4]])
    assert Mat.from_columns([], m=3) == Mat.zeros(3, 0)
    for cols, m in [([[1, 2], [3, 4, 5]], 3), ([[1, 2], [3, 4, 5]], 2), ([[1, 2, 3]], 2),
                    ([[1, 2, 3], [4, 5]], 3)]:
        with pytest.raises(ValueError, match="every column must have length"):
            Mat.from_columns(cols, m=m)


def test_rref_pivots():
    a = Mat.from_rows([[0, 1], [1, 0]])
    r, pivots = a.rref()
    assert pivots == [0, 1]
    assert r == Mat.identity(2)


def test_charpoly_companion():
    # companion matrix of t^3 - 2t + 5
    a = Mat.from_rows([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert a.charpoly() == [Fraction(5), Fraction(-2), Fraction(0), Fraction(1)]


def test_charpoly_random_cayley_hamilton():
    rng = Random(0)
    for _ in range(10):
        n = rng.randint(1, 4)
        a = Mat.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        _, value = int_poly_at(int_poly(a.charpoly()), a)
        assert not any(map(any, value))


def test_integer_fast_path_matches_generic():
    rng = Random(1)
    a = Mat.from_rows([[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)])
    b = Mat.from_rows([[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)])
    prod = a * b
    expected = Mat.from_rows(
        [[sum(a[i, k] * b[k, j] for k in range(3)) for j in range(2)] for i in range(4)]
    )
    assert prod == expected
    half = b.scale(Fraction(1, 2))
    assert (a * half).scale(2) == prod


def test_realification_matches_the_block_construction():
    # [[U, -V], [V, U]] in one pass over the rows, against the blocks taken apart
    rng = Random(11)
    for _ in range(60):
        m, k = rng.randint(0, 3), rng.randint(0, 3)
        uv = Mat.from_rows([[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(2 * k)]
                            for _ in range(m)]) if m else Mat.zeros(0, 2 * k)
        u, v = uv.submatrix(range(m), range(k)), uv.submatrix(range(m), range(k, 2 * k))
        real = uv.realification()
        assert (real.m, real.n) == (2 * m, 2 * k)
        assert real == u.hstack(-v).vstack(v.hstack(u))
        assert real.rows == u.hstack(-v).vstack(v.hstack(u)).rows


def test_poly_helpers():
    # (t - 1)^2 (t + 2)
    p = int_poly([Fraction(2), Fraction(-3), Fraction(0), Fraction(1)])
    assert p == [2, -3, 0, 1]
    assert int_poly([Fraction(1, 2), Fraction(-1, 2)]) == [-1, 1]  # primitive, leading coefficient > 0
    chain = int_sturm_chain(p)
    assert chain == [p, [-3, 0, 3], [-1, 1]]  # it ends in gcd(p, p') = t - 1
    assert int_poly_quotient(p, [-1, 1]) == [-2, 1, 1]  # the squarefree part (t - 1)(t + 2)
    assert [int_poly_quotient(t, [-1, 1]) for t in chain] == [[-2, 1, 1], [3, 3], [1]]
    with pytest.raises(CertificateError, match="does not divide p"):
        int_poly_quotient(p, [1, 1])
    assert int_sturm_chain([1]) == [[1]]  # a constant has no derivative term
