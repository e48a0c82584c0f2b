"""Exact polynomials over Z, as ascending coefficient lists.

The Sturm chain, the exact quotient and the value at a matrix run on
integers.  A rational polynomial enters as its primitive integer multiple
with positive leading coefficient.  The Sturm chain of p is the primitive
pseudo-remainder sequence of p and p' with every other remainder negated
(Collins 1967; Cohen, *A Course in Computational Algebraic Number Theory*,
3.3), so it ends in gcd(p, p').  Every remainder is scaled only by |lc| and
divided only by its positive content, so each term of the chain is a
positive multiple of the term over Q: it has the same degree, the same
signs at 0 and at infinity and the same monic form.  That is what the Sturm
counts of ``core.sturm_positive_real_roots`` read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .core import CertificateError
from .linalg import Mat, _integer_row


# -- over Q -------------------------------------------------------------


def poly_normalize(coeffs) -> list[Fraction]:
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_degree(p: list) -> int:
    return len(p) - 1  # -1 for the zero polynomial


# -- over Z: the primitive pseudo-remainder sequence ---------------------


def int_poly(coeffs) -> list[int]:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of ``coeffs`` ([] for the zero polynomial)."""
    return int_primitive(_integer_row(poly_normalize(coeffs))[1])


def int_primitive(p: list[int]) -> list[int]:
    """The integer polynomial p over its content, with positive leading
    coefficient ([] for the zero polynomial)."""
    if p and p[-1] < 0:
        p = [-c for c in p]
    return _content_free(p)


def int_poly_derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _content_free(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, which is positive, so signs stay."""
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def int_poly_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive positive multiple of the remainder of a by the nonzero b.

    Each step multiplies by |lc(b)|, never by lc(b), so the result has the
    signs of the remainder over Q.
    """
    r = list(a)
    n = len(b) - 1
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    for k in range(len(r) - 1 - n, -1, -1):
        c = r.pop() * sign  # the coefficient of t^(k + n), cleared by c * t^k * b
        if c:
            if lead != 1:
                r = [lead * x for x in r]
            for j in range(n):
                r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return _content_free(r)


def int_sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p' and the negated remainders, for a nonzero p: each term a positive
    multiple of the Sturm chain over Q, so it has the same signs at 0 and at
    infinity.  The last term is a nonzero multiple of gcd(p, p'); a constant
    p has the chain [p]."""
    chain, r = [p], int_poly_derivative(p)
    while r:
        chain.append(r)
        r = [-c for c in int_poly_remainder(chain[-2], r)]
    return chain


def int_poly_quotient(a: list[int], g: list[int]) -> list[int]:
    """a / g, for g = gcd(p, p') primitive with positive leading coefficient
    and a a term of the Sturm chain of p.

    g divides a over Q, so the division is exact over Z (Gauss's lemma), and
    a coefficient the leading one of g does not divide, or a nonzero
    remainder, fails the squarefree certificate.
    """
    n = len(g) - 1
    r = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + n], g[-1])
        if rest:
            raise _not_a_divisor()
        q[k] = c
        if c:
            for j in range(n):
                r[k + j] -= c * g[j]
    if any(r[:n]):
        raise _not_a_divisor()
    return q


def _not_a_divisor() -> CertificateError:
    return CertificateError("squarefree certificate failed: gcd(p, p') does not divide p")


def int_poly_at(q: list[int], a: Mat) -> tuple[int, list[list[int]]]:
    """(d^m, d^m * q(a)) for a nonzero integer polynomial q of degree m and a
    square rational matrix a, with d the lcm of a's denominators.

    Horner runs on the integer matrix d * a with coefficients q_k * d^(m-k),
    so the value is an integer matrix and no Fraction is formed.  It starts
    at q_m * (d * a), read off the columns of d * a with no product by I;
    every row it adds a constant to is a fresh list, so no cached column is
    written.
    """
    if a.m != a.n:
        raise ValueError("a polynomial is evaluated at a square matrix")
    if len(q) == 1:
        return 1, [[q[0] if i == j else 0 for j in range(a.n)] for i in range(a.n)]
    d, cols = a.integer_columns()
    acc = [[q[-1] * x for x in row] for row in zip(*cols)]
    scale = d
    for k, c in enumerate(reversed(q[:-1])):
        if k:
            scale *= d
            acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        if c:
            for i, row in enumerate(acc):
                row[i] += c * scale
    return scale, acc
