"""Exact scalar arithmetic: square classes, p-adic splitting, Hilbert symbols,
and Sturm root counting.

This is the numeric substrate for every Witt invariant in the package.  All
arithmetic is exact; nothing here ever touches a float.  Factoring is trial
division with a configurable bound: inputs are desk scale and the bound gives
a clear failure mode instead of an open-ended search.  The bound applies to
the integer num*den of each diagonal entry, never to a product of entries:
a square class carries the odd-exponent primes of its entry, products of
classes combine those prime sets, and the local symbols and Witt residues read
integer valuations and units at each place (residues at an entry's own primes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod

REAL_PLACE = "real"

DEFAULT_TRIAL_DIVISION_BOUND = 1_000_000

_trial_division_bound = DEFAULT_TRIAL_DIVISION_BOUND


class CertificateError(AssertionError):
    """A certificate the package computed failed its own exact check.

    This is an internal error, not bad input: every check that raises it
    holds for all valid inputs.  It is raised explicitly, so it still fires
    under ``python -O``.
    """


class FactorBoundExceeded(ValueError):
    """Raised when trial division up to the configured bound cannot finish."""


def set_trial_division_bound(bound: int) -> None:
    global _trial_division_bound
    if bound < 2:
        raise ValueError("trial division bound must be at least 2")
    _trial_division_bound = bound


def get_trial_division_bound() -> int:
    return _trial_division_bound


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _factor_cached(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    out = _trial_division(n, bound)
    if prod(p**e for p, e in out) != n:
        raise CertificateError(
            f"factorization certificate failed: {out} does not multiply back to {n}")
    return out


def _trial_division(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n and d <= bound:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        d += 6
    if n > 1:
        if n <= bound * bound or is_prime(n):
            out.append((n, 1))
        else:
            raise FactorBoundExceeded(
                f"cofactor {n} is composite with no prime factor below the "
                f"trial division bound {bound}; raise --trial-division-bound"
            )
    return tuple(out)


def factor(n: int, bound: int | None = None) -> dict[int, int]:
    """Prime factorization of |n| by trial division; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    return dict(_factor_cached(abs(n), bound if bound is not None else _trial_division_bound))


@dataclass(frozen=True)
class SquareClass:
    """A nonzero rational modulo squares, stored as a signed squarefree integer.

    It carries the primes dividing its representative, so a product of
    classes is the symmetric difference of their prime sets and factors
    nothing.
    """

    representative: int
    _primes: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.representative == 0:
            raise ValueError("zero has no square class")
        primes = factor(self.representative)
        for p, e in primes.items():
            if e > 1:
                raise ValueError(f"{self.representative} is not squarefree (p={p})")
        object.__setattr__(self, "_primes", frozenset(primes))

    @classmethod
    def _of_primes(cls, sign: int, primes: frozenset) -> "SquareClass":
        """The class sign * prod(primes) of distinct primes, without factoring."""
        out = object.__new__(cls)
        object.__setattr__(out, "representative", sign * prod(primes))
        object.__setattr__(out, "_primes", primes)
        return out

    def _sign(self) -> int:
        return -1 if self.representative < 0 else 1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass._of_primes(self._sign() * other._sign(), self._primes ^ other._primes)

    def __neg__(self) -> "SquareClass":
        return SquareClass._of_primes(-self._sign(), self._primes)

    def prime_support(self) -> list[int]:
        return sorted(self._primes)

    def __str__(self):
        return str(self.representative)


def square_class(a) -> SquareClass:
    """Class of a nonzero rational modulo (Q*)^2, as a signed squarefree integer."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("zero has no square class")
    n = a.numerator * a.denominator  # a and n*d differ by the square d^2
    odd = frozenset(p for p, e in factor(n).items() if e % 2)
    return SquareClass._of_primes(-1 if n < 0 else 1, odd)


def _int_split(n: int, p: int) -> tuple[int, int]:
    """(valuation, unit) of the nonzero integer n = unit * p^valuation."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def residue_mod(a, p: int) -> int:
    """The image in F_p of an integer or a rational whose denominator is prime to p."""
    a = Fraction(a)
    if a.denominator % p == 0:
        raise ValueError(f"{a} has no image mod {p}: {p} divides its denominator")
    return a.numerator * pow(a.denominator, -1, p) % p


def is_residue(u: int, p: int) -> bool:
    """Is u a nonzero square mod the odd prime p?"""
    u %= p
    if u == 0:
        raise ValueError("zero is neither residue nor nonresidue")
    return pow(u, (p - 1) // 2, p) == 1


def legendre(u: int, p: int) -> int:
    return 1 if is_residue(u, p) else -1


def _eps2(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return (u - 1) // 2 % 2


def _omega2(u: int) -> int:
    # (u^2 - 1)/8 mod 2 for odd u
    return (u * u - 1) // 8 % 2


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a prime or at the real place.

    +1 iff z^2 = a*x^2 + b*y^2 has a nontrivial solution over the completion.
    The p = 2 case uses the classical epsilon/omega residue formulas.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {place!r}")
    # replace by integers in the same square classes
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    return _hilbert_at_prime(_int_split(ai, p), _int_split(bi, p), p)


def _hilbert_at_prime(split_a: tuple[int, int], split_b: tuple[int, int], p: int) -> int:
    """(a, b)_p from the integer splits a = u * p^alpha and b = v * p^beta."""
    alpha, u = split_a
    beta, v = split_b
    if p == 2:
        # units mod 8 determine epsilon and omega
        u8, v8 = u % 8, v % 8
        e = _eps2(u8) * _eps2(v8) + alpha * _omega2(v8) + beta * _omega2(u8)
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(v, p)
    return sign


def relevant_places(values) -> list:
    """Places where a Hilbert symbol of the given rationals can be nontrivial:
    2, the odd primes in some square class, and the real place."""
    primes = {2}
    for a in values:
        primes.update(square_class(a).prime_support())
    return sorted(primes) + [REAL_PLACE]


# -- Sturm sequences ----------------------------------------------------


@dataclass(frozen=True)
class SturmCertificate:
    """Exact real-root counts of a rational polynomial (distinct roots)."""

    positive_roots: int
    real_roots: int
    distinct_roots: int
    all_real: bool
    squarefree: bool
    # the primitive squarefree part the counts were taken on
    squarefree_part: list[int] = field(default_factory=list, repr=False, compare=False)

    @property
    def all_real_positive(self) -> bool:
        return self.all_real and self.positive_roots == self.distinct_roots


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s * t < 0)


def _variations_at_zero(chain) -> int:
    return _sign_variations([_sign(q[0]) if q else 0 for q in chain])


def _variations_at_inf(chain, sign: int) -> int:
    # sign = +1 for +infinity, -1 for -infinity
    out = []
    for q in chain:
        if not q:
            out.append(0)
        else:
            s = _sign(q[-1])
            out.append(s if sign > 0 else s * (-1) ** (len(q) - 1))
    return _sign_variations(out)


def sturm_positive_real_roots(coeffs) -> SturmCertificate:
    """Count distinct real roots in (0, inf) and overall, with flags.

    The counts are taken on the squarefree part, so multiplicities are
    ignored; ``all_real`` means every complex root of the input is real.
    The chain runs on the primitive integer polynomial of the input, with
    positive leading coefficient, and takes gcd(p, p') once.
    """
    # imported here, so that loading core does not load poly
    from .poly import int_poly, int_poly_squarefree, int_sturm_chain

    p = int_poly(coeffs)
    if not p:
        raise ValueError("the zero polynomial has no Sturm certificate")
    g, q = int_poly_squarefree(p)
    distinct = len(q) - 1
    if distinct == 0:
        return SturmCertificate(0, 0, 0, True, len(g) <= 1, q)
    chain = int_sturm_chain(q)
    # V(a) - V(b) counts the roots of a squarefree q in (a, b], a root at a
    # included, so a root at 0 is left out of the positive count
    positive = _variations_at_zero(chain) - _variations_at_inf(chain, +1)
    real = _variations_at_inf(chain, -1) - _variations_at_inf(chain, +1)
    return SturmCertificate(
        positive_roots=positive,
        real_roots=real,
        distinct_roots=distinct,
        all_real=(real == distinct),
        squarefree=len(g) <= 1,
        squarefree_part=q,
    )
