"""Exact scalar arithmetic: square classes, p-adic splitting, Hilbert symbols,
Sturm root counting and the sign epsilon.

This is the numeric substrate for every Witt invariant in the package.  All
arithmetic is exact; nothing here ever touches a float.  Factoring has no
setting: the primes below TRIAL_CUTOFF that divide n are read off one gcd of n
with their product (Bernstein, "How to find smooth parts of integers", 2004)
and divided out, each one's power by repeated squaring (``_int_split``),
then Miller-Rabin and Brent's rho run on what is left, each factorization
checked by multiplying it back.  It runs on the integer num*den of each diagonal
entry, never on a product of entries: a square class carries the odd-exponent
primes of its entry, a product of classes combines those prime sets in one pass
(``SquareClass.product``), and the callers that hold an entry's class read the
local symbols and Witt residues off its squarefree kernel, the signed product of
those primes, whose valuation at every place is 0 or 1 and whose unit at one of
its primes p is kernel // p.  Sturm root counting takes one remainder sequence,
the Sturm chain of the input: it ends in gcd(p, p'), and its terms divided by
that gcd count the distinct roots and give the squarefree part.  One function
counts sign changes, the chain's and those of Jacobi's rule in ``hodge``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, prod
from operator import attrgetter, ne

REAL_PLACE = "real"


def _primes_below(limit: int) -> tuple[int, ...]:
    """The primes below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return tuple(compress(range(limit), sieve))


TRIAL_CUTOFF = 1_000  # the primes below it are divided out, found by one gcd with their product
_SMALL_PRIMES = _primes_below(TRIAL_CUTOFF)
_PRIMORIAL = prod(_SMALL_PRIMES)
RHO_STEPS = 1 << 18  # squarings Brent's rho may take on one composite cofactor
RHO_BATCH = 128  # differences multiplied together per gcd


class Record:
    """A record class: ``repr`` and ``==`` read the attributes named in ``_fields``.

    Each subclass writes its own ``__init__``, and ``_fields`` defaults to its
    parameters.  ``repr`` is ``QualName(field=value!r, ...)``.  ``==`` compares
    the tuples of fields of two records of the same class, and is
    ``NotImplemented`` for any other operand.  A record is unhashable.
    """

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__init__" not in cls.__dict__:
            return
        if "_fields" not in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
        # == and hash close over one getter per class, so no call looks it up
        key = get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            key = lambda record: (get(record),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        if issubclass(cls, Frozen):
            cls.__hash__ = lambda self: hash(key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """A record that cannot change, hashed by its tuple of fields.

    Assignment and deletion raise ``AttributeError``, so ``__init__`` writes
    the fields into the instance ``__dict__``.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CertificateError(AssertionError):
    """A certificate the package computed failed its own exact check.

    This is an internal error, not bad input: every check that raises it
    holds for all valid inputs.  It is raised explicitly, so it still fires
    under ``python -O``.
    """


class FactorBoundExceeded(ValueError):
    """Raised when Brent's rho uses up its step budget on a composite cofactor."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# bases 2, 3, 5 and 7 are exact below this, the least strong pseudoprime to
# all four, 151 * 751 * 28351 (Jaeschke, Math. Comp. 61, 1993)
_FOUR_BASES_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24: the first four
    bases below _FOUR_BASES_BOUND, all twelve above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _FOUR_BASES_BOUND else _MR_BASES:
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


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1, with multiplicity, ascending.

    The primes below TRIAL_CUTOFF that divide n are those of
    g = gcd(n, _PRIMORIAL), and n is divided by those alone.  g is
    squarefree, so once p * p > g, what is left of g is 1 or a prime."""
    out = []
    g = gcd(n, _PRIMORIAL)
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            n //= p
            out.append(p)
            if not n % p:  # a higher power of p comes off by repeated squaring
                e, n = _int_split(n, p)
                out += [p] * e
    if g > 1:
        n //= g
        out.append(g)
        if not n % g:
            e, n = _int_split(n, g)
            out += [g] * e
    # no prime below TRIAL_CUTOFF divides what is left, so a cofactor below its square is prime
    cofactors = [n] if n > 1 else []
    while cofactors:
        m = cofactors.pop()
        if m < TRIAL_CUTOFF**2 or is_prime(m):
            out.append(m)
        else:
            cofactors += _rho_split(m)
    return sorted(out)


def _rho_split(n: int) -> tuple[int, int]:
    """Two proper factors of the composite n, free of primes below TRIAL_CUTOFF,
    by Brent's rho on x -> x^2 + c for c = 1, 2, ... (Brent 1980; Cohen, GTM 138,
    8.5).  Raises ``FactorBoundExceeded`` rather than take over RHO_STEPS squarings."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r to move x on, at most r more to compare
            if steps > RHO_STEPS:
                raise FactorBoundExceeded(f"cofactor {n} is composite and Brent's rho found "
                                          f"no factor of it within {RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, RHO_BATCH):
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := gcd(q, n)) > 1:
                    break
            r *= 2
        if g == n:  # the batch met every factor at once: step through it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g < n:
            return g, n // g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n|, n nonzero, as {prime: exponent} in ascending
    order, counted off the ascending prime list, which is checked by multiplying it back."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    primes = _prime_factors(n)
    out = {}
    for p in primes:
        out[p] = out.get(p, 0) + 1
    if prod(primes) != n:
        raise CertificateError(
            f"factorization certificate failed: {tuple(out.items())} does not multiply back to {n}")
    return out


class SquareClass(Frozen):
    """A nonzero rational modulo squares, stored as a signed squarefree integer.

    It carries the primes dividing its representative in ``_primes``, which
    is not a field, so a product of classes is the symmetric difference of
    their prime sets and factors nothing; ``product`` takes it in one pass
    and multiplies one representative out.
    """

    def __init__(self, representative: int):
        if representative == 0:
            raise ValueError("zero has no square class")
        primes = factor(representative)
        for p, e in primes.items():
            if e > 1:
                raise ValueError(f"{representative} is not squarefree (p={p})")
        self.__dict__.update(representative=representative, _primes=frozenset(primes))

    @classmethod
    def _of_primes(cls, sign: int, primes: frozenset) -> "SquareClass":
        """The class sign * prod(primes) of distinct primes, without factoring."""
        out = object.__new__(cls)
        out.__dict__.update(representative=sign * prod(primes), _primes=primes)
        return out

    def _sign(self) -> int:
        return -1 if self.representative < 0 else 1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return SquareClass._of_primes(self._sign() * other._sign(), self._primes ^ other._primes)

    def __neg__(self) -> "SquareClass":
        return SquareClass._of_primes(-self._sign(), self._primes)

    @staticmethod
    def product(classes) -> "SquareClass":
        """The product of the classes, 1 for none, in one pass over their signs and prime sets."""
        negative, primes = False, set()
        for c in classes:
            negative ^= c.representative < 0
            primes ^= c._primes
        return SquareClass._of_primes(-1 if negative else 1, frozenset(primes))

    def prime_support(self) -> list[int]:
        return sorted(self._primes)

    def __str__(self):
        return str(self.representative)


def _rational(x) -> Fraction:
    """x as a ``Fraction``: a ``Fraction`` as it is, an int or a string such as
    "1/10" exactly.  A float raises ``TypeError``: its value is a binary
    fraction, not the decimal it was written as (0.1 is 3602879701896397 / 2^55)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic takes no float, such as {x!r}: give a Fraction, an int or a string")
    return Fraction(x)


def square_class(a) -> SquareClass:
    """Class of a nonzero rational modulo (Q*)^2, as a signed squarefree integer,
    the kernel of a.  A ``Fraction`` is read as it is, with no other check;
    anything else is coerced, and a float refused."""
    if not isinstance(a, Fraction):
        a = _rational(a)
    n = prod(a.as_integer_ratio())  # a and n = num * den differ by the square den^2
    if not n:
        raise ValueError("zero has no square class")
    odd = frozenset(p for p, e in factor(n).items() if e % 2)
    return SquareClass._of_primes(-1 if n < 0 else 1, odd)


def _int_split(n: int, p: int) -> tuple[int, int]:
    """(valuation, unit) of the nonzero integer n = unit * p^valuation, p > 1.

    By repeated squaring: where p divides n, the split at p^2 gives
    n = p^(2w) m with p^2 not dividing m, and the valuation is 2w, or 2w + 1
    where p divides m.  The tests go up through p, p^2, p^4, ... to the
    first power that does not divide n, and each step back down divides at
    most once, so p^e costs O(log e) divisions, not e."""
    if n % p:
        return 0, n
    w, m = _int_split(n, p * p)
    return (2 * w, m) if m % p else (2 * w + 1, m // p)


def residue_mod(a, p: int) -> int:
    """The image in F_p of an integer or a rational whose denominator is prime to p."""
    a = _rational(a)
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
    a, b = _rational(a), _rational(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {place!r}")
    # replace by integers in the same square classes
    alpha, u = _int_split(a.numerator * a.denominator, p)
    beta, v = _int_split(b.numerator * b.denominator, p)
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
    return _places_of([square_class(a) for a in values])


def _places_of(classes) -> list:
    """2 and the primes of the given square classes, ascending, then the real place."""
    primes = {2}
    for c in classes:
        primes |= c._primes
    return sorted(primes) + [REAL_PLACE]


def epsilon(m: int) -> int:
    """The sign (-1)^(m(m+1)/2), defined for all integers: the epsilon of the
    chi_y sign calculus (``genus``), and the sign that normalizes a
    polarization of weight m (``hodge``)."""
    return -1 if (m * (m + 1) // 2) % 2 else 1


# -- Sturm sequences ----------------------------------------------------


class SturmCertificate(Frozen):
    """Exact real-root counts of a rational polynomial (distinct roots)."""

    # not squarefree_part, the primitive squarefree part the counts were taken on
    _fields = ("positive_roots", "real_roots", "distinct_roots", "all_real", "squarefree")

    def __init__(self, positive_roots: int, real_roots: int, distinct_roots: int, all_real: bool,
                 squarefree: bool, squarefree_part: list[int] | None = None):
        self.__dict__.update(positive_roots=positive_roots, real_roots=real_roots,
                             distinct_roots=distinct_roots, all_real=all_real, squarefree=squarefree,
                             squarefree_part=[] if squarefree_part is None else squarefree_part)

    @property
    def all_real_positive(self) -> bool:
        return self.all_real and self.positive_roots == self.distinct_roots


def _sign_changes(values) -> int:
    """The sign changes in a sequence of integers, zeros left out."""
    signs = [x > 0 for x in values if x]
    return sum(map(ne, signs, signs[1:]))


def sturm_positive_real_roots(coeffs) -> SturmCertificate:
    """Count distinct real roots in (0, inf) and overall, with flags.

    The counts are taken on the squarefree part, so multiplicities are
    ignored; ``all_real`` means every complex root of the input is real.
    One Sturm chain runs on the primitive integer polynomial p of the input,
    with positive leading coefficient.  It ends in g = gcd(p, p'), and its
    terms divided by g are a Sturm sequence of the squarefree part p / g
    (Basu, Pollack and Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).
    The last term is an integer polynomial, made primitive with positive
    leading coefficient as it is; when that is g = 1, p is squarefree, its
    own radical, and no term is divided.
    """
    # imported here, so that loading core does not load poly
    from .poly import int_poly, int_poly_quotient, int_primitive, int_sturm_chain

    p = int_poly(coeffs)
    if not p:
        raise ValueError("the zero polynomial has no Sturm certificate")
    chain = int_sturm_chain(p)
    g = int_primitive(chain[-1])
    if g != [1]:
        chain = [int_poly_quotient(t, g) for t in chain]
    distinct = len(chain[0]) - 1
    # V(a) - V(b) counts the distinct roots in (a, b], so a root at 0 is left
    # out of the positive count; no term is zero, and at -inf a term has the
    # sign of its leading coefficient, negated for odd degree
    at_inf = _sign_changes([t[-1] for t in chain])
    positive = _sign_changes([t[0] for t in chain]) - at_inf
    real = _sign_changes([t[-1] if len(t) % 2 else -t[-1] for t in chain]) - at_inf
    return SturmCertificate(
        positive_roots=positive,
        real_roots=real,
        distinct_roots=distinct,
        all_real=(real == distinct),
        squarefree=len(g) <= 1,
        squarefree_part=chain[0],
    )
