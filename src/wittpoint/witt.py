"""Witt classes over Q and F_p in canonical form.

A class over Q is stored as (signature, second residues), read in one pass
over the square classes of a form's pivots (``forms.pivots``: the pivots
of one pivoted LDL^T pass, the entries of a diagonal form congruent to it):
at each prime p of a class, the unit k // p of its squarefree kernel k goes
to W(F_p).  No entry is divided again at its primes.  ``psi``, which takes
any prime, splits the entries of the same pivots: its residue at p is an
invariant of the form over Q_p (Springer's theorem), so any diagonal form
congruent to it, a diagonalization's entries among them, gives the same.
Together these are a complete invariant (Milnor's residue exact sequence);
the structured F_p payloads follow the classical group tables

    W(F_2) = Z/2,   W(F_p) = Z/4 (p = 3 mod 4),   Z/2 x Z/2 (p = 1 mod 4).

A class in W(F_p), p odd, reads its nonresidues' parity off one Legendre
symbol.  The residue at 2 (uniformizer 2, rank-parity payload) is kept for
nonvanishing certificates; equality also consults the Hasse invariant at 2:
the stabilized-invariant oracle reads each place's symbol in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .core import (
    CertificateError,
    Frozen,
    SquareClass,
    _int_split,
    _places_of,
    _rational,
    is_prime,
    is_residue,
    residue_mod,
)
from .forms import (
    SKEW,
    BilinearForm,
    _hasse_symbols,
    pivots,
    symplectic_reduce,
)


class WittClassFp(Frozen):
    """Element of W(F_p), payload depending on p mod 4.

    p = 2: payload = rank parity, an int in range(2).
    p = 3 mod 4: payload = coefficient of the generator [<1>], an int in range(4).
    p = 1 mod 4: payload = (rank parity in range(2), discriminant-is-residue bool).

    The constructor takes an ``int`` prime and these canonical payloads
    only (a bool is no int here), so each class has one payload and ``==``
    compares classes.
    """

    def __init__(self, p: int, payload):
        if type(p) is not int:
            raise ValueError(f"the prime must be an int, not {type(p).__name__}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2 or p % 4 == 3:
            order = 2 if p == 2 else 4
            if type(payload) is not int or payload not in range(order):
                raise ValueError(f"payload must be an integer in range({order})")
        elif (type(payload) is not tuple or list(map(type, payload)) != [int, bool]
              or payload[0] not in (0, 1)):
            raise ValueError("payload must be (rank parity, residue bit)")
        self.__dict__.update(p=p, payload=payload)

    @classmethod
    def _of(cls, p: int, payload) -> "WittClassFp":
        """The class of a payload of the right shape over a prime p, built
        without testing p again: for results of checked classes and of
        ``fp_class_of``, which tests its p itself."""
        out = object.__new__(cls)
        out.__dict__.update(p=p, payload=payload)
        return out

    @staticmethod
    def zero(p: int) -> "WittClassFp":
        return WittClassFp(p, _zero_payload(p))

    @staticmethod
    def rank_parity(p: int, parity: int) -> "WittClassFp":
        if p != 2:
            raise ValueError("rank-parity payload is the p = 2 case")
        return WittClassFp._of(2, parity % 2)

    def is_zero(self) -> bool:
        return self.payload == _zero_payload(self.p)

    def __add__(self, other: "WittClassFp") -> "WittClassFp":
        if self.p != other.p:
            raise ValueError("cannot add classes over different primes")
        p = self.p
        if p == 2:
            return WittClassFp._of(2, (self.payload + other.payload) % 2)
        if p % 4 == 3:
            return WittClassFp._of(p, (self.payload + other.payload) % 4)
        r1, d1 = self.payload
        r2, d2 = other.payload
        return WittClassFp._of(p, ((r1 + r2) % 2, not (d1 ^ d2)))

    def __neg__(self) -> "WittClassFp":
        if self.p % 4 == 3:
            return WittClassFp._of(self.p, (-self.payload) % 4)
        return self  # exponent-2 groups for p = 2 and p = 1 mod 4

    def order(self) -> int:
        if self.is_zero():
            return 1
        if self.p % 4 == 3 and self.payload % 2 == 1:
            return 4
        return 2


def _zero_payload(p: int):
    return 0 if p == 2 or p % 4 == 3 else (0, True)


def fp_class_of(entries, p: int) -> WittClassFp:
    """Class of the diagonal form <entries> in W(F_p) for odd p."""
    if p == 2:
        raise ValueError("use rank parity directly for p = 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    units = [residue_mod(e, p) for e in entries]
    if 0 in units:
        raise ValueError("diagonal entries must be nonzero mod p")
    return _fp_class(len(units), prod(units), p)


def _fp_class(count: int, product: int, p: int) -> WittClassFp:
    """Class in W(F_p) of ``count`` units whose product is ``product``, unchecked: p is
    a prime (2 gives the rank parity), and a product 0 mod p raises ``ValueError``.  It
    reads the parity of the nonresidues (Serre, ch. IV, 1.7), even iff the product is a residue."""
    if p == 2:
        return WittClassFp._of(2, count % 2)
    even = is_residue(product, p)
    if p % 4 == 3:
        return WittClassFp._of(p, (count - (0 if even else 2)) % 4)
    return WittClassFp._of(p, (count % 2, even))


def _split_at(e: Fraction, p: int) -> tuple[int, int]:
    """(valuation parity, unit residue mod p) at the prime p of num*den = e den^2,
    whose unit and e's differ by a square, so both give one class in W(F_p)."""
    v, u = _int_split(e.numerator * e.denominator, p)
    return v % 2, u % p


def psi(form_or_entries, p: int, k: int) -> WittClassFp:
    """Residue map into W(F_p): keep diagonal entries with valuation = k mod 2
    and read their unit residues (rank parity for p = 2).  A form's
    diagonal entries are its pivots (``forms.pivots``)."""
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if isinstance(form_or_entries, BilinearForm):
        if not form_or_entries.is_symmetric:
            raise ValueError("residues of skew forms are not defined; class is zero")
        entries = pivots(form_or_entries).entries
    else:
        entries = [_rational(e) for e in form_or_entries]
        if any(e == 0 for e in entries):
            raise ValueError("diagonal entries must be nonzero")
    units = [u for v, u in (_split_at(e, p) for e in entries) if v == k]
    return _fp_class(len(units), prod(units), p)


class WittClassQ(Frozen):
    """Canonical form of a Witt class over Q: signature plus the nonzero
    second residues, sorted by prime, as ((p, WittClassFp), ...).  The
    signature is an ``int`` (a bool is none) and each residue a class over
    its own prime; anything else raises ``ValueError``."""

    def __init__(self, signature: int, residues: tuple):
        if type(signature) is not int:
            raise ValueError(f"the signature must be an int, not {type(signature).__name__}")
        if any(not isinstance(c, WittClassFp) for _, c in residues):
            raise ValueError("each residue must be a WittClassFp")
        primes = [p for p, _ in residues]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("residues must be sorted by prime with no repeats")
        if any(c.p != p for p, c in residues):
            raise ValueError("each residue must be a class over its own prime")
        if any(c.is_zero() for _, c in residues):
            raise ValueError("canonical form stores only nonzero residues")
        self.__dict__.update(signature=signature, residues=residues)

    @staticmethod
    def zero() -> "WittClassQ":
        return WittClassQ(0, ())

    @classmethod
    def _of(cls, signature: int, residues: tuple) -> "WittClassQ":
        """The class of a canonical residue tuple, built without checking it
        again: for ``make`` and ``_class_of_entries``, which filter and sort it."""
        out = object.__new__(cls)
        out.__dict__.update(signature=signature, residues=residues)
        return out

    @staticmethod
    def make(signature: int, residues: dict) -> "WittClassQ":
        """The class with these residues, by prime; zero residues are dropped."""
        items = tuple(sorted((p, c) for p, c in residues.items() if not c.is_zero()))
        return WittClassQ._of(signature, items)

    def residue_at(self, p: int) -> WittClassFp:
        for q, c in self.residues:
            if q == p:
                return c
        return WittClassFp.zero(p)

    def is_zero(self) -> bool:
        return self.signature == 0 and not self.residues

    def __add__(self, other: "WittClassQ") -> "WittClassQ":
        primes = {p for p, _ in self.residues} | {p for p, _ in other.residues}
        residues = {p: self.residue_at(p) + other.residue_at(p) for p in primes}
        return WittClassQ.make(self.signature + other.signature, residues)

    def __neg__(self) -> "WittClassQ":
        return WittClassQ.make(-self.signature, {p: -c for p, c in self.residues})

    def __sub__(self, other: "WittClassQ") -> "WittClassQ":
        return self + (-other)


def witt_class_of(f: BilinearForm) -> WittClassQ:
    """Witt class of a bilinear form over Q.

    Degenerate forms are accepted (the radical does not change the class);
    skew forms land in the zero class, certified by one symplectic reduction,
    which sets the radical aside itself.
    """
    if f.symmetry == SKEW:
        symplectic_reduce(f)  # certificate that the class is zero
        return WittClassQ.zero()
    return _class_of_entries(*_classed_entries(f))


def _classed_entries(f: BilinearForm) -> tuple[tuple[Fraction, ...], tuple[SquareClass, ...]]:
    """The pivots of f, radical left out, and their square classes, both
    kept with f (``forms.pivots``)."""
    piv = pivots(f)
    return piv.entries, piv.classes


def _signature(entries) -> int:
    """Positive less negative entries, read off the numerators."""
    return sum(1 if e.numerator > 0 else -1 for e in entries)


def _class_of_entries(entries, classes) -> WittClassQ:
    """Class over Q of the nondegenerate diagonal form <entries>, given their square
    classes: the residue psi(entries, p, 1) reads the entries with p among their
    primes, each at the unit k // p of its squarefree kernel k, which differs from
    the entry's unit at p by a square and so gives the same class in W(F_p)."""
    units = {}  # p -> (number, product mod p) of those units, in one pass over the classes
    for c in classes:
        k = c.representative
        for p in c._primes:
            n, u = units.get(p, (0, 1))
            units[p] = n + 1, k // p * u % p
    residues = ((p, _fp_class(*units[p], p)) for p in sorted(units))
    return WittClassQ._of(_signature(entries), tuple((p, r) for p, r in residues if not r.is_zero()))


# -- equality oracles ---------------------------------------------------
# the entries <1, -1> of a hyperbolic plane and their classes, the padding of the Hasse route
_PLANE, _PLANE_CLASSES = (Fraction(1), Fraction(-1)), (SquareClass.product(()), -SquareClass.product(()))


def _hasse_route_entries(ef: tuple, classes_f: tuple, eg: tuple, classes_g: tuple) -> bool:
    """classes_equal_hasse_route on the forms' diagonal entries and square classes."""
    if (len(ef) - len(eg)) % 2:
        return False
    half = abs(len(ef) - len(eg)) // 2
    pad, pad_classes = _PLANE * half, _PLANE_CLASSES * half
    if len(ef) < len(eg):
        ef, classes_f = ef + pad, classes_f + pad_classes
    else:
        eg, classes_g = eg + pad, classes_g + pad_classes
    if _signature(ef) != _signature(eg):
        return False
    if SquareClass.product(classes_f) != SquareClass.product(classes_g):
        return False
    places = _places_of(classes_f + classes_g)
    return _hasse_symbols(classes_f, places) == _hasse_symbols(classes_g, places)


def classes_equal_hasse_route(f: BilinearForm, g: BilinearForm) -> bool:
    """Witt equality via the complete invariant system of equal-rank forms:
    pad with hyperbolic planes, then compare rank, signature, discriminant,
    and every Hasse symbol (including the place 2 and the real place)."""
    return _hasse_route_entries(*_classed_entries(f), *_classed_entries(g))


def classes_equal_residue_route(f: BilinearForm, g: BilinearForm) -> bool:
    return witt_class_of(f) == witt_class_of(g)


def equivalent(f: BilinearForm, g: BilinearForm) -> bool:
    """Decide Witt equality of two symmetric forms over Q.

    Runs both the residue-based canonical comparison and the Hasse-based
    stabilized comparison; disagreement would be an internal error.  The
    two oracles share one set of pivots per form (``forms.pivots``) and one
    square class per pivot, which the form keeps, so each pivot is factored
    and classed once per form object, over all calls; each oracle computes
    its own symbols.
    """
    ef, cf = _classed_entries(f)
    eg, cg = _classed_entries(g)
    class_f, class_g = _class_of_entries(ef, cf), _class_of_entries(eg, cg)
    by_residues = class_f == class_g
    by_hasse = _hasse_route_entries(ef, cf, eg, cg)
    if by_residues != by_hasse:
        raise CertificateError(
            "residue and Hasse equality oracles disagree: "
            f"{class_f} vs {class_g}"
        )
    return by_hasse

