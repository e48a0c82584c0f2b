"""Scalar substrate: square classes, Hilbert symbols, Sturm.

The Hilbert symbol is checked against an independent solubility oracle:
exhaustive primitive search for z^2 = a x^2 + b y^2 modulo p^N, with a
Newton/Hensel lifting certificate on the found solution.  The oracle never
looks at the valuation formulas it is checking.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from wittpoint import core
from wittpoint.core import (
    REAL_PLACE,
    FactorBoundExceeded,
    SquareClass,
    factor,
    hilbert_symbol,
    is_prime,
    relevant_places,
    square_class,
    sturm_positive_real_roots,
)
from wittpoint.forms import BilinearForm
from wittpoint.linalg import Mat
from wittpoint.witt import psi

nonzero_rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
).filter(lambda x: x != 0)

small_nonzero_ints = st.integers(min_value=-30, max_value=30).filter(lambda x: x != 0)


# -- independent solubility oracle ---------------------------------------


def _vp(n: int, p: int):
    if n == 0:
        return None  # infinity
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def hilbert_oracle(a: int, b: int, p: int, exponent: int) -> int:
    """Decide (a, b)_p by brute force modulo p^exponent.

    Returns +1 when a primitive solution with a Hensel-liftable coordinate
    exists, -1 when there is no primitive solution at all (any Z_p solution
    would reduce to one), and raises if the search is inconclusive.
    """
    mod = p**exponent
    squares: dict[int, list[int]] = {}
    for z in range(mod):
        squares.setdefault(z * z % mod, []).append(z)
    liftable = False
    found_any = False
    for x in range(mod):
        for y in range(mod):
            target = (a * x * x + b * y * y) % mod
            for z in squares.get(target, ()):
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                found_any = True
                if a * x * x + b * y * y == z * z:
                    return 1  # exact integer solution, no lifting needed
                grads = [2 * a * x, 2 * b * y, -2 * z]
                ts = [_vp(g, p) for g in grads if _vp(g, p) is not None]
                if ts and 2 * min(ts) < exponent:
                    liftable = True
    if liftable:
        return 1
    if not found_any:
        return -1
    raise RuntimeError(f"oracle inconclusive for ({a}, {b}) at {p}; raise the exponent")


@pytest.mark.parametrize("a,b,p,n", [(2, 2, 2, 6), (3, 3, 3, 3), (1, 7, 2, 6)])
def test_hilbert_symbol_matches_oracle_on_named_cases(a, b, p, n):
    assert hilbert_symbol(a, b, p) == hilbert_oracle(a, b, p, n)


def test_hilbert_spec_values():
    assert hilbert_symbol(1, 5, 7) == 1
    assert hilbert_symbol(2, 2, 2) == 1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(-1, 2, REAL_PLACE) == 1


def test_hilbert_dyadic_formula_against_oracle_grid():
    values = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6]
    for a in values:
        for b in values:
            assert hilbert_symbol(a, b, 2) == hilbert_oracle(a, b, 2, 6), (a, b)


def test_hilbert_odd_formula_against_oracle_grid():
    values = [1, -1, 2, -2, 3, -3, 5, 15]
    for a in values:
        for b in values:
            assert hilbert_symbol(a, b, 3) == hilbert_oracle(a, b, 3, 4), (a, b)
            assert hilbert_symbol(a, b, 5) == hilbert_oracle(a, b, 5, 3), (a, b)


# -- square classes -------------------------------------------------------


FLOAT_CALLS = {  # every entry point that reads a rational, given 0.1
    "Mat": lambda: Mat(1, 1, [[0.1]]),
    "Mat.from_rows": lambda: Mat.from_rows([[1, 0.1]]),
    "Mat.from_columns": lambda: Mat.from_columns([[0.1]], m=1),
    "Mat.diag": lambda: Mat.diag([1, 0.1]),
    "Mat.scale": lambda: Mat.identity(2).scale(0.1),
    "from_diagonal": lambda: BilinearForm.from_diagonal([0.1, 1]),
    "scaled": lambda: BilinearForm.from_diagonal([1]).scaled(0.1),
    "square_class": lambda: square_class(0.1),
    "residue_mod": lambda: core.residue_mod(0.1, 7),
    "hilbert_symbol": lambda: hilbert_symbol(0.1, 3, 5),
    "hilbert_symbol_second": lambda: hilbert_symbol(3, 0.1, REAL_PLACE),
    "psi": lambda: psi([1, 0.1], 5, 1),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=FLOAT_CALLS.keys())
def test_a_float_is_refused_at_every_exact_entry_point(call):
    # 0.1 is 3602879701896397 / 2^55 as a float: read as that, its square
    # class was 7205759403792794 and its residue mod 7 was 3, not 5
    with pytest.raises(TypeError, match=r"^exact arithmetic takes no float, such as 0\.1: "):
        call()


def test_the_exact_spellings_of_a_tenth_are_read_exactly():
    for x in (Fraction(1, 10), "1/10", "0.1"):
        assert (square_class(x).representative, core.residue_mod(x, 7)) == (10, 5)
    assert psi(["1/10"], 5, 1) == psi([Fraction(1, 10)], 5, 1)


def test_square_class_spec_values():
    assert square_class(Fraction(1, 2)).representative == 2
    assert square_class(-2).representative == -2
    assert square_class(18).representative == 2


def test_square_class_rejects_zero():
    with pytest.raises(ValueError, match="zero has no square class"):
        square_class(0)


@given(a=nonzero_rationals, c=nonzero_rationals)
def test_square_class_mod_squares(a, c):
    assert square_class(a * c * c) == square_class(a)


@given(a=nonzero_rationals, b=nonzero_rationals)
def test_square_class_multiplicative(a, b):
    assert square_class(a) * square_class(b) == square_class(a * b)


def test_square_class_type_invariant():
    with pytest.raises(ValueError):
        SquareClass(12)  # not squarefree
    with pytest.raises(ValueError):
        SquareClass(0)


# -- hilbert symbol properties ---------------------------------------------


@given(a=nonzero_rationals, b=nonzero_rationals)
@settings(max_examples=60)
def test_hilbert_symmetric_and_self_negative(a, b):
    for place in relevant_places([a, b]):
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a, -a, place) == 1


@given(a=small_nonzero_ints, b=small_nonzero_ints, c=small_nonzero_ints)
@settings(max_examples=60)
def test_hilbert_bimultiplicative(a, b, c):
    for place in relevant_places([a, b, c]):
        assert hilbert_symbol(a * b, c, place) == hilbert_symbol(a, c, place) * hilbert_symbol(b, c, place)


@given(a=nonzero_rationals, b=nonzero_rationals)
@settings(max_examples=80)
def test_hilbert_product_formula(a, b):
    product = 1
    for place in relevant_places([a, b]):
        product *= hilbert_symbol(a, b, place)
    assert product == 1


def test_hilbert_trivial_first_argument():
    for place in [2, 3, 7, REAL_PLACE]:
        assert hilbert_symbol(1, Fraction(-7, 3), place) == 1


# -- factoring / primality ---------------------------------------------------


def test_factor_splits_a_product_of_two_primes_near_10_9():
    p, q = 10**9 + 7, 10**9 + 9
    assert factor(p * q) == {p: 1, q: 1}
    assert factor(-12 * p**2) == {2: 2, 3: 1, p: 2}


def test_factor_refuses_a_cofactor_beyond_the_rho_budget():
    p, q = 1000000000000037, 1000000000000091  # primes near 10^15
    assert is_prime(p) and is_prime(q)
    with pytest.raises(FactorBoundExceeded, match=f"cofactor {p * q} is composite"):
        factor(2 * p * q)


def head_prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 by trial division by 2, 3 and every 6k +- 1
    below TRIAL_CUTOFF, then the same cofactor steps as the package."""
    out = []
    for p in (2, 3) + tuple(d + k for d in range(5, core.TRIAL_CUTOFF, 6) for k in (0, 2)):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out.append(p)
    cofactors = [n] if n > 1 else []
    while cofactors:
        m = cofactors.pop()
        if m < core.TRIAL_CUTOFF**2 or is_prime(m):
            out.append(m)
        else:
            cofactors += core._rho_split(m)
    return sorted(out)


small_prime_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 31, 991, 997]), st.integers(min_value=1, max_value=40)),
    max_size=4)
large_parts = st.lists(
    st.one_of(st.sampled_from([997, 1009, 997**2, 10**6 + 3, 1009 * (10**6 + 3)]),
              st.integers(min_value=10**6 + 1, max_value=10**6 + 2000)),
    max_size=3)


@given(powers=small_prime_powers, parts=large_parts)
@settings(max_examples=200)
def test_prime_factors_match_trial_division(powers, parts):
    # n = 1 when both lists are empty
    n = prod(p**e for p, e in powers) * prod(parts)
    assert core._prime_factors(n) == head_prime_factors(n)


def test_primorial_is_the_product_of_the_primes_below_the_cutoff():
    primes = [p for p in range(core.TRIAL_CUTOFF) if is_prime(p)]
    assert core._SMALL_PRIMES == tuple(primes)
    assert core._PRIMORIAL == prod(primes)


def test_is_prime_small():
    primes = {p for p in range(2, 200) if is_prime(p)}
    sieve = set()
    for n in range(2, 200):
        if all(n % d for d in range(2, n)):
            sieve.add(n)
    assert primes == sieve


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether odd n > 2 passes the strong Fermat test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def ref_is_prime(n: int) -> bool:
    """Trial division by the twelve bases, then all twelve at every size."""
    if n < 2:
        return False
    for p in TWELVE_BASES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in TWELVE_BASES)


FOUR_BASES_BOUND = 3_215_031_751


@settings(max_examples=400, deadline=None)
@given(n=st.one_of(st.integers(-3, 10**5), st.integers(10**5, 10**10),
                   st.integers(FOUR_BASES_BOUND - 10**4, FOUR_BASES_BOUND + 10**4),
                   st.integers(10**10, 10**24)))
def test_is_prime_matches_the_twelve_base_loop(n):
    assert is_prime(n) == ref_is_prime(n)


def test_is_prime_near_10_7_and_10_9_and_at_the_four_base_pseudoprime():
    for base in (10**7, 10**9):
        found = [n for n in range(base - 200, base + 200) if is_prime(n)]
        assert found == [n for n in range(base - 200, base + 200) if ref_is_prime(n)]
        assert len(found) > 10
    assert all(map(is_prime, (10**7 + 19, 10**9 + 7, 10**9 + 9)))
    # the least strong pseudoprime to bases 2, 3, 5 and 7: four bases would
    # call it prime, and at the bound is_prime takes all twelve
    psp = 151 * 751 * 28351
    assert psp == FOUR_BASES_BOUND == core._FOUR_BASES_BOUND
    assert all(strong_probable_prime(psp, a) for a in (2, 3, 5, 7))
    assert not is_prime(psp) and not ref_is_prime(psp)
    # the least strong pseudoprime to bases 2, 3 and 5 needs base 7
    assert all(strong_probable_prime(25_326_001, a) for a in (2, 3, 5))
    assert not is_prime(25_326_001)


# -- sturm ------------------------------------------------------------------


def test_sturm_spec_values():
    cert = sturm_positive_real_roots([-3, 1])  # t - 3
    assert (cert.positive_roots, cert.all_real, cert.squarefree) == (1, True, True)
    cert = sturm_positive_real_roots([5, -5, 1])  # t^2 - 5t + 5
    assert (cert.positive_roots, cert.all_real, cert.squarefree) == (2, True, True)
    cert = sturm_positive_real_roots([1, 0, 1])  # t^2 + 1
    assert (cert.positive_roots, cert.all_real, cert.squarefree) == (0, False, True)


def test_sturm_zero_polynomial():
    with pytest.raises(ValueError):
        sturm_positive_real_roots([0, 0])


def test_sturm_root_at_zero_excluded():
    cert = sturm_positive_real_roots([0, -1, 1])  # t(t - 1)
    assert cert.positive_roots == 1
    assert cert.real_roots == 2


def test_sturm_with_multiplicities():
    # (t - 2)^2 (t + 1): distinct roots 2, positive 1, not squarefree
    cert = sturm_positive_real_roots([4, 0, -3, 1])
    assert cert.positive_roots == 1
    assert cert.real_roots == 2
    assert cert.all_real is True
    assert cert.squarefree is False


@given(roots=st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5))
@settings(max_examples=60)
def test_sturm_counts_constructed_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= r * poly[k + 1]
    cert = sturm_positive_real_roots(poly)
    distinct = set(roots)
    assert cert.positive_roots == sum(1 for r in distinct if r > 0)
    assert cert.real_roots == len(distinct)
    assert cert.all_real is True
    assert cert.squarefree == (len(distinct) == len(roots))
