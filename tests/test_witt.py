"""Witt classes: canonical forms, residue maps, group law, equality oracles."""

from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from wittpoint.cobordism import random_invertible, random_nondegenerate_form
from wittpoint.core import _primes_below, square_class
from wittpoint.forms import (
    HYPERBOLIC_PLANE,
    RATIONAL,
    SYMMETRIC,
    BilinearForm,
    Pivots,
    diagonalize,
    pivots,
    radical_split,
)
from wittpoint.linalg import Mat
from wittpoint.witt import (
    WittClassFp,
    WittClassQ,
    _class_of_entries,
    classes_equal_hasse_route,
    classes_equal_residue_route,
    equivalent,
    fp_class_of,
    psi,
    witt_class_of,
)
from test_kernel import ldl_cases, rationals


def fp_group_table(p: int) -> dict:
    """Structure of W(F_p) computed by closing {classes of <u>} under addition."""
    if p == 2:
        elements = {WittClassFp.rank_parity(2, 0), WittClassFp.rank_parity(2, 1)}
        generator = WittClassFp.rank_parity(2, 1)
    else:
        generators = {fp_class_of([u], p) for u in range(1, p)}
        elements = {WittClassFp.zero(p)} | generators
        frontier = list(elements)
        while frontier:
            x = frontier.pop()
            for gcls in generators:
                y = x + gcls
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
        generator = fp_class_of([1], p)
    exponent = 1
    for x in elements:
        exponent = lcm(exponent, x.order())
    return {
        "p": p,
        "cardinality": len(elements),
        "exponent": exponent,
        "order_of_one": generator.order(),
    }


def fp_isometric_by_search(entries_a, entries_b, p):
    """Exhaustive congruence search over GL_2(F_p); independent oracle."""
    ga = [[entries_a[0], 0], [0, entries_a[1]]]
    gb = [[entries_b[0], 0], [0, entries_b[1]]]
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p == 0:
            continue
        # P^T G_a P with P = [[a, b], [c, d]]
        m00 = (a * a * ga[0][0] + c * c * ga[1][1]) % p
        m01 = (a * b * ga[0][0] + c * d * ga[1][1]) % p
        m11 = (b * b * ga[0][0] + d * d * ga[1][1]) % p
        if (m00, m01, m11) == (gb[0][0] % p, 0, gb[1][1] % p):
            return True
    return False


def test_fp_class_spec_examples():
    one3 = fp_class_of([1], 3)
    assert one3.payload == 1 and one3.order() == 4

    two5 = fp_class_of([1, 1], 5)
    assert two5.payload == (0, True) and two5.is_zero()
    # cross-check: <1,1> is congruent to the hyperbolic <1,-1> over F_5
    assert fp_isometric_by_search([1, 1], [1, -1], 5)

    two3 = fp_class_of([1, 1], 3)
    assert two3.payload == 2 and not two3.is_zero() and two3.order() == 2
    # and over F_3 no congruence takes <1,1> to <1,-1>
    assert not fp_isometric_by_search([1, 1], [1, -1], 3)


def test_fp_class_errors():
    with pytest.raises(ValueError, match="rank parity"):
        fp_class_of([1], 2)
    with pytest.raises(ValueError, match="nonzero"):
        fp_class_of([3], 3)


def test_fp_group_tables_all_primes_below_100():
    for p in range(2, 100):
        try:
            table = fp_group_table(p)
        except ValueError:
            continue  # not prime
        if p == 2:
            assert (table["cardinality"], table["exponent"], table["order_of_one"]) == (2, 2, 2)
        elif p % 4 == 3:
            assert (table["cardinality"], table["exponent"], table["order_of_one"]) == (4, 4, 4)
        else:
            assert (table["cardinality"], table["exponent"], table["order_of_one"]) == (4, 2, 2)


def test_psi_spec_examples():
    assert not psi([Fraction(-2)], 2, 1).is_zero()
    c = psi([Fraction(-2)], 3, 0)
    assert c == fp_class_of([1], 3)
    assert psi([Fraction(3)], 3, 0).is_zero()
    assert psi([Fraction(5)], 5, 0).is_zero()


def test_psi_additive_and_rediagonalization_invariant():
    rng = Random(2)
    for _ in range(25):
        f = random_nondegenerate_form(rng, rng.randint(1, 3))
        g = random_nondegenerate_form(rng, rng.randint(1, 3))
        for p in (2, 3, 5):
            for k in (0, 1):
                left = psi(f.direct_sum(g), p, k)
                right = psi(f, p, k) + psi(g, p, k)
                assert left == right
        # invariance under re-diagonalization
        moved = f.congruent_by(random_invertible(rng, f.gram.n, bound=1))
        for p in (2, 3, 5, 7):
            for k in (0, 1):
                assert psi(f, p, k) == psi(moved, p, k)


def test_psi_of_a_form_reads_its_nondegenerate_part():
    f = BilinearForm.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, Fraction(3, 5)]])
    nondegenerate = radical_split(f).nondegenerate
    for p in (2, 3, 5, 7):
        for k in (0, 1):
            assert psi(f, p, k) == psi(nondegenerate, p, k)


@st.composite
def psi_grams(draw):
    """A symmetric rational Gram matrix, n <= 5, of a drawn kind: diagonal
    (zeros allowed); L diag(d) L^T, L unit lower triangular, with a zero d_k,
    so degenerate with a zero leading k-minor; one whose leading k x k block
    is such a product, any rest; or any, where a zero entry is common."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["diagonal", "degenerate", "zero leading minor", "any"]))
    if kind == "diagonal":
        return Mat.diag([draw(rationals) for _ in range(n)])
    upper = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    k = n if kind == "degenerate" else draw(st.integers(1, n)) if kind == "zero leading minor" else 0
    if k:
        lower = Mat(k, k, [[Fraction(1) if i == j else draw(rationals) if j < i else Fraction(0)
                            for j in range(k)] for i in range(k)])
        d = [draw(rationals) for _ in range(k)]
        d[draw(st.integers(0, k - 1)) if kind == "degenerate" else k - 1] = Fraction(0)
        block = lower * Mat.diag(d) * lower.T
        for i in range(k):
            rows[i][:k] = block.rows[i]
    return Mat(n, n, rows)


@settings(max_examples=300, deadline=None)
@given(gram=psi_grams(), p=st.sampled_from([2, 3, 5, 7, 11, 13]), k=st.sampled_from([0, 1]))
def test_psi_reads_the_same_class_off_pivots_as_off_a_diagonalization(gram, p, k):
    # psi reads a form's pivots, from one pivoted LDL^T pass: where every
    # leading minor is nonzero they differ from the diagonalization's entries
    # by squares, and elsewhere they may not, place by place, but give the
    # same residue.  Each form is fresh, so neither call reads what the other
    # kept
    assert psi(BilinearForm(RATIONAL, SYMMETRIC, gram), p, k) == psi(
        diagonalize(BilinearForm(RATIONAL, SYMMETRIC, gram)).entries, p, k)


def ref_class_from_psi(entries, classes) -> WittClassQ:
    """The class of <entries> from its signature and psi(entries, p, 1) at every
    prime of the classes, through the checking constructor."""
    residues = [(p, psi(entries, p, 1)) for p in sorted(set().union(*(c._primes for c in classes)))]
    signature = sum(1 if e > 0 else -1 for e in entries)
    return WittClassQ(signature, tuple((p, c) for p, c in residues if not c.is_zero()))


BIG_PRIMES = [p for p in _primes_below(10**5) if p > 10**3]
# like the entries of oracle_heights: a sign, a small prime or 1, a prime in
# [1e3, 1e5) or 1, and a rational square
oracle_entries = st.builds(
    lambda sign, small, big, num, den: sign * small * big * Fraction(num, den) ** 2,
    st.sampled_from((1, -1)), st.sampled_from((1, 2, 3, 5, 7, 11, 13)),
    st.one_of(st.just(1), st.sampled_from(BIG_PRIMES)), st.integers(1, 30), st.integers(1, 30),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), entries=st.lists(oracle_entries, max_size=6), gram=psi_grams())
def test_class_of_entries_matches_the_residues_of_psi(data, entries, gram):
    # repeated entries share their primes; a form's pivots may be degenerate
    # or pass a zero leading minor, and the radical is left out
    entries = data.draw(st.permutations(entries + entries[:2]))
    piv = pivots(BilinearForm(RATIONAL, SYMMETRIC, gram))
    for es in (entries, list(piv.entries)):
        classes = [square_class(e) for e in es]
        assert repr(_class_of_entries(es, classes)) == repr(ref_class_from_psi(es, classes))
    assert _class_of_entries(piv.entries, piv.classes) == witt_class_of(BilinearForm(RATIONAL, SYMMETRIC, gram))


@st.composite
def pivot_grams(draw):
    """A symmetric rational Gram matrix of a drawn kind: from ``psi_grams`` or
    ``ldl_cases``; one with an all-zero diagonal, any entries off it; a sum
    of hyperbolic blocks [[0, a], [a, 0]] with its basis permuted, so its
    diagonal is zero too; or a degenerate one, Q^T G Q for a Q with fewer
    rows than columns."""
    kind = draw(st.sampled_from(["psi", "ldl", "zero diagonal", "hyperbolic", "degenerate"]))
    if kind == "psi":
        return draw(psi_grams())
    if kind == "ldl":
        return draw(ldl_cases())[0]
    n = draw(st.integers(1, 6))
    if kind == "hyperbolic":
        blocks = [draw(rationals.filter(bool)) for _ in range(n // 2)]
        gram = Mat.zeros(0, 0)
        for a in blocks:
            gram = gram.direct_sum(Mat(2, 2, [[Fraction(0), a], [a, Fraction(0)]]))
        order = draw(st.permutations(range(gram.n)))
        return gram.submatrix(order, order)
    upper = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    rows = [[upper[min(i, j)][max(i, j)] if i != j or kind == "degenerate" else Fraction(0)
             for j in range(n)] for i in range(n)]
    gram = Mat(n, n, rows)
    if kind == "zero diagonal":
        return gram
    r = draw(st.integers(0, n - 1))
    q = Mat(r, n, [[Fraction(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(r)])
    return q.T * gram.submatrix(range(r), range(r)) * q


def adds_a_column(gram: Mat) -> bool:
    """Whether symmetric elimination over Q, with the pivot policy of
    ``diagonalize`` (the first nonzero diagonal entry, swapped in), meets a
    nonzero trailing block with a zero diagonal, where it adds a column."""
    a = [list(r) for r in gram.rows]
    while a:
        i = next((i for i in range(len(a)) if a[i][i]), None)
        if i is None:
            return any(map(any, a))
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[i] = row[i], row[0]
        p = a[0][0]
        a = [[x - r[0] * y / p for x, y in zip(r[1:], a[0][1:])] for r in a[1:]]
    return False


@settings(max_examples=300, deadline=None)
@given(gram=pivot_grams())
def test_pivoted_ldl_pivots_give_the_witt_class_of_a_diagonalization(gram):
    # the pass pivots as diagonalize does, but an added column puts the
    # bordered minor 2 a_ij on the diagonal, not the pivot loop's scaled
    # entry, so square classes agree place by place only where none is added
    got = gram.ldl_pivots()
    diag = diagonalize(BilinearForm(RATIONAL, SYMMETRIC, gram))
    piv = Pivots(got, gram.n - len(got))
    assert (piv.signature(), piv.radical_dim) == (diag.signature(), diag.radical_dim)
    assert witt_class_of(BilinearForm.from_diagonal(got)) == witt_class_of(BilinearForm.from_diagonal(diag.entries))
    if not adds_a_column(gram):
        assert piv.classes == diag.classes


def test_witt_class_spec_examples():
    assert witt_class_of(HYPERBOLIC_PLANE).is_zero()
    cls = witt_class_of(BilinearForm.from_diagonal([-2]))
    assert cls.signature == -1
    assert not cls.residue_at(2).is_zero()
    cls = witt_class_of(BilinearForm.from_diagonal([1, 1]))
    assert cls == WittClassQ(2, ())


def test_witt_class_degenerate_and_skew():
    degenerate = BilinearForm.from_diagonal([1, 0, -2])
    assert witt_class_of(degenerate) == witt_class_of(BilinearForm.from_diagonal([1, -2]))
    skew = BilinearForm.from_rows([[0, 3], [-3, 0]], symmetry=-1)
    assert witt_class_of(skew).is_zero()


@given(a=st.integers(min_value=-20, max_value=20).filter(lambda x: x != 0))
def test_group_law_inverse(a):
    x = witt_class_of(BilinearForm.from_diagonal([a]))
    y = witt_class_of(BilinearForm.from_diagonal([-a]))
    assert (x + y).is_zero()
    assert -(-x) == x


def test_group_operations():
    x = witt_class_of(BilinearForm.from_diagonal([-2]))
    y = witt_class_of(BilinearForm.from_diagonal([1]))
    total = x + y
    assert not total.is_zero() and (total - total).is_zero()
    assert x == x and x != y
    assert -x == witt_class_of(BilinearForm.from_diagonal([2]))


def test_double_point_sum_is_nonzero_both_ways():
    total = witt_class_of(BilinearForm.from_diagonal([-2, 1]))
    assert not total.is_zero()
    assert not total.residue_at(2).is_zero()
    route3 = psi([Fraction(-2), Fraction(1)], 3, 0)
    assert route3.payload == 2 and route3.order() == 2


def test_witt_class_square_scaling_and_stabilization():
    rng = Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_nondegenerate_form(rng, n)
        entries = diagonalize(f).entries
        c = Fraction(rng.choice([1, 4, 9, Fraction(1, 4), Fraction(9, 16)]))
        scaled = BilinearForm.from_diagonal([c * e for e in entries])
        assert witt_class_of(scaled) == witt_class_of(BilinearForm.from_diagonal(entries))
        assert witt_class_of(f.direct_sum(HYPERBOLIC_PLANE)) == witt_class_of(f)
        moved = f.congruent_by(random_invertible(rng, n, bound=1))
        assert witt_class_of(moved) == witt_class_of(f)


def test_two_oracle_agreement_random_rank_up_to_6():
    rng = Random(13)
    agree = 0
    for _ in range(60):
        f = random_nondegenerate_form(rng, rng.randint(1, 6), bound=4)
        if rng.random() < 0.5:
            g = f.direct_sum(HYPERBOLIC_PLANE).congruent_by(
                random_invertible(rng, f.gram.n + 2, bound=1))
        else:
            g = random_nondegenerate_form(rng, rng.randint(1, 6), bound=4)
        r = classes_equal_residue_route(f, g)
        h = classes_equal_hasse_route(f, g)
        assert r == h
        assert equivalent(f, g) == r
        agree += 1
    assert agree == 60


def test_equivalent_spec_example():
    assert equivalent(HYPERBOLIC_PLANE, BilinearForm.from_diagonal([1, -1]))
    assert not equivalent(HYPERBOLIC_PLANE, BilinearForm.from_diagonal([-2]))


def test_equivalent_factors_entries_never_their_product():
    p1, p2 = 1_000_003, 99_999_989  # each entry is factored, never their product
    f = BilinearForm.from_diagonal([3 * p1, 5 * p2])
    assert equivalent(f, BilinearForm.from_diagonal([5 * p2 * 9, Fraction(3 * p1, 4), 7, -7]))
    assert not equivalent(f, BilinearForm.from_diagonal([3 * p1, -5 * p2]))
    assert not equivalent(f, BilinearForm.from_diagonal([3 * p1, 5 * p1]))


def test_equivalent_error_messages():
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)
    for f, g in ((skew, HYPERBOLIC_PLANE), (HYPERBOLIC_PLANE, skew)):
        with pytest.raises(ValueError) as exc:
            equivalent(f, g)
        assert type(exc.value) is ValueError and str(exc.value) == "diagonalization requires symmetric form"


def test_canonical_form_stores_sorted_nonzero_residues():
    cls = witt_class_of(BilinearForm.from_diagonal([30, 2, 3]))
    primes = [p for p, _ in cls.residues]
    assert primes == sorted(primes)
    assert all(not c.is_zero() for _, c in cls.residues)
    with pytest.raises(ValueError, match="nonzero"):
        WittClassQ(0, ((3, WittClassFp.zero(3)),))
    with pytest.raises(ValueError, match="sorted"):
        WittClassQ(0, ((5, fp_class_of([1], 5)), (3, fp_class_of([1], 3))))


def test_fp_payload_validation():
    for not_prime in (lambda: WittClassFp(4, 1), lambda: WittClassFp(4, 0),
                      lambda: WittClassFp.zero(4), lambda: fp_class_of([1], 9)):
        with pytest.raises(ValueError, match="not prime"):
            not_prime()
    with pytest.raises(ValueError):
        WittClassFp(5, (2, True))  # bad parity
    # only canonical payloads: each class has one, so == compares classes;
    # a nonzero payload equal to no canonical one was built and was not zero
    for p, bad in ((3, 4), (3, -1), (7, 5), (2, 3), (2, 2), (2, -1), (3, True), (2, False),
                   (3, 1.0), (3, "1"), (3, (1, True)), (5, 3), (5, (1, 1)), (5, (True, True)),
                   (5, [0, True]), (5, (0, True, 0)), (5, (1,)), (13, None), (5, (-1, False))):
        with pytest.raises(ValueError) as exc:
            WittClassFp(p, bad)
        assert type(exc.value) is ValueError, (p, bad)
    for p, good in ((2, 0), (2, 1), (3, 0), (3, 3), (7, 2), (5, (0, True)), (5, (1, False))):
        assert WittClassFp(p, good) == WittClassFp._of(p, good)
    assert WittClassFp(3, 0) == WittClassFp.zero(3) and WittClassFp(5, (0, True)).is_zero()
    # a residue at p is a class over p
    with pytest.raises(ValueError, match="its own prime"):
        WittClassQ(0, ((3, WittClassFp(7, 1)),))
    assert WittClassQ(0, ((7, WittClassFp(7, 1)),)).residue_at(7) == WittClassFp(7, 1)


def test_a_prime_must_be_an_int():
    # 3.0 passed is_prime and was kept, with repr p=3.0; a bool is no int
    for p, payload in ((3.0, 0), (Fraction(3), 0), (True, 0), ("3", 0), (5.0, (0, True))):
        with pytest.raises(ValueError, match=r"^the prime must be an int, not ") as exc:
            WittClassFp(p, payload)
        assert type(exc.value) is ValueError, p
    with pytest.raises(ValueError, match=r"^the prime must be an int, not float$"):
        WittClassFp.zero(7.0)


def test_a_signature_must_be_an_int():
    for signature in (0.5, 1.0, "x", True, Fraction(1), None):
        with pytest.raises(ValueError, match=r"^the signature must be an int, not "):
            WittClassQ(signature, ())
    assert WittClassQ(-3, ()).signature == -3


def test_a_residue_must_be_a_class_over_fp():
    # a string residue raised AttributeError on c.p
    for residue in ("a", 1, None, (1, True), WittClassQ.zero()):
        with pytest.raises(ValueError, match=r"^each residue must be a WittClassFp$"):
            WittClassQ(1, ((3, residue),))
    with pytest.raises(ValueError, match=r"^each residue must be a WittClassFp$"):
        WittClassQ(1, ((3, WittClassFp(3, 1)), (5, "a")))


def test_fp_class_reads_rationals_mod_p():
    assert fp_class_of([Fraction(1, 2)], 3) == fp_class_of([2], 3)
    assert fp_class_of([Fraction(-3, 4), 5], 7) == fp_class_of([1, 5], 7)  # -3/4 = 1 mod 7
    with pytest.raises(ValueError, match="3 divides its denominator"):
        fp_class_of([Fraction(1, 3)], 3)
