"""Forms: diagonalization, invariants, radical, symplectic and metabolic reduction."""

from fractions import Fraction
from random import Random

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wittpoint import forms
from wittpoint.core import (
    REAL_PLACE, CertificateError, _places_of, hilbert_symbol, is_prime, relevant_places, square_class,
)
from wittpoint.forms import (
    HYPERBOLIC_PLANE,
    RATIONAL,
    BilinearForm,
    BlockMetabolicForm,
    _hasse_symbols,
    diagonalize,
    invariants,
    metabolic_reduce,
    radical_split,
    standard_symplectic_gram,
    symplectic_reduce,
)
from wittpoint.linalg import Mat
from wittpoint.cobordism import random_invertible, random_nondegenerate_form


def symmetric_from_lower(n: int, entries) -> Mat:
    """The symmetric n x n matrix whose lower triangle, read row by row, is
    the first n(n + 1)/2 of ``entries``."""
    it = iter(entries)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = Fraction(next(it))
    return Mat(n, n, rows)


nonzero_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)


def symmetric_matrices(n_max=4, bound=4):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=n_max))
        entries = draw(st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        return BilinearForm(RATIONAL, 1, symmetric_from_lower(n, entries))

    return st.composite(build)()


def test_diagonalize_spec_examples():
    d = diagonalize(BilinearForm.from_rows([[5]]))
    assert d.entries == (Fraction(5),)
    assert d.congruence == Mat.identity(1)

    d = diagonalize(HYPERBOLIC_PLANE)
    assert d.entries == (Fraction(2), Fraction(-2))
    p = d.congruence
    assert p.T * HYPERBOLIC_PLANE.gram * p == Mat.diag([2, -2])

    d = diagonalize(BilinearForm.from_rows([[1, 2], [2, 1]]))
    assert d.entries == (Fraction(1), Fraction(-3))


def test_diagonalize_rejects_skew():
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)
    with pytest.raises(ValueError, match="requires symmetric"):
        diagonalize(skew)


@given(f=symmetric_matrices())
@settings(max_examples=80)
def test_diagonalize_congruence_exact(f):
    d = diagonalize(f)
    n = f.gram.n
    expected = Mat.diag(list(d.entries) + [Fraction(0)] * d.radical_dim)
    assert d.congruence.T * f.gram * d.congruence == expected
    assert d.rank + d.radical_dim == n
    assert all(e != 0 for e in d.entries)


@given(data=st.data(), n=st.integers(min_value=0, max_value=5))
@settings(max_examples=120)
def test_diagonalize_returns_a_diagonal_form_as_it_is(data, n):
    # a nonzero diagonal: its entries, no radical and P = I, as the pivot
    # loop would give
    entries = data.draw(st.lists(nonzero_fractions, min_size=n, max_size=n))
    d = diagonalize(BilinearForm.from_diagonal(entries))
    assert (d.entries, d.radical_dim, d.congruence) == (tuple(entries), 0, Mat.identity(n))


def test_integer_certificate_rejects_a_wrong_congruence():
    # B^T G B = diag(2, 10) for G = [[2, 1], [1, 3]] and the columns of B
    gram, cols, diag = [[2, 1], [1, 3]], [[1, 0], [-1, 2]], [2, 10]
    forms._certify_congruence(cols, gram, diag)
    for wrong in ([[2, 0], [-1, 2]], [[1, 2], [-1, 2]], [[-1, 2], [1, 0]]):
        with pytest.raises(CertificateError, match="the diagonal D$"):
            forms._certify_congruence(wrong, gram, diag)
    # a multiple of a right P is wrong: 6P gives 36 D
    with pytest.raises(CertificateError, match="the diagonal D$"):
        forms._certify_congruence([[6 * x for x in c] for c in cols], gram, diag)
    # right on the diagonal, wrong off it: the identity does not clear G[0][1]
    with pytest.raises(CertificateError):
        forms._certify_congruence([[1, 0], [0, 1]], gram, [2, 3])
    # the radical's diagonal is zero: diag lists the rank's entries only
    forms._certify_congruence([[1, 0], [0, 1]], [[3, 0], [0, 0]], [3])
    with pytest.raises(CertificateError):
        forms._certify_congruence([[1, 0], [0, 1]], [[3, 0], [0, 1]], [3])


def test_invariants_spec_examples():
    inv = invariants(BilinearForm.from_diagonal([1, 1]))
    assert (inv.rank, inv.signature, inv.discriminant.representative) == (2, (2, 0), 1)
    assert all(v == 1 for v in inv.hasse.values())

    inv = invariants(BilinearForm.from_diagonal([-2]))
    assert (inv.rank, inv.signature, inv.discriminant.representative) == (1, (0, 1), -2)
    assert all(v == 1 for v in inv.hasse.values())  # singleton products are empty

    inv = invariants(BilinearForm.from_diagonal([3, 3]))
    assert inv.discriminant.representative == 1
    assert inv.hasse[3] == -1


# primes above the trial-division cutoff: each entry is factored, never their product
BIG_P1, BIG_P2 = 1_000_003, 99_999_989


def hasse_of_entries(entries, places=None) -> dict:
    """prod_{i<j} (a_i, a_j)_v at each place v, by default the relevant places,
    by ``forms._hasse_symbols``, the product ``invariants`` takes.

    Each entry is classed once, and the symbols are read off the classes'
    squarefree kernels.  Without places, the places are 2, the primes of the
    classes and the real place.  With places, each is checked first, and a
    zero entry is refused before it is classed.
    """
    entries = [Fraction(e) for e in entries]
    if places is None:
        classes = [square_class(e) for e in entries]
        return _hasse_symbols(classes, _places_of(classes))
    if any(e == 0 for e in entries):
        raise ValueError("Hilbert symbol needs nonzero arguments")
    for v in places:
        if v != REAL_PLACE and (not isinstance(v, int) or not is_prime(v)):
            raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {v!r}")
    return _hasse_symbols([square_class(e) for e in entries], places)


def test_invariants_factor_entries_never_their_product():
    inv = invariants(BilinearForm.from_diagonal([3 * BIG_P1, 5 * BIG_P2]))
    assert (inv.rank, inv.signature) == (2, (2, 0))
    assert inv.discriminant.representative == 15 * BIG_P1 * BIG_P2
    assert inv.discriminant.prime_support() == [3, 5, BIG_P1, BIG_P2]
    assert sorted(inv.hasse, key=str) == sorted([2, 3, 5, BIG_P1, BIG_P2, REAL_PLACE], key=str)


def test_hasse_of_entries_checks_its_inputs_without_pairs():
    # fewer than two entries have no pairs, but places and entries are still checked
    with pytest.raises(ValueError, match="place must be a prime or 'real', got 4"):
        hasse_of_entries([3], [4])
    for entries, places in (([0], [3]), ([0], [REAL_PLACE]), ([0, 1], [])):
        with pytest.raises(ValueError, match="Hilbert symbol needs nonzero arguments"):
            hasse_of_entries(entries, places)
    assert hasse_of_entries([3], [3, REAL_PLACE]) == {3: 1, REAL_PLACE: 1}
    assert hasse_of_entries([]) == {2: 1, REAL_PLACE: 1}


def test_invariants_requires_nondegenerate():
    with pytest.raises(ValueError, match="radical"):
        invariants(BilinearForm.from_diagonal([1, 0]))


def test_invariants_congruence_invariant():
    rng = Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        f = random_nondegenerate_form(rng, n)
        g = f.congruent_by(random_invertible(rng, n, bound=1))
        inv_f, inv_g = invariants(f), invariants(g)
        assert inv_f.rank == inv_g.rank
        assert inv_f.signature == inv_g.signature
        assert inv_f.discriminant == inv_g.discriminant
        places = sorted(set(inv_f.hasse) | set(inv_g.hasse), key=str)
        ef = diagonalize(f).entries
        eg = diagonalize(g).entries
        assert hasse_of_entries(ef, places) == hasse_of_entries(eg, places)


def test_direct_sum_invariant_cocycle():
    rng = Random(5)
    for _ in range(25):
        f = random_nondegenerate_form(rng, rng.randint(1, 3))
        g = random_nondegenerate_form(rng, rng.randint(1, 3))
        s = f.direct_sum(g)
        inv_f, inv_g, inv_s = invariants(f), invariants(g), invariants(s)
        assert inv_s.signature == (inv_f.signature[0] + inv_g.signature[0],
                                   inv_f.signature[1] + inv_g.signature[1])
        assert inv_s.discriminant == inv_f.discriminant * inv_g.discriminant
        df = Fraction(inv_f.discriminant.representative)
        dg = Fraction(inv_g.discriminant.representative)
        ef, eg = diagonalize(f).entries, diagonalize(g).entries
        places = relevant_places(list(ef) + list(eg))
        hf = hasse_of_entries(ef, places)
        hg = hasse_of_entries(eg, places)
        hs = hasse_of_entries(diagonalize(s).entries, places)
        for v in places:
            assert hs[v] == hf[v] * hg[v] * hilbert_symbol(df, dg, v)


def test_radical_split_spec_examples():
    r = radical_split(BilinearForm.from_rows([[0, 0], [0, 0]]))
    assert (r.nondegenerate.gram.n, r.radical_dim) == (0, 2)
    r = radical_split(BilinearForm.from_diagonal([1, 0]))
    assert (r.nondegenerate.gram.rows, r.radical_dim) == ([[Fraction(1)]], 1)
    r = radical_split(BilinearForm.from_rows([[1, 1], [1, 1]]))
    assert (r.nondegenerate.gram.rows, r.radical_dim) == ([[Fraction(1)]], 1)
    # the returned basis exhibits the block decomposition
    f = BilinearForm.from_rows([[1, 1], [1, 1]])
    r = radical_split(f)
    moved = r.basis.T * f.gram * r.basis
    assert moved == Mat.diag([1, 0])


def test_symplectic_reduce_spec_examples():
    assert symplectic_reduce(BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)).hyperbolic_count == 1
    assert symplectic_reduce(BilinearForm.from_rows([[0, 2], [-2, 0]], symmetry=-1)).hyperbolic_count == 1
    rng = Random(3)
    for _ in range(15):
        f = random_nondegenerate_form(rng, 4, symmetry=-1)
        red = symplectic_reduce(f)
        assert red.hyperbolic_count == 2
        assert red.congruence.T * f.gram * red.congruence == standard_symplectic_gram(2)


def test_symplectic_reduce_errors():
    # odd and degenerate forms are reduced: a vector with no partner is in
    # the radical and is set aside after the pairs, P^T G P = J_k + 0
    odd = BilinearForm(RATIONAL, -1, Mat.zeros(3, 3))
    red = symplectic_reduce(odd)
    assert (red.hyperbolic_count, red.congruence) == (0, Mat.identity(3))
    degenerate = BilinearForm.from_rows([[0, 0, 2], [0, 0, 0], [-2, 0, 0]], symmetry=-1)
    red = symplectic_reduce(degenerate)
    assert red.hyperbolic_count == 1
    assert red.congruence.submatrix(range(3), [2]) == Mat.from_rows([[0], [1], [0]])  # the radical
    target = standard_symplectic_gram(1).direct_sum(Mat.zeros(1, 1))
    assert red.congruence.T * degenerate.gram * red.congruence == target
    with pytest.raises(ValueError, match="skew"):
        symplectic_reduce(BilinearForm.from_diagonal([1, 1]))


def test_metabolic_reduce_spec_examples():
    s = BilinearForm.from_diagonal([1])
    block = BlockMetabolicForm(s, Mat.zeros(1, 1), Mat.zeros(1, 1))
    red = metabolic_reduce(block)
    assert red.core.gram == s.gram and red.hyperbolic_count == 1
    assert red.transvections == ()

    block = BlockMetabolicForm(s, Mat.from_rows([[4]]), Mat.from_rows([[2]]))
    red = metabolic_reduce(block)
    assert red.core.gram == s.gram and red.hyperbolic_count == 1
    from wittpoint.witt import witt_class_of

    assert witt_class_of(block.assemble()) == witt_class_of(s.direct_sum(HYPERBOLIC_PLANE))

    rng = Random(9)
    core = BilinearForm.from_diagonal([1, -1])
    a = Mat.from_rows([[rng.randint(-3, 3)]])
    b = Mat(2, 1, [[Fraction(rng.randint(-3, 3))] for _ in range(2)])
    red = metabolic_reduce(BlockMetabolicForm(core, a, b))
    assert red.core.gram == core.gram and red.hyperbolic_count == 1


def transvection(n: int, alpha, p: int, q: int) -> Mat:
    """Elementary matrix E with E - I having single entry alpha at (p, q)."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows[p][q] += Fraction(alpha)
    return Mat(n, n, rows)


def replay(red, block: BlockMetabolicForm) -> Mat:
    """The assembled Gram matrix moved by each of the reduction's
    transvections in turn, as E^T G E."""
    g = block.assemble().gram
    for alpha, p, q in red.transvections:
        e = transvection(g.n, alpha, p, q)
        g = e.T * g * e
    return g


def test_metabolic_reduce_replay_and_congruence():
    rng = Random(21)
    for _ in range(10):
        m = rng.randint(1, 3)
        k = rng.randint(1, 2)
        core = random_nondegenerate_form(rng, m)
        a = symmetric_from_lower(k, (rng.randint(-3, 3) for _ in range(k * (k + 1) // 2)))
        b = Mat(m, k, [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(m)])
        block = BlockMetabolicForm(core, a, b)
        red = metabolic_reduce(block)
        replayed = replay(red, block)
        cleared = BlockMetabolicForm(core, Mat.zeros(k, k), Mat.zeros(m, k)).assemble().gram
        assert replayed == cleared
        g = block.assemble().gram
        assert red.congruence.T * g * red.congruence == cleared


def test_metabolic_block_shape_errors():
    s = BilinearForm.from_diagonal([1])
    with pytest.raises(ValueError, match="B must be"):
        BlockMetabolicForm(s, Mat.zeros(1, 1), Mat.zeros(2, 1))
    with pytest.raises(ValueError, match="symmetric"):
        BlockMetabolicForm(s, Mat.from_rows([[0, 1], [0, 0]]), Mat.zeros(1, 2))
    with pytest.raises(ValueError, match="nondegenerate"):
        BlockMetabolicForm(BilinearForm.from_diagonal([0]), Mat.zeros(1, 1), Mat.zeros(1, 1))


def test_transvection_matches_definition():
    e = transvection(3, Fraction(5), 0, 2)
    assert e == Mat.from_rows([[1, 0, 5], [0, 1, 0], [0, 0, 1]])


def test_metabolic_moves_are_fractions_of_the_blocks():
    # blocks built from int rows: the half-diagonal move is the Fraction -3/2
    block = BlockMetabolicForm(BilinearForm.from_diagonal([1]), Mat(1, 1, [[3]]), Mat(1, 1, [[2]]))
    red = metabolic_reduce(block)
    assert red.transvections == ((Fraction(-2), 0, 1), (Fraction(-3, 2), 0, 2))
    assert all(type(alpha) is Fraction for alpha, _, _ in red.transvections)
    assert red.congruence == Mat.from_rows([[1, -2, "-3/2"], [0, 1, 0], [0, 0, 1]])


def test_form_symmetry_validation():
    with pytest.raises(ValueError, match="symmetry"):
        BilinearForm.from_rows([[0, 1], [2, 0]])


def test_forms_are_over_q_only():
    # W(F_p) is reached through the residue maps, not through forms over F_p
    for field in (5, 2, "F5", None):
        with pytest.raises(ValueError, match='^forms are defined over Q: field must be "Q"$'):
            BilinearForm(field, 1, Mat.identity(1))
    assert BilinearForm(RATIONAL, 1, Mat.identity(1)) == BilinearForm.from_diagonal([1])


CORRUPTED_CERTIFICATES = """
from fractions import Fraction
from wittpoint import cobordism, forms, hodge
from wittpoint.core import CertificateError
from wittpoint.forms import (
    BilinearForm, BlockMetabolicForm, diagonalize, metabolic_reduce, symplectic_reduce,
)
from wittpoint.linalg import Mat

assert False, "bare asserts run: not under -O"

def fired(run):
    try:
        run()
    except AssertionError as e:
        return str(e) if type(e) is CertificateError else f"not a CertificateError: {e!r}"
    return "nothing fired"

# a diagonal Gram takes no pivot loop and no separate certificate, so these
# forms are not diagonal: the pivot loop gives P = [e0, e1 - e0, e2], D = (1, 1, -1)
gram = [[1, 1, 0], [1, 2, 0], [0, 0, -1]]
certify_congruence = forms._certify_congruence
def corrupted(cols, gram, diag):  # a wrong P: its first column gains e_1
    certify_congruence([[cols[0][0] + 1] + cols[0][1:]] + cols[1:], gram, diag)
forms._certify_congruence = corrupted
print(fired(lambda: diagonalize(BilinearForm.from_rows(gram))))
# a wrong P whose diagonal is right: entry (0, 2), above the diagonal, is wrong
forms._certify_congruence = lambda cols, gram, diag: certify_congruence(cols[:2] + [[0, 2, 3]], gram, diag)
print(fired(lambda: diagonalize(BilinearForm.from_rows(gram))))
forms._certify_congruence = certify_congruence

block_gram = forms._block_gram
def corrupted(s, a, b):  # the clearing target is the block with A = B = 0
    gram = block_gram(s, a, b)
    if a.is_zero() and b.is_zero():
        return Mat(gram.m, gram.n, [[Fraction(1)] + gram.rows[0][1:]] + gram.rows[1:])
    return gram
forms._block_gram = corrupted
block = BlockMetabolicForm(BilinearForm.from_diagonal([5]), Mat.from_rows([[1]]), Mat.from_rows([[2]]))
print(fired(lambda: metabolic_reduce(block)))
forms._block_gram = block_gram

congruence = forms._congruence
forms._congruence = lambda n, moves: congruence(n, moves[:-1])  # a congruence missing the last move
print(fired(lambda: metabolic_reduce(block)))
forms._congruence = congruence

certified_frame = hodge._certified_frame
def corrupted(h):  # a wrong R^-1, so a wrong C
    f = certified_frame(h)
    return hodge._Frame(f.basis, f.inverse.scale(2), f.summands)
hodge._certified_frame = corrupted
print(fired(lambda: hodge.weil_operator(hodge.standard_structure(2, 3)[0])))
hodge._certified_frame = certified_frame

h, s = hodge.standard_structure(2, 3)
solve = Mat.solve
Mat.solve = lambda a, b: solve(a, b).scale(2) if b == s.gram.scale(2) else solve(a, b)  # phi doubled
print(fired(lambda: hodge.compare_polarizations(h, s, s.scaled(2))))
Mat.solve = solve

signature = hodge._signature
hodge._signature = lambda f: signature(f)[::-1]  # every sign flipped
print(fired(lambda: hodge.compare_polarizations(h, s, s.scaled(2))))
hodge._signature = signature
witt_class_of = hodge.witt_class_of
hodge.witt_class_of = lambda f: -witt_class_of(f)
print(fired(lambda: hodge.pol_class(h, s)))
hodge.witt_class_of = witt_class_of

symplectic_gram = forms.standard_symplectic_gram
forms.standard_symplectic_gram = lambda k: symplectic_gram(k).scale(2)
print(fired(lambda: symplectic_reduce(BilinearForm.from_rows([[0, 3], [-3, 0]], symmetry=-1))))

w = cobordism.congruence_witness(BilinearForm.from_diagonal([2]), Mat.from_rows([[3]]))
induced = cobordism.Cohomology.induced
def corrupted(self, fmap, i, target):  # pi on H^0 doubled
    m = induced(self, fmap, i, target)
    return m.scale(2) if fmap is w.pi else m
cobordism.Cohomology.induced = corrupted
print(fired(lambda: cobordism.witness_common_core(w)))

from wittpoint import core
prime_factors = core._prime_factors
core._prime_factors = lambda n: prime_factors(n)[:-1]  # a wrong split: the largest prime dropped
print(fired(lambda: core.factor(2 * 3 * 1009)))
core._prime_factors = prime_factors

solve = Mat.solve
Mat.solve = lambda a, b: solve(a, b).scale(2)  # a wrong inverse, 2 A^-1, not a singular A
print(fired(lambda: Mat.from_rows([[1, 1], [0, 1]]).inv()))
print(fired(lambda: hodge.weil_operator(hodge.standard_structure(1, 4)[0])))  # the frame's R^-1, R != I
Mat.solve = solve

from wittpoint import poly
sturm_chain = poly.int_sturm_chain
poly.int_sturm_chain = lambda p: sturm_chain(p)[:-1] + [[1, 1]]  # a last term, t + 1, that does not divide p
print(fired(lambda: hodge.compare_polarizations(h, s, s.scaled(2))))
poly.int_sturm_chain = sturm_chain
"""


def test_certificates_fire_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_CERTIFICATES], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "diagonalization certificate failed: P^T G P is not the diagonal D",
        "diagonalization certificate failed: P^T G P is not the diagonal D",
        "metabolic reduction certificate failed: A and B are not cleared",
        "metabolic reduction certificate failed: A and B are not cleared",
        "Weil operator certificate failed: C^2 is not (-1)^w",
        "comparison certificate failed: phi^T S is not S'",
        "Hodge index certificate failed: the normalized signature of S is -1, not sum (-1)^p h^(p,q) = 1",
        "Hodge index certificate failed: the class signature is -1, not sum (-1)^p h^(p,q) = 1",
        "symplectic certificate failed: P^T G P is not the standard symplectic Gram",
        "core certificate failed: the square does not commute on H^0",
        "factorization certificate failed: ((2, 1), (3, 1)) does not multiply back to 6054",
        "inverse certificate failed: A X is not I",
        "inverse certificate failed: A X is not I",
        "squarefree certificate failed: gcd(p, p') does not divide p",
    ]
