"""Hodge structures at a point: Weil operator, polarizations, comparison."""

import hashlib
import json
import time
from fractions import Fraction
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from wittpoint import forms, hodge
from wittpoint.core import CertificateError, sturm_positive_real_roots
from wittpoint.forms import RATIONAL, SKEW, SYMMETRIC, BilinearForm, diagonalize
from wittpoint.hodge import (
    HodgePiece,
    HodgeStructure,
    compare_polarizations,
    is_polarization,
    pol_class,
    random_hodge_endomorphism,
    random_polarization_pair,
    standard_structure,
    weil_operator,
)
from wittpoint.jsonio import hodge_from_json, hodge_to_json
from wittpoint.linalg import Mat
from wittpoint.poly import int_poly_at
from wittpoint.witt import witt_class_of
from test_kernel import (
    matrices,
    rationals,
    ref_first_nonpositive_minor,
    ref_poly_eval_matrix,
    symmetric_by_first_nonpositive_minor,
)


def _structure(weight, dimension, *pieces):
    """A structure from (p, q, columns) triples.  The entries are Gaussian
    integers written as Python numbers (1, 1j, -1j, ...), exact at this size;
    the columns may have any length, and a piece with no columns has
    ``dimension`` rows."""
    built = []
    for p, q, cols in pieces:
        re, im = ([[Fraction(getattr(complex(z), part)) for z in col] for col in cols]
                  for part in ("real", "imag"))
        m = len(cols[0]) if cols else dimension
        built.append(HodgePiece(p, q, Mat.from_columns(re, m=m), Mat.from_columns(im, m=m)))
    return HodgeStructure(weight, dimension, built)


def elliptic_curve_structure():
    """Weight 1, dimension 2, H^{1,0} spanned by (1, i)."""
    return _structure(1, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, -1j]]))


def test_weil_operator_weight0_identity():
    h, _ = standard_structure(0, 2)
    assert weil_operator(h) == Mat.identity(2)


def test_weil_operator_elliptic_curve():
    c = weil_operator(elliptic_curve_structure())
    assert c == Mat.from_rows([[0, 1], [-1, 0]])


def test_weil_operator_weight2_blocks():
    h, _ = standard_structure(2, 4)
    c = weil_operator(h)
    assert c == Mat.diag([-1, -1, 1, 1])  # i^(p-q) = -1, -1 on (2,0)+(0,2), +1 on (1,1)


def test_weil_square_is_plus_minus_one():
    for weight, dim in [(0, 3), (1, 4), (2, 5), (3, 4)]:
        h, _ = standard_structure(weight, dim)
        c = weil_operator(h)
        assert c * c == Mat.identity(dim).scale(Fraction((-1) ** weight))


def test_is_polarization_weight0():
    h, s = standard_structure(0, 2)
    assert is_polarization(h, s).ok
    bad = is_polarization(h, BilinearForm.from_diagonal([1, -1]))
    assert not bad.ok
    assert any("positive definite" in p for p in bad.problems)


def test_is_polarization_elliptic_curve_both_signs():
    h = elliptic_curve_structure()
    good = BilinearForm.from_rows([[0, -1], [1, 0]], symmetry=-1)
    bad = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)
    chk = is_polarization(h, good)
    assert chk.ok
    assert chk.s_c == Mat.identity(2)
    chk = is_polarization(h, bad)
    assert not chk.ok  # S_C negative definite
    assert chk.s_c == Mat.identity(2).scale(Fraction(-1))


def test_is_polarization_wrong_symmetry():
    h = elliptic_curve_structure()
    sym = BilinearForm.from_diagonal([1, 1])
    chk = is_polarization(h, sym)
    assert not chk.ok
    assert any("skew" in p for p in chk.problems)


def test_is_polarization_first_bilinear_relation():
    # weight 2 structure; a symmetric pairing coupling (2,0) with (1,1)
    h, s = standard_structure(2, 4)
    gram = [list(r) for r in s.gram.rows]
    gram[0][2] = Fraction(1)
    gram[2][0] = Fraction(1)
    chk = is_polarization(h, BilinearForm.from_rows(gram))
    assert not chk.ok
    assert any("orthogonal" in p for p in chk.problems)


def test_sc_symmetry_identity_given_first_relation():
    # (SC)^T = SC holds whenever S is (-1)^w-symmetric and piece-orthogonal
    rng = Random(19)
    for weight, dim in [(0, 4), (1, 4), (2, 4), (3, 4)]:
        h, s, s2 = random_polarization_pair(rng, weight, dim)
        c = weil_operator(h)
        for form in (s, s2):
            sc = form.gram * c
            assert sc == sc.T


def test_compare_polarizations_spec_example():
    h, s = standard_structure(0, 2)
    s_prime = BilinearForm.from_rows([[2, 1], [1, 3]])
    pair = compare_polarizations(h, s, s_prime)
    assert pair.phi == s_prime.gram
    assert pair.char_poly == [Fraction(5), Fraction(-5), Fraction(1)]
    assert pair.sturm.positive_roots == 2 and pair.sturm.all_real_positive
    assert pair.sturm.squarefree
    assert pair.eigenspaces is None  # irreducible over Q
    assert pair.certified


def test_compare_polarizations_scaling():
    h, s = standard_structure(1, 4)
    pair = compare_polarizations(h, s, s.scaled(2))
    assert pair.phi == Mat.identity(4).scale(Fraction(2))
    assert pair.eigenspaces is not None
    assert [e.eigenvalue for e in pair.eigenspaces] == [Fraction(2)]
    assert pair.certified


def test_semisimplicity_is_checked_on_the_radical(monkeypatch):
    # phi = 2I has characteristic polynomial (t - 2)^3, which vanishes at phi
    # by Cayley-Hamilton; only the radical t - 2 tests semisimplicity
    h, s = standard_structure(2, 3)
    evaluated = []

    def spy(q, a):
        evaluated.append(list(q))
        return int_poly_at(q, a)

    monkeypatch.setattr(hodge, "int_poly_at", spy)
    pair = compare_polarizations(h, s, s.scaled(2))
    assert pair.char_poly == [Fraction(-8), Fraction(12), Fraction(-6), Fraction(1)]
    assert evaluated == [[-2, 1]]
    assert pair.semisimple and pair.certified
    # a Jordan block is not semisimple: its radical t - 1 does not vanish at it
    _, value = int_poly_at([-1, 1], Mat.from_rows([[1, 1], [0, 1]]))
    assert any(map(any, value))


def test_compare_polarizations_rational_failure_witness():
    h, _ = standard_structure(0, 1)
    s = BilinearForm.from_diagonal([1])
    s3 = BilinearForm.from_diagonal([3])
    pair = compare_polarizations(h, s, s3)
    assert pair.phi == Mat.from_rows([[3]])
    assert pair.signatures_equal and pair.real_witt_classes_equal
    assert witt_class_of(s) != witt_class_of(s3)  # the rational classes differ


def test_compare_polarizations_rejects_non_polarization():
    h, s = standard_structure(0, 2)
    with pytest.raises(ValueError, match="not a polarization"):
        compare_polarizations(h, s, BilinearForm.from_diagonal([1, -1]))


def test_compare_polarizations_split_spectrum_orthogonal_eigenspaces():
    h, s = standard_structure(0, 2)
    s_prime = BilinearForm.from_diagonal([2, 5])
    pair = compare_polarizations(h, s, s_prime)
    assert pair.eigenspaces is not None
    assert [e.eigenvalue for e in pair.eigenspaces] == [Fraction(2), Fraction(5)]
    for e in pair.eigenspaces:
        assert (pair.phi * e.basis) == e.basis.scale(e.eigenvalue)


def assert_split_as_diagonal(pair, values):
    """phi = diag(values) with distinct values: each eigenvalue has the unit
    vector at its place as the basis of its eigenspace."""
    n = len(values)
    assert pair.certified and pair.semisimple and pair.sturm.positive_roots == n
    assert [e.eigenvalue for e in pair.eigenspaces] == sorted(values)
    for e in pair.eigenspaces:
        k = values.index(e.eigenvalue)
        assert e.basis == Mat.from_rows([[int(i == k)] for i in range(n)])


def test_a_radical_beyond_factoring_splits_by_lifting():
    # phi = diag(p, q) for two primes near 10^15: the radical's constant term
    # p * q is beyond Brent's rho, and its roots are lifted, not factored out
    p, q = 1000000000000037, 3000000000000037
    h, s = standard_structure(0, 2)
    assert_split_as_diagonal(compare_polarizations(h, s, BilinearForm.from_diagonal([p, q])), [p, q])


def test_eigenvalues_whose_coefficients_have_many_divisors_are_found_at_once():
    # phi = diag(a, 1/a): the radical a t^2 - (a^2 + 1) t + a has end
    # coefficients with 23,296 divisors each, about 10^9 pairs to scan
    a = 720720**3
    h, s = standard_structure(0, 2)
    start = time.perf_counter()
    pair = compare_polarizations(h, s, BilinearForm.from_diagonal([a, Fraction(1, a)]))
    assert time.perf_counter() - start < 1
    assert_split_as_diagonal(pair, [a, Fraction(1, a)])


def test_random_pairs_certified_across_weights():
    rng = Random(29)
    for weight, dim in [(0, 1), (0, 5), (1, 2), (1, 6), (2, 3), (2, 6), (3, 4)]:
        for _ in range(3):
            h, s, s2 = random_polarization_pair(rng, weight, dim)
            pair = compare_polarizations(h, s, s2)
            assert pair.certified, (weight, dim)
            assert pair.signature_s == pair.signature_s_prime


# the (weight, dimension) shapes of acceptance criterion 4
SHAPES = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
          (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]


def test_comparison_certificates_are_unchanged():
    """Two seeded pairs of each shape: their characteristic polynomials,
    Sturm certificates, semisimplicity, eigenspaces and signatures hash to
    the digest the Fraction polynomial arithmetic gave."""
    rng = Random(9)
    out = []
    for weight, dim in SHAPES:
        for _ in range(2):
            pair = compare_polarizations(*random_polarization_pair(rng, weight, dim))
            eigen = pair.eigenspaces
            if eigen is not None:
                eigen = [(e.eigenvalue, e.basis) for e in eigen]
            out.append((pair.char_poly, pair.sturm, pair.semisimple, eigen,
                        pair.signature_s, pair.signature_s_prime))
    assert sum(o[3] is not None for o in out) == 10  # split over Q
    assert sum(not o[1].squarefree for o in out) == 16  # repeated eigenvalues
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "d8ab5a4fcbf4d41d3f49072e291b4dae6ccb403b1bb67ce282bdbcd2b08e6dec"


def test_pol_class_spec_examples():
    h, _ = standard_structure(0, 1)
    s = BilinearForm.from_diagonal([1])
    assert pol_class(h, s) == witt_class_of(s)  # eps_0 = +1

    h2, s2 = standard_structure(2, 4)
    assert pol_class(h2, s2) == witt_class_of(s2.scaled(-1))  # eps_2 = -1

    h1, s1 = standard_structure(1, 2)
    assert pol_class(h1, s1).is_zero()  # skew sector


def test_pol_class_rejects_non_polarization():
    h, _ = standard_structure(0, 2)
    with pytest.raises(ValueError, match="not a polarization"):
        pol_class(h, BilinearForm.from_diagonal([1, -1]))


def test_pol_class_signature_invariance_under_second_polarization():
    rng = Random(37)
    for weight, dim in [(0, 3), (2, 4), (2, 5)]:
        h, s, s2 = random_polarization_pair(rng, weight, dim)
        assert pol_class(h, s).signature == pol_class(h, s2).signature


def test_structures_hold_rational_matrices_only():
    structures = [standard_structure(w, d)[0] for w, d in [(0, 3), (1, 4), (2, 5), (3, 8)]]
    rng = Random(41)
    structures += [random_polarization_pair(rng, w, d)[0] for w, d in SHAPES]
    structures += [hodge_from_json(hodge_to_json(h)) for h in structures]
    structures.append(hodge_from_json({"weight": 0, "pieces": [
        {"p": 0, "q": 0, "basis": [["1", 0], [["0", "1/2"], "-3"]]}]}))
    for h in structures:
        for piece in h.pieces:
            mats = [v for v in vars(piece).values() if isinstance(v, Mat)]
            assert len(mats) == 2
            assert all(type(x) is Fraction for mat in mats for row in mat.rows for x in row)


def test_piece_parts_must_share_a_shape():
    with pytest.raises(ValueError, match="differ in shape"):
        HodgePiece(1, 0, Mat.zeros(2, 1), Mat.zeros(2, 2))


def test_invalid_structure_rejected():
    # conjugate of (1,0) must span (0,1); give an unrelated basis instead
    h = _structure(1, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, 0]]))
    problems = h.validate()
    assert problems
    with pytest.raises(ValueError, match="invalid Hodge structure"):
        weil_operator(h)


INVALID_STRUCTURES = [
    (_structure(0, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, -1j]])),
     ["piece (1,0) violates p + q = 0", "piece (0,1) violates p + q = 0"]),
    (_structure(0, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, 0]])),
     ["piece (1,0) violates p + q = 0", "piece (0,1) violates p + q = 0",
      "conjugate of piece (1,0) does not span (0,1)",
      "conjugate of piece (0,1) does not span (1,0)"]),
    (_structure(0, 2, (0, 0, [[1, 0, 0], [0, 1, 0]])),
     ["piece (0,0) has vectors of wrong length"]),
    (_structure(0, 2, (0, 0, [[1], [1j]])),
     ["piece (0,0) has vectors of wrong length", "piece bases are not jointly independent"]),
    (_structure(0, 3, (0, 0, [[1, 0, 0], [0, 1, 0]])),
     ["pieces span 2 dimensions, expected 3"]),
    (_structure(1, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, 1j]])),
     ["piece bases are not jointly independent"]),
    # rank_Q [Re B, Im B] = 2 = k, yet (1, i) and (-i, 1) = -i (1, i) are dependent
    (_structure(0, 2, (0, 0, [[1, 1j], [-1j, 1]])),
     ["piece bases are not jointly independent"]),
    (_structure(1, 2, (1, 0, [[1, 1j], [1, -1j]])),
     ["piece (1,0) has no conjugate partner"]),
    (_structure(1, 3, (1, 0, [[1, 1j, 0]]), (0, 1, [[1, -1j, 0], [0, 0, 1]])),
     ["conjugate of piece (1,0) does not span (0,1)",
      "conjugate of piece (0,1) does not span (1,0)"]),
    (_structure(1, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, 0]])),
     ["conjugate of piece (1,0) does not span (0,1)",
      "conjugate of piece (0,1) does not span (1,0)"]),
    # pieces whose vectors differ in length get no bigrading diagnostics
    (_structure(1, 2, (1, 0, [[1, 1j, 0]]), (0, 1, [[1, -1j]])),
     ["piece (1,0) has vectors of wrong length"]),
    (_structure(1, 2, (1, 0, [[1, 1j]]), (0, 1, [[1, -1j, 0]])),
     ["piece (0,1) has vectors of wrong length"]),
]


@pytest.mark.parametrize("h, problems", INVALID_STRUCTURES)
def test_validate_reports_the_same_problems_in_order(h, problems):
    assert h.validate() == problems
    with pytest.raises(ValueError) as err:
        weil_operator(h)
    assert str(err.value) == f"invalid Hodge structure: {problems}"


def split_pieces(h: HodgeStructure, keys) -> HodgeStructure:
    """h with each piece whose (p, q) is in ``keys`` given as two pieces, its
    first column and the rest."""
    pieces = []
    for piece in h.pieces:
        if (piece.p, piece.q) not in keys:
            pieces.append(piece)
            continue
        for cols in ([0], range(1, piece.re.n)):
            re, im = (m.submatrix(range(m.m), cols) for m in (piece.re, piece.im))
            pieces.append(HodgePiece(piece.p, piece.q, re, im))
    return HodgeStructure(h.weight, h.dimension, pieces)


def test_a_piece_given_twice_is_named_first_and_is_no_certificate_error(tmp_path, capsys):
    from wittpoint.cli import main

    # weight 0 as two (0,0) pieces e_0 and e_1: each spans its own conjugate
    cases = [(_structure(0, 2, (0, 0, [[1, 0]]), (0, 0, [[0, 1]])), ["piece (0,0) is given twice"]),
             (_structure(0, 2, (0, 0, [[1, 0]]), (0, 0, [[1, 0]])),
              ["piece (0,0) is given twice", "piece bases are not jointly independent"]),
             (split_pieces(standard_structure(1, 4)[0], {(1, 0), (0, 1)}),
              ["piece (1,0) is given twice", "piece (0,1) is given twice"])]
    # every valid structure with one (p, q), or a conjugate pair, split in two
    for weight, dim in [(0, 2), (0, 3), (1, 4), (1, 6), (2, 4), (2, 5), (3, 8)]:
        h = standard_structure(weight, dim)[0]
        for piece in h.pieces:
            if piece.re.n > 1:
                key, mirror = (piece.p, piece.q), (piece.q, piece.p)
                cases += [(split_pieces(h, keys), None) for keys in {frozenset([key]), frozenset([key, mirror])}]
    assert len(cases) > 10
    for h, problems in cases:
        # a CertificateError (an AssertionError) would escape both calls: a
        # structure without a frame and without a problem
        found = h.validate()
        assert found[0].endswith("is given twice"), found
        assert problems is None or found == problems
        with pytest.raises(ValueError) as err:
            weil_operator(h)
        assert str(err.value) == f"invalid Hodge structure: {found}"
    hpath, spath = tmp_path / "h.json", tmp_path / "s.json"
    hpath.write_text('{"weight": 0, "pieces": [{"p": 0, "q": 0, "basis": [["1", "0"]]}, '
                     '{"p": 0, "q": 0, "basis": [["0", "1"]]}]}')
    spath.write_text('{"symmetry": "symmetric", "field": "Q", "gram": [["1", "0"], ["0", "1"]]}')
    assert main(["hodge-check", str(hpath), str(spath)]) == 1
    assert capsys.readouterr() == ("", "error: invalid Hodge structure: ['piece (0,0) is given twice']\n")


def with_empty_piece(h: HodgeStructure, p: int, q: int, at: int) -> HodgeStructure:
    """h with an empty (p, q) piece listed at position ``at``."""
    empty = HodgePiece(p, q, Mat.zeros(h.dimension, 0), Mat.zeros(h.dimension, 0))
    return HodgeStructure(h.weight, h.dimension, h.pieces[:at] + [empty] + h.pieces[at:])


def test_an_empty_piece_contributes_nothing():
    # weight 0 on Q^2, (0,0) = I_2, with an empty (0,0) piece before or after it
    plain = _structure(0, 2, (0, 0, [[1, 0], [0, 1]]))
    s, s_prime = BilinearForm.from_diagonal([1, 1]), BilinearForm.from_diagonal([2, 3])
    cases = [(plain, with_empty_piece(plain, 0, 0, at), s, s_prime) for at in (0, 1)]
    for _, padded, _, _ in cases:
        assert padded.piece(0, 0) is plain.pieces[0]
    # an empty piece beside a nonempty piece of its (p, q), and one with no
    # (q, p) partner at all
    for weight, dim, key in ((1, 4, (1, 0)), (1, 4, (0, 1)), (2, 4, (1, 1)), (2, 4, (3, -1))):
        h, s = standard_structure(weight, dim)
        s_prime = random_polarization_pair(Random(dim), weight, dim)[2]
        cases += [(h, with_empty_piece(h, *key, at), s, s_prime) for at in (0, len(h.pieces))]
    for plain, padded, s, s_prime in cases:
        assert padded.validate() == [] == plain.validate()
        assert weil_operator(padded) == weil_operator(plain)
        assert is_polarization(padded, s) == is_polarization(plain, s)
        assert compare_polarizations(padded, s, s_prime) == compare_polarizations(plain, s, s_prime)
        assert random_hodge_endomorphism(Random(5), padded) == random_hodge_endomorphism(Random(5), plain)


def test_hodge_check_accepts_an_empty_piece(tmp_path, capsys):
    from wittpoint.cli import main

    hpath, spath = tmp_path / "h.json", tmp_path / "s.json"
    hpath.write_text('{"weight": 0, "pieces": [{"p": 0, "q": 0, "basis": []}, '
                     '{"p": 0, "q": 0, "basis": [["1", "0"], ["0", "1"]]}]}')
    spath.write_text('{"symmetry": "symmetric", "field": "Q", "gram": [["1", "0"], ["0", "1"]]}')
    assert main(["hodge-check", str(hpath), str(spath)]) == 0
    assert capsys.readouterr() == ("polarization\n", "")


def test_hodge_check_reports_a_degenerate_bigrading(tmp_path, capsys):
    from wittpoint.cli import main

    hpath = tmp_path / "h.json"
    hpath.write_text('{"weight": 0, "pieces": [{"p": 0, "q": 0, '
                     '"basis": [["1", ["0", "1"]], [["0", "-1"], "1"]]}]}')
    spath = tmp_path / "s.json"
    spath.write_text('{"symmetry": "symmetric", "field": "Q", "gram": [["1", "0"], ["0", "1"]]}')
    assert main(["hodge-check", str(hpath), str(spath)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid Hodge structure: ['piece bases are not jointly independent']\n"


# non-positive pairings of the weight-0 structure on Q^3 (C = I), with the
# lines hodge-check printed when the failing minor was built as a Fraction off
# its Bareiss value: the minor is now its block's determinant, with one value
NONPOSITIVE_PAIRINGS = [
    ([["1/2", "1/3", "0"], ["1/3", "1/5", "1"], ["0", "1", "-2/7"]], ["leading 2x2 minor is -1/90"]),
    ([["3/4", "1/2", "1/6"], ["1/2", "2/3", "1/5"], ["1/6", "1/5", "-1/9"]], ["leading 3x3 minor is -29/675"]),
    ([["0", "1", "0"], ["1", "2", "0"], ["0", "0", "1"]], ["leading 1x1 minor is 0"]),
    ([["-5/3", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], ["leading 1x1 minor is -5/3"]),
    ([["1/2", "1/2", "0"], ["1/2", "1/2", "0"], ["0", "0", "1"]],
     ["pairing is degenerate", "leading 2x2 minor is 0"]),
]


@pytest.mark.parametrize("gram, found", NONPOSITIVE_PAIRINGS)
def test_hodge_check_prints_the_value_of_the_first_nonpositive_minor(tmp_path, capsys, gram, found):
    from wittpoint.cli import main

    hpath, spath = tmp_path / "h.json", tmp_path / "s.json"
    hpath.write_text('{"weight": 0, "pieces": [{"p": 0, "q": 0, '
                     '"basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}]}')
    spath.write_text(json.dumps({"symmetry": "symmetric", "field": "Q", "gram": gram}))
    *degenerate, minor = found
    problems = degenerate + [f"S(u, Cv) is not positive definite ({minor})"]
    assert main(["hodge-check", str(hpath), str(spath)]) == 2
    assert capsys.readouterr() == ("".join(f"{line}\n" for line in ["not a polarization"]
                                           + [f"  {p}" for p in problems]), "")
    assert main(["--json", "hodge-check", str(hpath), str(spath)]) == 2
    assert json.loads(capsys.readouterr().out) == {"is_polarization": False, "problems": problems}


def test_hodge_check_refuses_a_form_of_the_wrong_size(tmp_path, capsys):
    from wittpoint.cli import main

    hpath = tmp_path / "h.json"
    hpath.write_text('{"weight": 1, "pieces": [{"p": 1, "q": 0, "basis": [["1", ["0", "1"]]]}, '
                     '{"p": 0, "q": 1, "basis": [["1", ["0", "-1"]]]}]}')
    spath = tmp_path / "s.json"
    spath.write_text('{"symmetry": "skew", "field": "Q", '
                     '"gram": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]}')
    # the size is checked before any product with the form
    assert main(["hodge-check", str(hpath), str(spath)]) == 2
    out, err = capsys.readouterr()
    assert out == "not a polarization\n  pairing size does not match the structure\n"
    assert err == ""


# -- the polarization check against the version that took det S first ------


def reference_respects_frame(frame, a):
    """_respects_frame as it was: the summand blocks, then the whole matrix
    against their direct sum."""
    blocks = []
    for w in frame.summands:
        own = range(w.start, w.start + (2 * w.k if w.p > w.q else w.k))
        block = a.submatrix(own, own)
        if w.p > w.q:
            xs, ys = range(w.k), range(w.k, 2 * w.k)
            if (block.submatrix(xs, xs) != block.submatrix(ys, ys)
                    or block.submatrix(xs, ys) != -block.submatrix(ys, xs)):
                return False
        blocks.append(block)
    return a == reduce(Mat.direct_sum, blocks, Mat.zeros(0, 0))


def reference_polarization_problems(h, s):
    """is_polarization's problems as they were: det S on every pairing,
    before the S(u, Cv) check."""
    frame = hodge._frame(h)
    problems = []
    expected_sym = 1 if h.weight % 2 == 0 else -1
    if s.symmetry != expected_sym:
        problems.append(f"pairing must be {'symmetric' if expected_sym == 1 else 'skew'} "
                        f"for weight {h.weight}")
    if not reference_respects_frame(frame, frame.basis.T * s.gram * frame.basis):
        problems += hodge._orthogonality_problems(h, s)
    if h.dimension and not s.gram.det():
        problems.append("pairing is degenerate")
    s_c = s.gram * hodge._weil(frame, h.weight)
    if s_c != s_c.T:
        problems.append("S(u, Cv) is not symmetric")
    elif failed := ref_first_nonpositive_minor(s_c):
        k, minor = failed
        problems.append(f"S(u, Cv) is not positive definite (leading {k}x{k} minor is {minor})")
    return problems


def random_pairing_rows(rng, n, symmetry):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(-2, 2) if i != j or symmetry == SYMMETRIC else 0
            rows[i][j], rows[j][i] = x, symmetry * x
    return rows


def moved(h, f, g):
    """h and f in the basis g: B -> g B and S -> g^-T S g^-1."""
    gi = g.inv()
    return (HodgeStructure(h.weight, h.dimension, [HodgePiece(p.p, p.q, g * p.re, g * p.im) for p in h.pieces]),
            BilinearForm(RATIONAL, f.symmetry, gi.T * f.gram * gi))


def pairing_case(rng, weight, dim):
    """A structure and a pairing of one of five kinds: random symmetric or
    skew, degenerate (the last row and column repeat the first), pulled
    back along a Hodge endomorphism that kills one summand (degenerate, with
    S(u, Cv) symmetric), or a polarization with one entry moved.  Half are
    moved to another basis, so that the frame is not the identity."""
    h, _, s_prime = random_polarization_pair(rng, weight, dim)
    kind = rng.choice(["symmetric", "skew", "degenerate", "pullback", "perturbed"])
    if kind in ("symmetric", "skew", "degenerate"):
        symmetry = {"symmetric": SYMMETRIC, "skew": SKEW}.get(kind) or rng.choice((SYMMETRIC, SKEW))
        rows = random_pairing_rows(rng, dim, symmetry)
        if kind == "degenerate":
            for r in rows:
                r[-1] = r[0]
            rows[-1] = list(rows[0])
            if dim == 1:
                rows = [[0]]
        f = BilinearForm(RATIONAL, symmetry, Mat.from_rows(rows))
    elif kind == "pullback":
        frame = hodge._frame(h)
        w = rng.choice(frame.summands)
        size = 2 * w.k if w.p > w.q else w.k
        kill = Mat.diag([0 if w.start <= i < w.start + size else 1 for i in range(dim)])
        p = frame.basis * kill * frame.inverse * random_hodge_endomorphism(rng, h)
        f = BilinearForm(RATIONAL, s_prime.symmetry, p.T * s_prime.gram * p)
    else:
        rows = [list(r) for r in s_prime.gram.rows]
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j or s_prime.symmetry == SYMMETRIC:
            x = rng.randint(-3, 3)
            rows[i][j] += x
            if i != j:
                rows[j][i] += s_prime.symmetry * x
        f = BilinearForm(RATIONAL, s_prime.symmetry, Mat.from_rows(rows))
    if rng.random() < 0.5:
        g = Mat.from_rows([[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(dim)]
                           for i in range(dim)])
        h, f = moved(h, f, g.submatrix(rng.sample(range(dim), dim), range(dim)))
    return h, f


SHAPE_CASES = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES))


@given(case=SHAPE_CASES)
@settings(max_examples=60, deadline=None)
def test_polarization_problems_match_the_determinant_first_check(case):
    seed, (weight, dim) = case
    h, f = pairing_case(Random(seed), weight, dim)
    assert is_polarization(h, f).problems == reference_polarization_problems(h, f)


@given(case=symmetric_by_first_nonpositive_minor(), scale=st.sampled_from([1, -1, Fraction(1, 3)]))
@settings(max_examples=80, deadline=None)
def test_positivity_verdict_and_message_match_the_fraction_minors(case, scale):
    # rational entries, and a first nonpositive minor that is zero, negative
    # or absent; at weight 0, C = I and S(u, Cv) is S
    a, at = case
    h, _ = standard_structure(0, a.n)
    f = BilinearForm(RATIONAL, SYMMETRIC, a.scale(scale))
    check = is_polarization(h, f)
    assert check.problems == reference_polarization_problems(h, f)
    assert check.ok == (ref_first_nonpositive_minor(f.gram) is None)
    if scale > 0 and at < a.n:  # a positive scale keeps every minor's sign
        assert check.problems[-1].startswith(f"S(u, Cv) is not positive definite (leading {at + 1}x{at + 1} ")


def test_the_problem_corpus_reaches_every_degenerate_combination():
    kinds = set()
    for seed in range(300):
        weight, dim = SHAPES[seed % len(SHAPES)]
        h, f = pairing_case(Random(seed), weight, dim)
        problems = is_polarization(h, f).problems
        assert problems == reference_polarization_problems(h, f), seed
        degenerate = "pairing is degenerate" in problems
        for found in problems:
            if found.startswith("S(u, Cv)"):
                kinds.add((degenerate, found.split(" (")[0]))
        if not problems:
            kinds.add("polarization")
    assert kinds == {"polarization",
                     (True, "S(u, Cv) is not symmetric"), (True, "S(u, Cv) is not positive definite"),
                     (False, "S(u, Cv) is not symmetric"), (False, "S(u, Cv) is not positive definite")}


@given(case=SHAPE_CASES)
@settings(max_examples=40, deadline=None)
def test_frame_test_in_place_matches_the_block_sum(case):
    # on R^T S R for random pairings and on R^-1 phi R for Hodge
    # endomorphisms, some with one entry moved off their blocks
    seed, (weight, dim) = case
    rng = Random(seed)
    h, f = pairing_case(rng, weight, dim)
    frame = hodge._frame(h)
    phi = random_hodge_endomorphism(rng, h)
    if rng.random() < 0.5:
        rows = [list(r) for r in phi.rows]
        rows[rng.randrange(dim)][rng.randrange(dim)] += 1
        phi = Mat.from_rows(rows)
    for a in (frame.basis.T * f.gram * frame.basis, frame.inverse * phi * frame.basis):
        assert hodge._respects_frame(frame, a) == reference_respects_frame(frame, a)


# -- the Hodge index theorem, the second route to each signature ------------


@given(case=SHAPE_CASES)
@settings(max_examples=40, deadline=None)
def test_signatures_satisfy_the_hodge_index_theorem(case):
    seed, (weight, dim) = case
    h, s, s2 = random_polarization_pair(Random(seed), weight, dim)
    expected = sum((-1) ** piece.p * piece.re.n for piece in h.pieces)
    sign = (-1) ** (weight * (weight + 1) // 2)
    pair = compare_polarizations(h, s, s2)
    assert [sign * (pos - neg) for pos, neg in (pair.signature_s, pair.signature_s_prime)] == [expected] * 2
    assert pol_class(h, s).signature == pol_class(h, s2).signature == expected


def test_a_wrong_signature_fails_the_hodge_index_certificate(monkeypatch):
    h, s, s2 = random_polarization_pair(Random(3), 2, 4)
    signature = hodge._signature

    def flipped(f):  # one negative direction of S' is read as positive
        pos, neg = signature(f)
        return (pos, neg) if f is s else (pos + 1, neg - 1)

    monkeypatch.setattr(hodge, "_signature", flipped)
    with pytest.raises(CertificateError, match=r"^Hodge index certificate failed: the normalized "
                                               r"signature of S' is -2, not sum \(-1\)\^p h\^\(p,q\) = 0$"):
        compare_polarizations(h, s, s2)


@st.composite
def symmetric_with_a_singular_leading_block(draw):
    """A symmetric rational matrix and k: in about half the draws its leading
    k x k block is L diag(d_1, ..., d_(k-1), 0) L^T, L unit lower triangular,
    so its leading k-minor is zero; else k = 0 and any minor may be zero."""
    n = draw(st.integers(0, 5))
    upper = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    k = draw(st.integers(1, n)) if n and draw(st.booleans()) else 0
    if k:
        lower = Mat(k, k, [[Fraction(1) if i == j else draw(rationals) if j < i else Fraction(0)
                            for j in range(k)] for i in range(k)])
        block = lower * Mat.diag([draw(rationals) for _ in range(k - 1)] + [0]) * lower.T
        for i in range(k):
            rows[i][:k] = block.rows[i]
    return Mat(n, n, rows), k


@settings(max_examples=200, deadline=None)
@given(case=symmetric_with_a_singular_leading_block())
def test_the_signature_reader_matches_the_certified_diagonalization(case):
    # Jacobi's rule on the leading minors where every one is nonzero, the
    # form's pivots where one is zero; a fresh form is diagonalized each time
    a, k = case
    expected = diagonalize(BilinearForm(RATIONAL, SYMMETRIC, a)).signature()
    assert hodge._signature(BilinearForm(RATIONAL, SYMMETRIC, a)) == expected
    minors = [a.submatrix(range(j), range(j)).det() for j in range(1, a.n + 1)]
    read = list(a.leading_minors())
    assert (0 in read) == (0 in minors) and (not k or 0 in read)
    if 0 not in read:  # the sign changes in 1, D_1, ..., D_n count the negatives
        neg = sum((x < 0) != (y < 0) for x, y in zip([1] + read, read))
        assert (a.n - neg, neg) == expected


def test_a_pairing_with_a_zero_leading_minor_is_compared_through_the_fallback(monkeypatch):
    # weight 2, h^(2,0) = h^(1,1) = h^(0,2) = 1, S = diag(-1, -1, 1) in the
    # frame, moved to the basis e_1 + e_3, e_2, e_3: there S(e_1 + e_3, e_1 + e_3)
    # = 0 is the leading 1-minor, so S's signature comes off its pivots: the
    # leading-minor pass stops at the zero, and one pivoted LDL^T pass
    # follows, with no diagonalization (one ran, after an LDL^T pass that
    # stopped at the same zero)
    h, s, s_prime = random_polarization_pair(Random(41), 2, 3)
    p = Mat.from_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]])  # columns: the new basis
    p_inv = p.inv()
    moved = HodgeStructure(2, 3, [HodgePiece(q.p, q.q, p_inv * q.re, p_inv * q.im) for q in h.pieces])
    s_moved, s_prime_moved = (f.congruent_by(p) for f in (s, s_prime))
    assert list(s_moved.gram.leading_minors()) == [0]
    runs, passes = [], []
    diagonalized = forms._diagonalized
    monkeypatch.setattr(forms, "_diagonalized", lambda f: runs.append(f) or diagonalized(f))
    for name in ("leading_minors", "ldl_pivots"):
        def spy(a, read=getattr(Mat, name), name=name):
            if a is s_moved.gram:
                passes.append(name)
            return read(a)
        monkeypatch.setattr(Mat, name, spy)
    pair = compare_polarizations(moved, s_moved, s_prime_moved)
    assert runs == [] and passes == ["leading_minors", "ldl_pivots"]
    before = compare_polarizations(h, s, s_prime)
    assert pair.certified and before.certified
    assert pair.signature_s == before.signature_s == (1, 2)
    assert pair.signature_s_prime == before.signature_s_prime == (1, 2)
    assert pair.phi == p_inv * before.phi * p


def test_comparison_certificate_fires_when_s_does_not_solve(monkeypatch):
    h, s, s2 = random_polarization_pair(Random(3), 0, 3)
    solve = Mat.solve
    monkeypatch.setattr(Mat, "solve", lambda a, b: None if b == s2.gram else solve(a, b))
    with pytest.raises(CertificateError, match="^comparison certificate failed: phi\\^T S is not S'$"):
        compare_polarizations(h, s, s2)


# -- an identity frame against the path that multiplies by every R ---------


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_invertible_matches_the_realified_determinant(data):
    # V = 0, the case of every criterion-4 frame, is read off det U; any
    # other V off the realification, as before; U is singular in some draws
    k = data.draw(st.integers(1, 4))
    u = data.draw(matrices(k, k))
    v = data.draw(st.one_of(st.just(Mat.zeros(k, k)), matrices(k, k)))
    assert hodge._invertible(u, v) == reference_invertible(u.hstack(v))
    assert hodge._halves(u.hstack(v)) == (u, v)


JORDAN = Mat.from_rows([[1, 1], [0, 1]])


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_semisimplicity_matches_horner_on_the_radical(data):
    # 2I and the Jordan block have a repeated root, and only the second is
    # not semisimple; a squarefree characteristic polynomial is certified by
    # charpoly's last step, and Horner on it would give 0
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.one_of(st.sampled_from([Mat.identity(3).scale(2), JORDAN, Mat.diag([1, 2, 3])]),
                            matrices(n, n, size=4)))
    cert = sturm_positive_real_roots(a.charpoly())
    assert hodge._semisimple(a, cert) == ref_poly_eval_matrix(cert.squarefree_part, a).is_zero()
    if a == JORDAN:
        assert not cert.squarefree and not hodge._semisimple(a, cert)


def reference_invertible(uv):
    """_invertible as it was: U + iV, for uv = [U | V], by the determinant of
    its realification, also when V = 0."""
    return bool(uv.realification().det())


def reference_certified_frame(h):
    """_certified_frame as it was: R^-1 by inversion for every R, also for
    R = I, and each partner's coordinates as R^-1 times its columns.  Its
    inverse is never the basis object, so every conjugation multiplies."""
    n = h.dimension
    keys = [(piece.p, piece.q) for piece in h.pieces if piece.re.n]
    if len(set(keys)) < len(keys):
        return None
    spans, summands, partners = [], [], []
    for piece in h.pieces:
        partner = h.piece(piece.q, piece.p)
        if partner is None or partner.re.n != piece.re.n:
            return None
        if piece.p < piece.q:
            continue
        k, start, span = piece.re.n, sum(s.n for s in spans), piece.re.hstack(piece.im)
        if piece.p > piece.q:
            summands.append(hodge._Summand(piece.p, piece.q, start, k))
            partners.append((start, k, partner.re.hstack(partner.im)))
        else:
            reduced, pivots = span.rref()
            coords = reduced.submatrix(range(k), range(2 * k))
            if len(pivots) != k or not reference_invertible(coords):
                return None
            span = span.submatrix(range(n), pivots)
            summands.append(hodge._Summand(piece.p, piece.q, start, k, coords, tuple(pivots)))
        spans.append(span)
    basis = reduce(Mat.hstack, spans, Mat.zeros(n, 0))
    if basis.n != n:
        return None
    try:
        inverse = basis.inv()
    except ValueError:
        return None
    for start, k, parts in partners:
        uv = inverse * parts
        xs, ys = (uv.submatrix(range(at, at + k), range(2 * k)) for at in (start, start + k))
        rest = [i for i in range(n) if not start <= i < start + 2 * k]
        if (not uv.submatrix(rest, range(2 * k)).is_zero()
                or ys != xs.submatrix(range(k), range(k, 2 * k)).hstack(-xs.submatrix(range(k), range(k)))
                or not reference_invertible(xs)):
            return None
    return hodge._Frame(basis, inverse, summands)


README_WEIGHT_1 = {"weight": 1, "pieces": [
    {"p": 1, "q": 0, "basis": [[["1", "0"], ["0", "1"]]]},
    {"p": 0, "q": 1, "basis": [[["1", "0"], ["0", "-1"]]]}]}


def frame_cases():
    """A seeded pair of each shape as it stands (R = I, or a permutation at
    weight 1 in dimensions 4 and 6), the same pair in a fixed random basis
    g, and the README's weight-1 example, whose R is I."""
    for i, (weight, dim) in enumerate(SHAPES):
        rng = Random(i)
        h, s, s2 = random_polarization_pair(rng, weight, dim)
        yield h, s, s2, hodge._frame(h).basis == Mat.identity(dim)
        while True:
            g = Mat.from_rows([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
            if g.det():
                break
        (moved_h, moved_s), (_, moved_s2) = moved(h, s, g), moved(h, s2, g)
        yield moved_h, moved_s, moved_s2, False
    h = hodge_from_json(README_WEIGHT_1)
    s = BilinearForm(RATIONAL, SKEW, Mat.from_rows([[0, -1], [1, 0]]))
    psi = random_hodge_endomorphism(Random(1), h)
    yield h, s, BilinearForm(RATIONAL, SKEW, s.gram + psi.T * s.gram * psi), True


def frame_outputs(h, s, s2, rng):
    """Everything the frame reaches: the comparison, the problem lists of a
    polarization and of pairings that fail, and a Hodge endomorphism."""
    perturbed = [list(r) for r in s2.gram.rows]  # S' with entries (0, n-1) and (n-1, 0) moved
    perturbed[0][-1] += 1
    perturbed[-1][0] += s2.symmetry if h.dimension > 1 else 0
    bad = [s.scaled(-1), s.scaled(0), BilinearForm(RATIONAL, s2.symmetry, Mat.from_rows(perturbed))]
    pair = compare_polarizations(h, s, s2)
    return (pair, repr(pair), [is_polarization(h, f).problems for f in (s, s2, *bad)],
            random_hodge_endomorphism(rng, h), weil_operator(h))


def test_an_identity_frame_gives_what_multiplying_by_it_gives(monkeypatch):
    cases = list(frame_cases())
    assert sum(identity for *_, identity in cases) == 13  # 12 shapes and the README example
    own = [frame_outputs(h, s, s2, Random(3)) for h, s, s2, _ in cases]
    for h, _, _, identity in cases:
        frame, reference = hodge._frame(h), reference_certified_frame(h)
        assert (frame.basis, frame.inverse, frame.summands) == (reference.basis, reference.inverse,
                                                                reference.summands)
        assert (frame.inverse is frame.basis) == identity
    monkeypatch.setattr(hodge, "_certified_frame", reference_certified_frame)
    multiplied = [frame_outputs(h, s, s2, Random(3)) for h, s, s2, _ in cases]
    assert [o[1:] for o in own] == [o[1:] for o in multiplied]
    assert all(a[0] == b[0] for a, b in zip(own, multiplied))
