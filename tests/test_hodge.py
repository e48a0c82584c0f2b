"""Hodge structures at a point: Weil operator, polarizations, comparison."""

import hashlib
from fractions import Fraction
from random import Random

import pytest

from wittpoint import hodge
from wittpoint.forms import BilinearForm
from wittpoint.hodge import (
    HodgePiece,
    HodgeStructure,
    compare_polarizations,
    is_polarization,
    pol_class,
    random_polarization_pair,
    standard_structure,
    weil_operator,
)
from wittpoint.jsonio import hodge_from_json, hodge_to_json
from wittpoint.linalg import Mat
from wittpoint.poly import int_poly_at
from wittpoint.witt import witt_class_of


def _structure(weight, dimension, *pieces):
    """A structure from (p, q, columns) triples.  The entries are Gaussian
    integers written as Python numbers (1, 1j, -1j, ...), exact at this size;
    the columns may have any length, and a piece with no columns has
    ``dimension`` rows."""
    built = []
    for p, q, cols in pieces:
        re, im = ([[Fraction(getattr(complex(z), part)) for z in col] for col in cols]
                  for part in ("real", "imag"))
        m = None if cols else dimension
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
