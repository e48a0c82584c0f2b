"""Each certificate is computed once per object it certifies.

A counter is patched over every binding of a function in the package, so
calls made through names imported into other modules are counted too.
"""

import functools
import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from wittpoint import cobordism, core, forms, hodge, linalg, poly, witt
from wittpoint.cli import main
from wittpoint.core import CertificateError, FactorBoundExceeded
from wittpoint.cobordism import (
    SelfDualComplex,
    acyclic_extension,
    cobordism_class,
    random_nondegenerate_form,
    random_witness_chain,
    truncation_witness,
)
from wittpoint.forms import (
    HYPERBOLIC_PLANE,
    RATIONAL,
    SKEW,
    BilinearForm,
    BlockMetabolicForm,
    diagonalize,
    invariants,
    metabolic_reduce,
    symplectic_reduce,
)
from wittpoint.hodge import (
    HodgePiece,
    HodgeStructure,
    compare_polarizations,
    is_polarization,
    random_hodge_endomorphism,
    random_polarization_pair,
    standard_structure,
    weil_operator,
)
from wittpoint.jsonio import complex_to_json
from wittpoint.linalg import Mat
from wittpoint.witt import equivalent, fp_class_of, witt_class_of


def count(monkeypatch, owner, attr) -> list[int]:
    """Patch a counter over owner.attr: a method on its class, or a
    module-level function or class wherever the package binds it."""
    original = getattr(owner, attr)
    calls = [0]

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, counted)
        return calls
    for name, module in list(sys.modules.items()):
        if name == "wittpoint" or name.startswith("wittpoint."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_compare_polarizations_validates_once_and_builds_one_weil_operator(monkeypatch):
    # validation builds the rational frame, and the Weil operator is read off it
    h, s, s_prime = random_polarization_pair(Random(41), 2, 4)
    validations = count(monkeypatch, hodge, "_frame_and_problems")
    weils = count(monkeypatch, hodge, "_weil")
    assert compare_polarizations(h, s, s_prime).certified
    assert (validations[0], weils[0]) == (1, 1)


def test_compare_polarizations_inverts_the_frame_and_s_only(monkeypatch):
    # R^-1 by one solve, unless R = I, which is its own inverse; and phi =
    # S^-1 S' by one solve against S' with no S^-1 and no S X = I check of its
    # own; no solve per piece.  Of these shapes only (1, 6) has R != I.
    for weight, dim, frame_inversions in [(0, 6, 0), (1, 6, 1), (2, 6, 0), (3, 4, 0)]:
        h, s, s_prime = random_polarization_pair(Random(41), weight, dim)
        inversions = count(monkeypatch, Mat, "inv")
        solves = count(monkeypatch, Mat, "solve")
        assert compare_polarizations(h, s, s_prime).certified
        assert (inversions[0], solves[0]) == (frame_inversions, 1 + frame_inversions), (weight, dim)
        monkeypatch.undo()


def test_compare_polarizations_takes_one_spectral_certificate(monkeypatch):
    h, s, s_prime = random_polarization_pair(Random(41), 2, 4)
    charpolys = count(monkeypatch, Mat, "charpoly")
    sturms = count(monkeypatch, core, "sturm_positive_real_roots")
    chains = count(monkeypatch, poly, "int_sturm_chain")
    assert compare_polarizations(h, s, s_prime).certified
    assert (charpolys[0], sturms[0]) == (1, 1)
    # the Sturm certificate takes it with one remainder sequence, which ends
    # in gcd(p, p'), and carries the radical
    assert chains[0] == 1


def test_is_polarization_validates_once(monkeypatch):
    h, s = standard_structure(3, 4)
    validations = count(monkeypatch, hodge, "_frame_and_problems")
    assert is_polarization(h, s).ok
    assert validations[0] == 1


def test_equivalent_diagonalizes_each_form_once(monkeypatch):
    diagonalizations = count(monkeypatch, witt, "diagonalize")
    assert equivalent(HYPERBOLIC_PLANE, BilinearForm.from_diagonal([3, -3]))
    assert diagonalizations[0] == 2
    assert not equivalent(BilinearForm.from_diagonal([1, 2, 5]), BilinearForm.from_diagonal([-7]))
    assert diagonalizations[0] == 4


def test_equivalent_factors_only_the_entries(monkeypatch):
    factored = []
    factor = core.factor

    def recorded(n):
        factored.append(abs(n))
        return factor(n)

    monkeypatch.setattr(core, "factor", recorded)
    f = BilinearForm.from_diagonal([3 * 1009, -5 * 1013, Fraction(7, 2)])
    g = BilinearForm.from_diagonal([Fraction(5 * 1013 * 4, 9), -7 * 8, 3 * 1009 * 25, 11, -11])
    assert not equivalent(f, g)
    entries = [e for form in (f, g) for e in diagonalize(form).entries]
    singles = {abs(e.numerator * e.denominator) for e in entries}
    products = {a * b for a in singles for b in singles} - singles
    assert factored and set(factored) <= singles | {1}
    assert not set(factored) & products


def test_hasse_symbols_test_no_place_for_primality(monkeypatch):
    # equivalent and invariants read their places off certified factorizations
    tested = count(monkeypatch, core, "is_prime")
    f = BilinearForm.from_diagonal([3 * 1009, -5 * 1013, Fraction(7, 2)])
    g = BilinearForm.from_diagonal([Fraction(5 * 1013 * 4, 9), -7 * 8, 3 * 1009 * 25, 11, -11])
    assert not equivalent(f, g)
    assert equivalent(f, f.direct_sum(HYPERBOLIC_PLANE))
    assert set(invariants(f).hasse) == {2, 3, 5, 7, 1009, 1013, "real"}
    assert tested[0] == 0


def test_invariants_takes_one_legendre_symbol_per_odd_place(monkeypatch):
    # each place in closed form: every odd place of invariants holds an entry
    # of odd valuation and takes one Legendre symbol, 2 and the real place
    # none, and no Hilbert symbol is evaluated
    symbols = count(monkeypatch, core, "legendre")
    hilbert = count(monkeypatch, core, "hilbert_symbol")
    for entries, finite in (
        ([3 * 1009, -5 * 1013, Fraction(7, 2)], {2, 3, 5, 7, 1009, 1013}),
        ([2, Fraction(-3, 8), 5 * 49, 1, -1, 1013, Fraction(1, 12)], {2, 3, 5, 1013}),
        ([-6], {2, 3}),
    ):
        symbols[0] = 0
        hasse = invariants(BilinearForm.from_diagonal(entries)).hasse
        assert set(hasse) == finite | {"real"}
        assert symbols[0] == len(finite) - 1
    assert hilbert[0] == 0


def test_no_legendre_symbol_at_a_place_outside_every_class(monkeypatch):
    # the Hasse route reads both forms at the union of their places
    symbols = count(monkeypatch, core, "legendre")
    classes = [core.square_class(a) for a in (3, -7, 10)]
    hasse = forms._hasse_symbols(classes, [2, 3, 5, 11, 13, "real"])
    assert (hasse[11], hasse[13], symbols[0]) == (1, 1, 2)


def test_diagonalize_takes_no_matrix_product(monkeypatch):
    # the certificate runs on the integer columns and Gram of the pivot loop
    products = count(monkeypatch, Mat, "__mul__")
    for f in (BilinearForm.from_rows([[0, 1, 2], [1, 0, 0], [2, 0, Fraction(1, 3)]]),
              BilinearForm.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 0]])):
        diagonalize(f)
    assert products[0] == 0


def test_diagonalize_certifies_separately_only_what_it_eliminates(monkeypatch):
    # a diagonal Gram with no zero on its diagonal is its own
    # certificate for P = I; a zero on it sends the form through the pivot
    # loop, its certificate and a trailing radical
    certificates = count(monkeypatch, forms, "_certify_congruence")
    for f in (BilinearForm.from_diagonal([2, Fraction(-3, 4), 5]), BilinearForm.from_diagonal([])):
        d = diagonalize(f)
        assert (d.radical_dim, d.congruence) == (0, Mat.identity(f.gram.n))
    assert certificates[0] == 0
    # the last column of P spans the radical
    for f, entries, radical in ((BilinearForm.from_diagonal([2, 0, 3]), (2, 3), [0, 1, 0]),
                                (BilinearForm.from_diagonal([0]), (), [1])):
        certificates[0] = 0
        d = diagonalize(f)
        assert (d.entries, d.radical_dim, certificates[0]) == (entries, 1, 1)
        assert [row[-1] for row in d.congruence.rows] == radical


def test_equivalent_classes_each_entry_once_and_reads_it_at_its_own_primes(monkeypatch):
    # shared primes, the prime 2, even exponents, non-integral entries, and
    # ranks 3 and 5, so that the Hasse route pads f with a hyperbolic plane
    f = BilinearForm.from_diagonal([3 * 1009, -5 * 1013, Fraction(7, 2)])
    g = BilinearForm.from_diagonal([Fraction(5 * 1013 * 4, 9), -7 * 8, 3 * 1009 * 25, 11, -11])
    entries = [e for form in (f, g) for e in diagonalize(form).entries]
    own_primes = sum(len(core.square_class(e).prime_support()) for e in entries)
    classes = count(monkeypatch, core, "square_class")

    def count_in_witt(name):
        # witt's binding only: the residues come off the squarefree kernels,
        # dividing no entry, and the Hasse route, in forms, splits none
        original, calls = getattr(witt, name), [0]

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(witt, name, counted)
        return calls

    splits, prime_tests = count_in_witt("_int_split"), count_in_witt("is_prime")
    assert not equivalent(f, g)
    assert (classes[0], splits[0], prime_tests[0]) == (len(entries), 0, 0)
    assert (len(entries), own_primes) == (8, 14)


def test_a_form_is_diagonalized_and_classed_once_across_calls(monkeypatch):
    # invariants and witt_class_of, after equivalent, read the diagonalization
    # and square classes that f keeps; an equal form is another object
    f = BilinearForm.from_rows([[2, 1, 0], [1, 3, 5], [0, 5, Fraction(7, 2)]])
    g = f.direct_sum(HYPERBOLIC_PLANE)
    certificates = count(monkeypatch, forms, "_certify_congruence")
    classes = count(monkeypatch, core, "square_class")
    assert equivalent(f, g)
    ranks = len(diagonalize(f).entries) + len(diagonalize(g).entries)
    assert (certificates[0], classes[0]) == (2, ranks) == (2, 8)
    inv, cls = invariants(f), witt_class_of(f)
    assert (certificates[0], classes[0]) == (2, ranks)
    twin = BilinearForm(f.field, f.symmetry, f.gram)
    assert twin == f and (invariants(twin), witt_class_of(twin)) == (inv, cls)
    assert (certificates[0], classes[0]) == (3, ranks + 3)


def test_a_diagonalization_or_square_class_that_raises_keeps_nothing(monkeypatch):
    f = BilinearForm.from_rows([[0, 1], [1, 0]])
    failures = [0]

    def fail(*args):
        failures[0] += 1
        raise CertificateError("forced failure")

    monkeypatch.setattr(forms, "_certify_congruence", fail)
    for calls in (1, 2):
        with pytest.raises(CertificateError, match="forced failure"):
            diagonalize(f)
        assert failures[0] == calls and "_diagonalization" not in vars(f)
    monkeypatch.undo()
    diag = diagonalize(f)
    assert diag.entries == (2, -2) and diagonalize(f) is diag

    def refuse(e):
        failures[0] += 1
        raise FactorBoundExceeded("forced refusal")

    monkeypatch.setattr(forms, "square_class", refuse)
    for calls in (3, 4):
        with pytest.raises(FactorBoundExceeded, match="forced refusal"):
            witt_class_of(f)
        assert failures[0] == calls and "_classes" not in vars(diag)
    monkeypatch.undo()
    assert witt_class_of(f).is_zero() and "_classes" in vars(diag)


def test_truncation_witness_validates_once_with_one_cohomology(monkeypatch):
    ext = acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2)
    validations = count(monkeypatch, cobordism, "validate")
    cohomologies = count(monkeypatch, cobordism, "Cohomology")
    truncation_witness(ext)
    assert (validations[0], cohomologies[0]) == (1, 1)


def test_truncation_witness_reads_its_kernel_and_boundaries_off_the_cohomology(monkeypatch):
    # ker d^0 and im d^-1 come from the eliminations validation made; taking
    # them again, by d(0).nullspace() and d(-1).column_space_basis(), made 12;
    # quotient_data's rank test on im d^-1 apart from its complement scan, and
    # a complement scan at degree -1, where there are no boundaries, made 10;
    # scans where the boundaries are cocycles spanning ker d(i), made 8; the
    # scan of [B | K] at degree 0, where H^0 comes off kernel coordinates, made 7
    ext = acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2)
    eliminations = count(monkeypatch, Mat, "rref")
    truncation_witness(ext)
    assert eliminations[0] == 6


def test_subquotient_shape_check_takes_one_rank_per_map(monkeypatch):
    # injective iff rank = n and surjective iff rank = m: a nullspace and a
    # rank per map took up to 8 eliminations, 8 on this witness
    w = cobordism.congruence_witness(BilinearForm.from_diagonal([2, 3]), Mat.from_rows([[1, 1], [0, 1]]))
    eliminations = count(monkeypatch, Mat, "rref")
    assert cobordism._subquotient_shape_failures(w) == []
    assert eliminations[0] == 4


def test_quotient_data_eliminates_the_subspace_once(monkeypatch):
    # [sub | I] gives independence and the section at once; rank() first took two
    sub = Mat.from_rows([[1, 0], [2, 0], [0, 1], [1, 1]])
    eliminated = Counter()
    rref = Mat.rref

    def spy(a):
        eliminated[a.m, a.n] += 1
        return rref(a)

    monkeypatch.setattr(Mat, "rref", spy)
    cobordism.quotient_data(4, sub)
    assert eliminated[4, 2] == 0 and eliminated[4, 6] == 1  # sub alone never; [sub | I] once


def test_cohomology_eliminates_each_differential_once(monkeypatch):
    # d(i) gives the kernel at degree i and the image at degree i + 1
    cx = cobordism.ChainComplex({-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}, {
        -2: Mat.from_rows([[1], [0]]), -1: Mat.zeros(2, 2),
        0: Mat.from_rows([[0, 1], [0, 0]]), 1: Mat.from_rows([[0, 1]])})
    eliminated = Counter()
    rref = Mat.rref

    def spy(a):
        eliminated[id(a)] += 1
        return rref(a)

    monkeypatch.setattr(Mat, "rref", spy)
    coh = cobordism.Cohomology(cx)
    degrees = cx.degrees()
    assert [coh.dim(i) for i in degrees] == [0, 1, 1, 0, 0]
    assert [eliminated[id(d)] for d in cx.differentials.values()] == [1, 1, 1, 1]
    # and nothing else: at -2 and at 0 (d(-1) is zero) there are no
    # boundaries; at 1 and 2 the boundaries im d(0) and im d(1) are cocycles
    # as many as dim ker d(i), so H^1 = H^2 = 0; at -1 the boundaries are
    # cocycles, and H^-1 comes off their kernel coordinates (the scan of
    # [B | K] there made 4 + 1)
    assert sum(eliminated.values()) == 4
    coh.reps(0), coh.coords(0, coh.reps(0))
    assert sum(eliminated.values()) == 4 + 1  # the one solve


def test_a_product_of_products_builds_no_intermediate_fraction(monkeypatch):
    built = []
    fraction = linalg._fraction
    monkeypatch.setattr(linalg, "_fraction", lambda x, d: built.append(x) or fraction(x, d))
    a = Mat.from_rows([[1, "1/2", 0], [0, 3, "-2/3"]])
    b = Mat.from_rows([["1/3", 1], [2, 0], [0, "5/7"]])
    c = Mat.from_rows([[1, 0, 4], ["-1/2", 2, 0]])
    abc = a * b * c
    assert built == []
    assert abc.rows == [[Fraction(5, 6), 2, Fraction(16, 3)], [Fraction(131, 21), Fraction(-20, 21), 24]]
    assert len(built) == abc.m * abc.n  # the entries of the result only


def spy_rows(monkeypatch) -> list:
    """Patch a spy over ``Mat.rows``: the list of matrices whose rows are read."""
    reads, rows = [], Mat.rows.fget
    monkeypatch.setattr(Mat, "rows", property(lambda a: reads.append(a) or rows(a)))
    return reads


def homotopy_image(src, dst, h) -> dict:
    """d h + h d for h of degree -1 from ``src`` to ``dst``, by degree."""
    out = {}
    for i in sorted(set(src.spaces) | set(dst.spaces)):
        dh = dst.d(i - 1) * cobordism._block(h, i, dst.dim(i - 1), src.dim(i), "homotopy")
        out[i] = dh + cobordism._block(h, i + 1, dst.dim(i), src.dim(i + 1), "homotopy") * src.d(i)
    return out


def test_solve_homotopy_reads_no_matrix_rows(monkeypatch):
    # its system is built from integer columns: reading d_out[r, s], d_in[s, c]
    # and t[r, c] made Fraction rows of every differential and target
    rng = Random(7)
    cases = []
    for _ in range(6):
        src = acyclic_extension(random_nondegenerate_form(rng, 2), rng, 2).complex
        dst = acyclic_extension(random_nondegenerate_form(rng, 1), rng, 1).complex
        h = {i: Mat(dst.dim(i - 1), src.dim(i),
                    [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(src.dim(i))]
                     for _ in range(dst.dim(i - 1))])
             for i in src.degrees() if dst.dim(i - 1)}
        cases.append((src, dst, homotopy_image(src, dst, h)))
    reads = spy_rows(monkeypatch)
    solved = [cobordism.solve_homotopy(*case) for case in cases]
    assert reads == []
    for (src, dst, target), h in zip(cases, solved):
        assert any(not m.is_zero() for m in h.values())
        image = homotopy_image(src, dst, h)
        assert all(image[i] == cobordism.map_block(target, i, src, dst) for i in image)


def test_hodge_certificates_read_no_matrix_rows(monkeypatch):
    # the frame's partner test, the realifications and the block tests take
    # submatrices of integer forms instead of slicing Fraction rows
    pairs = [random_polarization_pair(Random(41), weight, dim)
             for weight, dim in [(0, 3), (1, 4), (2, 4), (2, 6), (3, 4)]]
    reads = spy_rows(monkeypatch)
    for h, s, s_prime in pairs:
        assert is_polarization(h, s_prime).ok
        assert compare_polarizations(h, s, s_prime).certified
    assert reads == []


def test_cobordism_class_builds_one_cohomology(monkeypatch):
    ext = acyclic_extension(BilinearForm.from_diagonal([5]), Random(3), 1)
    cohomologies = count(monkeypatch, cobordism, "Cohomology")
    assert cobordism_class(ext).signature == 1
    assert cohomologies[0] == 1


def valid_complexes():
    """An acyclic extension of each symmetry and the complexes of the
    truncation witness of one: G, G', F, F' and the two mapping cones."""
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=SKEW)
    exts = [acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2),
            acyclic_extension(skew, Random(5), 2)]
    w = truncation_witness(exts[0])
    fc, fpc = w.f.complex, w.f_prime.complex
    return [e.complex for e in exts] + [w.g, w.g_prime, fc, fpc, cobordism.mapping_cone(w.rho_prime, w.g, fpc),
                                        cobordism.mapping_cone(w.rho, fc, w.g_prime)]


def test_cohomology_of_a_valid_complex_takes_one_elimination_per_differential(monkeypatch):
    # its boundaries are cocycles, so each H^i comes off their kernel
    # coordinates: [B | K] is never eliminated, and no complement scan runs
    complexes = valid_complexes()
    eliminated = Counter()
    rref = Mat.rref

    def spy(a):
        eliminated[id(a)] += 1
        return rref(a)

    monkeypatch.setattr(Mat, "rref", spy)
    scans = count(monkeypatch, linalg, "extend_to_complement")
    dims = []
    for cx in complexes:
        eliminated.clear()
        coh = cobordism.Cohomology(cx)
        dims.append({i: coh.reps(i).n for i in cx.degrees() if coh.dim(i)})
        assert [eliminated[id(d)] for d in cx.differentials.values()] == [1] * len(cx.differentials)
        assert sum(eliminated.values()) == len(cx.differentials)
    assert scans[0] == 0
    assert dims[:2] == [{0: 2}, {0: 2}] and sum(len(cx.differentials) for cx in complexes) > 6


def test_validate_of_a_valid_complex_takes_no_transpose(monkeypatch):
    # the involution and chain-map identities read sign A^T == B off A's
    # integer columns, and the induced pairings on unit-vector
    # representatives are submatrices of S_i
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=SKEW)
    objects = [acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2),
               acyclic_extension(skew, Random(5), 2),
               SelfDualComplex.make(1, {-1: 2, 0: 1, 1: 2}, {}, {0: Mat.from_rows([[3]]),
                                                                 1: Mat.from_rows([[1, 2], [0, 4]])}),
               SelfDualComplex.from_form(BilinearForm.from_diagonal([5, -7]))]
    transposes, get = [], Mat.T.fget
    monkeypatch.setattr(Mat, "T", property(lambda a: transposes.append(a) or get(a)))
    products = count(monkeypatch, Mat, "__mul__")
    reports = [cobordism.validate(c) for c in objects]
    assert all(r.ok for r in reports) and transposes == []
    assert [sorted(r.cohomology_dims) for r in reports] == [[0], [0], [-1, 0, 1], [0]]
    # each extension takes d(0) d(-1) and two products for its one mirror
    # pair {0, -1}; d(0) B at degree 0 is a column subset of d(0) d(-1), found
    # zero, so it is not formed.  A complex with no differential takes none.
    # d(i+1) d(i) at every degree, both degrees of each pair with transposes,
    # and reps^T S reps took 9 + 9 + 7 + 3
    assert products[0] == 2 * (1 + 2)


def test_cobordism_class_diagonalizes_its_h0_form_once_and_takes_no_determinant(monkeypatch):
    # perfectness at degree 0 is read off the H^0 form's certified
    # diagonalization, which witt_class_of reads again from the form
    ext = acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2)
    expected = witt_class_of(BilinearForm.from_diagonal([-2, 3]))
    diagonalizations = count(monkeypatch, forms, "_diagonalized")
    determinants = count(monkeypatch, Mat, "det")
    assert cobordism_class(ext) == expected
    assert (diagonalizations[0], determinants[0]) == (1, 0)  # det of the H^0 pairing made (1, 1)
    # a skew H^0 form is not diagonalized: its perfectness keeps its determinant
    skew = acyclic_extension(BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=SKEW), Random(5), 1)
    assert cobordism_class(skew).is_zero()
    assert (diagonalizations[0], determinants[0]) == (1, 1)


def test_verify_witness_keeps_its_determinants(monkeypatch):
    # validate called alone, as verify_witness calls it, tests perfectness by det
    ext = acyclic_extension(BilinearForm.from_diagonal([-2, 3]), Random(2), 2)
    witnesses = [truncation_witness(ext),
                 cobordism.congruence_witness(BilinearForm.from_diagonal([2, 3]), Mat.from_rows([[1, 1], [0, 1]]))]
    determinants = count(monkeypatch, Mat, "det")
    diagonalizations = count(monkeypatch, forms, "_diagonalized")
    assert all(cobordism.verify_witness(w).ok for w in witnesses)
    assert (determinants[0], diagonalizations[0]) == (6, 0)  # as when validate had no other path


def test_cli_skew_complex_class_validates_and_reduces_once(tmp_path, monkeypatch, capsys):
    skew = BilinearForm.from_rows([[0, 1], [-1, 0]], symmetry=-1)
    path = tmp_path / "sk.json"
    path.write_text(json.dumps(complex_to_json(acyclic_extension(skew, Random(5), 1))))
    validations = count(monkeypatch, cobordism, "validate")
    reductions = count(monkeypatch, forms, "symplectic_reduce")
    cohomologies = count(monkeypatch, cobordism, "Cohomology")
    assert main(["--json", "complex-class", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["symplectic_certificate"] == {"hyperbolic_count": 1}
    assert (validations[0], reductions[0], cohomologies[0]) == (1, 1, 1)


def test_chain_generator_assembles_each_metabolic_block_once(monkeypatch):
    assemblies = count(monkeypatch, BlockMetabolicForm, "assemble")
    rng = Random(4)
    chains = [random_witness_chain(rng, 2, 1) for _ in range(40)]
    links = sum(link.step == "metabolic" for chain in chains for link in chain.links)
    assert (links, assemblies[0]) == (21, 21)
    # the same chains, witnesses and RNG draws as when every block was assembled twice
    digest = hashlib.sha256(repr(chains).encode()).hexdigest()
    assert digest == "2809d19accece7394e646218a052f5d65fb37f1947c7a53d581429a22f861174"


def test_seeded_builders_and_metabolic_reduce_convert_no_fraction_rows(monkeypatch):
    # the generators build integer forms with the same draws, and the
    # reduction reads its moves off the blocks' integer forms: no Fraction
    # row is built only to be converted
    conversions = count(monkeypatch, linalg, "_integer_row")
    rng = Random(1)
    chains = [random_witness_chain(rng, rng.randint(1, 5), rng.randint(1, 3)) for _ in range(30)]
    pairs = [random_polarization_pair(Random(41), weight, dim)
             for weight, dim in [(0, 3), (1, 4), (2, 4), (2, 6), (3, 8)]]
    reductions = [metabolic_reduce(link.block) for chain in chains for link in chain.links
                  if link.step == "metabolic"]
    assert len(pairs) == 5 and len(reductions) == 24
    assert conversions[0] == 0


def test_metabolic_reduce_takes_no_determinant(monkeypatch):
    block = BlockMetabolicForm(BilinearForm.from_diagonal([5, -2]), Mat.from_rows([[1]]),
                               Mat.from_rows([[2], [3]]))
    determinants = count(monkeypatch, Mat, "det")
    assert metabolic_reduce(block).hyperbolic_count == 1
    # the assembled Gram's determinant is +-det S, which BlockMetabolicForm
    # checked when it was built; the clearing target is not re-checked either
    assert determinants[0] == 0


def test_symplectic_reduce_takes_no_determinant_and_linearly_many_products(monkeypatch):
    # per step, <u, rest> and <v, rest> (two products each) and the two
    # outer products of the update; then the certificate P^T G P
    forms_by_rank = [random_nondegenerate_form(Random(k), 2 * k, symmetry=SKEW) for k in range(7)]
    determinants = count(monkeypatch, Mat, "det")
    products = count(monkeypatch, Mat, "__mul__")
    for k, f in enumerate(forms_by_rank):
        products[0] = 0
        assert symplectic_reduce(f).hyperbolic_count == k
        assert products[0] == 6 * k + 2, k
    assert determinants[0] == 0  # a degenerate form finds no partner for some u


def test_symplectic_reduce_builds_no_fraction_rows(monkeypatch):
    # each step reads <u, w> and the scale 1 / <u, v> off the integer form
    # of one product; a radical vector is set aside the same way
    cases = [random_nondegenerate_form(Random(k), 2 * k, symmetry=SKEW) for k in range(1, 5)]
    cases += [BilinearForm(RATIONAL, SKEW, f.gram.direct_sum(Mat.zeros(k, k))) for k, f in enumerate(cases)]
    reads = spy_rows(monkeypatch)
    for f in cases:
        symplectic_reduce(f)
    assert reads == []


def test_witt_class_of_a_skew_form_takes_one_elimination(monkeypatch):
    f = random_nondegenerate_form(Random(2), 6, symmetry=SKEW)
    f = BilinearForm(RATIONAL, SKEW, f.gram.direct_sum(Mat.zeros(2, 2)))  # with a radical
    determinants = count(monkeypatch, Mat, "det")
    nullspaces = count(monkeypatch, Mat, "nullspace")
    splits = count(monkeypatch, forms, "radical_split")
    reductions = count(monkeypatch, forms, "symplectic_reduce")
    assert witt_class_of(f).is_zero()
    # the symplectic reduction sets the radical aside: no split comes first
    assert (determinants[0], nullspaces[0], splits[0], reductions[0]) == (0, 0, 0, 1)


def test_compare_polarizations_forms_each_product_once(monkeypatch):
    # a seeded (2, 4) pair moved to another basis by g, so that S(u, Cv) is
    # not the identity and no two products of the comparison coincide by value
    h, s, s_prime = random_polarization_pair(Random(41), 2, 4)
    g = Mat.from_rows([[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, -1], [1, 0, 0, 1]])
    h = HodgeStructure(2, 4, [HodgePiece(p.p, p.q, g * p.re, g * p.im) for p in h.pieces])
    s, s_prime = (BilinearForm(RATIONAL, f.symmetry, g.inv().T * f.gram * g.inv())
                  for f in (s, s_prime))
    phi, s_c = compare_polarizations(h, s, s_prime).phi, s.gram * weil_operator(h)
    products = Counter()
    multiply = Mat.__mul__

    def spy(a, b):
        products[(a, b)] += 1
        return multiply(a, b)

    monkeypatch.setattr(Mat, "__mul__", spy)
    determinants = count(monkeypatch, Mat, "det")
    assert compare_polarizations(h, s, s_prime).identity_chain_ok
    # phi^T S C = S' C follows from the certificate phi^T S = S', so only S C phi is formed
    assert (products[(phi.T, s_c)], products[(s_c, phi)]) == (0, 1)
    # the signatures come off the Bareiss values of the leading minors, with
    # no Mat product, and phi is one solve: no S S^-1 = I check and no
    # product S^-1 S'
    assert max(products.values()) == 1 and sum(products.values()) == 15
    # the frame's (1, 1) block and the coordinates of the (0, 2) partner; the
    # positivity minors come from one elimination, not one det per minor, and
    # their being positive makes each pairing nondegenerate with no det
    assert determinants[0] == 2


def test_random_hodge_endomorphism_inverts_the_full_basis_once(monkeypatch):
    h, _ = standard_structure(2, 3)
    attempts = count(monkeypatch, Mat, "det")  # one per drawn candidate
    inversions = count(monkeypatch, Mat, "inv")
    assert random_hodge_endomorphism(Random(5), h).det()
    # the frame tests its two 1 x 1 coordinate blocks, two candidates are
    # drawn, then the check above
    assert attempts[0] == 5
    assert inversions[0] == 0  # R = I is its own inverse
    h, _ = standard_structure(1, 4)  # R is a permutation, not I
    attempts[0] = 0
    assert random_hodge_endomorphism(Random(5), h).det()
    # the frame tests its partner's 2 x 2 coordinate block, two candidates
    # are drawn (the first singular), then the check above
    assert attempts[0] == 4
    assert inversions[0] == 1  # the rational frame, once for every candidate


def test_fp_class_arithmetic_tests_no_prime_again(monkeypatch):
    tests = count(monkeypatch, core, "is_prime")
    a, b = fp_class_of([1, 2], 7), fp_class_of([3], 5)
    assert tests[0] == 2  # fp_class_of tests its p, once each
    assert (a.payload, b.payload) == (2, (1, False))
    assert ((a + a).payload, (-a).payload, (b + b).payload, (-b).payload) == (0, 2, (0, True), (1, False))
    assert (a + a).is_zero() and (b + b).is_zero() and not a.is_zero() and not (-b).is_zero()
    assert tests[0] == 2
    assert a + a == witt.WittClassFp.zero(7) and b + b == witt.WittClassFp.zero(5)
    assert tests[0] == 4  # zero(p) is handed a new p, so it tests it



def test_rank_parity_classes_test_no_prime(monkeypatch):
    # rank_parity is the p = 2 case and refuses any other p, so 2 is not tested
    tests = count(monkeypatch, core, "is_prime")
    assert witt.WittClassFp.rank_parity(2, 3) == witt.WittClassFp(2, 1)
    assert tests[0] == 1  # the comparison's WittClassFp(2, 1)
    assert witt.WittClassFp.rank_parity(2, 4).is_zero()
    assert tests[0] == 1


def test_an_identity_frame_is_never_multiplied_by(monkeypatch):
    # every shape whose standard frame is R = I: no product has R or R^-1 as
    # an operand, by object or, past weight 0 (where S and C are I), by value;
    # the one product with an operand equal to I there is S C phi, as the
    # reference pairing makes S(u, Cv) the identity
    frames = []
    certified_frame = hodge._certified_frame
    monkeypatch.setattr(hodge, "_certified_frame", lambda h: frames.append(certified_frame(h)) or frames[-1])
    products = []
    multiply = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append((a, b)) or multiply(a, b))
    inversions = count(monkeypatch, Mat, "inv")
    for weight, dim in [(0, 1), (0, 3), (0, 6), (1, 2), (2, 3), (2, 4), (2, 6), (3, 4)]:
        h, s, s_prime = random_polarization_pair(Random(41), weight, dim)
        frames.clear(), products.clear()
        phi = compare_polarizations(h, s, s_prime).phi
        assert is_polarization(h, s_prime).ok
        assert random_hodge_endomorphism(Random(7), h).det()
        assert len(frames) == 3 and all(f.basis == Mat.identity(dim) and f.inverse is f.basis for f in frames)
        assert not any(a is f.basis or b is f.basis for a, b in products for f in frames), (weight, dim)
        if weight:
            identity = Mat.identity(dim)
            assert {(a, b) for a, b in products if identity in (a, b)} <= {(identity, phi)}, (weight, dim)
    assert inversions[0] == 0


def test_a_squarefree_comparison_evaluates_no_polynomial_at_phi(monkeypatch):
    # a squarefree characteristic polynomial is its own radical, and p(phi) = 0
    # is certified on charpoly's last step: Horner does not run
    h, s = standard_structure(0, 2)
    evaluations = count(monkeypatch, poly, "int_poly_at")
    pair = compare_polarizations(h, s, BilinearForm.from_rows([[2, 1], [1, 3]]))
    assert pair.sturm.squarefree and pair.semisimple and pair.certified
    assert evaluations[0] == 0


@pytest.mark.parametrize("weight, dim", [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 4),
                                         (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)])
def test_a_criterion_4_frame_takes_no_realification(monkeypatch, weight, dim):
    # every (p, p) block and partner coordinate block has V = 0, so its
    # determinant is det U, one k x k det per block test
    h, _, _ = random_polarization_pair(Random(41), weight, dim)
    realifications = count(monkeypatch, Mat, "realification")
    determinants = count(monkeypatch, Mat, "det")
    assert hodge._certified_frame(h) is not None
    blocks = sum(1 for piece in h.pieces if piece.re.n and piece.p >= piece.q)
    assert (realifications[0], determinants[0]) == (0, blocks)


def test_witt_class_make_tests_each_residue_once(monkeypatch):
    # make filters and sorts the residues itself, so the canonical-form check
    # of the public constructor does not run again on them
    residues = {7: fp_class_of([1, 2], 7), 3: fp_class_of([1], 3), 5: witt.WittClassFp.zero(5)}
    tests = count(monkeypatch, witt.WittClassFp, "is_zero")
    made = witt.WittClassQ.make(1, residues)
    assert tests[0] == 3
    assert made == witt.WittClassQ(1, ((3, residues[3]), (7, residues[7])))
    assert tests[0] == 5  # the public constructor checks its two residues
    assert (-made).residues == ((3, -residues[3]), (7, -residues[7])) and (made - made).is_zero()
