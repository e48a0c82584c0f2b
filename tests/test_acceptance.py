"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance here is exact (integer/rational equality); the runtime caps
are the stated budgets.  Run with `pytest tests/test_acceptance.py -s` to
see the per-criterion lines.
"""

import time
from fractions import Fraction
from random import Random

from wittpoint.cli import main
from wittpoint.cobordism import (
    SelfDualComplex,
    cobordism_class,
    random_witness_chain,
    verify_witness,
)
from wittpoint.forms import BilinearForm, metabolic_reduce
from wittpoint.genus import (
    HodgeDiamond,
    PrimitivePiece,
    chi_y,
    epsilon,
    lefschetz_cancellation_check,
    sign_dictionary_check,
    specialize,
)
from wittpoint.hodge import compare_polarizations, random_polarization_pair, standard_structure
from wittpoint.selfcheck import run_all
from wittpoint.witt import psi, witt_class_of
from test_witt import fp_group_table


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number} ({label}) [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_double_point_certificates():
    t0 = time.time()
    form = BilinearForm.from_diagonal([-2, 1])
    cls = witt_class_of(form)
    ok = not cls.is_zero()
    # route one: the residue at 2 is the nonzero class of W(F_2)
    at2 = psi([Fraction(-2), Fraction(1)], 2, 1)
    ok = ok and not at2.is_zero() and at2.payload == 1
    ok = ok and cls.residue_at(2) == at2
    # route two: reduction mod 3 gives twice the generator, of order 2 in Z/4
    at3 = psi([Fraction(-2), Fraction(1)], 3, 0)
    ok = ok and at3.payload == 2 and at3.order() == 2 and not at3.is_zero()
    _report(1, "double-point class nonvanishing, two certificates", ok, time.time() - t0, 1.0)


def test_criterion_2_residue_field_group_tables():
    t0 = time.time()
    ok = True
    for p in range(2, 100):
        try:
            table = fp_group_table(p)
        except ValueError:
            continue
        if p == 2:
            expected = (2, 2, 2)
        elif p % 4 == 3:
            expected = (4, 4, 4)
        else:
            expected = (4, 2, 2)
        got = (table["cardinality"], table["exponent"], table["order_of_one"])
        ok = ok and got == expected
    _report(2, "W(F_p) structure tables for p < 100", ok, time.time() - t0, 1.0)


def test_criterion_3_witness_chains_and_metabolic_recovery():
    t0 = time.time()
    rng = Random(20260810)
    ok = True
    for instance in range(500):
        chain = random_witness_chain(rng, rng.randint(1, 5), rng.randint(1, 3))
        expected = witt_class_of(chain.core)
        for link in chain.links:
            obj_class = (cobordism_class(link.obj) if isinstance(link.obj, SelfDualComplex)
                         else witt_class_of(link.obj))
            if obj_class != expected:
                ok = False
            if link.block is not None:
                red = metabolic_reduce(link.block)
                if witt_class_of(red.core) != expected:
                    ok = False
                if red.hyperbolic_count != link.block.isotropic_rank:
                    ok = False
        if instance % 10 == 0:
            for link in chain.links:
                if not verify_witness(link.witness).ok:
                    ok = False
    _report(3, "class constant along 500 witness chains + metabolic recovery",
            ok, time.time() - t0, 30.0)


def test_criterion_4_polarization_comparison():
    t0 = time.time()
    rng = Random(41)
    shapes = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
              (1, 2), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)]
    ok = True
    count = 0
    while count < 200:
        weight, dim = shapes[count % len(shapes)]
        h, s, s2 = random_polarization_pair(rng, weight, dim)
        pair = compare_polarizations(h, s, s2)
        if not (pair.sturm.all_real_positive and pair.semisimple
                and pair.identity_chain_ok and pair.preserves_bigrading
                and pair.signature_s == pair.signature_s_prime):
            ok = False
        count += 1
    # the rational-coefficient failure witness: equal signatures, distinct W(Q) classes
    h, _ = standard_structure(0, 1)
    s1 = BilinearForm.from_diagonal([1])
    s3 = BilinearForm.from_diagonal([3])
    pair = compare_polarizations(h, s1, s3)
    ok = ok and pair.certified and pair.signatures_equal
    ok = ok and witt_class_of(s1) != witt_class_of(s3)
    _report(4, "200 polarization comparisons certified + Q-failure witness",
            ok, time.time() - t0, 30.0)


def test_criterion_5_sign_calculus():
    t0 = time.time()
    # epsilon_m = (-1)^i when m = 2i or m = 2i - 1, that is i = ceil(m / 2)
    ok = all(epsilon(m) == (-1) ** ((m + 1) // 2 % 2) for m in range(-1000, 1001))
    rng = Random(55)
    for trial in range(1000):
        w = rng.randint(-10, 14)
        if trial % 5 == 0:
            js = [2 * t + 1 for t in range(rng.randint(1, 4))]  # all odd offsets
        else:
            js = rng.sample(range(8), rng.randint(1, 8))
        pieces = [PrimitivePiece(j, w, rng.randint(-6, 6)) for j in js]
        rep = lefschetz_cancellation_check(pieces, w)
        if not (rep.equal and rep.odd_pieces_vanish):
            ok = False
        if all(j % 2 for j in js) and (rep.lhs_signature, rep.rhs_signature) != (0, 0):
            ok = False
    ok = ok and all(sign_dictionary_check(d, dp) for d in range(51) for dp in range(d + 1))
    _report(5, "epsilon identity, 1000 cancellation checks, dictionary identity",
            ok, time.time() - t0, 5.0)


def test_criterion_6_chi_y_golden_values():
    t0 = time.time()
    ok = True
    for dim, rows, chi, values in (
        (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, -1, 1], (3, 1, 1)),  # P^2
        (2, [[1, 0, 1], [0, 20, 0], [1, 0, 1]], [2, -20, 2], (24, 2, -16)),  # K3
        (0, [[1]], [1], (1, 1, 1)),  # a point
    ):
        got = chi_y(HodgeDiamond(dim, tuple(map(tuple, rows))))
        s = specialize(got, dim)
        ok = ok and got == chi and (s.euler, s.arithmetic_genus, s.signature) == values
    _report(6, "chi_y golden values and specializations", ok, time.time() - t0, 1.0)


def test_criterion_7_invariance_suites_via_cli_hook(capsys):
    t0 = time.time()
    results = run_all(seed=7, trials=60)
    ok = all(r.passed for r in results)
    expected_names = {
        "congruence_invariance",
        "hilbert_product_formula",
        "hyperbolic_stabilization",
        "skew_sector_vanishing",
        "two_oracle_agreement",
    }
    ok = ok and {r.name for r in results} == expected_names
    # and the same suites are reachable through the CLI hook
    ok = ok and main(["selfcheck", "--seed", "7", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    ok = ok and out.count("PASS") == 5
    with capsys.disabled():
        _report(7, "invariance suites (CLI selfcheck hook)", ok, time.time() - t0, 60.0)
