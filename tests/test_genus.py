"""chi_y genus, epsilon sign calculus, cancellation and dictionary identities."""

from random import Random

import pytest

from wittpoint.genus import (
    HodgeDiamond,
    PrimitivePiece,
    chi_y,
    epsilon,
    example_drivers,
    format_poly,
    lefschetz_cancellation_check,
    sign_dictionary_check,
    specialize,
    surface_fixtures,
)


def random_diamond(rng: Random, n: int) -> HodgeDiamond:
    h = [[0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        for q in range(p, n + 1):
            if p + q > n:
                continue
            v = rng.randint(0, 6)
            for a, b in {(p, q), (q, p), (n - p, n - q), (n - q, n - p)}:
                h[a][b] = v
    h[0][0] = max(h[0][0], 1)
    h[n][n] = h[0][0]
    return HodgeDiamond(n, tuple(map(tuple, h)))


POINT = HodgeDiamond(0, ((1,),))
PROJECTIVE_PLANE = HodgeDiamond(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
K3 = HodgeDiamond(2, ((1, 0, 1), (0, 20, 0), (1, 0, 1)))


def test_chi_y_golden_values():
    assert chi_y(POINT) == [1]
    assert chi_y(PROJECTIVE_PLANE) == [1, -1, 1]
    assert chi_y(K3) == [2, -20, 2]


def test_specializations_golden_values():
    for d, expected in ((PROJECTIVE_PLANE, (3, 1, 1)), (K3, (24, 2, -16)), (POINT, (1, 1, 1))):
        s = specialize(chi_y(d), d.dim)
        assert (s.euler, s.arithmetic_genus, s.signature) == expected
    assert specialize([1, -1], 1).signature_is_middle is False


def test_chi_y_rejects_invalid_diamond():
    bad = HodgeDiamond(1, ((1, 2), (3, 1)))
    with pytest.raises(ValueError, match="invalid Hodge diamond"):
        chi_y(bad)


def test_euler_identity_and_serre_symmetry():
    rng = Random(3)
    for _ in range(40):
        n = rng.randint(0, 4)
        d = random_diamond(rng, n)
        chi = chi_y(d)
        euler = sum((-1) ** (p + q) * d.h[p][q] for p in range(n + 1) for q in range(n + 1))
        assert specialize(chi, n).euler == euler
        for p in range(n + 1):
            assert chi[n - p] == (-1) ** n * chi[p]


def test_format_poly():
    assert format_poly([1, -1, 1]) == "1 - y + y^2"
    assert format_poly([0, 0, 2]) == "2*y^2"
    assert format_poly([]) == "0"


def test_epsilon_golden_and_identities():
    assert [epsilon(m) for m in (0, 1, 2, 3, 4)] == [1, -1, -1, 1, 1]
    # epsilon_m = (-1)^i when m = 2i or m = 2i - 1, that is i = ceil(m / 2)
    assert all(epsilon(m) == (-1) ** ((m + 1) // 2 % 2) for m in range(-1000, 1001))
    for m in range(-100, 100):
        assert epsilon(m) == epsilon(m - 1) * (-1) ** (m % 2)
    rng = Random(5)
    for _ in range(50):
        w, k = rng.randint(-30, 30), rng.randint(0, 15)
        assert epsilon(w - 2 * k) == epsilon(w) * (-1) ** (k % 2)


def test_lefschetz_single_pieces():
    r = lefschetz_cancellation_check([PrimitivePiece(0, 7, 4)], 7)
    assert r.lhs_coeffs == r.rhs_coeffs == {0: epsilon(7)}
    assert r.equal
    r = lefschetz_cancellation_check([PrimitivePiece(1, 6, 4)], 6)
    assert r.lhs_coeffs == {1: 0} and r.rhs_coeffs == {1: 0}
    assert r.equal and r.odd_pieces_vanish


def test_lefschetz_random_configurations():
    rng = Random(11)
    for _ in range(100):
        w = rng.randint(-8, 12)
        js = rng.sample(range(6), rng.randint(1, 6))
        pieces = [PrimitivePiece(j, w, rng.randint(-4, 4)) for j in js]
        r = lefschetz_cancellation_check(pieces, w)
        assert r.equal
        assert r.odd_pieces_vanish
        assert r.lhs_signature == r.rhs_signature


def test_lefschetz_all_odd_pieces_vanish():
    pieces = [PrimitivePiece(j, 3, 7) for j in (1, 3, 5)]
    r = lefschetz_cancellation_check(pieces, 3)
    assert all(v == 0 for v in r.lhs_coeffs.values())
    assert r.lhs_signature == r.rhs_signature == 0


def test_lefschetz_duplicate_j_errors():
    with pytest.raises(ValueError, match="duplicate"):
        lefschetz_cancellation_check([PrimitivePiece(1, 0, 1), PrimitivePiece(1, 0, 2)], 0)


def test_lefschetz_weight_mismatch_errors():
    with pytest.raises(ValueError, match="weight"):
        lefschetz_cancellation_check([PrimitivePiece(0, 3, 1)], 4)


def test_primitive_piece_negative_offset():
    with pytest.raises(ValueError, match="nonnegative"):
        PrimitivePiece(-1, 0, 0)


def test_sign_dictionary():
    assert sign_dictionary_check(3, 1)
    assert sign_dictionary_check(5, 5)
    assert all(sign_dictionary_check(d, dp) for d in range(51) for dp in range(d + 1))


def test_surface_fixture_formulas():
    fixtures = surface_fixtures()
    for m, data in fixtures.items():
        assert data["h20"] == (m - 1) * (m - 2) * (m - 3) // 6
        b2 = m**3 - 4 * m**2 + 6 * m - 2
        assert data["h11"] == b2 - 2 * data["h20"]


def test_example_drivers():
    report = example_drivers()
    dp = report.double_point
    assert dp["nonvanishing"]
    assert dp["psi1_at_2_nonzero"]
    assert dp["psi0_at_3_value_mod_4"] == 2
    assert dp["psi0_at_3_order"] == 2
    quadric = next(r for r in report.cone_surfaces if r.m == 2)
    assert (quadric.h11, quadric.h20) == (2, 0)
    assert quadric.primitive_signature == -1
    assert quadric.residual_signature == 1 and quadric.nonzero
    assert all(r.nonzero for r in report.cone_surfaces)
    assert report.all_true
