"""chi_y genus arithmetic on Hodge diamonds and the sign calculus.

The epsilon sign (-1)^(m(m+1)/2) alternates on parity pairs; that single
fact makes the inner Tate-twist sum of the pushforward decomposition
collapse to the even-offset primitive pieces.  The checker here evaluates
both sides of that collapse in the free abelian group on the pieces and in
signatures (the real Witt datum), where the identity is literally
assertable.
"""

from __future__ import annotations

from importlib import resources

from .core import CertificateError, Frozen, Record, epsilon
from .forms import BilinearForm
from .jsonio import loads
from .witt import psi, witt_class_of


class HodgeDiamond(Frozen):
    """Table of Hodge numbers h[p][q] for a smooth compact n-fold."""

    def __init__(self, dim: int, h: tuple):
        self.__dict__.update(dim=dim, h=h)

    def validate(self) -> list[str]:
        n = self.dim
        problems = []
        if len(self.h) != n + 1 or any(len(r) != n + 1 for r in self.h):
            return [f"table must be {n + 1} x {n + 1}"]
        for p in range(n + 1):
            for q in range(n + 1):
                if self.h[p][q] < 0:
                    problems.append(f"h[{p}][{q}] is negative")
                if self.h[p][q] != self.h[q][p]:
                    problems.append(f"h[{p}][{q}] != h[{q}][{p}] (conjugation symmetry)")
                if self.h[p][q] != self.h[n - p][n - q]:
                    problems.append(f"h[{p}][{q}] != h[{n - p}][{n - q}] (Serre symmetry)")
        if self.h[0][0] < 1:
            problems.append("h[0][0] must be at least 1")
        return problems


def chi_y(d: HodgeDiamond) -> list[int]:
    """Coefficients (ascending in y) of sum_(p,q) (-1)^q h^(p,q) y^p."""
    problems = d.validate()
    if problems:
        raise ValueError(f"invalid Hodge diamond: {problems}")
    return [sum((-1) ** q * d.h[p][q] for q in range(d.dim + 1)) for p in range(d.dim + 1)]


class ChiSpecializations(Frozen):
    def __init__(self, euler: int, arithmetic_genus: int, signature: int, signature_is_middle: bool | None):
        # signature_is_middle is True only when the dimension is even
        self.__dict__.update(euler=euler, arithmetic_genus=arithmetic_genus, signature=signature,
                             signature_is_middle=signature_is_middle)


def specialize(chi: list[int], dim: int | None = None) -> ChiSpecializations:
    """Evaluate at y = -1, 0, 1: Euler characteristic, arithmetic genus, and
    (in even dimension) the signature of the middle cohomology."""
    euler = sum(c * (-1) ** k for k, c in enumerate(chi))
    genus = chi[0] if chi else 0
    sig = sum(chi)
    return ChiSpecializations(
        euler=euler,
        arithmetic_genus=genus,
        signature=sig,
        signature_is_middle=(dim % 2 == 0) if dim is not None else None,
    )


def format_poly(chi: list[int], var: str = "y") -> str:
    terms = []
    for k, c in enumerate(chi):
        if c == 0:
            continue
        mono = "1" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == 0:
            terms.append(str(c))
        elif abs(c) == 1:
            terms.append(mono if c > 0 else f"-{mono}")
        else:
            terms.append(f"{c}*{mono}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
    return out


class PrimitivePiece(Frozen):
    """Primitive summand bookkeeping: cohomological offset j >= 0, the base
    weight, and the signature of its polarized pairing (the real Witt datum)."""

    def __init__(self, j: int, weight: int, signature: int):
        if j < 0:
            raise ValueError("primitive offset j must be nonnegative")
        self.__dict__.update(j=j, weight=weight, signature=signature)


class LefschetzReport(Record):
    def __init__(self, weight: int, lhs_coeffs: dict[int, int], rhs_coeffs: dict[int, int],
                 pushforward_coeffs: dict[int, int], lhs_signature: int, rhs_signature: int,
                 equal: bool, odd_pieces_vanish: bool):
        self.weight = weight
        self.lhs_coeffs = lhs_coeffs  # per piece j, in the polarized basis
        self.rhs_coeffs = rhs_coeffs
        self.pushforward_coeffs = pushforward_coeffs  # even pieces in the pushforward pairing basis
        self.lhs_signature = lhs_signature
        self.rhs_signature = rhs_signature
        self.equal = equal
        self.odd_pieces_vanish = odd_pieces_vanish


def lefschetz_cancellation_check(pieces: list[PrimitivePiece], w: int) -> LefschetzReport:
    """Evaluate the Tate-twist double sum against its even-offset collapse.

    lhs_j = sum_(k=0..j) (-1)^j eps_(w - j + 2k); the alternating property
    of eps on parity pairs makes this vanish for odd j and collapse to
    eps_w (-1)^(j/2) for even j, which is the rhs.  The pushforward-pairing
    coefficients differ from the rhs by the sign (-1)^(j(j-1)/2) per piece.
    """
    seen = set()
    for piece in pieces:
        if piece.j in seen:
            raise ValueError(f"duplicate primitive offset j = {piece.j}")
        seen.add(piece.j)
        if piece.weight != w:
            raise ValueError(f"piece at j = {piece.j} has weight {piece.weight}, expected {w}")
    lhs = {}
    rhs = {}
    push = {}
    for piece in pieces:
        j = piece.j
        lhs[j] = sum((-1) ** j * epsilon(w - j + 2 * k) for k in range(j + 1))
        rhs[j] = epsilon(w) * (-1) ** (j // 2) if j % 2 == 0 else 0
        if j % 2 == 0:
            # the pushforward-pairing sum has bare coefficient 1 per even j;
            # converting by [P, f_*S] = (-1)^(j(j-1)/2) [P, S_p] recovers rhs
            push[j] = 1
            conversion = (-1) ** ((j * (j - 1) // 2) % 2)
            if epsilon(w) * push[j] * conversion != rhs[j]:
                raise CertificateError(f"pushforward sign certificate failed at j = {j}: "
                                       "the converted coefficient is not the collapsed one")
    lhs_sig = sum(lhs[p.j] * p.signature for p in pieces)
    rhs_sig = sum(rhs[p.j] * p.signature for p in pieces)
    return LefschetzReport(
        weight=w,
        lhs_coeffs=lhs,
        rhs_coeffs=rhs,
        pushforward_coeffs=push,
        lhs_signature=lhs_sig,
        rhs_signature=rhs_sig,
        equal=(lhs == rhs and lhs_sig == rhs_sig),
        odd_pieces_vanish=all(lhs[p.j] == 0 for p in pieces if p.j % 2),
    )


def sign_dictionary_check(d: int, d_prime: int) -> bool:
    """Two exact integer identities tying the two sign conventions together."""
    e = d - d_prime
    first = e * (e + 1) // 2 + e * d_prime == d * (d - 1) // 2 - d_prime * (d_prime - 1) // 2 + e
    second = d * (d - 1) // 2 + d == d * (d + 1) // 2
    return first and second


# -- worked examples ------------------------------------------------------


def surface_fixtures() -> dict[int, dict[str, int]]:
    """Hodge numbers of smooth degree-m surfaces in P^3 (shipped data)."""
    text = resources.files("wittpoint.data").joinpath("degree_surface_hodge.json").read_text()
    raw = loads(text)
    return {int(m): v for m, v in raw["surfaces"].items()}


class ConeSurfaceReport(Record):
    def __init__(self, m: int, h20: int, h11: int, signature_h2: int, primitive_signature: int,
                 residual_signature: int, nonzero: bool):
        self.m = m
        self.h20 = h20
        self.h11 = h11
        self.signature_h2 = signature_h2
        self.primitive_signature = primitive_signature
        self.residual_signature = residual_signature
        self.nonzero = nonzero


class DriverReport(Record):
    def __init__(self, double_point: dict, cone_surfaces: list[ConeSurfaceReport]):
        self.double_point = double_point
        self.cone_surfaces = cone_surfaces

    @property
    def all_true(self) -> bool:
        return bool(self.double_point["nonvanishing"]) and all(
            r.nonzero for r in self.cone_surfaces
        )


def example_drivers() -> DriverReport:
    """The two worked class computations.

    Double point: the classes of <1> (canonical point pairing) and <-2>
    (exceptional-curve self-intersection pairing) do not cancel in W(Q),
    certified through the residue at 2 and through reduction mod 3.

    Cone surfaces: for the three-term expression [IC] + [point] - [H^2] of
    a threefold with one cone singularity over a degree-m surface, the
    hyperplane part of H^2 cancels the point class over R but the
    primitive signature survives as a nonzero residual.
    """
    one = BilinearForm.from_diagonal([1])
    minus_two = BilinearForm.from_diagonal([-2])
    total = witt_class_of(one) + witt_class_of(minus_two)
    cert_2 = psi([-2, 1], 2, 1)
    cert_3 = psi([-2, 1], 3, 0)
    double_point = {
        "class_of_sum": total,
        "psi1_at_2": cert_2,
        "psi1_at_2_nonzero": not cert_2.is_zero(),
        "psi0_at_3": cert_3,
        "psi0_at_3_value_mod_4": cert_3.payload,
        "psi0_at_3_order": cert_3.order(),
        "psi0_at_3_nonzero": not cert_3.is_zero(),
        "nonvanishing": (not total.is_zero())
        and (not cert_2.is_zero())
        and (not cert_3.is_zero()),
    }
    reports = []
    for m, data in sorted(surface_fixtures().items()):
        h20, h11 = data["h20"], data["h11"]
        sigma = 2 * h20 + 2 - h11
        sigma_prim = sigma - 1  # the hyperplane class carries square +m > 0
        residual = 1 - sigma  # [point] - [H^2] after the IC term is dropped
        reports.append(ConeSurfaceReport(
            m=m, h20=h20, h11=h11, signature_h2=sigma,
            primitive_signature=sigma_prim, residual_signature=residual,
            nonzero=residual != 0,
        ))
    return DriverReport(double_point=double_point, cone_surfaces=reports)
