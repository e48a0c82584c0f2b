"""Exact polarizable Hodge structures at a point and polarization comparison.

The bigrading lives in Q(i)-coordinates over a rational real structure, so
every verdict here is a certificate: the Weil operator is an exact rational
matrix, positivity is Sylvester minors, and the spectrum of the comparison
endomorphism between two polarizations is certified real, positive, and
semisimple by Sturm counts plus a squarefree minimal-polynomial check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random

from .core import CertificateError, SturmCertificate, factor, sturm_positive_real_roots
from .forms import (
    RATIONAL,
    SYMMETRIC,
    BilinearForm,
    diagonalize,
    standard_symplectic_gram,
    symplectic_reduce,
)
from .linalg import (
    GaussianRational,
    Mat,
    QI_ONE,
    QI_ZERO,
    i_power,
)
from .poly import int_poly_at, poly_degree
from .witt import WittClassQ, witt_class_of


@dataclass
class HodgePiece:
    p: int
    q: int
    basis: Mat  # columns in Q(i)^n


@dataclass
class HodgeStructure:
    """Pure Hodge structure of weight w on a rational vector space.

    Pieces are given by Q(i)-bases of the (p, q) summands of the
    complexification; conjugation symmetry ties (p, q) to (q, p).
    """

    weight: int
    dimension: int
    pieces: list[HodgePiece]

    def piece(self, p: int, q: int) -> HodgePiece | None:
        for piece in self.pieces:
            if piece.p == p and piece.q == q:
                return piece
        return None

    def full_basis(self) -> Mat:
        cols = []
        for piece in self.pieces:
            cols.extend(piece.basis.columns())
        return Mat.from_columns(cols, m=self.dimension)

    def validate(self) -> list[str]:
        problems = []
        total = 0
        for piece in self.pieces:
            if piece.p + piece.q != self.weight:
                problems.append(f"piece ({piece.p},{piece.q}) violates p + q = {self.weight}")
            if piece.basis.m != self.dimension:
                problems.append(f"piece ({piece.p},{piece.q}) has vectors of wrong length")
            total += piece.basis.n
        if total != self.dimension:
            problems.append(f"pieces span {total} dimensions, expected {self.dimension}")
            return problems
        full = self.full_basis()
        if full.rank() != self.dimension:
            problems.append("piece bases are not jointly independent")
            return problems
        for piece in self.pieces:
            partner = self.piece(piece.q, piece.p)
            if partner is None:
                problems.append(f"piece ({piece.p},{piece.q}) has no conjugate partner")
                continue
            conj = piece.basis.map(lambda z: z.conjugate())
            if partner.basis.solve(conj) is None or partner.basis.n != piece.basis.n:
                problems.append(
                    f"conjugate of piece ({piece.p},{piece.q}) does not span ({piece.q},{piece.p})"
                )
        return problems

    def is_valid(self) -> bool:
        return not self.validate()


def weil_operator(h: HodgeStructure) -> Mat:
    """The real operator acting by i^(p-q) on the (p, q) piece.

    Validates the structure first.  Returned over Q; C^2 = (-1)^w id.
    """
    problems = h.validate()
    if problems:
        raise ValueError(f"invalid Hodge structure: {problems}")
    full = h.full_basis()
    scaled_cols = []
    for piece in h.pieces:
        factor = i_power(piece.p - piece.q)
        for col in piece.basis.columns():
            scaled_cols.append([factor * x for x in col])
    scaled = Mat.from_columns(scaled_cols, m=h.dimension)
    c = _real_matrix(scaled * full.inv(),
                     "Weil operator came out non-real; bigrading is inconsistent")
    if c * c != Mat.identity(h.dimension).scale(Fraction((-1) ** h.weight)):
        raise CertificateError("Weil operator certificate failed: C^2 is not (-1)^w")
    return c


def _real_matrix(m: Mat, error: str) -> Mat:
    """The rational matrix of a Q(i) matrix whose entries are all real."""
    if not all(x.is_real for r in m.rows for x in r):
        raise CertificateError(error)
    return m.map(lambda x: x.re)


@dataclass
class PolarizationCheck:
    ok: bool
    problems: list[str]
    weil: Mat | None = None
    s_c: Mat | None = None


def is_polarization(h: HodgeStructure, s: BilinearForm) -> PolarizationCheck:
    """Check the polarization conditions exactly.

    Symmetry (-1)^w, orthogonality of (p, q) against everything except
    (q, p) (the first bilinear relation), nondegeneracy, and positive
    definiteness of S_C(u, v) = S(u, Cv) via leading principal minors.
    """
    return _check_polarization(h, weil_operator(h), s)


def _check_polarization(h: HodgeStructure, weil: Mat, s: BilinearForm) -> PolarizationCheck:
    """is_polarization for a structure already validated, with its Weil operator."""
    problems = []
    expected_sym = 1 if h.weight % 2 == 0 else -1
    if s.field != RATIONAL:
        return PolarizationCheck(False, ["pairing must be defined over Q"])
    if s.gram.n != h.dimension:
        return PolarizationCheck(False, ["pairing size does not match the structure"])
    if s.symmetry != expected_sym:
        problems.append(f"pairing must be {'symmetric' if expected_sym == 1 else 'skew'} "
                        f"for weight {h.weight}")
    for a in h.pieces:
        for b in h.pieces:
            if b.p == h.weight - a.p:
                continue
            prod = a.basis.T * s.gram * b.basis
            if not prod.is_zero():
                problems.append(f"pieces ({a.p},{a.q}) and ({b.p},{b.q}) are not S-orthogonal")
    if h.dimension and not s.gram.det():
        problems.append("pairing is degenerate")
    s_c = s.gram * weil
    if s_c != s_c.T:
        problems.append("S(u, Cv) is not symmetric")
    else:
        for k in range(1, h.dimension + 1):
            minor = s_c.submatrix(range(k), range(k)).det()
            if minor <= 0:
                problems.append(f"S(u, Cv) is not positive definite "
                                f"(leading {k}x{k} minor is {minor})")
                break
    return PolarizationCheck(ok=not problems, problems=problems, weil=weil, s_c=s_c)


@dataclass
class Eigenspace:
    eigenvalue: Fraction
    basis: Mat


@dataclass
class PolarizationPair:
    """Comparison data for two polarizations of one structure."""

    s: BilinearForm
    s_prime: BilinearForm
    phi: Mat
    char_poly: list[Fraction]
    sturm: SturmCertificate
    semisimple: bool
    identity_chain_ok: bool
    preserves_bigrading: bool
    eigenspaces: list[Eigenspace] | None
    signature_s: tuple[int, int]
    signature_s_prime: tuple[int, int]

    @property
    def signatures_equal(self) -> bool:
        return self.signature_s == self.signature_s_prime

    @property
    def real_witt_classes_equal(self) -> bool:
        # W(R) = Z by signature, so this is the real-coefficient conclusion
        return self.signatures_equal

    @property
    def certified(self) -> bool:
        return (self.sturm.all_real_positive and self.semisimple
                and self.identity_chain_ok and self.preserves_bigrading
                and self.signatures_equal)


def compare_polarizations(h: HodgeStructure, s: BilinearForm,
                          s_prime: BilinearForm) -> PolarizationPair:
    """Solve S'(u, v) = S(phi u, v) and certify the comparison endomorphism.

    phi = S^{-1} S' is an endomorphism of the structure, self-adjoint for
    the positive form S(u, Cv); its spectrum is certified real positive by
    Sturm and semisimple by a squarefree minimal polynomial.  Eigenspaces
    are computed only when the characteristic polynomial splits over Q.
    """
    weil = weil_operator(h)
    chk = _check_polarization(h, weil, s)
    if not chk.ok:
        raise ValueError(f"first pairing is not a polarization: {chk.problems}")
    chk2 = _check_polarization(h, weil, s_prime)
    if not chk2.ok:
        raise ValueError(f"second pairing is not a polarization: {chk2.problems}")
    phi = s.gram.inv() * s_prime.gram
    if phi.T * s.gram != s_prime.gram:  # defining identity for phi
        raise CertificateError("comparison certificate failed: phi^T S is not S'")

    # identity chain: S(phi u, Cv) = S'(u, Cv) = S'(v, Cu) = S(phi v, Cu) = S(u, C phi v)
    sc, spc = chk.s_c, chk2.s_c
    chain_ok = (
        phi.T * sc == spc
        and spc.T == spc
        and (phi.T * sc).T == sc * phi
        and phi.T * sc == sc * phi  # self-adjointness for the positive form
    )

    preserves = True
    for piece in h.pieces:
        image = phi * piece.basis
        if piece.basis.solve(image) is None:
            preserves = False
            break

    char = phi.charpoly()
    cert = sturm_positive_real_roots(char)
    # radical(phi) = 0 is checked as an integer identity: d^m * radical(phi) = 0
    radical = cert.squarefree_part
    semisimple = not any(map(any, int_poly_at(radical, phi)[1]))

    eigenspaces = None
    rational_roots = _rational_roots(radical)
    if len(rational_roots) == poly_degree(radical):
        eigenspaces = []
        total = 0
        for alpha in sorted(rational_roots):
            space = (phi - Mat.identity(phi.n).scale(alpha)).nullspace()
            eigenspaces.append(Eigenspace(eigenvalue=alpha, basis=space))
            total += space.n
        if total != phi.n:  # semisimplicity realized by the decomposition
            raise CertificateError("eigenspace certificate failed: dimensions do not add up")
        for i in range(len(eigenspaces)):
            for j in range(i + 1, len(eigenspaces)):
                prod = eigenspaces[i].basis.T * s.gram * eigenspaces[j].basis
                if not prod.is_zero():
                    raise CertificateError("eigenspace certificate failed: "
                                           "eigenspaces are not S-orthogonal")

    sig_s = diagonalize(_sym_for_signature(s)).signature()
    sig_sp = diagonalize(_sym_for_signature(s_prime)).signature()
    return PolarizationPair(
        s=s, s_prime=s_prime, phi=phi, char_poly=char, sturm=cert,
        semisimple=semisimple, identity_chain_ok=chain_ok,
        preserves_bigrading=preserves, eigenspaces=eigenspaces,
        signature_s=sig_s, signature_s_prime=sig_sp,
    )


def _sym_for_signature(s: BilinearForm) -> BilinearForm:
    if s.symmetry == SYMMETRIC:
        return s
    # skew forms all have signature (0, 0); use a zero stand-in of equal rank
    return BilinearForm(RATIONAL, SYMMETRIC, Mat.zeros(0, 0))


def _rational_roots(p: list[int]) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial (desk scale).

    A root num/den in lowest terms has num dividing the lowest nonzero
    coefficient and den the leading one.  Each coprime pair is tested on
    integers, by the homogenized value sum p_k num^k den^(deg - k); a pair
    with a common factor is the same number as a coprime pair scanned
    before it.
    """
    if poly_degree(p) <= 0:
        return []
    roots = [Fraction(0)] if p[0] == 0 else []
    nums = _signed_divisors(next(c for c in p if c))
    dens = _divisors(p[-1])
    for num in nums:
        for den in dens:
            if gcd(num, den) == 1 and _homogenized_value(p, num, den) == 0:
                roots.append(Fraction(num, den))
    return roots


def _homogenized_value(p: list[int], num: int, den: int) -> int:
    """den^deg(p) * p(num / den), by Horner."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _divisors(n: int) -> list[int]:
    n = abs(n)
    divs = [1]
    for prime, e in factor(n).items():
        divs = [d * prime**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _signed_divisors(n: int) -> list[int]:
    divs = _divisors(n)
    return [d for pair in ((d, -d) for d in divs) for d in pair]


def pol_class(h: HodgeStructure, s: BilinearForm) -> WittClassQ:
    """Witt class of the normalized polarization (-1)^(w(w+1)/2) S.

    Odd weights land in the skew sector, which vanishes; the zero class is
    certified by a symplectic basis.
    """
    chk = is_polarization(h, s)
    if not chk.ok:
        raise ValueError(f"not a polarization: {chk.problems}")
    if h.weight % 2:
        symplectic_reduce(s)
        return WittClassQ.zero()
    from .genus import epsilon  # here, so that loading hodge does not load genus

    return witt_class_of(s.scaled(epsilon(h.weight)))


# -- seeded fixtures ------------------------------------------------------


def standard_structure(weight: int, dimension: int) -> tuple[HodgeStructure, BilinearForm]:
    """A reference polarized structure for each weight 0..3.

    Weight 0: pure (0,0), identity pairing.  Weight 1: symplectic pairs
    spanning (1,0) + (0,1).  Weight 2: one (2,0)+(0,2) pair plus a definite
    (1,1) block.  Weight 3: (3,0)+(0,3) and (2,1)+(1,2) symplectic pairs.
    """
    if weight == 0:
        basis = Mat.identity(dimension, one=QI_ONE, zero=QI_ZERO)
        h = HodgeStructure(0, dimension, [HodgePiece(0, 0, basis)])
        return h, BilinearForm.from_diagonal([1] * dimension)
    if weight == 1:
        if dimension % 2:
            raise ValueError("weight 1 needs even dimension")
        m = dimension // 2
        plus_cols, minus_cols = [], []
        for t in range(m):
            v = [QI_ZERO] * dimension
            v[2 * t] = QI_ONE
            v[2 * t + 1] = GaussianRational(Fraction(0), Fraction(1))
            plus_cols.append(v)
            minus_cols.append([x.conjugate() for x in v])
        h = HodgeStructure(1, dimension, [
            HodgePiece(1, 0, Mat.from_columns(plus_cols, m=dimension)),
            HodgePiece(0, 1, Mat.from_columns(minus_cols, m=dimension)),
        ])
        return h, BilinearForm(RATIONAL, -1, -standard_symplectic_gram(m))
    if weight == 2:
        if dimension < 3:
            raise ValueError("weight 2 fixture needs dimension >= 3")
        v20 = [QI_ZERO] * dimension
        v20[0] = QI_ONE
        v20[1] = GaussianRational(Fraction(0), Fraction(1))
        v02 = [x.conjugate() for x in v20]
        mid_cols = []
        for t in range(2, dimension):
            v = [QI_ZERO] * dimension
            v[t] = QI_ONE
            mid_cols.append(v)
        h = HodgeStructure(2, dimension, [
            HodgePiece(2, 0, Mat.from_columns([v20], m=dimension)),
            HodgePiece(1, 1, Mat.from_columns(mid_cols, m=dimension)),
            HodgePiece(0, 2, Mat.from_columns([v02], m=dimension)),
        ])
        return h, BilinearForm.from_diagonal([-1, -1] + [1] * (dimension - 2))
    if weight == 3:
        if dimension % 4:
            raise ValueError("weight 3 fixture needs dimension divisible by 4")
        m = dimension // 4
        pieces_cols = {(3, 0): [], (2, 1): []}
        for t in range(m):
            v = [QI_ZERO] * dimension
            v[4 * t] = QI_ONE
            v[4 * t + 1] = GaussianRational(Fraction(0), Fraction(1))
            pieces_cols[(3, 0)].append(v)
            w = [QI_ZERO] * dimension
            w[4 * t + 2] = QI_ONE
            w[4 * t + 3] = GaussianRational(Fraction(0), Fraction(1))
            pieces_cols[(2, 1)].append(w)
        pieces = []
        for (p, q), cols in pieces_cols.items():
            pieces.append(HodgePiece(p, q, Mat.from_columns(cols, m=dimension)))
            pieces.append(HodgePiece(q, p, Mat.from_columns(
                [[x.conjugate() for x in col] for col in cols], m=dimension)))
        h = HodgeStructure(3, dimension, pieces)
        gram = [[Fraction(0)] * dimension for _ in range(dimension)]
        for t in range(m):
            # (3,0) pair: C acts by -i, needs S = [[0,1],[-1,0]] on the block
            gram[4 * t][4 * t + 1] = Fraction(1)
            gram[4 * t + 1][4 * t] = Fraction(-1)
            # (2,1) pair: C acts by +i, opposite block sign
            gram[4 * t + 2][4 * t + 3] = Fraction(-1)
            gram[4 * t + 3][4 * t + 2] = Fraction(1)
        return h, BilinearForm(RATIONAL, -1, Mat(dimension, dimension, gram))
    raise ValueError("standard fixtures cover weights 0..3")


def random_hodge_endomorphism(rng: Random, h: HodgeStructure, bound: int = 2) -> Mat:
    """Random invertible rational endomorphism preserving the bigrading.

    Built blockwise in the adapted basis with conjugate blocks tied
    together, so the matrix is real (rational) on the rational structure.
    """
    full_inv = h.full_basis().inv()
    while True:
        blocks: dict[tuple[int, int], Mat] = {}
        for piece in h.pieces:
            key = (piece.p, piece.q)
            mirror = (piece.q, piece.p)
            if mirror in blocks:
                blocks[key] = blocks[mirror].map(lambda z: z.conjugate())
                continue
            k = piece.basis.n
            if piece.p == piece.q:
                rows = [[GaussianRational(Fraction(rng.randint(-bound, bound)), Fraction(0))
                         for _ in range(k)] for _ in range(k)]
            else:
                rows = [[GaussianRational(Fraction(rng.randint(-bound, bound)),
                                          Fraction(rng.randint(-bound, bound)))
                         for _ in range(k)] for _ in range(k)]
            blocks[key] = Mat(k, k, rows)
        cols = []
        for piece in h.pieces:
            block = blocks[(piece.p, piece.q)]
            image = piece.basis * block
            cols.extend(image.columns())
        image_full = Mat.from_columns(cols, m=h.dimension)
        psi = _real_matrix(image_full * full_inv,
                           "conjugation-equivariant blocks must give a real matrix")
        if psi.det():
            return psi


def random_polarization_pair(rng: Random, weight: int, dimension: int
                             ) -> tuple[HodgeStructure, BilinearForm, BilinearForm]:
    """Fixture for the executable comparison theorem: a structure with a
    reference polarization and a second one pulled back along random
    invertible structure endomorphisms (sums keep positivity)."""
    h, s = standard_structure(weight, dimension)
    terms = rng.randint(1, 2)
    gram = Mat.zeros(dimension, dimension)
    for _ in range(terms):
        psi = random_hodge_endomorphism(rng, h)
        gram = gram + psi.T * s.gram * psi
    s_prime = BilinearForm(RATIONAL, s.symmetry, gram)
    return h, s, s_prime
