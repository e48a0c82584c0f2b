"""Exact polarizable Hodge structures at a point and polarization comparison.

A structure comes as Q(i)-bases B_{p,q} = X + iY of its pieces, each stored as
its two rational matrices X = Re B and Y = Im B; every check runs over Q on
one rational frame R of V = ⊕ W_{p,q}, one summand per pair {p, q} (Deligne,
*Théorie de Hodge II*, 1971, §2).  For p > q, W_{p,q} has the basis
X = Re B_{p,q}, Y = Im B_{p,q} and the complex structure J X = -Y, J Y = X
(i on H^{p,q}, -i on H^{q,p}); W_{p,p} is spanned by Re B_{p,p}, Im B_{p,p}.
The Weil operator is R Λ R^-1, Λ = i^(p-q) on each summand; an identity R
(a structure given in its frame basis) is its own inverse and is never
multiplied by.  Positivity is Sylvester minors of S(u, Cv), each read by
the sign of its integer from ``Mat.leading_minors``; positive minors make
det(S C) > 0, so they certify nondegeneracy too, and det S, like the value
of a failing minor for its message, is taken only when positivity fails.
The comparison endomorphism phi = S^-1 S' is one solve, certified by
phi^T S = S'; its spectrum is certified real and positive by Sturm counts,
and semisimple by its radical vanishing at phi.  When the characteristic
polynomial p is squarefree, the radical is p, and p(phi) = 0 is
Cayley-Hamilton, certified on the last Faddeev-LeVerrier step; only a p
with repeated roots has its radical evaluated at phi, by Horner.  A
signature is the count of sign changes in the leading minors (Jacobi's
rule), read off the same integers; where a minor is zero, it is the
signature of the form's pivots (``forms.pivots``, one pivoted LDL^T pass,
with no diagonalization).  Each is checked a second way, against the
Hodge index theorem.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add
from random import Random

from .core import (
    CertificateError,
    FactorBoundExceeded,
    Frozen,
    Record,
    SturmCertificate,
    _sign_changes,
    epsilon,
    factor,
    sturm_positive_real_roots,
)
from .forms import (
    RATIONAL,
    SYMMETRIC,
    BilinearForm,
    pivots,
    standard_symplectic_gram,
)
from .linalg import Mat
from .poly import int_poly_at, poly_degree
from .witt import WittClassQ, witt_class_of


class HodgePiece(Record):
    """The (p, q) summand, spanned by the columns of B = re + i im."""

    def __init__(self, p: int, q: int, re: Mat, im: Mat):
        self.p = p
        self.q = q
        self.re = re
        self.im = im
        if (re.m, re.n) != (im.m, im.n):
            raise ValueError("real and imaginary parts of a piece basis differ in shape")


class HodgeStructure(Record):
    """Pure Hodge structure of weight w on a rational vector space.

    Pieces are given by Q(i)-bases of the (p, q) summands of the
    complexification, as their real and imaginary parts; conjugation
    symmetry ties (p, q) to (q, p).
    """

    def __init__(self, weight: int, dimension: int, pieces: list[HodgePiece]):
        self.weight = weight
        self.dimension = dimension
        self.pieces = pieces

    def piece(self, p: int, q: int) -> HodgePiece | None:
        """The first nonempty (p, q) piece, else the first (p, q) piece, or None."""
        found = None
        for piece in self.pieces:
            if piece.p == p and piece.q == q:
                if piece.re.n:
                    return piece
                if found is None:
                    found = piece
        return found

    def validate(self) -> list[str]:
        return _frame_and_problems(self)[1]


class _Summand(Frozen):
    """W_{p,q}, p >= q, from column ``start`` of R: X, Y for p > q; for p = q the
    pivot columns of [Re B | Im B], in which it has coordinates ``coords``."""

    def __init__(self, p: int, q: int, start: int, k: int, coords: Mat | None = None,
                 pivots: tuple[int, ...] = ()):
        self.__dict__.update(p=p, q=q, start=start, k=k, coords=coords, pivots=pivots)


class _Frame(Frozen):
    """The rational frame R of a valid structure, its inverse (R itself if
    R = I) and its summands."""

    def __init__(self, basis: Mat, inverse: Mat, summands: list[_Summand]):
        self.__dict__.update(basis=basis, inverse=inverse, summands=summands)


def _conjugate(left: Mat, a: Mat, right: Mat) -> Mat:
    """left a right, for the frame matrices R and R^-1 in either order: R a
    R^-1 takes a out of frame coordinates, R^-1 a R into them.  An identity
    frame is its own inverse, and a is returned as it is."""
    return a if left is right else left * a * right


def _pullback(frame: _Frame, gram: Mat) -> Mat:
    """R^T G R; G when R = I."""
    r = frame.basis
    return gram if frame.inverse is r else r.T * gram * r


def _frame_and_problems(h: HodgeStructure) -> tuple[_Frame | None, list[str]]:
    """Validate h: its frame and no problems, or None and every problem."""
    problems = []
    total = 0
    for piece in h.pieces:
        if piece.p + piece.q != h.weight:
            problems.append(f"piece ({piece.p},{piece.q}) violates p + q = {h.weight}")
        if piece.re.m != h.dimension:
            problems.append(f"piece ({piece.p},{piece.q}) has vectors of wrong length")
        total += piece.re.n
    if total != h.dimension:
        problems.append(f"pieces span {total} dimensions, expected {h.dimension}")
        return None, problems
    if len({piece.re.m for piece in h.pieces}) > 1:
        return None, problems  # the bigrading diagnostics need one vector length
    frame = None if problems else _certified_frame(h)
    if frame is None:
        found = _bigrading_problems(h)
        if not problems and not found:
            raise CertificateError("Hodge frame certificate failed on a valid structure")
        problems += found
    return (None if problems else frame), problems


def _frame(h: HodgeStructure) -> _Frame:
    frame, problems = _frame_and_problems(h)
    if problems:
        raise ValueError(f"invalid Hodge structure: {problems}")
    return frame


def _certified_frame(h: HodgeStructure) -> _Frame | None:
    """The frame of a structure of the right shape, or None if it is not
    valid: each nonempty (p, q) occurs once, with a (q, p) partner of its
    size; R is invertible; each (p, p) block U + iV is invertible; and the
    partner of each (p, q), p > q, has coordinates (T, -iT) in (X, Y), T
    invertible, so it spans X - iY.  Then R^-1 B is block-diagonal with
    invertible blocks.  R = I is its own inverse, with no solve."""
    n = h.dimension
    if _repeated_pieces(h):
        return None
    spans, summands, partners = [], [], []
    for piece in _nonempty(h):
        partner = h.piece(piece.q, piece.p)
        if partner is None or partner.re.n != piece.re.n:
            return None
        if piece.p < piece.q:
            continue
        k, start, span = piece.re.n, sum(s.n for s in spans), piece.re.hstack(piece.im)
        if piece.p > piece.q:
            summands.append(_Summand(piece.p, piece.q, start, k))
            partners.append((start, k, partner.re.hstack(partner.im)))
        else:
            reduced, pivots = span.rref()
            coords = reduced.submatrix(range(k), range(2 * k))
            if len(pivots) != k or not _invertible(*_halves(coords)):
                return None
            span = span.submatrix(range(n), pivots)
            summands.append(_Summand(piece.p, piece.q, start, k, coords, tuple(pivots)))
        spans.append(span)
    basis = reduce(Mat.hstack, spans, Mat.zeros(n, 0))
    try:
        inverse = basis if basis == Mat.identity(n) else basis.inv()
    except ValueError:
        return None
    for start, k, parts in partners:
        uv = parts if inverse is basis else inverse * parts  # [U | V] of the partner
        xs, ys = (uv.submatrix(range(at, at + k), range(2 * k)) for at in (start, start + k))
        rest = [i for i in range(n) if not start <= i < start + 2 * k]
        u, v = _halves(xs)
        if not uv.submatrix(rest, range(2 * k)).is_zero() or ys != v.hstack(-u) or not _invertible(u, v):
            return None
    return _Frame(basis, inverse, summands)


def _halves(uv: Mat) -> tuple[Mat, Mat]:
    """U and V of a k x 2k matrix [U | V]."""
    k = uv.m
    return uv.submatrix(range(k), range(k)), uv.submatrix(range(k), range(k, 2 * k))


def _invertible(u: Mat, v: Mat) -> bool:
    """Whether U + iV is invertible, by the determinant of its realification
    [[U, -V], [V, U]], |det(U + iV)|^2, which is det(U)^2 when V = 0: then
    det U alone is taken."""
    if v.is_zero():
        return bool(u.det())
    return bool(u.hstack(v).realification().det())


def _nonempty(h: HodgeStructure) -> list[HodgePiece]:
    """The pieces with a basis vector: an empty piece contributes nothing,
    so it is paired with no piece."""
    return [piece for piece in h.pieces if piece.re.n]


def _repeated_pieces(h: HodgeStructure) -> list[tuple[int, int]]:
    """The (p, q) of each nonempty piece given more than once, in order."""
    keys = [(piece.p, piece.q) for piece in _nonempty(h)]
    return list(dict.fromkeys(k for k in keys if keys.count(k) > 1))


def _bigrading_problems(h: HodgeStructure) -> list[str]:
    """Why a structure of the right shape has no frame: a nonempty (p, q)
    piece is given twice, its pieces are dependent over Q(i), or a piece's
    conjugate does not span its partner.  A repeated piece is reported first;
    the partner checks are then skipped, as ``piece`` finds only one piece
    of a (p, q).  An empty piece is paired with none."""
    problems = [f"piece ({p},{q}) is given twice" for p, q in _repeated_pieces(h)]
    re = reduce(Mat.hstack, [piece.re for piece in h.pieces])
    im = reduce(Mat.hstack, [piece.im for piece in h.pieces])
    if re.hstack(im).realification().rank() != 2 * h.dimension:
        return problems + ["piece bases are not jointly independent"]
    if problems:
        return problems
    for piece in _nonempty(h):
        partner = h.piece(piece.q, piece.p)
        if partner is None:
            problems.append(f"piece ({piece.p},{piece.q}) has no conjugate partner")
            continue
        # the pieces are independent, so the partner has full column rank, and
        # the conjugate lies in its span exactly when that rank does not grow
        conj = partner.re.hstack(piece.re).hstack(partner.im.hstack(-piece.im))  # [partner | conj B]
        if (partner.re.n != piece.re.n
                or conj.realification().rank() != 2 * partner.re.n):
            problems.append(
                f"conjugate of piece ({piece.p},{piece.q}) does not span ({piece.q},{piece.p})"
            )
    return problems


# i^k as (Re, Im), k mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _weil(frame: _Frame, weight: int) -> Mat:
    """C = R Λ R^-1, Λ acting by i^(p-q) on each summand; C^2 = (-1)^w id.
    B -> B M on B = X + iY is, on [X | Y], the realification of conj(M).
    When R = I, C is Λ, with no product."""
    blocks = []
    for w in frame.summands:
        block = Mat.identity(w.k)
        if w.p > w.q:
            re, im = _I_POWERS[(w.p - w.q) % 4]
            block = block.scale(re).hstack(block.scale(-im)).realification()
        blocks.append(block)
    c = _conjugate(frame.basis, reduce(Mat.direct_sum, blocks, Mat.zeros(0, 0)), frame.inverse)
    if c * c != Mat.identity(c.n).scale(Fraction((-1) ** weight)):
        raise CertificateError("Weil operator certificate failed: C^2 is not (-1)^w")
    return c


def weil_operator(h: HodgeStructure) -> Mat:
    """The real operator acting by i^(p-q) on the (p, q) piece.

    Validates the structure first.  Returned over Q; C^2 = (-1)^w id.
    """
    return _weil(_frame(h), h.weight)


def _respects_frame(frame: _Frame, a: Mat) -> bool:
    """Whether a matrix in frame coordinates is block-diagonal over the
    summands and J-linear on each W_{p,q}, p > q: a_XX = a_YY, a_XY = -a_YX.
    For R^T S R that is the first bilinear relation (J^T S J = S); for
    R^-1 phi R, that phi keeps every H^{p,q}, the eigenspaces of J.
    The summands tile the columns, and each is tested in place on the
    integer columns of a."""
    _, cols = a.integer_columns()
    for w in frame.summands:
        x, y, end = w.start, w.start + w.k, w.start + (2 * w.k if w.p > w.q else w.k)
        if any(any(c[:x]) or any(c[end:]) for c in cols[x:end]):
            return False
        # column j of a_XX against a_YY, and of a_YX against -a_XY
        if w.p > w.q and any(cx[x:y] != cy[y:end] or any(map(add, cx[y:end], cy[x:y]))
                             for cx, cy in zip(cols[x:y], cols[y:end])):
            return False
    return True


class PolarizationCheck(Record):
    """What ``is_polarization`` found: its problems, the Weil operator C and S(u, Cv)."""

    def __init__(self, ok: bool, problems: list[str], weil: Mat | None = None, s_c: Mat | None = None):
        self.ok = ok
        self.problems = problems
        self.weil = weil
        self.s_c = s_c


def is_polarization(h: HodgeStructure, s: BilinearForm) -> PolarizationCheck:
    """Check the polarization conditions exactly.

    Symmetry (-1)^w, orthogonality of (p, q) against everything except
    (q, p) (the first bilinear relation), and positive definiteness of
    S_C(u, v) = S(u, Cv) via leading principal minors.  Nondegeneracy is
    read off that certificate: positive minors give det S det C > 0.  Only
    when it fails is det S taken, and a degenerate pairing is reported
    before the S(u, Cv) problem.
    """
    frame = _frame(h)
    return _check_polarization(h, frame, _weil(frame, h.weight), s)


def _check_polarization(h: HodgeStructure, frame: _Frame, weil: Mat,
                        s: BilinearForm) -> PolarizationCheck:
    """is_polarization for a valid structure, with its frame and Weil operator."""
    problems = []
    expected_sym = 1 if h.weight % 2 == 0 else -1
    if s.gram.n != h.dimension:
        return PolarizationCheck(False, ["pairing size does not match the structure"])
    if s.symmetry != expected_sym:
        problems.append(f"pairing must be {'symmetric' if expected_sym == 1 else 'skew'} "
                        f"for weight {h.weight}")
    if not _respects_frame(frame, _pullback(frame, s.gram)):
        found = _orthogonality_problems(h, s)
        if not found:
            raise CertificateError("first bilinear relation certificate failed on R^T S R")
        problems += found
    s_c = s.gram * weil
    positivity = None
    if s_c != s_c.T:
        positivity = "S(u, Cv) is not symmetric"
    elif k := next((j for j, d in enumerate(s_c.leading_minors(), 1) if d <= 0), 0):
        minor = s_c.submatrix(range(k), range(k)).det()
        positivity = f"S(u, Cv) is not positive definite (leading {k}x{k} minor is {minor})"
    # positive leading minors give det(S C) > 0, so det S != 0: the
    # determinant is taken only where positivity fails
    if positivity:
        if not s.gram.det():
            problems.append("pairing is degenerate")
        problems.append(positivity)
    return PolarizationCheck(ok=not problems, problems=problems, weil=weil, s_c=s_c)


def _orthogonality_problems(h: HodgeStructure, s: BilinearForm) -> list[str]:
    """The pairs of pieces, partners aside, with B_a^T S B_b != 0, whose
    realification is that of B_a^T times S ⊕ S times that of B_b."""
    ss = s.gram.direct_sum(s.gram)
    problems = []
    for a in h.pieces:
        left = a.re.T.hstack(a.im.T).realification() * ss
        for b in h.pieces:
            if b.p != h.weight - a.p and not (left * b.re.hstack(b.im).realification()).is_zero():
                problems.append(f"pieces ({a.p},{a.q}) and ({b.p},{b.q}) are not S-orthogonal")
    return problems


class Eigenspace(Record):
    def __init__(self, eigenvalue: Fraction, basis: Mat):
        self.eigenvalue = eigenvalue
        self.basis = basis


class PolarizationPair(Record):
    """Comparison data for two polarizations of one structure."""

    def __init__(self, s: BilinearForm, s_prime: BilinearForm, phi: Mat, char_poly: list[Fraction],
                 sturm: SturmCertificate, semisimple: bool, identity_chain_ok: bool,
                 preserves_bigrading: bool, eigenspaces: list[Eigenspace] | None,
                 signature_s: tuple[int, int], signature_s_prime: tuple[int, int]):
        self.s = s
        self.s_prime = s_prime
        self.phi = phi
        self.char_poly = char_poly
        self.sturm = sturm
        self.semisimple = semisimple
        self.identity_chain_ok = identity_chain_ok
        self.preserves_bigrading = preserves_bigrading
        self.eigenspaces = eigenspaces
        self.signature_s = signature_s
        self.signature_s_prime = signature_s_prime

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

    phi = S^{-1} S', one solve of S X = S', is an endomorphism of the
    structure, self-adjoint for the positive form S(u, Cv); its spectrum is
    certified real positive by Sturm and semisimple by a squarefree minimal
    polynomial.  Eigenspaces are computed only when the radical is shown to
    split over Q.  The signatures of symmetric S and S', their classes in
    W(R) = Z, are read by Jacobi's rule off the signs of their leading
    minors (``_signature``), and both are checked against the Hodge index
    theorem, which reads the Hodge numbers and not the minors.
    """
    frame = _frame(h)
    weil = _weil(frame, h.weight)
    chk = _check_polarization(h, frame, weil, s)
    if not chk.ok:
        raise ValueError(f"first pairing is not a polarization: {chk.problems}")
    chk2 = _check_polarization(h, frame, weil, s_prime)
    if not chk2.ok:
        raise ValueError(f"second pairing is not a polarization: {chk2.problems}")
    # S passed its check, so it is nondegenerate and phi is the one solution
    phi = s.gram.solve(s_prime.gram)
    if phi is None or phi.T * s.gram != s_prime.gram:  # defining identity for phi
        raise CertificateError("comparison certificate failed: phi^T S is not S'")

    # identity chain: S(phi u, Cv) = S'(u, Cv) = S'(v, Cu) = S(phi v, Cu) = S(u, C phi v).
    # phi^T S C = S' C by the certificate above and S' C is symmetric, as S'
    # passed its check, so what is left is self-adjointness: S C phi = S' C
    chain_ok = chk.s_c * phi == chk2.s_c

    preserves = _respects_frame(frame, _conjugate(frame.inverse, phi, frame.basis))

    char = phi.charpoly()
    cert = sturm_positive_real_roots(char)
    radical = cert.squarefree_part
    semisimple = _semisimple(phi, cert)

    eigenspaces = None
    try:
        rational_roots = _rational_roots(radical)
    except FactorBoundExceeded:  # an end coefficient too hard to factor: not shown to split
        rational_roots = []
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

    # both pairings passed their checks, so they share the symmetry of the
    # weight; skew forms all have signature (0, 0)
    if s.symmetry == SYMMETRIC:
        sig_s, sig_sp = _signature(s), _signature(s_prime)
    else:
        sig_s = sig_sp = (0, 0)
    sign = epsilon(h.weight)
    for name, (pos, neg) in (("S", sig_s), ("S'", sig_sp)):
        _certify_hodge_index(h, sign * (pos - neg), f"normalized signature of {name}")
    return PolarizationPair(
        s=s, s_prime=s_prime, phi=phi, char_poly=char, sturm=cert,
        semisimple=semisimple, identity_chain_ok=chain_ok,
        preserves_bigrading=preserves, eigenspaces=eigenspaces,
        signature_s=sig_s, signature_s_prime=sig_sp,
    )


def _signature(f: BilinearForm) -> tuple[int, int]:
    """(positive, negative) of a symmetric form by Jacobi's rule: with every
    leading minor D_k of its Gram matrix nonzero, the negative count is the
    number of sign changes in 1, D_1, ..., D_n (``core._sign_changes``),
    read off one Bareiss pass (``Mat.leading_minors``), which stops at the
    first zero minor.  There the signature is that of the form's pivots
    (``forms.pivots``), from one pivoted LDL^T pass."""
    minors = list(f.gram.leading_minors())
    if not all(minors):
        return pivots(f).signature()
    neg = _sign_changes([1, *minors])
    return f.gram.n - neg, neg


def _semisimple(phi: Mat, cert: SturmCertificate) -> bool:
    """Whether the radical of phi's characteristic polynomial p vanishes at
    phi.  A squarefree p is its own radical, and p(phi) = 0 is
    Cayley-Hamilton, which ``charpoly`` certified on its last step; any other
    radical is checked as an integer identity, d^m * radical(phi) = 0."""
    return cert.squarefree or not any(map(any, int_poly_at(cert.squarefree_part, phi)[1]))


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

    Odd weights land in the skew sector, which vanishes; ``witt_class_of``
    certifies the zero class by a symplectic basis.
    """
    chk = is_polarization(h, s)
    if not chk.ok:
        raise ValueError(f"not a polarization: {chk.problems}")
    cls = witt_class_of(s.scaled(epsilon(h.weight)))
    _certify_hodge_index(h, cls.signature, "class signature")
    return cls


def _certify_hodge_index(h: HodgeStructure, signature: int, what: str) -> None:
    """A second route to each signature: by the Hodge index theorem (the
    Hodge-Riemann relations at a point; Voisin, *Hodge Theory and Complex
    Algebraic Geometry I*, 6.3), the normalized polarization has signature
    sum over pieces of (-1)^p h^{p,q}.  At odd weight both sides are 0."""
    expected = sum((-1) ** piece.p * piece.re.n for piece in h.pieces)
    if signature != expected:
        raise CertificateError(f"Hodge index certificate failed: the {what} is {signature}, "
                               f"not sum (-1)^p h^(p,q) = {expected}")


# -- seeded fixtures ------------------------------------------------------


def standard_structure(weight: int, dimension: int) -> tuple[HodgeStructure, BilinearForm]:
    """A reference polarized structure for each weight 0..3.

    Weight 0: pure (0,0), identity pairing.  Weight 1: symplectic pairs
    spanning (1,0) + (0,1).  Weight 2: one (2,0)+(0,2) pair plus a definite
    (1,1) block.  Weight 3: (3,0)+(0,3) and (2,1)+(1,2) symplectic pairs.
    """
    if weight == 0:
        piece = HodgePiece(0, 0, Mat.identity(dimension), Mat.zeros(dimension, dimension))
        return HodgeStructure(0, dimension, [piece]), BilinearForm.from_diagonal([1] * dimension)
    if weight == 1:
        if dimension % 2:
            raise ValueError("weight 1 needs even dimension")
        m = dimension // 2
        # (1,0) is spanned by e_2t + i e_2t+1
        re = _unit_columns(dimension, range(0, dimension, 2))
        im = _unit_columns(dimension, range(1, dimension, 2))
        h = HodgeStructure(1, dimension, [HodgePiece(1, 0, re, im), HodgePiece(0, 1, re, -im)])
        return h, BilinearForm(RATIONAL, -1, -standard_symplectic_gram(m))
    if weight == 2:
        if dimension < 3:
            raise ValueError("weight 2 fixture needs dimension >= 3")
        # (2,0) is spanned by e_0 + i e_1, (1,1) by e_2, ..., e_(n-1)
        re, im = _unit_columns(dimension, [0]), _unit_columns(dimension, [1])
        h = HodgeStructure(2, dimension, [
            HodgePiece(2, 0, re, im),
            HodgePiece(1, 1, _unit_columns(dimension, range(2, dimension)),
                       Mat.zeros(dimension, dimension - 2)),
            HodgePiece(0, 2, re, -im),
        ])
        return h, BilinearForm.from_diagonal([-1, -1] + [1] * (dimension - 2))
    if weight == 3:
        if dimension % 4:
            raise ValueError("weight 3 fixture needs dimension divisible by 4")
        m = dimension // 4
        # (3,0) is spanned by e_4t + i e_4t+1, (2,1) by e_4t+2 + i e_4t+3
        pieces = []
        for (p, q), at in (((3, 0), 0), ((2, 1), 2)):
            re = _unit_columns(dimension, range(at, dimension, 4))
            im = _unit_columns(dimension, range(at + 1, dimension, 4))
            pieces += [HodgePiece(p, q, re, im), HodgePiece(q, p, re, -im)]
        h = HodgeStructure(3, dimension, pieces)
        # per 4-block: on the (3,0) pair C acts by -i and needs S = [[0,1],[-1,0]];
        # on the (2,1) pair C acts by +i, so the block sign is opposite
        j = standard_symplectic_gram(1)
        return h, BilinearForm(RATIONAL, -1, reduce(Mat.direct_sum, [j.direct_sum(-j)] * m, Mat.zeros(0, 0)))
    raise ValueError("standard fixtures cover weights 0..3")


def _unit_columns(n: int, at) -> Mat:
    """The n-row matrix whose columns are the unit vectors e_j, j in ``at``."""
    return Mat.identity(n).submatrix(range(n), at)


def random_hodge_endomorphism(rng: Random, h: HodgeStructure) -> Mat:
    """Random invertible rational endomorphism preserving the bigrading.

    It sends each piece B to B M, M random with entries in [-2, 2] + i[-2, 2],
    rational for a (p, p) piece and conjugate to the (p, q) block for the
    (q, p) piece.  On [Re B | Im B] = R_W [U | V] a (p, p) block acts as Ψ
    with Ψ [U | V] = [UM | VM], read off the pivot columns and checked on all
    of them.
    """
    frame = _frame(h)
    while True:
        blocks: dict[tuple[int, int], tuple[Mat, Mat]] = {}  # (p, q) -> (Re M, Im M)
        for piece in _nonempty(h):
            key, mirror = (piece.p, piece.q), (piece.q, piece.p)
            if mirror in blocks:  # the conjugate block
                blocks[key] = (blocks[mirror][0], -blocks[mirror][1])
                continue
            k = piece.re.n
            draws = [[(rng.randint(-2, 2), rng.randint(-2, 2) if piece.p != piece.q else 0)
                      for _ in range(k)] for _ in range(k)]
            blocks[key] = tuple(Mat(k, k, ints=[(1, [d[part] for d in r]) for r in draws])
                                for part in (0, 1))
        out = []
        for w in frame.summands:
            re, im = blocks[(w.p, w.q)]
            if w.p > w.q:
                out.append(re.hstack(-im).realification())
                continue
            image = w.coords * re.direct_sum(re)  # [UM | VM]
            out.append(image.submatrix(range(w.k), w.pivots))
            if out[-1] * w.coords != image:
                raise CertificateError("conjugation-equivariant blocks must give a real matrix")
        psi = _conjugate(frame.basis, reduce(Mat.direct_sum, out, Mat.zeros(0, 0)), frame.inverse)
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
