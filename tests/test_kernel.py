"""The integer kernel returns exactly what arithmetic over the field returns.

The references below are the plain field loops the kernel replaced: the
element-wise matrix product, Gauss-Jordan over Q or Q(i) (the same loop
serves both), the determinant, the congruence diagonalization with its
primitive rescale, the integer pivot loop that cleared one column at a time
before the Schur-complement step, the metabolic
reduction by full n x n products, the symplectic reduction that read each
pairing off its own product on ``Fraction`` columns, and the greedy rank-growth scan of
``extend_to_complement``.  Every property
requires the kernel's output to equal the reference's, entry by entry and
entry type by entry type.  The kernel works over Q only: building a ``Mat``
with a Q(i) entry raises ``TypeError``.  The Q(i) field loops run on rows
held by ``QiMat`` and are checked against the rational kernel on
realifications, built here, and so is the Q(i) scalar they run on,
``GaussianRational``.

The local symbols have references too: the ``Fraction`` splitting and the
per-pair Hilbert symbols that the integer local formulas and the closed forms
per place on squarefree kernels replaced, the residue loop of ``psi`` over
that splitting, which the residues read off the kernels replaced, and the
residue test per unit that the one Legendre symbol of ``_fp_class`` replaced;
the ``Fraction`` splitting is also the reference for the integer one,
``core._int_split``, and so is the loop that divided one power at a time,
which its repeated squaring replaced.  Square classes are checked against a
fresh factorization of their representative, and ``factor`` against plain
trial division.

The spectral certificate of ``compare_polarizations`` runs on integers; its
references are the ``Fraction`` loops it replaced: Faddeev-LeVerrier over
Q, Euclid's gcd and the squarefree part over Q, the Sturm chain of
remainders over Q and its sign counts, Horner's rule on ``Fraction``
matrices, and, for the rational roots that p-adic lifting finds, the scan
of divisor pairs that evaluates every candidate as a ``Fraction``.  The
``Fraction`` polynomial helpers those references use, and the rational
front ends of the integer gcd, squarefree part and value at a matrix, live
here too.  The certificate's g = gcd(p, p') is also checked
against the route that read it back through ``int_poly`` and divided every
term by it, and the first nonpositive leading minor against the field-loop
determinants of the leading blocks, and the LDL^T pivots against their
ratios and the pivot loop's square classes, and, past a zero leading minor,
its Witt class, signature and radical.  ``identity`` and ``hstack``
build the integer forms they built entry by entry and over the lcm of every
row pair.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from random import Random

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from wittpoint import poly
from wittpoint.core import (
    REAL_PLACE,
    CertificateError,
    SquareClass,
    SturmCertificate,
    factor,
    hilbert_symbol,
    is_prime,
    _int_split,
    _places_of,
    _sign_changes,
    legendre,
    relevant_places,
    residue_mod,
    square_class,
    sturm_positive_real_roots,
)
from wittpoint.cobordism import random_gram, random_nondegenerate_form
from wittpoint.forms import (
    RATIONAL,
    SKEW,
    BilinearForm,
    BlockMetabolicForm,
    Diagonalization,
    MetabolicReduction,
    Pivots,
    SymplecticReduction,
    _hasse_symbols,
    diagonalize,
    invariants,
    metabolic_reduce,
    pivots,
    radical_split,
    standard_symplectic_gram,
    symplectic_reduce,
)
from wittpoint.linalg import Mat, complement_in_kernel, extend_to_complement
from wittpoint.poly import (
    _content_free,
    int_poly,
    int_poly_at,
    int_poly_derivative,
    int_poly_quotient,
    int_poly_remainder,
    int_rational_roots,
    int_sturm_chain,
    poly_degree,
    poly_normalize,
)
from wittpoint.witt import WittClassFp, WittClassQ, _class_of_entries, _fp_class, fp_class_of, psi, witt_class_of
from test_forms import hasse_of_entries, replay, symmetric_from_lower, transvection

EXAMPLES = settings(max_examples=150, deadline=None)

# -- Q(i) scalars ---------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), the scalar of the Q(i) field loops."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _promote(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _promote(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _promote(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _promote(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(other.re / n, -other.im / n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)


def _promote(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x), Fraction(0))


QI_ZERO = GaussianRational(Fraction(0), Fraction(0))
QI_ONE = GaussianRational(Fraction(1), Fraction(0))


@dataclass
class QiMat:
    """A matrix over Q(i) as plain rows, for the Q(i) field loops: the
    kernel's ``Mat`` refuses a ``GaussianRational`` entry."""

    m: int
    n: int
    rows: list


def field_matrix(m: int, n: int, rows: list):
    """A ``Mat`` of rational rows, or a ``QiMat`` once an entry is in Q(i)."""
    if any(type(x) is GaussianRational for r in rows for x in r):
        return QiMat(m, n, rows)
    return Mat(m, n, rows)


def hstack(a, b):
    return field_matrix(a.m, a.n + b.n, [r + q for r, q in zip(a.rows, b.rows)])


def qi_diag(n: int, z):
    """z times the n x n identity over Q(i)."""
    return field_matrix(n, n, [[z if i == j else QI_ZERO for j in range(n)] for i in range(n)])


# -- Fraction polynomials -------------------------------------------------


def poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        q[k] = c
        if c:
            for j in range(len(b)):
                a[k + j] -= c * b[j]
    return poly_normalize(q), poly_normalize(a)


def poly_squarefree_part(p: list[Fraction]) -> list[Fraction]:
    """The monic squarefree part p / gcd(p, p'), as the Sturm certificate carries it."""
    r = sturm_positive_real_roots(p).squarefree_part
    return [Fraction(c, r[-1]) for c in r]


def poly_eval_matrix(p: list[Fraction], a: Mat) -> Mat:
    """p(a), by Horner's rule on the integer matrix of ``int_poly_at``."""
    p = poly_normalize(p)
    if not p:
        return Mat.zeros(a.m, a.n)
    e = lcm(*(c.denominator for c in p))
    s, acc = int_poly_at([int(c * e) for c in p], a)
    return Mat(a.m, a.n, [[Fraction(x, s * e) for x in row] for row in acc])


# -- references -----------------------------------------------------------


def ref_product(a: Mat, b: Mat) -> Mat:
    """The element-wise product over the entries' own fields."""
    out = []
    for r in a.rows:
        row = []
        for j in range(b.n):
            acc = None
            for k in range(a.n):
                term = r[k] * b.rows[k][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else Fraction(0))
        out.append(row)
    return field_matrix(a.m, b.n, out)


def ref_rref(a: Mat):
    """Gauss-Jordan over the field of the entries: Q, or Q(i) for ``GaussianRational``."""
    rows = [list(r) for r in a.rows]
    pivots = []
    r = 0
    for c in range(a.n):
        if r == a.m:
            break
        pivot = next((i for i in range(r, a.m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(a.m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return field_matrix(a.m, a.n, rows), pivots


def ref_det(a: Mat):
    rows = [list(r) for r in a.rows]
    d = Fraction(1)
    for c in range(a.n):
        pivot = next((i for i in range(c, a.n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = -d
        d = d * rows[c][c]
        for i in range(c + 1, a.n):
            if rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def ref_leading_minors(a: Mat) -> list[Fraction]:
    """The leading principal minors, each the field-loop determinant of its
    block, up to and including the first zero one."""
    minors = []
    for k in range(1, a.n + 1):
        minors.append(ref_det(a.submatrix(range(k), range(k))))
        if not minors[-1]:
            break
    return minors


def ref_first_nonpositive_minor(a: Mat):
    """(k, minor) for the first leading k-minor that is not positive, or None."""
    return next(((k, d) for k, d in enumerate(ref_leading_minors(a), 1) if d <= 0), None)


def first_nonpositive_minor(a: Mat):
    """(k, minor) as ``ref_first_nonpositive_minor`` gives it, read as the
    polarization check reads it: k off the signs of ``Mat.leading_minors``,
    and the minor as the determinant of the leading k x k block."""
    k = next((j for j, d in enumerate(a.leading_minors(), 1) if d <= 0), None)
    return k and (k, a.submatrix(range(k), range(k)).det())


def signs(values) -> list[int]:
    return [(x > 0) - (x < 0) for x in values]


def ref_nullspace(a: Mat) -> Mat:
    r, pivots = ref_rref(a)
    cols = []
    for f in (j for j in range(a.n) if j not in pivots):
        v = [Fraction(0)] * a.n
        v[f] = Fraction(1)
        for row, p in enumerate(pivots):
            v[p] = -r.rows[row][f]
        cols.append(v)
    return Mat.from_columns(cols, m=a.n)


def ref_solve(a: Mat, b: Mat):
    r, pivots = ref_rref(hstack(a, b))
    if any(p >= a.n for p in pivots):
        return None
    out = [[QI_ZERO if holds_qi(a, b) else Fraction(0)] * b.n for _ in range(a.n)]
    for row, p in enumerate(pivots):
        for j in range(b.n):
            out[p][j] = r.rows[row][a.n + j]
    return field_matrix(a.n, b.n, out)


def realify(a) -> Mat:
    """The rational 2m x 2n matrix of a Q(i) matrix: a + bi becomes [[a, -b], [b, a]].

    It multiplies as the complex matrix does, and column j of ``a`` is a
    pivot exactly when real columns 2j and 2j + 1 are, so the rank doubles
    and the rref particular solution of a realified system is the
    realification of the complex one.
    """
    rows = []
    for r in a.rows:
        r = [z if type(z) is GaussianRational else GaussianRational(z, Fraction(0)) for z in r]
        rows.append([y for z in r for y in (z.re, -z.im)])
        rows.append([y for z in r for y in (z.im, z.re)])
    return Mat(2 * a.m, 2 * a.n, rows)


def holds_qi(*mats) -> bool:
    return any(type(x) is GaussianRational for m in mats for r in m.rows for x in r)


def ref_qi_inv(a):
    ident = qi_diag(a.n, QI_ONE)
    x = ref_solve(a, ident)
    if x is None or ref_product(a, x) != ident:
        raise ValueError("matrix is singular")
    return x


def ref_extend_to_complement(base: Mat, candidates: Mat) -> list[int]:
    current, picked = base, []
    r = len(ref_rref(current)[1])
    for j in range(candidates.n):
        trial = current.hstack(Mat.from_columns([candidates.T.rows[j]], m=candidates.m))
        tr = len(ref_rref(trial)[1])
        if tr > r:
            picked.append(j)
            current, r = trial, tr
    return picked


def ref_primitive(vec):
    if all(x == 0 for x in vec):
        return list(vec)
    ints = [x * lcm(*(y.denominator for y in vec)) for x in vec]
    g = gcd(*(int(x) for x in ints))
    return [x / g for x in ints]


def ref_diagonalize(f: BilinearForm) -> Diagonalization:
    n = f.gram.n
    m = [list(r) for r in f.gram.rows]
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def add_multiple(i, j, c):
        basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[i] = row[i] + c * row[j]

    def swap(i, j):
        basis[i], basis[j] = basis[j], basis[i]
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def rescale(i, c):
        basis[i] = [c * a for a in basis[i]]
        m[i] = [c * a for a in m[i]]
        for row in m:
            row[i] = c * row[i]

    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if m[i][i] != 0), None)
        if pivot is None:
            off = next(((i, j) for i in range(k, n) for j in range(k, n) if j != i and m[i][j] != 0),
                       None)
            if off is None:
                break
            add_multiple(off[0], off[1], Fraction(1))
            pivot = off[0]
        if pivot != k:
            swap(k, pivot)
        d = m[k][k]
        for i in range(k + 1, n):
            if m[k][i] != 0:
                add_multiple(i, k, -m[k][i] / d)
        for i in range(k + 1, n):
            prim = ref_primitive(basis[i])
            scale = next((a / b for a, b in zip(prim, basis[i]) if b != 0), Fraction(1))
            if scale != 1:
                rescale(i, scale)
        k += 1
    congruence = Mat.from_columns(basis, m=n) if n else Mat.zeros(0, 0)
    return Diagonalization(entries=tuple(m[i][i] for i in range(k)), radical_dim=n - k,
                           congruence=congruence)


def ref_pivot_loop(f: BilinearForm) -> Diagonalization:
    """The integer pivot loop the Schur-complement step replaced: each
    cleared column i becomes |d| * column i - sign(d) * c * column k divided
    by its content, one ``combine`` per column, with its mirrored row and
    column operations on all n rows."""
    n = f.gram.n
    scale, gram = f.gram.integer_columns()
    m = [list(c) for c in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    def combine(i, a, j, b, primitive):
        col = [a * x + b * y for x, y in zip(basis[i], basis[j])]
        g = gcd(*col) if primitive else 1
        basis[i] = [x // g for x in col] if g > 1 else col
        m[i] = [(a * x + b * y) // g for x, y in zip(m[i], m[j])]
        for row in m:
            row[i] = (a * row[i] + b * row[j]) // g

    def swap(i, j):
        basis[i], basis[j] = basis[j], basis[i]
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    k = 0
    while k < n:
        pivot = next((i for i in range(k, n) if m[i][i] != 0), None)
        if pivot is None:
            off = next(((i, j) for i in range(k, n) for j in range(k, n) if j != i and m[i][j] != 0),
                       None)
            if off is None:
                break
            combine(off[0], 1, off[1], 1, primitive=False)
            pivot = off[0]
        if pivot != k:
            swap(k, pivot)
        d = m[k][k]
        sign = 1 if d > 0 else -1
        for i in range(k + 1, n):
            c = m[k][i]
            if c != 0:
                combine(i, abs(d), k, -sign * c, primitive=True)
        k += 1
    entries = tuple(Fraction(m[i][i], scale) for i in range(k))
    congruence = Mat(n, n, ints=[(1, [c[i] for c in basis]) for i in range(n)])
    return Diagonalization(entries=entries, radical_dim=n - k, congruence=congruence)


def ref_metabolic_reduce(block: BlockMetabolicForm) -> MetabolicReduction:
    g = block.assemble().gram
    k, m = block.isotropic_rank, block.s.gram.n
    moves = []

    def apply(alpha, p, q):
        nonlocal g
        e = transvection(g.n, alpha, p, q)
        g = ref_product(ref_product(e.T, g), e)
        moves.append((Fraction(alpha), p, q))

    for j in range(m):
        for l in range(k):
            if g[k + j, k + m + l]:
                apply(-g[k + j, k + m + l], l, k + j)
    for l in range(k):
        if g[k + m + l, k + m + l]:
            apply(-g[k + m + l, k + m + l] / 2, l, k + m + l)
        for i in range(l + 1, k):
            if g[k + m + l, k + m + i]:
                apply(-g[k + m + l, k + m + i], l, k + m + i)
    congruence = Mat.identity(g.n)
    for alpha, p, q in moves:
        congruence = ref_product(congruence, transvection(g.n, alpha, p, q))
    return MetabolicReduction(core=block.s, hyperbolic_count=k, transvections=tuple(moves),
                              congruence=congruence)


def ref_symplectic_reduce(f: BilinearForm) -> SymplecticReduction:
    """The per-pair loop the whole-matrix steps replaced: each pairing
    <u, w> as a product of two 1 x n matrices with the Gram, on ``Fraction``
    column lists; a u with no partner is set aside, after the pairs."""
    if f.symmetry != SKEW:
        raise ValueError("symplectic reduction requires a skew form")
    g = f.gram
    n = g.n

    def pair(u, v):
        return (Mat.from_columns([u], m=n).T * g * Mat.from_columns([v], m=n))[0, 0]

    remaining = Mat.identity(n).T.rows
    basis, radical = [], []
    while remaining:
        u = remaining.pop(0)
        j = next((t for t in range(len(remaining)) if pair(u, remaining[t]) != 0), None)
        if j is None:
            radical.append(u)
            continue
        v = remaining.pop(j)
        c = pair(u, v)
        v = [x / c for x in v]
        remaining = [[wi - pair(u, w) * vi + pair(v, w) * ui for wi, ui, vi in zip(w, u, v)]
                     for w in remaining]
        basis.extend([u, v])
    k, r = len(basis) // 2, len(radical)
    congruence = Mat.from_columns(basis + radical, m=n) if n else Mat.zeros(0, 0)
    if congruence.T * g * congruence != standard_symplectic_gram(k).direct_sum(Mat.zeros(r, r)):
        raise CertificateError("symplectic certificate failed: "
                               "P^T G P is not the standard symplectic Gram")
    return SymplecticReduction(hyperbolic_count=k, congruence=congruence)


def ref_factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division by 2 and every odd d
    with d^2 <= n, the loop ``factor`` replaced."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ref_p_adic_valuation(a: Fraction, p: int) -> int:
    if a == 0:
        raise ValueError("zero has no p-adic valuation")
    v = 0
    n = a.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = a.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


@dataclass(frozen=True)
class LocalUnitData:
    """p-adic splitting a = unit * p^valuation with the unit's residue mod p."""

    prime: int
    valuation: int
    unit: Fraction
    unit_residue: int


def ref_p_adic_split(a, p: int) -> LocalUnitData:
    """Split a nonzero rational as u * p^i with u a p-adic unit."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("zero has no p-adic splitting")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = ref_p_adic_valuation(a, p)
    unit = a / Fraction(p) ** v
    return LocalUnitData(prime=p, valuation=v, unit=unit, unit_residue=residue_mod(unit, p))


def ref_eps2(u: int) -> int:
    # (u - 1)/2 mod 2 for odd u
    return (u - 1) // 2 % 2


def ref_omega2(u: int) -> int:
    # (u^2 - 1)/8 mod 2 for odd u
    return (u * u - 1) // 8 % 2


def ref_hilbert_symbol(a, b, place) -> int:
    """The symbol from ``Fraction`` splittings, the primality of a prime place
    tested again in each splitting."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {place!r}")
    # replace by integers in the same square classes
    ai = a.numerator * a.denominator
    bi = b.numerator * b.denominator
    sa, sb = ref_p_adic_split(ai, p), ref_p_adic_split(bi, p)
    alpha, u = sa.valuation, sa.unit
    beta, v = sb.valuation, sb.unit
    if p == 2:
        # units mod 8 determine epsilon and omega
        u8 = (u.numerator * pow(u.denominator % 8, -1, 8)) % 8
        v8 = (v.numerator * pow(v.denominator % 8, -1, 8)) % 8
        e = ref_eps2(u8) * ref_eps2(v8) + alpha * ref_omega2(v8) + beta * ref_omega2(u8)
        return -1 if e % 2 else 1
    sign = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(sa.unit_residue, p)
    if alpha % 2:
        sign *= legendre(sb.unit_residue, p)
    return sign


def ref_hasse_of_entries(entries, places=None) -> dict:
    """prod_{i<j} (a_i, a_j)_v, one Hilbert symbol per pair and place."""
    entries = [Fraction(e) for e in entries]
    if places is None:
        places = relevant_places(entries) if entries else [2, REAL_PLACE]
    out = {}
    for v in places:
        s = 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                s *= ref_hilbert_symbol(entries[i], entries[j], v)
        out[v] = s
    return out


def ref_psi(entries, p: int, k: int) -> WittClassFp:
    """The residue loop of ``psi`` over ``Fraction`` splittings."""
    kept = []
    for e in entries:
        data = ref_p_adic_split(e, p)
        if data.valuation % 2 == k:
            kept.append(data.unit_residue)
    if p == 2:
        return WittClassFp.rank_parity(2, len(kept))
    return fp_class_of(kept, p)


def ref_class_of_entries(entries) -> WittClassQ:
    """The per-prime loop ``_class_of_entries`` replaced, one ``psi`` call per
    prime of the form, with ``psi``'s own reference in its place."""
    signature = sum(1 if e > 0 else -1 for e in entries)
    primes = set()
    for e in entries:
        primes.update(square_class(e).prime_support())
    residues = {p: ref_psi(entries, p, 1) for p in sorted(primes)}
    return WittClassQ.make(signature, residues)


def ref_charpoly(a: Mat) -> list[Fraction]:
    """Faddeev-LeVerrier over Q: M_1 = I, c = -tr(A M_k) / k, M_(k+1) = A M_k + c I."""
    n = a.n
    coeffs_desc = [Fraction(1)]
    m = Mat.identity(n)
    for k in range(1, n + 1):
        am = ref_product(a, m)
        c = -sum((am.rows[i][i] for i in range(n)), Fraction(0)) / k
        coeffs_desc.append(c)
        m = Mat(n, n, [[x + c if i == j else x for j, x in enumerate(r)]
                       for i, r in enumerate(am.rows)])
    return coeffs_desc[::-1]


def ref_poly_derivative(p):
    return poly_normalize([k * p[k] for k in range(1, len(p))])


def ref_poly_gcd(a, b):
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else a


def ref_squarefree_part(p):
    q, r = poly_divmod(p, ref_poly_gcd(p, ref_poly_derivative(p)))
    assert not r
    return [c / q[-1] for c in q]


def ref_sturm_chain(p):
    chain = [p, ref_poly_derivative(p)]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def ref_sign_variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s * t < 0)


def ref_variations_at_zero(chain) -> int:
    return ref_sign_variations([(q[0] > 0) - (q[0] < 0) if q else 0 for q in chain])


def ref_variations_at_inf(chain, sign: int) -> int:
    out = []
    for q in chain:
        s = (q[-1] > 0) - (q[-1] < 0) if q else 0
        out.append(s if sign > 0 else s * (-1) ** poly_degree(q))
    return ref_sign_variations(out)


def ref_sturm(coeffs) -> SturmCertificate:
    """The Sturm certificate over Q: the chains of the monic squarefree part."""
    p = poly_normalize(coeffs)
    if not p:
        raise ValueError("the zero polynomial has no Sturm certificate")
    squarefree = poly_degree(ref_poly_gcd(p, ref_poly_derivative(p))) <= 0
    q = ref_squarefree_part(p)
    distinct = poly_degree(q)
    if distinct == 0:
        return SturmCertificate(0, 0, 0, True, squarefree)
    chain_pos = ref_sturm_chain(poly_normalize(q[1:]) if q[0] == 0 else q)
    positive = ref_variations_at_zero(chain_pos) - ref_variations_at_inf(chain_pos, +1)
    chain = ref_sturm_chain(q)
    real = ref_variations_at_inf(chain, -1) - ref_variations_at_inf(chain, +1)
    return SturmCertificate(positive, real, distinct, real == distinct, squarefree)


def chain_counts(chain) -> tuple[int, int]:
    """The distinct roots in (0, inf) and in all of R that a Sturm chain
    counts, by its sign changes at 0, +inf and -inf."""
    at_inf = _sign_changes([t[-1] for t in chain])
    at_minus_inf = _sign_changes([t[-1] * (-1) ** (len(t) - 1) for t in chain])
    return _sign_changes([t[0] for t in chain]) - at_inf, at_minus_inf - at_inf


def two_sequence_sturm(coeffs) -> SturmCertificate:
    """The Sturm certificate by the route one chain replaced: gcd(p, p') as
    the last term of one remainder sequence, then a second sequence, the
    Sturm chain of the squarefree part p / gcd(p, p')."""
    p = int_poly(coeffs)
    if not p:
        raise ValueError("the zero polynomial has no Sturm certificate")
    a, b = p, int_poly_derivative(p)
    while b:
        a, b = b, int_poly_remainder(a, b)
    g = _content_free(a if a[-1] > 0 else [-c for c in a])
    q = int_poly_quotient(p, g)
    distinct = len(q) - 1
    if distinct == 0:
        return SturmCertificate(0, 0, 0, True, len(g) <= 1, q)
    chain = int_sturm_chain(q)
    positive, real = chain_counts(chain)
    return SturmCertificate(positive, real, distinct, real == distinct, len(g) <= 1, q)


def fraction_round_trip_sturm(coeffs) -> SturmCertificate:
    """The one-chain certificate as it was: the chain's last term made
    primitive through ``int_poly``'s Fraction route, and every term divided
    by it, also by g = 1."""
    p = int_poly(coeffs)
    if not p:
        raise ValueError("the zero polynomial has no Sturm certificate")
    chain = int_sturm_chain(p)
    g = int_poly(chain[-1])
    chain = [int_poly_quotient(t, g) for t in chain]
    positive, real = chain_counts(chain)
    distinct = len(chain[0]) - 1
    return SturmCertificate(positive, real, distinct, real == distinct, len(g) <= 1, chain[0])


def ref_identity_ints(n: int) -> list:
    """Mat.identity's integer form as it was built, entry by entry."""
    return [(1, [int(i == j) for j in range(n)]) for i in range(n)]


def ref_hstack_ints(a: Mat, b: Mat) -> list:
    """Mat.hstack's integer form as it was built: every joined row over the
    lcm of its two denominators."""
    out = []
    for (s, r), (t, q) in zip(a._ints, b._ints):
        d = lcm(s, t)
        out.append((d, [x * (d // s) for x in r] + [x * (d // t) for x in q]))
    return out


def ref_poly_eval_matrix(p, a: Mat) -> Mat:
    """Horner's rule on Fraction matrices."""
    acc = Mat.zeros(a.m, a.n)
    for c in reversed(p):
        acc = ref_product(acc, a) + Mat.identity(a.n).scale(c)
    return acc


def ref_divisors(n: int) -> list[int]:
    """The positive divisors of the nonzero n, from its factorization."""
    divs = [1]
    for prime, e in factor(abs(n)).items():
        divs = [d * prime**k for d in divs for k in range(e + 1)]
    return divs


def ref_rational_roots(p) -> list[Fraction]:
    """Every num/den with num | the lowest and den | the leading coefficient
    of the cleared polynomial, evaluated as a Fraction."""
    p = poly_normalize(p)
    if poly_degree(p) <= 0:
        return []
    denom = lcm(*(c.denominator for c in p))
    ints = [int(c * denom) for c in p]
    roots = [Fraction(0)] if ints[0] == 0 else []
    low = next(c for c in ints if c)
    for num in (s * d for d in ref_divisors(low) for s in (1, -1)):
        for den in ref_divisors(ints[-1]):
            cand = Fraction(num, den)
            if poly_eval(p, cand) == 0 and cand not in roots:
                roots.append(cand)
    return roots


def ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# -- strategies -----------------------------------------------------------

# zero often, so that rows, columns and diagonals vanish; small denominators
DENOMINATORS = st.sampled_from([1, 1, 1, 2, 3, 4, 6])
rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-6, 6), DENOMINATORS))
# nonzero, and positive, by construction: filtering ``rationals`` throws away
# about half the draws, which can trip Hypothesis's filter_too_much health check
positive_rationals = st.builds(Fraction, st.integers(1, 6), DENOMINATORS)
nonzero_rationals = st.builds(Fraction, st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6]),
                              DENOMINATORS)


gaussians = st.builds(GaussianRational, rationals, rationals)


@st.composite
def matrices(draw, m=None, n=None, entries=rationals, zero=Fraction(0), size=5):
    m = draw(st.integers(0, size)) if m is None else m
    n = draw(st.integers(0, size)) if n is None else n
    if draw(st.booleans()) and m and n:  # rank at most r < min(m, n)
        r = draw(st.integers(0, min(m, n) - 1))
        left = field_matrix(m, r, [[draw(entries) for _ in range(r)] for _ in range(m)])
        right = field_matrix(r, n, [[draw(entries) for _ in range(n)] for _ in range(r)])
        return ref_product(left, right) if r else field_matrix(m, n, [[zero] * n for _ in range(m)])
    return field_matrix(m, n, [[draw(entries) for _ in range(n)] for _ in range(m)])


def qi_matrices(m=None, n=None):
    """All-``GaussianRational`` ``QiMat``s (a ``Mat`` when empty); the
    realified ones are up to 8 x 8."""
    return matrices(m, n, entries=gaussians, zero=QI_ZERO, size=4)


@st.composite
def symmetric_forms(draw):
    """Block sums of <a>, hyperbolic [[0, b], [b, 0]] and [[a, b], [b, 0]]
    blocks plus a zero radical, optionally moved by an integer congruence so
    the blocks mix; a zero diagonal forces the off-diagonal pivot path."""
    blocks = draw(st.lists(st.sampled_from(["unit", "hyperbolic", "mixed", "zero"]), max_size=4))
    entries = []
    for kind in blocks:
        a, b = draw(rationals), draw(nonzero_rationals)
        entries.append({"unit": [[a]], "hyperbolic": [[0, b], [b, 0]],
                        "mixed": [[a, b], [b, 0]], "zero": [[0]]}[kind])
    n = sum(len(e) for e in entries)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for e in entries:
        for i, row in enumerate(e):
            for j, x in enumerate(row):
                rows[at + i][at + j] = Fraction(x)
        at += len(e)
    gram = Mat(n, n, rows)
    if draw(st.booleans()):
        p = Mat(n, n, [[Fraction(draw(st.integers(-2, 2))) for _ in range(n)] for _ in range(n)])
        if p.det():
            gram = p.T * gram * p
    return BilinearForm(RATIONAL, 1, gram)


@st.composite
def pivot_loop_forms(draw):
    """Symmetric Grams of order up to 13 over Q, integral or rational, with a
    zero diagonal (the off-diagonal pivot path) or degenerate, as Q^T G Q
    for a Q with fewer rows than columns."""
    n = draw(st.integers(0, 13))
    entries = rationals if draw(st.booleans()) else st.integers(-3, 3)
    zero_diagonal = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = 0 if i == j and zero_diagonal else draw(entries)
    gram = Mat(n, n, rows)
    if n and draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        q = Mat(r, n, [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(r)])
        gram = q.T * gram.submatrix(range(r), range(r)) * q
    return BilinearForm(RATIONAL, 1, gram)


@st.composite
def metabolic_blocks(draw):
    m = draw(st.integers(0, 3))
    k = draw(st.integers(0, 3))
    core = Mat.diag([draw(nonzero_rationals) for _ in range(m)])
    if m and draw(st.booleans()):
        p = Mat(m, m, [[Fraction(draw(st.integers(-2, 2))) for _ in range(m)] for _ in range(m)])
        if p.det():
            core = p.T * core * p
    # A and B built from Fraction rows, from int rows, or from their integer forms
    way = draw(st.sampled_from(("fraction rows", "int rows", "ints")))
    entries = st.integers(-6, 6) if way == "int rows" else rationals
    a = symmetric_from_lower(k, (draw(entries) for _ in range(k * (k + 1) // 2)))
    b = Mat(m, k, [[draw(entries) for _ in range(k)] for _ in range(m)])
    if way == "int rows":
        a, b = (Mat(x.m, x.n, [[int(e) for e in r] for r in x.rows]) for x in (a, b))
    elif way == "ints":
        a, b = (Mat(x.m, x.n, ints=ref_integer_form(x)) for x in (a, b))
    return BlockMetabolicForm(BilinearForm(RATIONAL, 1, core), a, b)


def same_entries(x: Mat, y: Mat) -> bool:
    # equal reprs: equal entries of equal types
    return x == y and repr(x) == repr(y)


def assert_refused(*mats):
    """The kernel refuses, when it is built, a ``Mat`` of the rows of any of
    ``mats`` that holds a Q(i) entry."""
    for x in mats:
        if holds_qi(x):
            with pytest.raises(TypeError, match="over Q, not on GaussianRational entries"):
                Mat(x.m, x.n, x.rows)


@st.composite
def factors(draw, entries=rationals):
    """A product's two factors, each dimension 0 to 4."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))
    a = field_matrix(m, k, [[draw(entries) for _ in range(k)] for _ in range(m)])
    b = field_matrix(k, n, [[draw(entries) for _ in range(n)] for _ in range(k)])
    return a, b


@st.composite
def mixed_factors(draw):
    """Rational factors with a ``GaussianRational`` put into one row of the
    left factor, one column of the right, or both; an imaginary part may be 0."""
    a, b = draw(factors())
    a_rows, b_rows = [list(r) for r in a.rows], [list(r) for r in b.rows]
    where = draw(st.sampled_from(["row", "column", "both"]))
    if where != "column" and a.m and a.n:
        i = draw(st.integers(0, a.m - 1))
        for j in draw(st.lists(st.integers(0, a.n - 1), min_size=1, max_size=3)):
            a_rows[i][j] = draw(gaussians)
    if where != "row" and b.m and b.n:
        j = draw(st.integers(0, b.n - 1))
        for i in draw(st.lists(st.integers(0, b.m - 1), min_size=1, max_size=3)):
            b_rows[i][j] = draw(gaussians)
    return field_matrix(a.m, a.n, a_rows), field_matrix(b.m, b.n, b_rows)


# mostly 0 and +-1, as in the products of the Hodge comparison, with some
# rationals over mixed denominators
sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                           st.sampled_from([Fraction(1), Fraction(-1)]), rationals)


@st.composite
def sparse_matrices(draw, m: int, n: int):
    """An m x n matrix of ``sparse_entries``, or, when drawn, the identity,
    a signed permutation (when square) or zero."""
    kind = draw(st.sampled_from(["entries", "entries", "identity", "permutation", "zero"]))
    if kind == "zero":
        return Mat.zeros(m, n)
    if m == n and kind == "identity":
        return Mat.identity(n)
    if m == n and kind == "permutation":
        perm = draw(st.permutations(range(n)))
        signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
        return Mat(n, n, [[Fraction(signs[i] * (j == perm[i])) for j in range(n)] for i in range(n)])
    return Mat(m, n, [[draw(sparse_entries) for _ in range(n)] for _ in range(m)])


@st.composite
def sparse_factors(draw):
    """A product's two sparse factors, each dimension 0 to 5."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(sparse_matrices(m, k)), draw(sparse_matrices(k, n))


@st.composite
def polynomials(draw):
    """Rational polynomials of degree up to 7, zero and constants included:
    free coefficients (trailing zeros too), or a nonzero multiple, of either
    sign, of linear factors with repeated roots and roots at 0 times
    quadratics t^2 + bt + c, some of them with non-real roots."""
    if draw(st.booleans()):
        return draw(st.lists(rationals, max_size=8))
    p = [draw(nonzero_rationals)]
    for root in draw(st.lists(st.sampled_from([0, 0, 1, 1, -1, 2, Fraction(1, 2),
                                               Fraction(-3, 2), 3]), max_size=5)):
        p = ref_poly_mul(p, [-Fraction(root), Fraction(1)])
    for _ in range(draw(st.integers(0, 1 if len(p) > 4 else 2))):
        b, c = draw(st.integers(-3, 3)), draw(st.integers(-2, 4))
        p = ref_poly_mul(p, [Fraction(c), Fraction(b), Fraction(1)])
    return p


@st.composite
def integer_polynomials(draw):
    """Nonzero integer polynomials of degree up to 9: an integer multiple, of
    either sign, of integer roots, distinct or repeated, times up to two
    t^2 + bt + c, some with non-real roots and some repeated."""
    p = [draw(st.sampled_from([1, -1, 2, -3, 6]))]
    roots = draw(st.lists(st.integers(-3, 4), max_size=5))
    if draw(st.booleans()):
        roots = list(dict.fromkeys(roots))
    factors = [[-r, 1] for r in roots]
    quadratic = [draw(st.integers(-2, 4)), draw(st.integers(-3, 3)), 1]
    factors += [quadratic] * draw(st.integers(0, 2))
    for f in factors:
        out = [0] * (len(p) + len(f) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(f):
                out[i + j] += x * y
        p = out
    return p


# nonzero rationals with p-adic valuations from -4 to 4 at the small primes
PLACE_PRIMES = (2, 3, 5, 7, 11, 13)
local_rationals = st.builds(
    lambda sign, num, den, p, e: Fraction(sign * num * p ** max(e, 0), den * p ** max(-e, 0)),
    st.sampled_from((1, -1)), st.integers(1, 10**4), st.integers(1, 500),
    st.sampled_from(PLACE_PRIMES), st.integers(-4, 4),
)
entry_lists = st.lists(local_rationals, max_size=6)
place_lists = st.lists(st.sampled_from(PLACE_PRIMES + (10007, REAL_PLACE)), unique=True, max_size=5)
NOT_PLACES = (0, 1, -3, 4, 9, 15, 2.0, "2", None)


# -- properties -----------------------------------------------------------


@EXAMPLES
@given(ab=factors(st.builds(Fraction, st.integers(-30, 30))))
def test_product_of_integral_matrices_matches_the_field_loop(ab):
    a, b = ab
    assert same_entries(a * b, ref_product(a, b))


@EXAMPLES
@given(ab=factors())
def test_product_of_rational_matrices_matches_the_field_loop(ab):
    a, b = ab
    assert same_entries(a * b, ref_product(a, b))


@EXAMPLES
@given(ab=factors(gaussians))
def test_product_of_qi_matrices_matches_the_field_loop(ab):
    # the kernel refuses Q(i) factors; their realifications multiply over Q
    # as the field loop multiplies over Q(i)
    a, b = ab
    assert_refused(a, b)
    assert same_entries(realify(a) * realify(b), realify(ref_product(a, b)))


@EXAMPLES
@given(ab=mixed_factors())
def test_product_of_mixed_matrices_matches_the_field_loop(ab):
    # one GaussianRational entry in either factor is refused
    a, b = ab
    if holds_qi(a, b):
        assert_refused(a, b)
    else:
        assert same_entries(a * b, ref_product(a, b))
    assert same_entries(realify(a) * realify(b), realify(ref_product(a, b)))


def test_product_edge_shapes():
    z = GaussianRational.of
    for m, k, n in [(0, 3, 2), (2, 3, 0), (2, 0, 3), (0, 0, 0), (0, 2, 0)]:
        a, b = Mat.zeros(m, k), Mat.zeros(k, n)
        assert same_entries(a * b, ref_product(a, b))
        a, b = (field_matrix(r, c, [[QI_ZERO] * c for _ in range(r)]) for r, c in ((m, k), (k, n)))
        if holds_qi(a, b):
            assert_refused(a, b)
        else:  # no entry reaches the kernel
            assert same_entries(a * b, ref_product(a, b))
    # an empty inner dimension gives Fraction(0)
    assert repr(Mat.zeros(2, 0) * Mat.zeros(0, 3)) == repr(Mat.zeros(2, 3))
    rows = [[Fraction(-1, 2), z(1, -1)], [Fraction(3), Fraction(0)]]
    with pytest.raises(TypeError, match="over Q"):
        Mat(2, 2, rows)
    a = QiMat(2, 2, rows)
    b = Mat(2, 1, [[Fraction(2, 3)], [Fraction(-5, 4)]])
    assert same_entries(realify(a) * realify(b), realify(ref_product(a, b)))
    with pytest.raises(ValueError, match="cannot multiply"):
        b * Mat.zeros(2, 1)


@EXAMPLES
@given(ab=sparse_factors())
def test_product_of_sparse_matrices_matches_the_field_loop(ab):
    # the row combinations skip zero entries and take a row of b itself for a
    # row of a whose only nonzero entry is 1; neither factor's integer form is
    # written, though the product may share b's rows
    a, b = ab
    before = [(d, list(r)) for d, r in a._ints], [(d, list(r)) for d, r in b._ints]
    product = a * b
    assert same_entries(product, ref_product(a, b))
    assert (a._ints, b._ints) == before
    assert same_entries(product * Mat.identity(b.n), product)
    assert same_entries(Mat.identity(a.m) * product, product)
    assert (a._ints, b._ints) == before


def test_rows_of_a_sparse_product_start_from_the_right_factor_unwritten():
    # rows of a whose first nonzero entry is 1 start from a row of b itself,
    # and later terms must not be added into it
    a = Mat.from_rows([[1, 1, 0], [0, 1, -1], [0, 0, 0], [0, 0, 1], [1, 1, 1], ["1/2", 0, 1]])
    for b in (Mat.from_rows([[1, 2, 0], [0, -1, 3], [4, 0, 0]]),
              Mat.from_rows([["1/2", 1, 0], [0, "-1/2", 3], [4, 0, "1/2"]])):
        before = [(d, list(r)) for d, r in b._ints]
        product = a * b
        assert same_entries(product, ref_product(a, b)) and b._ints == before
        assert product._ints[2] == (1, [0, 0, 0])
        # a row of I in a takes the row of b as it is when b's rows share one denominator
        assert product._ints[3][1] is b._ints[2][1]


@EXAMPLES
@given(a=matrices())
def test_rref_and_nullspace_match_the_field_loop(a):
    r, pivots = a.rref()
    ref_r, ref_pivots = ref_rref(a)
    assert pivots == ref_pivots
    assert same_entries(r, ref_r)
    assert a.rank() == len(ref_pivots)
    assert same_entries(a.nullspace(), ref_nullspace(a))


@EXAMPLES
@given(data=st.data())
def test_det_matches_the_field_loop(data):
    n = data.draw(st.integers(0, 5))
    a = data.draw(matrices(n, n))
    d = a.det()
    assert type(d) is Fraction
    assert d == ref_det(a)


@EXAMPLES
@given(data=st.data())
def test_solve_matches_the_field_loop(data):
    a = data.draw(matrices())
    cols = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):  # consistent by construction
        b = a * data.draw(matrices(a.n, cols))
    else:
        b = data.draw(matrices(a.m, cols))
    x, ref_x = a.solve(b), ref_solve(a, b)
    assert (x is None) == (ref_x is None)
    if x is not None:
        assert same_entries(x, ref_x)
        assert a * x == b


@EXAMPLES
@given(f=symmetric_forms())
def test_diagonalization_matches_the_field_loop(f):
    d = diagonalize(f)
    ref = ref_diagonalize(f)
    assert d == ref
    assert all(type(e) is Fraction for e in d.entries)
    assert same_entries(d.congruence, ref.congruence)


@EXAMPLES
@given(f=pivot_loop_forms())
def test_schur_step_matches_the_pivot_loop(f):
    # entries, radical_dim and congruence, with their types
    assert repr(diagonalize(f)) == repr(ref_pivot_loop(f))


@st.composite
def ldl_cases(draw):
    """A symmetric rational matrix of order 0 to 6 and its LDL^T pivots, or
    None where a leading minor is zero.  Half the draws are L diag(d) L^T for
    L unit lower triangular, whose pivots are d: a zero in d makes the leading
    minor at its place the first zero one.  The others have rational entries,
    and some are degenerate, Q^T G Q for a Q with fewer rows than columns;
    their pivots are ratios of the field-loop leading minors."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        d = [draw(rationals) for _ in range(n)]
        lower = Mat(n, n, [[Fraction(1) if i == j else draw(rationals) if j < i else Fraction(0)
                            for j in range(n)] for i in range(n)])
        return lower * Mat.diag(d) * lower.T, None if 0 in d else tuple(d)
    upper = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    gram = Mat(n, n, [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    if n and draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        q = Mat(r, n, [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(r)])
        gram = q.T * gram.submatrix(range(r), range(r)) * q
    minors = ref_leading_minors(gram)
    if 0 in minors:
        return gram, None
    return gram, tuple(b / a for a, b in zip([Fraction(1)] + minors, minors))


@EXAMPLES
@given(case=ldl_cases())
@example(case=(Mat.zeros(0, 0), ()))
@example(case=(Mat.from_rows([[Fraction(-3, 2)]]), (Fraction(-3, 2),)))
@example(case=(Mat.zeros(1, 1), None))
@example(case=(Mat.from_rows([[0, 1], [1, 0]]), None))
def test_ldl_pivots_give_the_diagonalization_classes(case):
    # where every leading minor is nonzero the pass makes no move, and,
    # position by position, each pivot has the square class of the entry the
    # pivot loop makes there; elsewhere it pivots (it returned None there),
    # and the Witt class, the signature and the radical agree
    gram, expected = case
    got = gram.ldl_pivots()
    assert all(type(e) is Fraction and e for e in got)
    diag = diagonalize(BilinearForm(RATIONAL, 1, gram))
    piv = Pivots(got, gram.n - len(got))
    assert (piv.signature(), piv.radical_dim) == (diag.signature(), diag.radical_dim)
    assert witt_class_of(BilinearForm.from_diagonal(got)) == witt_class_of(BilinearForm.from_diagonal(diag.entries))
    if expected is not None:
        assert got == expected and piv.classes == diag.classes
    kept = pivots(BilinearForm(RATIONAL, 1, gram))  # a fresh form, with no diagonalization kept
    assert (kept.entries, kept.radical_dim) == (got, piv.radical_dim)


def test_ldl_pivots_pivot_past_a_zero_leading_minor():
    # a zero first diagonal entry is swapped past; an all-zero diagonal takes
    # column and row j into i at the first nonzero (i, j), for the entry
    # 2 a_ij, and a zero trailing block is the radical
    cases = [([[0, 0], [0, 0]], ()), ([[1, 2], [2, 4]], (1,)), ([[0, 1], [1, 3]], (3, Fraction(-1, 3))),
             ([[0, 1], [1, 0]], (2, Fraction(-1, 2))), ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (2, Fraction(-1, 2))),
             ([[0, 2, 0], [2, 0, 0], [0, 0, 5]], (5, 4, -1)), ([[0, 0], [0, Fraction(1, 3)]], (Fraction(1, 3),))]
    for rows, expected in cases:
        assert Mat.from_rows(rows).ldl_pivots() == expected, rows


@EXAMPLES
@given(block=metabolic_blocks())
def test_metabolic_reduction_matches_the_full_products(block):
    red = metabolic_reduce(block)
    ref = ref_metabolic_reduce(block)
    assert red == ref
    assert same_entries(red.congruence, ref.congruence)
    assert all(type(alpha) is Fraction for alpha, _, _ in red.transvections)
    assert replay(red, block) == red.congruence.T * block.assemble().gram * red.congruence


def test_symplectic_reduction_matches_the_per_pair_loop():
    # seeded skew forms of rank 0 to 12: nondegenerate ones, some of them
    # scaled to rational Grams, and random skew Grams of every rank, with
    # entries in [-1, 1], so that many are degenerate
    forms = []
    for s in range(91):
        rng = Random(s)
        f = random_nondegenerate_form(rng, 2 * (s % 7), symmetry=SKEW, bound=1 + s % 3)
        forms.append(f.scaled(Fraction(rng.randint(1, 9), rng.randint(1, 9))) if s % 2 else f)
        forms.append(BilinearForm(RATIONAL, SKEW, random_gram(rng, s % 13, 1, SKEW)))
    degenerate = 0
    for f in forms:
        red = symplectic_reduce(f)
        assert repr(red) == repr(ref_symplectic_reduce(f)), f
        degenerate += 2 * red.hyperbolic_count < f.gram.n
    # every form is compared as a reduction, the degenerate ones with their radicals
    assert 10 <= degenerate <= 91


def test_kernel_edge_shapes():
    for m, n in [(0, 0), (0, 3), (3, 0)]:
        a = Mat.zeros(m, n)
        assert a.rref() == ref_rref(a)
        assert a.nullspace() == ref_nullspace(a)
    assert Mat.zeros(0, 0).det() == 1
    # negative, non-integral pivots and an all-zero diagonal
    a = Mat.from_rows([["-1/2", "3/4", 0], ["1/3", 0, "-5/6"], [0, "-2/7", 1]])
    assert a.rref() == ref_rref(a) and a.det() == ref_det(a)
    f = BilinearForm.from_rows([[0, "1/2", 0], ["1/2", 0, "-3"], [0, "-3", 0]])
    assert diagonalize(f) == ref_diagonalize(f)


@EXAMPLES
@given(data=st.data())
def test_realified_rank_and_solve_match_the_qi_field_loop(data):
    a = data.draw(qi_matrices())
    assert_refused(a)
    assert realify(a).rank() == 2 * len(ref_rref(a)[1])
    cols = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):  # consistent by construction
        b = ref_product(a, data.draw(qi_matrices(a.n, cols)))
    else:
        b = data.draw(qi_matrices(a.m, cols))
    assert_refused(b)
    x, ref_x = realify(a).solve(realify(b)), ref_solve(a, b)
    assert (x is None) == (ref_x is None)
    if x is not None:
        assert same_entries(x, realify(ref_x))


@EXAMPLES
@given(data=st.data())
def test_realified_inverse_matches_the_qi_field_loop(data):
    n = data.draw(st.integers(0, 4))
    a = data.draw(qi_matrices(n, n))
    assert_refused(a)
    try:
        ref = ref_qi_inv(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            realify(a).inv()
        return
    assert same_entries(realify(a).inv(), realify(ref))


def test_qi_elimination_runs_through_the_realification():
    z = GaussianRational.of
    a = QiMat(2, 2, [[z(1, 1), z(0, 2)], [z(1), z(1, 1)]])  # det = (1 + i)^2 - 2i = 0: rank 1
    assert realify(a).rank() == 2
    unit = QiMat(2, 2, [[z(0, 1), z(0)], [z(0), z(0, 1)]])
    assert realify(unit).inv() == realify(qi_diag(2, z(0, -1)))
    assert_refused(a, unit)


@st.composite
def symmetric_by_first_nonpositive_minor(draw):
    """A symmetric L D L^T with L unit lower triangular, whose leading
    k-minor is d_1 ... d_k, and the index of its first nonpositive leading
    minor (n when there is none), drawn first: zero, negative or absent."""
    n = draw(st.integers(1, 5))
    at = draw(st.integers(0, n))
    d = [draw(positive_rationals) for _ in range(at)]
    if at < n:
        d.append(draw(st.one_of(st.just(Fraction(0)), positive_rationals.map(lambda x: -x))))
        d += [draw(rationals) for _ in range(n - at - 1)]
    lower = Mat(n, n, [[Fraction(1) if i == j else draw(rationals) if j < i else Fraction(0)
                        for j in range(n)] for i in range(n)])
    return lower * Mat.diag(d) * lower.T, at


@EXAMPLES
@given(case=symmetric_by_first_nonpositive_minor())
def test_leading_minors_match_the_leading_block_determinants(case):
    # one integer per leading minor, of its sign, up to and including the
    # first zero; the first nonpositive one is the first leading block
    # determinant that is not positive
    a, at = case
    minors = list(a.leading_minors())
    blocks = [a.submatrix(range(k), range(k)).det() for k in range(1, a.n + 1)]
    assert all(type(d) is int for d in minors)
    assert signs(minors) == signs(ref_leading_minors(a)) == signs(blocks[:len(minors)])
    assert len(minors) == (blocks.index(0) + 1 if 0 in blocks else a.n)
    found = first_nonpositive_minor(a)
    assert found == next(((k, x) for k, x in enumerate(blocks, 1) if x <= 0), None)
    assert found == ref_first_nonpositive_minor(a)
    assert (found[0] - 1 if found else a.n) == at
    assert found is None or type(found[1]) is Fraction


@EXAMPLES
@given(data=st.data())
def test_extend_to_complement_matches_the_greedy_scan(data):
    base = data.draw(matrices())
    candidates = data.draw(matrices(base.m))
    assert extend_to_complement(base, candidates) == ref_extend_to_complement(base, candidates)


@EXAMPLES
@given(data=st.data())
def test_complement_in_kernel_matches_the_greedy_scan(data):
    # base in the span of the standard rref kernel basis K, or of I (no
    # differential): the bottom-up scan of base's kernel coordinates keeps
    # what the scan of [base | K] keeps, dependent base columns too
    a = data.draw(matrices())
    kernel = a.nullspace() if data.draw(st.booleans()) else Mat.identity(a.n)
    base = ref_product(kernel, data.draw(matrices(kernel.n)))
    assert complement_in_kernel(base, kernel) == ref_extend_to_complement(base, kernel)
    assert complement_in_kernel(base, kernel) == extend_to_complement(base, kernel)


def ref_unit_positions(a: Mat):
    """The row of each column's one entry 1 when the columns are distinct
    unit vectors, else None."""
    rows = []
    for col in ref_transpose(a).rows:
        nonzero = [(i, x) for i, x in enumerate(col) if x]
        if len(nonzero) != 1 or nonzero[0][1] != 1:
            return None
        rows.append(nonzero[0][0])
    return rows if len(set(rows)) == len(rows) else None


def ref_transpose(a: Mat) -> Mat:
    return field_matrix(a.n, a.m, [[a.rows[i][j] for i in range(a.m)] for j in range(a.n)])


@EXAMPLES
@given(data=st.data())
def test_unit_positions_match_the_columns(data):
    m = data.draw(st.integers(0, 5))
    picked = data.draw(st.permutations(range(m)))[:data.draw(st.integers(0, m))]
    units = Mat.identity(m).submatrix(range(m), picked)
    assert units.unit_positions() == picked == ref_unit_positions(units)
    a = data.draw(matrices(m))
    assert a.unit_positions() == ref_unit_positions(a)
    if m and picked:
        twice = units.hstack(units.submatrix(range(m), [0]))  # a column repeated
        assert twice.unit_positions() is None is ref_unit_positions(twice)
        assert units.scale(2).unit_positions() is None


@EXAMPLES
@given(a=matrices(), sign=st.sampled_from((1, -1)), data=st.data())
def test_signed_transpose_test_matches_the_transpose(a, sign, data):
    expected = ref_transpose(a) if sign == 1 else -ref_transpose(a)
    assert expected.is_signed_transpose(a, sign)
    b = data.draw(matrices(a.n, a.m))
    assert b.is_signed_transpose(a, sign) == (b == expected)
    if a.m and a.n:
        r, c = data.draw(st.integers(0, a.n - 1)), data.draw(st.integers(0, a.m - 1))
        moved = [list(row) for row in expected.rows]
        moved[r][c] += data.draw(rationals.filter(bool))
        assert not field_matrix(a.n, a.m, moved).is_signed_transpose(a, sign)
        assert not expected.is_signed_transpose(a, -sign) or a.is_zero()
    assert not Mat.zeros(a.n + 1, a.m).is_signed_transpose(a, sign)


# -- the integer form and the rows view ------------------------------------


def ref_integer_form(a: Mat) -> list:
    """Row by row, the lcm d of the denominators and the row times d."""
    out = []
    for r in a.rows:
        d = lcm(*(x.denominator for x in r))
        out.append((d, [int(x * d) for x in r]))
    return out


STATES = ("rows", "integers", "both")


def in_state(a: Mat, state: str) -> Mat:
    """A matrix equal to ``a``, built from rows, from its integer form, or
    from its integer form with the rows view read before use."""
    if state == "rows":
        return Mat(a.m, a.n, [list(r) for r in a.rows])
    x = Mat(a.m, a.n, ints=ref_integer_form(a))
    if state == "both":
        x.rows  # builds and keeps the rows view
    return x


@st.composite
def matrices_in_states(draw, m=None, n=None):
    """A plain-``Fraction`` reference and an equal matrix built in a drawn way."""
    a = draw(matrices(m, n))
    return a, in_state(a, draw(st.sampled_from(STATES)))


@EXAMPLES
@given(data=st.data())
def test_identity_and_hstack_build_the_integer_forms_they_built(data):
    # identity sets one 1 per row of zeros; hstack joins rows over a shared
    # denominator as they are and takes the lcm only where the two differ
    n = data.draw(st.integers(0, 6))
    assert Mat.identity(n)._ints == ref_identity_ints(n)
    a, x = data.draw(matrices_in_states())
    b = data.draw(st.sampled_from([a, -a, a.scale(Fraction(1, 2)), data.draw(matrices(a.m))]))
    y = in_state(b, data.draw(st.sampled_from(STATES)))
    assert x.hstack(y)._ints == ref_hstack_ints(x, y) == ref_integer_form(x.hstack(y))
    assert x.hstack(Mat.identity(a.m))._ints == ref_hstack_ints(x, Mat.identity(a.m))


def test_every_constructor_and_operation_holds_the_integer_form():
    rows = [[Fraction(1, 2), Fraction(0), Fraction(-3)], [Fraction(0)] * 3]
    a = Mat(2, 3, rows)
    s = Mat.from_rows([[1, "1/2"], ["-1/3", 0]])
    built = [a, Mat.from_rows(rows), Mat(2, 3, ints=ref_integer_form(a)), Mat.zeros(2, 3),
             Mat.zeros(0, 2), Mat.identity(2), Mat.diag(["1/2", 3, 0]), Mat.from_columns(a.T.rows, m=a.m),
             a + a, a - a, -a, a.scale("-2/3"), a.scale(0), s * a, a.T, Mat.zeros(0, 2).T,
             a.hstack(a), a.vstack(a), a.direct_sum(s), a.submatrix([1, 0], [2, 0]), a.rref()[0],
             a.nullspace(), a.column_space_basis(), *a.kernel_and_image(), s.solve(a), s.inv()]
    for x in built:
        assert x._ints == ref_integer_form(x), x
        assert all(type(e) is Fraction for r in x.rows for e in r), x
    assert a._ints == [(2, [1, 0, -6]), (1, [0, 0, 0])]
    # the rows view: made from the integer form, not the caller's lists, with
    # the same reprs as when a matrix held Fraction rows
    assert a.rows == rows and a.rows is not rows
    rows[0][0] = Fraction(7)  # a later write to the caller's list shows nowhere
    assert repr(a) == repr(-(-a)) and a[0, 0] == Fraction(1, 2)
    ints = Mat(1, 2, [[3, 1]])
    assert type(ints[0, 0] / 2) is Fraction and repr(ints) == repr(Mat.from_rows([[3, 1]]))
    assert repr(a) == repr(-(-a)) == "Mat(2x3, [[Fraction(1, 2), Fraction(0, 1), Fraction(-3, 1)], " \
        "[Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)]])"
    assert repr(a.submatrix([0], [2, 0])) == "Mat(1x2, [[Fraction(-3, 1), Fraction(1, 2)]])"
    assert repr(Mat.zeros(2, 0)) == "Mat(2x0, [[], []])"


@EXAMPLES
@given(data=st.data())
def test_products_of_either_form_match_the_field_loop(data):
    a, x = data.draw(matrices_in_states())
    b, y = data.draw(matrices_in_states(a.n))
    c, z = data.draw(matrices_in_states(b.n))
    assert same_entries(x * y, ref_product(a, b))
    assert same_entries(x * y * z, ref_product(ref_product(a, b), c))


@EXAMPLES
@given(data=st.data())
def test_eliminations_of_either_form_match_the_field_loop(data):
    a, x = data.draw(matrices_in_states())
    r, pivots = x.rref()
    ref_r, ref_pivots = ref_rref(a)
    assert pivots == ref_pivots and same_entries(r, ref_r)
    assert same_entries(in_state(a, data.draw(st.sampled_from(STATES))).nullspace(), ref_nullspace(a))
    b, y = data.draw(matrices_in_states(a.m, data.draw(st.integers(0, 2))))
    solution, ref_solution = x.solve(y), ref_solve(a, b)
    assert (solution is None) == (ref_solution is None)
    if solution is not None:
        assert same_entries(solution, ref_solution)


@EXAMPLES
@given(data=st.data())
def test_determinants_and_minors_of_either_form_match_the_field_loop(data):
    n = data.draw(st.integers(0, 5))
    a, x = data.draw(matrices_in_states(n, n))
    assert x.det() == ref_det(a)
    y = in_state(a, data.draw(st.sampled_from(STATES)))
    assert signs(y.leading_minors()) == signs(ref_leading_minors(a))
    assert first_nonpositive_minor(y) == ref_first_nonpositive_minor(a)


@EXAMPLES
@given(data=st.data())
def test_equality_and_row_builders_of_either_form_match_fraction_rows(data):
    a, x = data.draw(matrices_in_states())
    if a.m and a.n and data.draw(st.booleans()):  # equal but for one entry, or equal
        i, j = data.draw(st.integers(0, a.m - 1)), data.draw(st.integers(0, a.n - 1))
        rows = [list(r) for r in a.rows]
        rows[i][j] = data.draw(rationals)
        b = Mat(a.m, a.n, rows)
    else:
        b = data.draw(st.sampled_from([a, Mat.zeros(a.m, a.n), data.draw(matrices(a.m, a.n))]))
    y = in_state(b, data.draw(st.sampled_from(STATES)))
    assert (x == y) == (a.rows == b.rows) == (y == x)
    assert (x != y) == (a.rows != b.rows)
    assert x.is_zero() == all(not e for r in a.rows for e in r)
    assert same_entries(-x, Mat(a.m, a.n, [[-e for e in r] for r in a.rows]))
    assert same_entries(x.T, Mat(a.n, a.m, [list(c) for c in zip(*a.rows)]) if a.m else Mat.zeros(a.n, 0))
    assert same_entries(x.hstack(y), Mat(a.m, 2 * a.n, [r + q for r, q in zip(a.rows, b.rows)]))
    assert same_entries(x.vstack(y), Mat(2 * a.m, a.n, a.rows + b.rows))
    rows = [i for i in range(a.m) if data.draw(st.booleans())]
    cols = [j for j in range(a.n) if data.draw(st.booleans())]
    assert same_entries(x.submatrix(rows, cols), Mat(len(rows), len(cols), [[a.rows[i][j] for j in cols] for i in rows]))


@EXAMPLES
@given(a=local_rationals, b=local_rationals, place=st.sampled_from(PLACE_PRIMES + (10007, REAL_PLACE)))
def test_local_symbols_match_the_fraction_splitting(a, b, place):
    assert hilbert_symbol(a, b, place) == ref_hilbert_symbol(a, b, place)
    if place != REAL_PLACE:
        ref = ref_p_adic_split(a, place)
        (vn, un), (vd, ud) = (_int_split(n, place) for n in (a.numerator, a.denominator))
        assert (vn - vd, Fraction(un, ud)) == (ref.valuation, ref.unit)


@EXAMPLES
@given(entries=entry_lists, places=st.one_of(st.none(), place_lists))
def test_hasse_of_entries_matches_the_per_pair_symbols(entries, places):
    assert hasse_of_entries(entries, places) == ref_hasse_of_entries(entries, places)


@EXAMPLES
@given(entries=st.lists(local_rationals, min_size=2, max_size=5), places=place_lists,
       bad=st.sampled_from(NOT_PLACES), at=st.integers(0, 5))
def test_hasse_of_entries_rejects_a_non_place_as_before(entries, places, bad, at):
    places = places[:at] + [bad] + places[at:]
    with pytest.raises(ValueError) as ref:
        ref_hasse_of_entries(entries, places)
    with pytest.raises(ValueError) as got:
        hasse_of_entries(entries, places)
    assert str(got.value) == str(ref.value)


@EXAMPLES
@given(entries=entry_lists, p=st.sampled_from((2, 5, 13, 3, 7, 11)), k=st.sampled_from((0, 1)))
def test_psi_matches_the_fraction_splitting(entries, p, k):
    assert psi(entries, p, k) == ref_psi(entries, p, k)


# local rationals times a prime past the trial divisors at exponent -3 to 3
# and a square or a sign
wide_rationals = st.builds(
    lambda e, p, k, q: e * Fraction(p) ** k * q,
    local_rationals, st.sampled_from((3, 1009, 10007, 99991)), st.integers(-3, 3),
    st.sampled_from((1, 4, Fraction(1, 9), -1)),
)


@EXAMPLES
@given(entries=st.lists(wide_rationals, max_size=6), shared=st.lists(local_rationals, max_size=3),
       pad=st.integers(0, 2))
def test_class_of_entries_matches_the_per_prime_psi_loop(entries, shared, pad):
    # entries times shared factors share their primes; p = 2, negative and
    # non-integral entries and even exponents all come from local_rationals;
    # the residues are read off the squarefree kernels, +-1 padding included
    entries = entries + [e * s for e in entries[:2] for s in shared] + [Fraction(1), Fraction(-1)] * pad
    got = _class_of_entries(entries, [square_class(e) for e in entries])
    assert repr(got) == repr(ref_class_of_entries(entries))


@EXAMPLES
@given(data=st.data(), entries=entry_lists, pad=st.integers(0, 2), places=st.one_of(st.none(), place_lists))
def test_closed_form_hasse_symbols_match_the_per_pair_symbols(data, entries, pad, places):
    # on the squarefree kernels, with +-1 hyperbolic padding mixed in;
    # local_rationals give p = 2, valuations up to 4 and fractions, and a drawn
    # list of places can hold primes, 10007 always, that divide no class
    entries = data.draw(st.permutations(entries + [Fraction(1), Fraction(-1)] * pad))
    classes = [square_class(e) for e in entries]
    if places is None:
        places = _places_of(classes)
    ref = list(ref_hasse_of_entries(entries, places).items())
    assert list(_hasse_symbols(classes, places).items()) == ref


def ref_fp_class(units, p: int) -> WittClassFp:
    """The class of <units> in W(F_p), p odd, from one residue test per unit."""
    nonresidues = sum(1 for u in units if legendre(u, p) == -1)
    if p % 4 == 3:
        return WittClassFp(p, (len(units) - 2 * nonresidues) % 4)
    return WittClassFp(p, (len(units) % 2, nonresidues % 2 == 0))


@EXAMPLES
@given(data=st.data(), p=st.sampled_from((3, 5, 7, 13, 10007, 99991)))
def test_fp_class_matches_one_residue_test_per_unit(data, p):
    # _fp_class reads the units' number and product, which need not be reduced
    # mod p; a product 0 mod p is refused, as a unit 0 mod p was
    units = data.draw(st.lists(st.integers(1, p - 1), max_size=8))
    lifts = [u + p * data.draw(st.integers(-3, 3)) for u in units]
    assert repr(_fp_class(len(lifts), prod(lifts), p)) == repr(ref_fp_class(units, p))
    with pytest.raises(ValueError, match="zero is neither residue nor nonresidue"):
        _fp_class(len(units) + 1, p * prod(units), p)


@EXAMPLES
@given(f=symmetric_forms())
def test_invariants_hasse_matches_the_per_pair_symbols(f):
    f = radical_split(f).nondegenerate
    entries = diagonalize(f).entries
    assert list(invariants(f).hasse.items()) == list(ref_hasse_of_entries(entries).items())


@EXAMPLES
@given(data=st.data(), values=st.lists(st.one_of(local_rationals, wide_rationals), max_size=6))
def test_square_class_product_is_the_fold_of_products(data, values):
    # repeated primes come from repeated and shared values, negative entries
    # from a drawn sign; none gives the unit class
    values = data.draw(st.permutations(values + values[:2] + [-v for v in values[2:3]]))
    classes = [square_class(v) for v in values]
    got = SquareClass.product(classes)
    fold = SquareClass(1)
    for c in classes:
        fold = fold * c
    assert got == fold == square_class(prod(values, start=Fraction(1)))
    assert got._primes == fold._primes == SquareClass(got.representative)._primes
    assert repr(got) == repr(fold) and hash(got) == hash(fold)
    assert (SquareClass.product(()), SquareClass.product(iter(classes))) == (SquareClass(1), got)


@EXAMPLES
@given(a=local_rationals, b=local_rationals)
def test_square_class_products_carry_the_primes_of_their_representative(a, b):
    assert square_class(a) * square_class(b) == square_class(a * b)
    assert -square_class(a) == square_class(-a)
    for c in (square_class(a) * square_class(b), -square_class(a), square_class(a)):
        fresh = SquareClass(c.representative)
        assert c._primes == fresh._primes
        assert repr(c) == f"SquareClass(representative={c.representative})" == repr(fresh)
        assert c == fresh and hash(c) == hash(fresh)


def test_square_class_equality_and_hash_ignore_the_primes():
    c = square_class(Fraction(-50, 3))
    assert repr(c) == "SquareClass(representative=-6)"
    tampered = SquareClass(-6)
    object.__setattr__(tampered, "_primes", frozenset({7}))
    assert tampered == c and hash(tampered) == hash(c) == hash(SquareClass(-6))
    assert repr(tampered) == repr(c)


def test_factor_matches_trial_division_up_to_10_12():
    # uniform n, and n whose cofactor after trial division is composite, so
    # that rho splits it: products of two primes in (10^3, 10^6), squares and
    # cubes of primes in (10^3, 10^4)
    rng = Random(20261018)

    def prime(lo, hi):
        while not is_prime(p := rng.randrange(lo, hi)):
            pass
        return p

    cases = [rng.randrange(1, 10**12) for _ in range(30)]
    cases += [prime(10**3, 10**6) * prime(10**3, 10**6) for _ in range(30)]
    cases += [rng.randrange(1, 10**4) * prime(10**3, 10**4) ** 2 for _ in range(20)]
    cases += [prime(10**3, 10**4) ** 3 for _ in range(10)]
    assert max(cases) <= 10**12
    for n in cases:
        got = factor(n)
        assert got == ref_factor(n), n
        assert list(got) == sorted(got)
        assert factor(-n) == got


def one_power_at_a_time(n: int, p: int) -> tuple[int, int]:
    """(valuation, unit) of n at p by dividing by p while it divides, the
    loop ``_int_split`` replaced."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@EXAMPLES
@given(unit=st.integers(1, 10**4), sign=st.sampled_from((1, -1)),
       powers=st.dictionaries(st.sampled_from((2, 3, 5, 7, 991, 997)), st.integers(1, 300), max_size=3))
def test_valuations_by_repeated_squaring_match_one_power_at_a_time(unit, sign, powers):
    n = sign * unit * prod(p**e for p, e in powers.items())
    expected = ref_factor(unit)
    for p, e in powers.items():
        expected[p] = expected.get(p, 0) + e
    for p in expected:
        assert _int_split(n, p) == one_power_at_a_time(n, p), p
    assert factor(n) == dict(sorted(expected.items()))


def test_a_prime_power_takes_logarithmically_many_divisions():
    # 2^14000 has 4,215 digits, under the int-string limit; one division per
    # power took 0.049 s on it, and 3.5 s on the split of 3^100000 at 3
    assert factor(2**14000) == {2: 14000}
    assert factor(-3 * 2**14000 * 997**50) == {2: 14000, 3: 1, 997: 50}
    start = time.process_time()
    assert _int_split(2 * 3**100000, 3) == (100000, 2)
    assert time.process_time() - start < 1


# -- the spectral certificate --------------------------------------------


def same_list(x: list, y: list) -> bool:
    return x == y and [type(c) for c in x] == [type(c) for c in y]


@EXAMPLES
@given(data=st.data())
def test_charpoly_matches_faddeev_leverrier_over_q(data):
    n = data.draw(st.integers(0, 5))
    a = data.draw(matrices(n, n))
    assert same_list(a.charpoly(), ref_charpoly(a))


@EXAMPLES
@given(p=polynomials())
def test_sturm_certificate_matches_the_chain_over_q(p):
    if not poly_normalize(p):
        for certify in (sturm_positive_real_roots, ref_sturm):
            with pytest.raises(ValueError, match="zero polynomial"):
                certify(p)
        return
    assert sturm_positive_real_roots(p) == ref_sturm(p)
    # each term of the integer chain is a positive multiple of the term over
    # Q, for p, which the certificate runs it on, and for its squarefree part
    p = poly_normalize(p)
    for monic in ([c / p[-1] for c in p], ref_squarefree_part(p)):
        chain, ref = int_sturm_chain(int_poly(monic)), ref_sturm_chain(monic)
        assert len(chain) == len(ref) - (poly_degree(monic) == 0)  # no zero derivative
        for z, f in zip(chain, ref):
            ratio = Fraction(z[-1]) / f[-1]
            assert ratio > 0 and [Fraction(c) for c in z] == [ratio * c for c in f]


@EXAMPLES
@given(values=st.lists(st.integers(-3, 3), max_size=8))
def test_sign_changes_count_the_nonzero_neighbours_of_opposite_sign(values):
    assert _sign_changes(values) == ref_sign_variations([(x > 0) - (x < 0) for x in values])


def certificate_or_error(certify, coeffs) -> tuple:
    """Every field of the certificate, squarefree_part too, with its type, or
    the type and message of the exception."""
    try:
        cert = certify(coeffs)
    except Exception as exc:
        return type(exc), str(exc)
    return type(cert), [(name, type(value), value) for name, value in sorted(vars(cert).items())]


@EXAMPLES
@given(p=st.one_of(integer_polynomials(), polynomials()))
def test_sturm_certificate_matches_the_fraction_round_trip_route(p):
    # g is made primitive on integers, and with g = 1 no term is divided:
    # every field and its type, the radical too, are what they were
    assert certificate_or_error(sturm_positive_real_roots, p) == certificate_or_error(fraction_round_trip_sturm, p)
    if poly_normalize(p):
        cert = sturm_positive_real_roots(p)
        assert cert.squarefree == (cert.squarefree_part == int_poly(p))


@EXAMPLES
@given(p=st.one_of(polynomials(), st.lists(st.sampled_from([0, 1, -2, "1/2", "x", None]), max_size=3)))
def test_one_chain_certificate_matches_the_two_sequence_route(p):
    # repeated roots, multiple roots at 0, constants, negative leading
    # coefficients and Fraction coefficients come from polynomials(); the
    # zero polynomial and entries Fraction refuses raise as before
    assert certificate_or_error(sturm_positive_real_roots, p) == certificate_or_error(two_sequence_sturm, p)


@EXAMPLES
@given(p=polynomials().filter(poly_normalize), shared=polynomials().filter(poly_normalize))
def test_gcd_and_squarefree_part_match_euclid_over_q(p, shared):
    # the Sturm chain of p ends in gcd(p, p'), and dividing by it gives the
    # squarefree part and a quotient of every term of the chain
    p = poly_normalize(p)
    z = int_poly(p)
    chain = int_sturm_chain(z)
    last = chain[-1]
    assert [Fraction(c, last[-1]) for c in last] == ref_poly_gcd(p, ref_poly_derivative(p))
    g = int_poly(last)
    q = int_poly_quotient(z, g)
    assert [Fraction(c, q[-1]) for c in q] == ref_squarefree_part(p)
    for t in chain:
        assert ref_poly_mul(int_poly_quotient(t, g), g) == t
    # an exact quotient of any product, and a non-divisor fails the certificate
    d = int_poly(shared)
    assert int_poly_quotient(int_poly(ref_poly_mul(shared, p)), d) == z
    if poly_divmod(p, poly_normalize(shared))[1]:
        with pytest.raises(CertificateError, match="does not divide p"):
            int_poly_quotient(z, d)


@EXAMPLES
@given(data=st.data())
def test_poly_eval_matrix_matches_horner_over_q(data):
    n = data.draw(st.integers(0, 4))
    a = data.draw(matrices(n, n, size=4))
    p = data.draw(polynomials())
    assert same_entries(poly_eval_matrix(p, a), ref_poly_eval_matrix(p, a))


@EXAMPLES
@given(p=polynomials())
def test_rational_roots_match_the_fraction_scan(p):
    if not poly_normalize(p):
        return
    # p and its radical have the same roots, and each is lifted from the
    # radical its own certificate holds
    radical = ref_squarefree_part(poly_normalize(p))
    for q in (radical, p):
        assert same_list(int_rational_roots(sturm_positive_real_roots(q)), sorted(ref_rational_roots(q)))


def test_rational_roots_by_lifting_edge_cases():
    def roots(p):
        return int_rational_roots(sturm_positive_real_roots(p))

    # B = 2 and q = 3: the root 2 is read back only mod 9 > 2 B^2
    assert same_list(roots([-2, 1]), [Fraction(2)])
    # 3 divides the leading coefficient, so q = 5
    assert same_list(roots([-1, 3]), [Fraction(1, 3)])
    # the root 0 taken off: B = 5 is read off t - 5, not t^2 - 5 t
    assert same_list(roots([0, -5, 1]), [Fraction(0), Fraction(5)])
    # t^2 + 2 has the roots 4 and 5 mod 9, which read back as -1/2 and 1/2
    assert roots([2, 0, 1]) == []
    # 2 and 5 are one double root mod 3, so q = 5
    assert same_list(roots([10, -7, 1]), [Fraction(2), Fraction(5)])
    # a certificate with no squarefree part, and a constant, have no roots
    assert int_rational_roots(SturmCertificate(0, 0, 0, True, True)) == [] == roots([7])


def test_spectral_certificate_edge_cases(monkeypatch):
    assert Mat.zeros(0, 0).charpoly() == [Fraction(1)]
    one = Mat.from_rows([["-7/3"]])
    assert same_list(one.charpoly(), [Fraction(7, 3), Fraction(1)])
    assert same_entries(poly_eval_matrix([7, 3], one), Mat.from_rows([[0]]))
    assert same_entries(poly_eval_matrix([], one), Mat.zeros(1, 1))
    # a constant is squarefree with no roots, whatever its sign
    for c in ([5], ["-1/2"], [3, 0, 0]):
        assert sturm_positive_real_roots(c) == ref_sturm(c) == SturmCertificate(0, 0, 0, True, True)
        assert poly_squarefree_part(c) == [Fraction(1)] and int_rational_roots(sturm_positive_real_roots(c)) == []
    # negative leading coefficient, a double root at 0 and a double root at 2
    p = ["0", "0", "-4", "4", "-1"]
    assert sturm_positive_real_roots(p) == ref_sturm(p) == SturmCertificate(1, 2, 2, True, False)
    assert int_poly(p) == [0, 0, 4, -4, 1]
    for q in (p, ref_squarefree_part(poly_normalize(p))):
        assert int_rational_roots(sturm_positive_real_roots(q)) == [0, 2]
    # a last chain term that does not divide p, or a chain term the last one
    # does not divide, fails the certificate, not the input
    chain = int_sturm_chain
    for corrupted in (lambda p: [p, [1, 1]], lambda p: chain(p)[:1] + [[1, 0, 1]] + chain(p)[1:]):
        monkeypatch.setattr(poly, "int_sturm_chain", corrupted)
        for route in (sturm_positive_real_roots, poly_squarefree_part):
            with pytest.raises(CertificateError, match="^squarefree certificate failed: gcd\\(p, p'\\) does not divide p$"):
                route([2, -3, 0, 1])
    monkeypatch.undo()
    with pytest.raises(TypeError, match="over Q"):
        Mat(1, 1, [[QI_ONE]]).charpoly()



def test_horner_of_degree_0_and_1_matches_the_reference():
    # degree 0 returns q_0 * I with no product; degree 1 starts Horner at
    # q_1 * (d * a) and takes no product at all
    for a in (Mat.zeros(0, 0), Mat.from_rows([[0]]), Mat.from_rows([[5]]), Mat.from_rows([["-7/3"]])):
        d = a.integer_columns()[0]
        for q in ([3], [-2], [0, 1], [4, -6], [-1, 3], [0, 0, 2]):
            scale, value = int_poly_at(q, a)
            assert scale == d ** (len(q) - 1)
            got = Mat(a.m, a.n, [[Fraction(x, scale) for x in row] for row in value])
            assert same_entries(got, ref_poly_eval_matrix(q, a))


@EXAMPLES
@given(data=st.data())
def test_charpoly_and_horner_write_no_cached_column_or_row(data):
    # both add constants to the diagonal of rows they built themselves, never
    # to a cached column or to a row of the integer form
    n = data.draw(st.integers(0, 4))
    a = data.draw(st.one_of(matrices(n, n, size=4), sparse_matrices(n, n)))
    q = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(lambda q: q[-1]))
    d, cols = a.integer_columns()
    before = [tuple(c) for c in cols], [(s, list(r)) for s, r in a._ints]
    char, value = a.charpoly(), int_poly_at(q, a)
    assert a.integer_columns() == (d, before[0]) and a.integer_columns()[1] is cols
    assert a._ints == before[1]
    assert (a.charpoly(), int_poly_at(q, a)) == (char, value)
    assert same_list(char, ref_charpoly(a))


@EXAMPLES
@given(entries=st.lists(nonzero_rationals, max_size=6), f=symmetric_forms())
def test_signature_counts_the_signs_the_fraction_comparisons_count(entries, f):
    def ref_signature(es):
        return sum(1 for e in es if e > 0), sum(1 for e in es if e < 0)

    assert Diagonalization(tuple(entries), 0, Mat.identity(len(entries))).signature() == ref_signature(entries)
    diag = diagonalize(f)
    assert diag.signature() == ref_signature(diag.entries)
