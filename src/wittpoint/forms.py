"""Epsilon-symmetric bilinear forms over Q.

Diagonalization (one certified integer pivot loop), the pivots a Witt class
reads (the certified LDL^T pivots of one symmetrically pivoted Bareiss
pass, or a diagonal Gram's own entries), the classical invariant
system (rank, signature, discriminant, Hasse symbols), radical splitting,
symplectic reduction of skew forms, and the block-metabolic reduction that
splits hyperbolic planes off a form written against a half-rank isotropic
subspace.  W(F_p) enters only as the target of the residue maps, which the
witt module reads off the diagonal entries over Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .core import (
    REAL_PLACE,
    CertificateError,
    Frozen,
    SquareClass,
    _places_of,
    legendre,
    square_class,
)
from .linalg import Mat, _fraction, _symmetric_pivot, extend_to_complement

RATIONAL = "Q"

SYMMETRIC = 1
SKEW = -1


def _fields_of(record) -> dict:
    """A record's fields, without what its ``__dict__`` keeps beside them."""
    return {name: record.__dict__[name] for name in record._fields}


class BilinearForm(Frozen):
    """An epsilon-symmetric bilinear form over Q given by its Gram matrix.

    ``field`` is always ``"Q"`` (``RATIONAL``): Witt classes over F_p are
    read off rational diagonal entries by the residue maps of the witt
    module, not built as forms.  ``symmetry`` is +1 (symmetric) or -1 (skew).
    """

    def __init__(self, field, symmetry: int, gram: Mat):
        if field != RATIONAL:
            raise ValueError('forms are defined over Q: field must be "Q"')
        if symmetry not in (SYMMETRIC, SKEW):
            raise ValueError("symmetry must be +1 or -1")
        if gram.m != gram.n:
            raise ValueError("Gram matrix must be square")
        if not gram.is_signed_transpose(gram, symmetry):
            raise ValueError("Gram matrix does not match the declared symmetry")
        self.__dict__.update(field=field, symmetry=symmetry, gram=gram)

    def __getstate__(self):
        # the fields alone: the diagonalization kept in __dict__ is never pickled
        return _fields_of(self)

    @property
    def is_symmetric(self) -> bool:
        return self.symmetry == SYMMETRIC

    @staticmethod
    def from_diagonal(entries) -> "BilinearForm":
        return BilinearForm(RATIONAL, SYMMETRIC, Mat.diag(entries))

    @staticmethod
    def from_rows(rows, symmetry=SYMMETRIC) -> "BilinearForm":
        return BilinearForm(RATIONAL, symmetry, Mat.from_rows(rows))

    def direct_sum(self, other: "BilinearForm") -> "BilinearForm":
        if self.symmetry != other.symmetry:
            raise ValueError("direct sum needs matching symmetry")
        return BilinearForm(self.field, self.symmetry, self.gram.direct_sum(other.gram))

    def congruent_by(self, p: Mat) -> "BilinearForm":
        """The form with Gram matrix P^T G P (same class, new basis)."""
        return BilinearForm(self.field, self.symmetry, p.T * self.gram * p)

    def scaled(self, c) -> "BilinearForm":
        return BilinearForm(self.field, self.symmetry, self.gram.scale(c))

    def restrict(self, basis: Mat) -> "BilinearForm":
        return BilinearForm(self.field, self.symmetry, basis.T * self.gram * basis)

    def is_nondegenerate(self) -> bool:
        return bool(self.gram.det())


class Pivots(Frozen):
    """Nonzero entries d and a radical dimension r such that a symmetric form
    is congruent to diag(d, 0...0), with r zeros: the pivots of a pivoted
    LDL^T pass on its Gram matrix, or the entries of a diagonalization."""

    def __init__(self, entries: tuple, radical_dim: int):
        self.__dict__.update(entries=entries, radical_dim=radical_dim)

    def __getstate__(self):
        return _fields_of(self)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def classes(self) -> tuple[SquareClass, ...]:
        """The square classes of the entries over Q, computed on first read
        and kept in ``__dict__``; a ``square_class`` that raises keeps nothing."""
        classes = self.__dict__.get("_classes")
        if classes is None:
            classes = self.__dict__["_classes"] = tuple(map(square_class, self.entries))
        return classes

    def signature(self) -> tuple[int, int]:
        """(positive, negative) entries, counted on the entries' numerators
        (a denominator is positive)."""
        nums = [e.numerator for e in self.entries]
        pos = sum(1 for x in nums if x > 0)
        return pos, sum(1 for x in nums if x < 0)


class Diagonalization(Pivots):
    """Congruence P with P^T G P = diag(entries, 0...0), radical trailing."""

    def __init__(self, entries: tuple, radical_dim: int, congruence: Mat):
        self.__dict__.update(entries=entries, radical_dim=radical_dim, congruence=congruence)


def diagonalize(f: BilinearForm) -> Diagonalization:
    """Symmetric Gaussian congruence diagonalization over Q.

    The integer pivot loop runs on the Gram matrix times the lcm of its
    denominators, and each zero (k, k) entry is pivoted by the one policy of
    ``linalg._symmetric_pivot``, fixed for golden-test determinism.  Pivot d
    at step k, with c_i = m[k][i], sends basis column i to
    u_i = s(d b_i - c_i b_k) / g_i, s = sign d and g_i the content of that
    column, which keeps reported entries integral for integral input; the
    trailing block is then filled in one Schur-complement pass,
    m_ij -> (a_i a_j m_ij - d c_i c_j) / (g_i g_j) for i <= j, with a_i = |d|
    (a_i = g_i = 1 where c_i = 0).  The certificate B^T (scale G) B = scale D
    runs exactly on its integers; G is symmetric, so it checks entries i <= j.

    A Gram matrix that is already diagonal with every diagonal entry nonzero
    takes no pivot loop: every step would pivot in place and clear nothing,
    so B = I and D is that diagonal.  For B = I the certificate is the test
    that picks this path, so it runs exactly there.

    Each form is diagonalized once: the certified result is kept in the
    form's ``__dict__``, beside its fields, and every later call on that
    object returns it.  It is no field, so ``==``, ``hash``, ``repr`` and
    pickles are as before, and a call that raises keeps nothing.
    """
    diag = f.__dict__.get("_diagonalization")
    if diag is None:
        diag = f.__dict__["_diagonalization"] = _diagonalized(f)
    return diag


def _diagonalized(f: BilinearForm) -> Diagonalization:
    """The pivot loop and certificate of ``diagonalize``, run on f."""
    if not f.is_symmetric:
        raise ValueError("diagonalization requires symmetric form")
    n = f.gram.n
    # scale * G, by its columns, which are its rows; the certificate reads it
    scale, gram = f.gram.integer_columns()
    if (diag := _diagonal(scale, gram)) is not None:
        return diag
    m = [list(c) for c in gram]
    basis = [[int(i == j) for j in range(n)] for i in range(n)]

    # basis[i] is column i of the congruence B, an integer vector; at step k,
    # m[i][j] for k <= i <= j is entry (i, j) of B^T (scale G) B.  The Schur
    # pass writes only those entries, which a pivot move mirrors below the
    # diagonal first.  No entry outside the trailing block is read again.
    rank = n
    for k in range(n):
        if not m[k][k] and not _symmetric_pivot(k, (m,), (basis,)):
            rank = k  # the trailing block is zero: the radical
            break
        d, c, bk, t = m[k][k], m[k], basis[k], k + 1
        if any(c[t:]):  # else b_k pairs to zero with every later column
            ad, s = (d, 1) if d > 0 else (-d, -1)
            tail = []  # (a_j, c_j, g_j) for the columns j > k
            for i in range(t, n):
                ci = c[i]
                if ci:
                    sc = s * ci
                    col = [ad * x - sc * y for x, y in zip(basis[i], bk)]
                    gi = gcd(*col)
                    basis[i] = [x // gi for x in col] if gi > 1 else col
                    tail.append((ad, ci, gi))
                else:
                    tail.append((1, 0, 1))
            for i, (ai, ci, gi) in enumerate(tail, t):
                dci = d * ci
                m[i][i:] = [(ai * aj * x - dci * cj) // (gi * gj)
                            for x, (aj, cj, gj) in zip(m[i][i:], tail[i - t:])]
    diag = [m[i][i] for i in range(rank)]
    _certify_congruence(basis, gram, diag)
    entries = tuple(_fraction(d, scale) for d in diag)
    congruence = Mat(n, n, ints=[(1, [c[i] for c in basis]) for i in range(n)])
    return Diagonalization(entries=entries, radical_dim=n - rank, congruence=congruence)


def _diagonal(scale: int, cols) -> Diagonalization | None:
    """The no-loop diagonalization of the Gram matrix ``cols`` / ``scale``,
    or None unless it is diagonal with no zero on its diagonal."""
    zeros = len(cols) - 1
    if not all(c[i] and c.count(0) == zeros for i, c in enumerate(cols)):
        return None
    entries = tuple(_fraction(c[i], scale) for i, c in enumerate(cols))
    return Diagonalization(entries=entries, radical_dim=0, congruence=Mat.identity(len(cols)))


def pivots(f: BilinearForm) -> Pivots:
    """Diagonal entries of a symmetric form, up to squares, for its Witt class
    and invariants: what they read is the entries' signs and square classes.

    The entries are the pivots of one certified Bareiss pass
    (``Mat.ldl_pivots``), with the radical dimension n - r after r steps,
    degenerate Gram matrices included.  Where every leading minor D_k is
    nonzero they are the LDL^T pivots D_k / D_(k-1), and ``diagonalize``,
    which pivots in place there, reaches each times a nonzero square at the
    same position.  Elsewhere both take the moves of
    ``linalg._symmetric_pivot``, and an added basis vector may change the
    square classes place by place, but not the Witt class, the signature or
    the rank; no caller reads an entry by its place.  A diagonal Gram matrix
    is given the no-loop diagonalization to keep first, so ``diagonalize``
    returns it and runs no test again, and a form that already keeps its
    diagonalization gives that.

    The result is kept in the form's ``__dict__`` beside its fields, as
    ``diagonalize`` keeps its own, and its square classes are kept on first
    read; a call that raises keeps nothing.
    """
    memo = f.__dict__.get("_pivots") or f.__dict__.get("_diagonalization")
    if memo is None and f.is_symmetric:  # a skew form goes to diagonalize, which refuses it
        diag = _diagonal(*f.gram.integer_columns())
        if diag is not None:
            f.__dict__["_diagonalization"] = diag  # which diagonalize returns below
        else:
            entries = f.gram.ldl_pivots()
            memo = Pivots(entries=entries, radical_dim=f.gram.n - len(entries))
    f.__dict__["_pivots"] = memo = memo or diagonalize(f)
    return memo


def _certify_congruence(cols, gram, diag) -> None:
    """Raise ``CertificateError`` unless B^T G B = diag(diag, 0...0) exactly,
    for the integer columns ``cols`` of B and Gram ``gram``.  G is symmetric,
    so B^T G B is, and its entries i <= j are the whole check."""
    for j, cj in enumerate(cols):
        gcj = [sum(map(mul, row, cj)) for row in gram]
        for i, ci in enumerate(cols[:j + 1]):
            if sum(map(mul, ci, gcj)) != (diag[i] if i == j and i < len(diag) else 0):
                raise CertificateError("diagonalization certificate failed: P^T G P is not the diagonal D")


HYPERBOLIC_PLANE = BilinearForm.from_rows([[0, 1], [1, 0]])
# the shared constant keeps its pivots, their classes, its diagonalization and both views of
# its Gram matrix and of that congruence from load on, so no call adds to it
pivots(HYPERBOLIC_PLANE).classes, diagonalize(HYPERBOLIC_PLANE).classes, [
    (m.rows, m.integer_columns()) for m in (HYPERBOLIC_PLANE.gram, diagonalize(HYPERBOLIC_PLANE).congruence)]


class FormInvariants(Frozen):
    """Complete rational-equivalence invariants of a nondegenerate form."""

    def __init__(self, rank: int, signature: tuple[int, int], discriminant: SquareClass, hasse: dict):
        self.__dict__.update(rank=rank, signature=signature, discriminant=discriminant, hasse=hasse)


def _hasse_symbols(classes, places) -> dict:
    """prod_{i<j} (a_i, a_j)_v for the squarefree kernels a_i of the classes, at
    places it does not check, each in closed form (Serre, *A Course in Arithmetic*,
    ch. III, thm. 1).  At v, k entries have odd valuation, with units of product
    U_1, and U_0 is the others' product.  An odd v gives (-1)^(eps(v) C(k, 2))
    (U_0/v)^k (U_1/v)^(k-1), one Legendre symbol (none for k = 0), as U_0 U_1^2 =
    Delta U_1 / v^k, Delta the product of the kernels; 2 gives C(E, 2) + k Omega -
    sum alpha_i omega_i over the units, E of them = 3 mod 4 and Omega = sum omega_i."""
    kernels = [c.representative for c in classes]
    delta = prod(kernels)
    odd = {}  # v -> (number of kernels of odd valuation at v, product of their units)
    for c, a in zip(classes, kernels):
        for p in c._primes:
            k, u = odd.get(p, (0, 1))
            odd[p] = k + 1, u * (a // p)
    out = {}
    for v in places:
        k, u1 = odd.get(v, (0, 1))
        e = 0
        if v == REAL_PLACE:  # C(N, 2) for N negative entries, odd iff N // 2 is
            e = sum(1 for a in kernels if a < 0) // 2
        elif v == 2:
            units = [(a % 2, (a if a % 2 else a // 2) % 8) for a in kernels]  # (1 - alpha_i, unit)
            e = sum(1 for _, u in units if u % 4 == 3) // 2 + sum(k + r - 1 for r, u in units if u in (3, 5))
        elif k:
            e = (legendre(u1 if k % 2 == 0 else delta // v**k * u1, v) < 0) + (v % 4 == 3 and k % 4 > 1)
        out[v] = -1 if e % 2 else 1
    return out


def invariants(f: BilinearForm) -> FormInvariants:
    """Rank, signature, discriminant, and Hasse symbols of a nondegenerate
    symmetric form over Q."""
    if not f.is_symmetric:
        raise ValueError("invariants require a symmetric form")
    piv = pivots(f)
    if piv.radical_dim:
        raise ValueError("split off radical first")
    classes = piv.classes
    return FormInvariants(
        rank=piv.rank,
        signature=piv.signature(),
        discriminant=SquareClass.product(classes),
        hasse=_hasse_symbols(classes, _places_of(classes)),
    )


class RadicalSplit(Frozen):
    """A form's restriction to a complement W of its radical, with the basis
    of V it is taken in: columns spanning W, then the radical's."""

    def __init__(self, nondegenerate: BilinearForm, radical_dim: int, basis: Mat):
        self.__dict__.update(nondegenerate=nondegenerate, radical_dim=radical_dim, basis=basis)


def radical_split(f: BilinearForm) -> RadicalSplit:
    """Split V = W + rad(f) and return f restricted to W (nondegenerate)."""
    g = f.gram
    n = g.n
    kernel = g.nullspace()
    complement = Mat.identity(n).submatrix(range(n), extend_to_complement(kernel, Mat.identity(n)))
    basis = complement.hstack(kernel)
    nondeg = f.restrict(complement)
    if not nondeg.is_nondegenerate() and complement.n:
        raise CertificateError("radical split certificate failed: "
                               "the form on the complement of the radical is degenerate")
    return RadicalSplit(nondegenerate=nondeg, radical_dim=kernel.n, basis=basis)


class SymplecticReduction(Frozen):
    """A skew form's count k of hyperbolic planes, with the congruence P, whose
    columns u_1, v_1, ..., u_k, v_k, then a radical basis, give P^T G P = J_k + 0."""

    def __init__(self, hyperbolic_count: int, congruence: Mat):
        self.__dict__.update(hyperbolic_count=hyperbolic_count, congruence=congruence)


def standard_symplectic_gram(k: int) -> Mat:
    """The direct sum of k blocks [[0, 1], [-1, 0]]."""
    n = 2 * k
    return Mat(n, n, ints=[(1, [(-1) ** i * (j == i ^ 1) for j in range(n)]) for i in range(n)])


def symplectic_reduce(f: BilinearForm) -> SymplecticReduction:
    """Reduce a skew form over Q to the standard symplectic Gram J_k plus zeros.

    A nondegenerate skew form is a sum of hyperbolic planes, so its Witt class
    is zero (Milnor and Husemoller, *Symmetric Bilinear Forms*, ch. I).  Each
    step pairs u, the first row of ``rest``, with v, its first row with
    <u, v> != 0, scaled by 1 / <u, v>, and moves every other row w to
    w - <u, w> v + <v, w> u.  A u with no partner pairs to zero with ``rest``,
    which pairs to zero with the pairs split before, so u is in the radical
    and is set aside after the pairs.
    """
    if f.symmetry != SKEW:
        raise ValueError("symplectic reduction requires a skew form")
    g = f.gram
    n = g.n
    cols = range(n)
    rest = Mat.identity(n)
    pairs = radical = Mat.zeros(0, n)  # pairs: u_1, v_1, u_2, v_2, ... as rows
    while rest.m:
        u = rest.submatrix([0], cols)
        uw = u * g * rest.T  # <u, w> for every row w of rest
        d, pairings = uw.integer_columns()  # <u, w> = pairings[t][0] / d
        j = next((t for t in range(1, rest.m) if pairings[t][0]), None)
        if j is None:
            radical, rest = radical.vstack(u), rest.submatrix(range(1, rest.m), cols)
            continue
        v = rest.submatrix([j], cols).scale(Fraction(d, pairings[j][0]))
        others = [t for t in range(1, rest.m) if t != j]
        rest = rest.submatrix(others, cols)
        a = uw.submatrix([0], others).T
        b = (v * g * rest.T).T
        rest = rest - a * v + b * u
        pairs = pairs.vstack(u).vstack(v)
    k, r = pairs.m // 2, radical.m
    congruence = pairs.vstack(radical).T
    if congruence.T * g * congruence != standard_symplectic_gram(k).direct_sum(Mat.zeros(r, r)):
        raise CertificateError("symplectic certificate failed: "
                               "P^T G P is not the standard symplectic Gram")
    return SymplecticReduction(hyperbolic_count=k, congruence=congruence)


class BlockError(ValueError):
    """A block that ``BlockMetabolicForm`` refuses; ``key`` names it: "s", "a" or "b"."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class BlockMetabolicForm(Frozen):
    """Symmetric form written against a half-rank isotropic block:

        [[0, 0, I], [0, S, B], [I, B^T, A]]

    with S symmetric nondegenerate, A symmetric, B of shape (m, k).  A bad
    block raises ``BlockError``, a ``ValueError`` that names it.
    """

    def __init__(self, s: BilinearForm, a: Mat, b: Mat):
        if not s.is_symmetric:
            raise BlockError("s", "core S must be a symmetric form over Q")
        if not s.is_nondegenerate():
            raise BlockError("s", "core S must be nondegenerate")
        k = a.n
        m = s.gram.n
        if not a.is_signed_transpose(a, SYMMETRIC):  # and so square
            raise BlockError("a", "block A must be symmetric k x k")
        if b.m != m or b.n != k:
            raise BlockError("b", f"block B must be {m} x {k}")
        self.__dict__.update(s=s, a=a, b=b)

    @property
    def isotropic_rank(self) -> int:
        return self.a.n

    def assemble(self) -> BilinearForm:
        # nondegenerate: its determinant is +-det S, and S is nondegenerate
        return BilinearForm(RATIONAL, SYMMETRIC, _block_gram(self.s.gram, self.a, self.b))


def _block_gram(s: Mat, a: Mat, b: Mat) -> Mat:
    """The matrix [[0, 0, I], [0, S, B], [I, B^T, A]], unchecked."""
    k, m = a.n, s.n
    ident = Mat.identity(k)
    top = Mat.zeros(k, k).hstack(Mat.zeros(k, m)).hstack(ident)
    mid = Mat.zeros(m, k).hstack(s).hstack(b)
    bot = ident.hstack(b.T).hstack(a)
    return top.vstack(mid).vstack(bot)


class MetabolicReduction(Frozen):
    """A block-metabolic form split as its core plus hyperbolic planes, by the
    elementary congruences E(alpha, p, q) = I + alpha e_p e_q^T listed in
    ``transvections``, whose product is ``congruence``.

    Every p lies in the isotropic block and every q after it, so the
    congruence is C = [[I, X, Y], [0, I, 0], [0, 0, I]], and for the block
    Gram G, C^T G C = [[0, 0, I], [0, S, B + X^T], [I, B^T + X, A + Y + Y^T]]."""

    def __init__(self, core: BilinearForm, hyperbolic_count: int, transvections: tuple, congruence: Mat):
        self.__dict__.update(core=core, hyperbolic_count=hyperbolic_count, transvections=transvections,
                             congruence=congruence)


def metabolic_reduce(block: BlockMetabolicForm) -> MetabolicReduction:
    """Clear B, then A, by elementary congruences E(alpha, p, q).

    Each p is an isotropic basis vector, which pairs only with its partner
    in the last block, so each move clears one entry of B or A and leaves
    every other entry as it was.  The moves are therefore read off B and A:
    (-B[j][l], l, k+j) in (j, l) order, then for each l (-A[l][l]/2, l, k+m+l)
    and (-A[l][i], l, k+m+i) for i > l.  The result is S plus ``k`` split
    hyperbolic planes.  By the block identity of ``MetabolicReduction``,
    C^T G C is the cleared Gram exactly when C has its identity and zero
    blocks, X = -B^T and Y + Y^T = -A; the certificate checks those on C's
    integer columns, with no product and no Gram matrix built.
    """
    k, m = block.isotropic_rank, block.s.gram.n
    n = 2 * k + m
    d, b = block.b.integer_columns()  # b[l][j] = d * B[j][l]
    e, a = block.a.integer_columns()  # a[i][l] = e * A[l][i]
    moves = [(Fraction(-b[l][j], d), l, k + j) for j in range(m) for l in range(k) if b[l][j]]
    moves += [(Fraction(-a[i][l], 2 * e if i == l else e), l, k + m + i)
              for l in range(k) for i in range(l, k) if a[i][l]]
    congruence = _congruence(n, moves)
    f, c = congruence.integer_columns()  # c[j][i] = f * C[i][j]
    if not ((congruence.m, congruence.n) == (n, n)
            and all(col[j] == f and not any(col[k if j >= k else 0:j]) and not any(col[j + 1:])
                    for j, col in enumerate(c))
            and all(d * c[k + j][l] == -f * b[l][j] for j in range(m) for l in range(k))
            and all(e * (c[k + m + i][l] + c[k + m + l][i]) == -f * a[i][l]
                    for l in range(k) for i in range(l, k))):
        raise CertificateError("metabolic reduction certificate failed: A and B are not cleared")
    return MetabolicReduction(core=block.s, hyperbolic_count=k, transvections=tuple(moves),
                              congruence=congruence)


def _congruence(n: int, moves: list) -> Mat:
    """I plus the sum of the alpha e_p e_q^T: the product of the moves
    E(alpha, p, q), as no q is any move's p.  The row of each move's p is
    e_p plus its moves' alphas, over the lcm d of their denominators, which is
    its lowest terms: a prime of d divides some alpha's denominator to the
    power it has in d, and so not that alpha's numerator times d over its
    denominator.  Every other row is e_p over 1."""
    dens = [1] * n
    for alpha, p, _ in moves:
        dens[p] = lcm(dens[p], alpha.denominator)
    ints = []
    for i, d in enumerate(dens):
        row = [0] * n
        row[i] = d
        ints.append((d, row))
    for alpha, p, q in moves:
        ints[p][1][q] += alpha.numerator * (dens[p] // alpha.denominator)
    return Mat(n, n, ints=ints)
