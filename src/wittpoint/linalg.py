"""Exact dense linear algebra over Q.

A ``Mat`` stores one form of its entries, the integer form: one pair
(d, nums) per row, the row being nums / d in lowest terms with d > 0, so
equal matrices have equal forms.  A matrix built from rows converts them at
construction and raises ``TypeError`` there on an entry that is not
rational or is a float, whose value is binary, not the decimal written.
Every operation reads integer forms and builds one.  A product combines
the rows of its right factor over the nonzero entries of each row of its
left one, so a product with I or a sparse factor costs little.
``rows`` is a view of the entries as ``Fraction`` rows, made from the
integer form when first read and then kept.  Writing to it changes no
result.  ``rref`` runs Gauss-Jordan by cross-multiplication, dividing each
changed row by its content; ``det``, ``leading_minors`` and
``ldl_pivots`` run Bareiss's fraction-free elimination (Bareiss 1968;
Cohen, *A Course in Computational Algebraic Number Theory*, 2.2), the
second yielding each leading minor as an integer of its sign, for
Sylvester's test and Jacobi's rule (Gantmacher, *The Theory of Matrices*,
vol. 1, ch. X, 3), and the last, a symmetrically pivoted pass, the certified
LDL^T pivots off its rows, degenerate matrices included.  The
reduced row echelon form is unique, so each returns what elimination over Q
returns.  Shapes are explicit, as zero-row and zero-column matrices occur
constantly.  Integer forms are never written, so matrices may share their
rows: a product's row may be a row of its right factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul

from .core import CertificateError, _rational


class Mat:
    """Dense matrix with explicit shape over Q, stored as its integer form.

    ``__init__`` takes a list of row lists and converts it to the integer
    form at once; an entry that is not rational raises ``TypeError`` there.
    It keeps none of the lists it is handed.  ``from_rows`` is the
    constructor that coerces any nested iterable.  Given ``ints`` instead, a
    list of (d, nums) pairs in lowest terms, it keeps that form.  Either way
    the ``rows`` view is made from the integer form the first time it is
    read; writing to it changes no result.
    """

    __slots__ = ("m", "n", "_ints", "_rows", "_cols")

    def __init__(self, m: int, n: int, rows: list[list] | None = None, *, ints: list | None = None):
        if rows is not None:
            if len(rows) != m or any(map(n.__ne__, map(len, rows))):
                raise ValueError(f"shape mismatch: declared {m}x{n}")
            ints = [_integer_row(r) for r in rows]
        self.m, self.n, self._ints, self._rows, self._cols = m, n, ints, None, None

    @property
    def rows(self) -> list[list[Fraction]]:
        """The entries as rows, a view of the integer form made once."""
        if self._rows is None:
            self._rows = [[_fraction(x, d) for x in r] for d, r in self._ints]
        return self._rows

    def integer_columns(self) -> tuple[int, list[tuple[int, ...]]]:
        """The lcm d of all denominators and the integer columns of d * self."""
        if self._cols is None:
            d = lcm(*[s for s, _ in self._ints])
            scaled = [_over(d, s, r) for s, r in self._ints]
            self._cols = d, list(zip(*scaled)) if self.m else [()] * self.n
        return self._cols

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Mat":
        rows = [[_rational(x) for x in r] for r in rows]
        return Mat(len(rows), len(rows[0]) if rows else 0, rows)

    @staticmethod
    def zeros(m: int, n: int) -> "Mat":
        return Mat(m, n, ints=[(1, [0] * n)] * m)

    @staticmethod
    def identity(n: int) -> "Mat":
        ints = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            ints.append((1, row))
        return Mat(n, n, ints=ints)

    @staticmethod
    def diag(entries) -> "Mat":
        entries = [_rational(x).as_integer_ratio() for x in entries]
        n = len(entries)
        return Mat(n, n, ints=[(d, [x if i == j else 0 for j in range(n)])
                               for i, (x, d) in enumerate(entries)])

    @staticmethod
    def from_columns(cols, m: int) -> "Mat":
        """The m-row matrix with the given columns, each of length m."""
        if any(len(c) != m for c in cols):
            raise ValueError(f"every column must have length {m}")
        return Mat(m, len(cols), [[_rational(c[i]) for c in cols] for i in range(m)])

    # -- basic algebra ------------------------------------------------

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, Mat) and (self.m, self.n) == (other.m, other.n)
                and self._ints == other._ints)

    def __hash__(self):
        return hash((self.m, self.n, tuple((d, tuple(r)) for d, r in self._ints)))

    def __add__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError(f"shape mismatch: {self.m}x{self.n} vs {other.m}x{other.n}")
        return Mat(self.m, self.n, ints=[_lowest(d, list(map(add, r, q)))
                                         for d, r, q in _aligned(self._ints, other._ints)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Mat(self.m, self.n, ints=[(d, [-x for x in r]) for d, r in self._ints])

    def scale(self, c) -> "Mat":
        p, q = _rational(c).as_integer_ratio()
        return Mat(self.m, self.n, ints=[_lowest(q * d, [p * x for x in r]) for d, r in self._ints])

    def __mul__(self, other: "Mat") -> "Mat":
        """The product, as row combinations on integers.

        The rows of ``other`` are put over their common denominator t once.
        Row i of the product is the sum of a_ik times row k of t * other,
        over the nonzero a_ik of row i of ``self`` (over s) alone, and then
        divided by s * t.  A row of ``self`` whose only nonzero entry is 1
        gives a row of ``other`` itself, and a zero row gives zeros, so a
        product with I or with a sparse factor does almost no arithmetic.
        """
        if self.n != other.m:
            raise ValueError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        n = other.n
        t = lcm(*[s for s, _ in other._ints])
        b = [q for _, q in other._ints] if t == 1 else [_over(t, s, q) for s, q in other._ints]
        out = []
        for s, r in self._ints:
            acc = None
            for x, q in zip(r, b):
                if x:
                    if acc is None:
                        acc = q if x == 1 else [x * y for y in q]
                    elif x == 1:
                        acc = list(map(add, acc, q))
                    else:
                        acc = [u + x * y for u, y in zip(acc, q)]
            out.append((1, [0] * n) if acc is None else _lowest(s * t, acc))
        return Mat(self.m, n, ints=out)

    @property
    def T(self) -> "Mat":
        d, cols = self.integer_columns()
        return Mat(self.n, self.m, ints=[_lowest(d, list(c)) for c in cols])

    def is_signed_transpose(self, other: "Mat", sign: int) -> bool:
        """Whether self == sign * other^T, read off other's integer columns
        d * other: row r of self, nums / s, must be sign * column r / d, that
        is d * nums == sign * s * column r.  No transposed matrix is built."""
        if (self.m, self.n) != (other.n, other.m):
            return False
        d, cols = other.integer_columns()
        for (s, r), c in zip(self._ints, cols):
            t = sign * s
            if (r if d == 1 else [d * x for x in r]) != (list(c) if t == 1 else [t * y for y in c]):
                return False
        return True

    def unit_positions(self) -> list[int] | None:
        """The row r of each column when the columns are distinct unit
        vectors e_r, else None.  Such columns have one entry 1 each, in
        rows of one entry each."""
        rows = [None] * self.n
        for i, (d, r) in enumerate(self._ints):
            nonzero = [j for j, x in enumerate(r) if x]
            if not nonzero:
                continue
            j = nonzero[0]
            if len(nonzero) > 1 or r[j] != d or rows[j] is not None:
                return None
            rows[j] = i
        return None if None in rows else rows

    def is_zero(self) -> bool:
        return not any(any(r) for _, r in self._ints)

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("hstack row mismatch")
        # over a shared denominator, or else over the lcm of the two, a joined
        # row stays in lowest terms
        ints = []
        for (s, r), (t, q) in zip(self._ints, other._ints):
            if s != t:
                d = lcm(s, t)
                s, r, q = d, _over(d, s, r), _over(d, t, q)
            ints.append((s, r + q))
        return Mat(self.m, self.n + other.n, ints=ints)

    def vstack(self, other: "Mat") -> "Mat":
        if self.n != other.n:
            raise ValueError("vstack column mismatch")
        return Mat(self.m + other.m, self.n, ints=self._ints + other._ints)

    def direct_sum(self, other: "Mat") -> "Mat":
        """The block-diagonal matrix with blocks self and other."""
        return Mat(self.m + other.m, self.n + other.n,
                   ints=[(d, r + [0] * other.n) for d, r in self._ints]
                   + [(d, [0] * self.n + r) for d, r in other._ints])

    def realification(self) -> "Mat":
        """[[U, -V], [V, U]], the rational matrix of U + iV, for self = [U | V].
        A row of U and V over d stays in lowest terms with V negated or the
        halves swapped."""
        k = self.n // 2
        return Mat(2 * self.m, 2 * k, ints=[(d, r[:k] + [-x for x in r[k:]]) for d, r in self._ints]
                   + [(d, r[k:] + r[:k]) for d, r in self._ints])

    def submatrix(self, rows, cols) -> "Mat":
        picked = (self._ints[i] for i in rows)
        return Mat(len(rows), len(cols), ints=[_lowest(d, [r[j] for j in cols]) for d, r in picked])

    def __repr__(self):
        return f"Mat({self.m}x{self.n}, {self.rows})"

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        a = [r for _, r in self._ints]
        pivots = _integer_gauss_jordan(a, self.n)
        out = [_lowest(row[c], row) if row[c] > 0 else _lowest(-row[c], [-x for x in row])
               for row, c in zip(a, pivots)]
        out += [(1, [0] * self.n)] * (self.m - len(pivots))
        return Mat(self.m, self.n, ints=out), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Columns form a basis of the kernel (the standard rref basis)."""
        return self.kernel_and_image()[0]

    def column_space_basis(self) -> "Mat":
        return self.kernel_and_image()[1]

    def kernel_and_image(self) -> tuple["Mat", "Mat"]:
        """From one elimination, the standard rref basis of the kernel and
        the pivot columns of ``self``, a basis of the image, as columns."""
        r, pivots = self.rref()
        free = [j for j in range(self.n) if j not in pivots]
        kernel = [(1, [int(f == j) for f in free]) for j in range(self.n)]
        for p, (d, row) in zip(pivots, r._ints):
            kernel[p] = _lowest(d, [-row[f] for f in free])
        return Mat(self.n, len(free), ints=kernel), self.submatrix(range(self.m), pivots)

    def solve(self, b: "Mat") -> "Mat | None":
        """One solution of self @ X = b, or None if inconsistent."""
        if b.m != self.m:
            raise ValueError("solve shape mismatch")
        r, pivots = self.hstack(b).rref()
        if pivots and pivots[-1] >= self.n:
            return None  # pivot in the augmented block: inconsistent
        out = [(1, [0] * b.n)] * self.n
        for p, (d, row) in zip(pivots, r._ints):
            out[p] = _lowest(d, row[self.n:])
        return Mat(self.n, b.n, ints=out)

    def inv(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of a non-square matrix")
        x = self.solve(Mat.identity(self.n))
        if x is None:
            raise ValueError("matrix is singular")
        if self * x != Mat.identity(self.n):
            raise CertificateError("inverse certificate failed: A X is not I")
        return x

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        *_, d = 1, *_bareiss([list(r) for _, r in self._ints])  # the last value is the determinant
        return Fraction(d, prod(s for s, _ in self._ints))

    def leading_minors(self):
        """The leading principal minors D_1, D_2, ... of a square matrix, one
        integer each with the sign of D_k, up to and including the first zero.

        One Bareiss pass on the integer rows gives them in order: before the
        first zero no row has been exchanged, and its k-th value is D_k times
        the positive denominators of the first k rows.  So Sylvester's test
        and Jacobi's rule read them as they are, with no ``Fraction`` built;
        a caller that needs D_k itself takes the ``det`` of the leading block.
        """
        if self.m != self.n:
            raise ValueError("leading minors of a non-square matrix")
        for d in _bareiss([list(r) for _, r in self._ints]):
            yield d
            if not d:
                return

    def ldl_pivots(self) -> tuple[Fraction, ...]:
        """The nonzero entries d of a diag(d, 0...0) congruent to a symmetric
        matrix G, one per step of a Bareiss pass on sG, the integer Gram of
        ``integer_columns``, pivoted by ``_symmetric_pivot`` at each zero
        (k, k) entry, as ``forms.diagonalize`` is; a zero trailing block ends
        the pass after r steps.  Trailing entries are bordered minors, linear
        in their row and column, so the moves act on them, and on the rows of
        U above, as on T = P^T sG P, and every division stays exact (Bareiss
        1968).  Only the upper triangle of the trailing block is updated.
        The r rows, cut to their upper triangles, are U, T = U^T diag(1 /
        (b_(k-1) b_k)) U for b_k = U[k-1][k-1], certified exactly
        (``_certify_ldl``; Zhou and Jeffrey, *Front. Comput. Sci. China* 2,
        2008), and d_k = b_k / (s b_(k-1)).
        With no move, T = sG and d_k = D_k / D_(k-1), the LDL^T pivots of G.
        """
        if self.m != self.n:
            raise ValueError("LDL^T pivots of a non-square matrix")
        s, cols = self.integer_columns()
        if list(zip(*cols)) != cols:
            raise ValueError("LDL^T pivots of a non-symmetric matrix")
        n = r = self.n
        u = [list(c) for c in cols]  # the rows of sG, as it is symmetric
        t, prev = cols, 1  # T = P^T sG P, copied at the first move
        for k in range(n):
            if not u[k][k]:
                t = [list(c) for c in cols] if t is cols else t
                if not _symmetric_pivot(k, (u, t), ()):
                    r = k  # the trailing block is zero: the radical
                    break
            rk = u[k]
            akk = rk[k]
            for i in range(k + 1, n):  # the upper triangle; the multiplier a[i][k] is a[k][i]
                row, f = u[i], rk[i]
                for j in range(i, n):
                    row[j] = (row[j] * akk - f * rk[j]) // prev
            prev = akk
        _certify_ldl(u[:r], t)
        minors = [1] + [u[k][k] for k in range(r)]
        return tuple(Fraction(b, s * a) for a, b in zip(minors, minors[1:]))

    def charpoly(self) -> list[Fraction]:
        """Coefficients of det(t*I - A), ascending in t (Faddeev-LeVerrier).

        It runs on the integer matrix B = D*A, D the lcm of A's denominators.
        B's characteristic polynomial has integer coefficients b_k, so each
        division by k is exact, and the coefficient of t^k for A is
        b_k / D^(n-k).  As M_1 = I, the first step reads B M_1 = B off B's
        columns with no product; each later step takes the dot products of
        the rows of M_k with B's columns, into fresh rows, so adding c I
        writes no cached column.  The last step is Cayley-Hamilton: it holds
        B M_n, and B M_n + b_0 I = p(B) must be the zero matrix (Gantmacher,
        *The Theory of Matrices*, vol. 1, ch. IV), else ``CertificateError``.
        That takes n additions and no product, and certifies p(A) = 0.
        """
        if self.m != self.n:
            raise ValueError("characteristic polynomial of a non-square matrix")
        d, cols = self.integer_columns()
        n = self.n
        coeffs_desc = [1]
        bm = [list(r) for r in zip(*cols)]  # B M_1 = B, as M_1 = I: fresh rows of B
        for k in range(1, n + 1):
            c = -sum(bm[i][i] for i in range(n)) // k
            coeffs_desc.append(c)
            for i, row in enumerate(bm):  # M_(k+1) = B M_k + c I
                row[i] += c
            if k < n:
                bm = [[sum(map(mul, row, col)) for col in cols] for row in bm]  # M commutes with B
        if any(map(any, bm)):  # M_(n+1) = p(B)
            raise CertificateError("Cayley-Hamilton certificate failed: p(B) = B M_n + b_0 I is not 0")
        return [Fraction(c, d**k) for k, c in enumerate(coeffs_desc)][::-1]


def _aligned(a: list, b: list):
    """For each row r / s of the integer form ``a`` and q / t of ``b``, the
    numerators of both over d = lcm(s, t), as (d, r', q')."""
    for (s, r), (t, q) in zip(a, b):
        d = lcm(s, t)
        yield d, _over(d, s, r), _over(d, t, q)


def _over(d: int, s: int, r: list[int]) -> list[int]:
    """The numerators of the row r / s over d, a multiple of s."""
    return r if s == d else [x * (d // s) for x in r]


def extend_to_complement(base: Mat, candidates: Mat) -> list[int]:
    """Indices of candidate columns greedily extending base to a spanning set.

    Deterministic: candidates are scanned left to right and kept whenever the
    rank grows, that is, when they are pivots of [base | candidates].
    """
    _, pivots = base.hstack(candidates).rref()
    return [p - base.n for p in pivots if p >= base.n]


def complement_in_kernel(base: Mat, kernel: Mat) -> list[int]:
    """``extend_to_complement(base, kernel)`` for ``kernel`` the standard
    rref basis of a kernel and ``base`` columns inside its span, with no
    elimination of [base | kernel].

    Column j of the standard basis is 1 at its free column f_j, 0 at every
    other free column, and 0 at each pivot row below f_j, so f_j is its last
    nonzero row, and base's rows at f_0 < f_1 < ... are its coordinates C in
    that basis.  [base | kernel] = kernel [C | I] has the pivots of [C | I]:
    e_j is kept iff it is not in the span of C and e_0 .. e_(j-1), that is,
    iff row j of C lies in the span of the rows below it.  The rows are
    scanned bottom up; once they span base's columns, every row above is kept.
    """
    k, b = kernel.n, base.n
    free, left = [None] * k, k
    for i in range(kernel.m - 1, -1, -1):
        if not left:
            break
        for j, x in enumerate(kernel._ints[i][1]):
            if x and free[j] is None:
                free[j], left = i, left - 1
    kept, basis = [], []  # basis: (pivot column, integer row), each 0 at the pivots before it
    for j in range(k - 1, -1, -1):
        if len(basis) == b:
            kept.extend(range(j, -1, -1))
            break
        row = base._ints[free[j]][1]
        for c, prow in basis:
            f = row[c]
            if f:
                p = prow[c]
                row = [p * x - f * y for x, y in zip(row, prow)]
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            kept.append(j)
        else:
            g = gcd(*row)
            basis.append((c, [x // g for x in row] if g > 1 else row))
    return kept[::-1]


def _integer_row(r) -> tuple[int, list[int]]:
    """The lcm of the denominators of a Fraction row, and the row times it."""
    if not r:
        return 1, []
    # unpack lists: unpacking a generator here raised the peak RSS of
    # witness-chain generation by about 7% (CPython 3.11)
    try:
        nums, dens = zip(*[x.as_integer_ratio() for x in r])
    except AttributeError:
        bad = next(type(x).__name__ for x in r if not hasattr(x, "as_integer_ratio"))
        raise TypeError(f"the matrix kernel works over Q, not on {bad} entries") from None
    if float in map(type, r):  # a float has a ratio too, of its binary value
        _rational(next(x for x in r if type(x) is float))  # raises, naming it
    s = lcm(*dens)
    if s == 1:
        return 1, list(nums)
    return s, [n * (s // d) for n, d in zip(nums, dens)]


def _lowest(d: int, nums: list[int]) -> tuple[int, list[int]]:
    """The row nums / d (d > 0) in lowest terms, as a (d, nums) pair."""
    if d == 1:  # gcd(1, ...) is 1; 99% of calls on the chain and Hodge workloads
        return d, nums
    g = gcd(d, *nums)
    return (d, nums) if g == 1 else (d // g, [x // g for x in nums])


_ZERO = Fraction(0)


def _fraction(x: int, d: int) -> Fraction:
    # about half the entries of witness-chain products are zero; they share
    # one immutable Fraction instead of building one each
    if not x:
        return _ZERO
    return Fraction(x, d) if d != 1 else Fraction(x)


def _integer_gauss_jordan(a: list[list[int]], n: int) -> list[int]:
    """Bring the integer rows ``a`` to reduced echelon shape in place, up to
    one nonzero scale per row, and return the pivot columns.

    Row i is cleared at pivot column c as pivot * row_i - a[i][c] * pivot_row
    and then divided by its content, so its entries do not keep growing with
    every step.
    """
    pivots = []
    r = 0
    for c in range(n):
        if r == len(a):
            break
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        p = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def _symmetric_pivot(k: int, grams: tuple, columns: tuple) -> bool:
    """Bring a nonzero entry to (k, k) of a symmetric elimination whose
    (k, k) entry is zero, in place, or return False if the trailing block,
    rows and columns k and after, is zero.

    This is the one pivot policy of ``forms.diagonalize`` and
    ``Mat.ldl_pivots`` (the symmetric pivoting of Bunch and Kaufman, *Math.
    Comp.* 31, 1977).  Each Gram array is a list of integer rows, symmetric
    on its trailing block; the first is kept only on and above the diagonal
    there, so that block is first mirrored below it.  Then the first nonzero
    trailing diagonal entry is swapped in.  If there is none, row and column
    j are first added to i at the first nonzero (i, j), i < j, in row order,
    which makes (i, i) the nonzero 2 g_ij.  Each move, the add and the swap,
    acts on the rows and columns of every Gram array and on the entries of
    every list of basis columns.
    """
    g = grams[0]
    n = len(g)
    for i in range(k, n):
        for j in range(i + 1, n):
            g[j][i] = g[i][j]
    pivot = next((i for i in range(k + 1, n) if g[i][i]), None)
    if pivot is None:
        off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if g[i][j]), None)
        if off is None:
            return False
        pivot, j = off
        for a in (*grams, *columns):  # row and column j into the pivot
            a[pivot] = list(map(add, a[pivot], a[j]))
        for a in grams:
            for row in a:
                row[pivot] += row[j]
    for a in (*grams, *columns):
        a[k], a[pivot] = a[pivot], a[k]
    for a in grams:
        for row in a:
            row[k], row[pivot] = row[pivot], row[k]
    return True


def _certify_ldl(u: list[list[int]], cols: list) -> None:
    """Raise ``CertificateError`` unless T = U^T diag(1 / (b_k b_(k+1))) U
    exactly, for U the upper triangle of the r Bareiss rows ``u``,
    b_(k+1) = u[k][k] and b_0 = 1, and T the symmetric n x n integer matrix
    of columns ``cols``.  Entry (i, j) of the right side, i <= j, is the sum
    over k <= min(i, r - 1) of U_ki U_kj / (b_k b_(k+1)); times
    P_i = b_1 ... b_(min(i, r - 1) + 1) each term is an integer, the product
    of U_ki U_kj and the b_l, l <= min(i, r - 1) + 1, other than b_k and
    b_(k+1).  As T is symmetric, the entries i <= j are the whole check."""
    r = len(u)
    prefix = [1, 1]  # prefix[l + 1] = b_0 b_1 ... b_l
    for k, row in enumerate(u):
        prefix.append(prefix[-1] * row[k])
    upper = [[row[j] for row in u[:j + 1]] for j in range(len(cols))]  # column j of U, rows 0 .. j
    for i, col in enumerate(cols):
        p = prefix[min(i, r - 1) + 2]
        weights = [x * prefix[k] * (p // prefix[k + 2]) for k, x in enumerate(upper[i])]
        for j in range(i, len(cols)):
            if sum(map(mul, weights, upper[j])) != p * col[j]:  # the rows k <= i of column j
                raise CertificateError(f"LDL^T certificate failed: entry ({i}, {j}) of P^T sG P "
                                       "is not that of U^T diag(1 / (b_(k-1) b_k)) U")


def _bareiss(a: list[list[int]]):
    """Bareiss elimination of a square integer matrix, in place.

    Step k first yields sign * a[k][k].  Before any row has been exchanged,
    that is the leading (k+1)-minor of the input.  A row is exchanged only
    below a zero pivot, and a column with no pivot ends the elimination, so
    the last value yielded is the determinant.  After step k every entry
    below row k is a (k+2)-minor of the input, so the division by the
    previous pivot is exact.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        yield sign * a[k][k]
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rk = a[k]
        akk = rk[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - f * rk[j]) // prev
        prev = akk
