"""Exact dense linear algebra over Q.

Every elimination and every product runs over the integers.  Each row of a
``Fraction`` matrix is scaled to integers once, on entry, and only integers
are combined after that.  ``rref`` runs Gauss-Jordan by cross-multiplication,
dividing each changed row by its content, and divides by the pivots only
when it builds the result; ``det`` and ``leading_minors`` run Bareiss's
fraction-free elimination (Bareiss 1968; Cohen, *A Course in Computational
Algebraic Number Theory*, 2.2).  The reduced row echelon form is unique, so
each returns exactly what elimination over Q returns.  A product scales each
row of the left factor and each column of the right one, and divides each
entry's integer dot product by the two scales only when it builds the entry;
``charpoly`` runs on the matrix times the lcm of all its denominators.
Every entry is a
``Fraction``: the kernel raises ``TypeError`` where it scales a row holding
any other number type to integers.  A Hodge structure keeps the real and
imaginary parts of its piece bases as two rational matrices (``hodge``).
Polynomials, and their values at a matrix, live in ``poly``.  Zero-row and
zero-column matrices occur constantly (empty forms, zero complexes), so the
shape is carried explicitly instead of being inferred from nested lists.
A ``Mat`` takes ownership of the row lists it is built from and copies none
of them, and its rows are not written after it is first used, so matrices
may share rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


class Mat:
    """Dense matrix with explicit shape; entries are Fraction.

    ``__init__`` keeps the list of row lists it is handed, without copying
    it, so a caller builds its rows and wraps them once; ``from_rows`` is the
    constructor that copies and coerces any nested iterable.  Rows are not
    written after a matrix is first used.  ``zeros`` and ``identity`` build
    new row lists on every call.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows: list[list]):
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError(f"shape mismatch: declared {m}x{n}")
        self.m = m
        self.n = n
        self.rows = rows

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Mat":
        rows = [[_coerce(x) for x in r] for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        return Mat(m, n, rows)

    @staticmethod
    def zeros(m: int, n: int) -> "Mat":
        return Mat(m, n, [[_ZERO] * n for _ in range(m)])

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(entries) -> "Mat":
        entries = [_coerce(x) for x in entries]
        n = len(entries)
        rows = [[entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        return Mat(n, n, rows)

    @staticmethod
    def from_columns(cols, m: int | None = None) -> "Mat":
        """The matrix with the given columns, each of length m (by default,
        the length of the first column)."""
        if m is None:
            if not cols:
                raise ValueError("need row count for empty column list")
            m = len(cols[0])
        if any(len(c) != m for c in cols):
            raise ValueError(f"every column must have length {m}")
        return Mat(m, len(cols), [[_coerce(c[i]) for c in cols] for i in range(m)])

    # -- basic algebra ------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.m == other.m
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.m, self.n, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        _same_shape(self, other)
        return Mat(self.m, self.n, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        _same_shape(self, other)
        return Mat(self.m, self.n, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat(self.m, self.n, [[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Mat":
        return Mat(self.m, self.n, [[c * a for a in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        """The product, on integers.

        Each row of ``self`` and each column of ``other`` is scaled to
        integers once, so entry (i, j) is an integer dot product over row
        scale x column scale.
        """
        if self.n != other.m:
            raise ValueError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        cols = [_integer_row(c) for c in (zip(*other.rows) if other.m else [()] * other.n)]
        return Mat(self.m, other.n, [[_fraction(sum(map(mul, r, c)), s * t) for t, c in cols]
                                     for s, r in map(_integer_row, self.rows)])

    @property
    def T(self) -> "Mat":
        return Mat(self.n, self.m, [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)])

    def is_zero(self) -> bool:
        return all(not x for r in self.rows for x in r)

    def is_symmetric(self) -> bool:
        return self.m == self.n and self == self.T

    def map(self, f) -> "Mat":
        return Mat(self.m, self.n, [[f(x) for x in r] for r in self.rows])

    def col(self, j) -> list:
        return [self.rows[i][j] for i in range(self.m)]

    def columns(self) -> list:
        return [self.col(j) for j in range(self.n)]

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("hstack row mismatch")
        return Mat(self.m, self.n + other.n, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.n != other.n:
            raise ValueError("vstack column mismatch")
        return Mat(self.m + other.m, self.n, self.rows + other.rows)

    def direct_sum(self, other: "Mat") -> "Mat":
        """The block-diagonal matrix with blocks self and other."""
        zero = Fraction(0)
        return Mat(self.m + other.m, self.n + other.n,
                   [r + [zero] * other.n for r in self.rows]
                   + [[zero] * self.n + r for r in other.rows])

    def submatrix(self, rows, cols) -> "Mat":
        return Mat(len(rows), len(cols), [[self.rows[i][j] for j in cols] for i in rows])

    def __repr__(self):
        return f"Mat({self.m}x{self.n}, {self.rows})"

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        a, _ = _integer_rows(self.rows)
        pivots = _integer_gauss_jordan(a, self.n)
        out = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
        out += [[Fraction(0)] * self.n for _ in range(self.m - len(pivots))]
        return Mat(self.m, self.n, out), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Columns form a basis of the kernel (the standard rref basis)."""
        R, pivots = self.rref()
        free = [j for j in range(self.n) if j not in pivots]
        cols = []
        for f in free:
            v = [Fraction(0)] * self.n
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -R.rows[r][f]
            cols.append(v)
        return Mat.from_columns(cols, m=self.n)

    def column_space_basis(self) -> "Mat":
        _, pivots = self.rref()
        return Mat.from_columns([self.col(j) for j in pivots], m=self.m)

    def solve(self, b: "Mat") -> "Mat | None":
        """One solution of self @ X = b, or None if inconsistent."""
        if b.m != self.m:
            raise ValueError("solve shape mismatch")
        R, pivots = self.hstack(b).rref()
        if pivots and pivots[-1] >= self.n:
            return None  # pivot in the augmented block: inconsistent
        out = [[Fraction(0)] * b.n for _ in range(self.n)]
        for r, p in enumerate(pivots):
            out[p] = R.rows[r][self.n:]
        return Mat(self.n, b.n, out)

    def inv(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of a non-square matrix")
        x = self.solve(Mat.identity(self.n))
        if x is None or (self * x) != Mat.identity(self.n):
            raise ValueError("matrix is singular")
        return x

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        a, scales = _integer_rows(self.rows)
        d = 1
        for d in _bareiss(a):  # the last value is the determinant
            pass
        return Fraction(d, prod(scales))

    def leading_minors(self):
        """The leading principal minors of a square matrix, in order, up to and
        including the first zero one, from one elimination without row
        exchanges."""
        if self.m != self.n:
            raise ValueError("leading minors of a non-square matrix")
        a, scales = _integer_rows(self.rows)
        scale = 1
        for s, d in zip(scales, _bareiss(a)):
            scale *= s
            yield Fraction(d, scale)
            if not d:
                return

    def charpoly(self) -> list[Fraction]:
        """Coefficients of det(t*I - A), ascending in t (Faddeev-LeVerrier).

        It runs on the integer matrix B = D*A, D the lcm of A's denominators.
        B's characteristic polynomial has integer coefficients b_k, so each
        division by k is exact, and the coefficient of t^k for A is
        b_k / D^(n-k).
        """
        if self.m != self.n:
            raise ValueError("characteristic polynomial of a non-square matrix")
        d, b = _integer_matrix(self)
        cols = list(zip(*b))
        n = self.n
        coeffs_desc = [1]
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            bm = [[sum(map(mul, row, col)) for col in cols] for row in m]  # M commutes with B
            c = -sum(bm[i][i] for i in range(n)) // k
            coeffs_desc.append(c)
            for i, row in enumerate(bm):
                row[i] += c
            m = bm
        return [Fraction(c, d**k) for k, c in enumerate(coeffs_desc)][::-1]


def _coerce(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _same_shape(a: Mat, b: Mat):
    if a.m != b.m or a.n != b.n:
        raise ValueError(f"shape mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")


def extend_to_complement(base: Mat, candidates: Mat) -> list[int]:
    """Indices of candidate columns greedily extending base to a spanning set.

    Deterministic: candidates are scanned left to right and kept whenever the
    rank grows, that is, when they are pivots of [base | candidates].  Used
    for quotient sections and cohomology representatives.
    """
    _, pivots = base.hstack(candidates).rref()
    return [p - base.n for p in pivots if p >= base.n]


def _integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Each Fraction row times the lcm of its denominators, and those lcms."""
    scaled = [_integer_row(r) for r in rows]
    return [r for _, r in scaled], [s for s, _ in scaled]


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
    s = lcm(*dens)
    if s == 1:
        return 1, list(nums)
    return s, [n * (s // d) for n, d in zip(nums, dens)]


def _integer_matrix(a: Mat) -> tuple[int, list[list[int]]]:
    """The lcm d of all denominators of a rational matrix, and the rows of d * a."""
    d, flat = _integer_row([x for r in a.rows for x in r])
    return d, [flat[i * a.n:(i + 1) * a.n] for i in range(a.m)]


_ZERO, _ONE = Fraction(0), Fraction(1)


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
