"""Exact dense linear algebra over Q.

A ``Mat`` holds its entries as ``Fraction`` rows, as an integer form, or as
both.  The integer form has one pair (d, nums) per row: the row is nums / d
in lowest terms with d > 0, so equal matrices have equal forms.  A matrix
built from rows makes its integer form at most once, on first use by a
kernel.  Products, eliminations, negation, ``T``, ``hstack``, ``vstack``
and ``submatrix`` pass integer forms on; ``Fraction`` rows are made from one
only when read.  ``rref`` runs Gauss-Jordan by cross-multiplication,
dividing each changed row by its content; ``det`` and ``leading_minors`` run
Bareiss's fraction-free elimination (Bareiss 1968; Cohen, *A Course in
Computational Algebraic Number Theory*, 2.2).  The reduced row echelon form
is unique, so each returns what elimination over Q returns.  The kernel
raises ``TypeError`` on a row holding any number type but ``Fraction``.
Shapes are explicit, as zero-row and zero-column matrices occur constantly.
A ``Mat`` owns the row lists it is built from, and neither form is written
after first use, so matrices may share rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul


class Mat:
    """Dense matrix with explicit shape; entries are Fraction.

    ``__init__`` keeps the list of row lists it is handed, without copying
    it, so a caller builds its rows and wraps them once; ``from_rows`` is the
    constructor that copies and coerces any nested iterable.  Given ``ints``
    instead, a list of (d, nums) pairs in lowest terms, it keeps that integer
    form and makes the rows when they are read.  Rows are not written after a
    matrix is first used.  ``zeros`` and ``identity`` build new row lists on
    every call.
    """

    __slots__ = ("m", "n", "_rows", "_ints", "_cols")

    def __init__(self, m: int, n: int, rows: list[list] | None = None, *, ints: list | None = None):
        if rows is not None and (len(rows) != m or any(map(n.__ne__, map(len, rows)))):
            raise ValueError(f"shape mismatch: declared {m}x{n}")
        self.m, self.n, self._rows, self._ints, self._cols = m, n, rows, ints, None

    @property
    def rows(self) -> list[list[Fraction]]:
        if self._rows is None:
            self._rows = [[_fraction(x, d) for x in r] for d, r in self._ints]
        return self._rows

    def _integers(self) -> list[tuple[int, list[int]]]:
        if self._ints is None:
            self._ints = [_integer_row(r) for r in self._rows]
        return self._ints

    def integer_columns(self) -> tuple[int, list[tuple[int, ...]]]:
        """The lcm d of all denominators and the integer columns of d * self."""
        if self._cols is None:
            d = lcm(*[s for s, _ in self._integers()])
            scaled = [r if s == d else [x * (d // s) for x in r] for s, r in self._ints]
            self._cols = d, list(zip(*scaled)) if self.m else [()] * self.n
        return self._cols

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Mat":
        rows = [[_coerce(x) for x in r] for r in rows]
        return Mat(len(rows), len(rows[0]) if rows else 0, rows)

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
        return Mat(n, n, [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

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
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, Mat) or (self.m, self.n) != (other.m, other.n):
            return False
        if self._rows is None or other._rows is None:
            return self._integers() == other._integers()
        return self._rows == other._rows

    def __hash__(self):
        return hash((self.m, self.n, tuple(tuple(r) for r in self.rows)))

    def __add__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError(f"shape mismatch: {self.m}x{self.n} vs {other.m}x{other.n}")
        return Mat(self.m, self.n, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        if self._rows is None:
            return Mat(self.m, self.n, ints=[(d, [-x for x in r]) for d, r in self._ints])
        return Mat(self.m, self.n, [[-a for a in r] for r in self._rows])

    def scale(self, c) -> "Mat":
        return Mat(self.m, self.n, [[c * a for a in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        """The product, on integers: row i is the integer dot products of
        row i of ``self`` with the integer columns of ``other``, over the
        product of their denominators."""
        if self.n != other.m:
            raise ValueError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        t, cols = other.integer_columns()
        return Mat(self.m, other.n, ints=[_lowest(s * t, [sum(map(mul, r, c)) for c in cols])
                                          for s, r in self._integers()])

    @property
    def T(self) -> "Mat":
        if self._rows is None:
            d, cols = self.integer_columns()
            return Mat(self.n, self.m, ints=[_lowest(d, list(c)) for c in cols])
        return Mat(self.n, self.m, [list(c) for c in zip(*self._rows)] if self.m else [[] for _ in range(self.n)])

    def is_zero(self) -> bool:
        return not any(any(r) for _, r in self._integers())

    def col(self, j) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list:
        return [self.col(j) for j in range(self.n)]

    def hstack(self, other: "Mat") -> "Mat":
        if self.m != other.m:
            raise ValueError("hstack row mismatch")
        if self._rows is None or other._rows is None:
            return Mat(self.m, self.n + other.n,
                       ints=[_joined(*a, *b) for a, b in zip(self._integers(), other._integers())])
        return Mat(self.m, self.n + other.n, [r1 + r2 for r1, r2 in zip(self._rows, other._rows)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.n != other.n:
            raise ValueError("vstack column mismatch")
        if self._rows is None or other._rows is None:
            return Mat(self.m + other.m, self.n, ints=self._integers() + other._integers())
        return Mat(self.m + other.m, self.n, self.rows + other.rows)

    def direct_sum(self, other: "Mat") -> "Mat":
        """The block-diagonal matrix with blocks self and other."""
        return Mat(self.m + other.m, self.n + other.n,
                   [r + [_ZERO] * other.n for r in self.rows]
                   + [[_ZERO] * self.n + r for r in other.rows])

    def submatrix(self, rows, cols) -> "Mat":
        if self._ints is not None:
            picked = (self._ints[i] for i in rows)
            return Mat(len(rows), len(cols), ints=[_lowest(d, [r[j] for j in cols]) for d, r in picked])
        entries = self.rows
        return Mat(len(rows), len(cols), [[entries[i][j] for j in cols] for i in rows])

    def __repr__(self):
        return f"Mat({self.m}x{self.n}, {self.rows})"

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and pivot column indices."""
        a = [r for _, r in self._integers()]
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
        if x is None or (self * x) != Mat.identity(self.n):
            raise ValueError("matrix is singular")
        return x

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        ints = self._integers()
        *_, d = 1, *_bareiss([list(r) for _, r in ints])  # the last value is the determinant
        return Fraction(d, prod(s for s, _ in ints))

    def leading_minors(self):
        """The leading principal minors of a square matrix, in order, up to and
        including the first zero one, from one elimination without row
        exchanges."""
        if self.m != self.n:
            raise ValueError("leading minors of a non-square matrix")
        ints = self._integers()
        scale = 1
        for (s, _), d in zip(ints, _bareiss([list(r) for _, r in ints])):
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
        d, cols = self.integer_columns()
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


def _joined(s: int, r: list[int], t: int, q: list[int]) -> tuple[int, list[int]]:
    """The integer form of the row r / s followed by q / t: over lcm(s, t), it
    stays in lowest terms."""
    d = lcm(s, t)
    return d, [x * (d // s) for x in r] + [x * (d // t) for x in q]


def _coerce(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def extend_to_complement(base: Mat, candidates: Mat) -> list[int]:
    """Indices of candidate columns greedily extending base to a spanning set.

    Deterministic: candidates are scanned left to right and kept whenever the
    rank grows, that is, when they are pivots of [base | candidates].
    """
    _, pivots = base.hstack(candidates).rref()
    return [p - base.n for p in pivots if p >= base.n]


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


def _lowest(d: int, nums: list[int]) -> tuple[int, list[int]]:
    """The row nums / d (d > 0) in lowest terms, as a (d, nums) pair."""
    g = gcd(d, *nums)
    return (d, nums) if g == 1 else (d // g, [x // g for x in nums])


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
