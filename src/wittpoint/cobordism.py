"""Point-scale cobordism of self-dual complexes.

A self-dual complex here is a bounded complex of finite-dimensional
Q-vector spaces whose pairing couples degree i with degree -i; perfectness
is required on cohomology.  Cobordism witnesses are commutative squares

        G  --rho'-->  F'
        |pi           |pi'
        v             v
        F  --rho-->   G'

with a perfect pairing S'' on G x G', the two adjointness identities

        S(pi g, f)    = S''(g, rho f)
        S'(rho' g, f') = S''(g, pi' f')

checked as exact matrix equations, and the mapping-cone condition
C(rho') -> C(rho) a quasi-isomorphism.  Sign conventions are fixed once:
involution sign (-1)^(ij), cone differential d(x, y) = (-dx, fx + dy),
homotopy convention pi' rho' - rho pi = d h + h d, cone comparison map
(x, y) |-> (pi x, pi' y + h x).  Every golden test depends on these.
"""

from __future__ import annotations

from functools import reduce
from random import Random

from .core import CertificateError, Record
from .forms import (
    RATIONAL,
    SKEW,
    SYMMETRIC,
    BilinearForm,
    BlockMetabolicForm,
    diagonalize,
)
from .linalg import Mat, complement_in_kernel, extend_to_complement
from .witt import WittClassQ, witt_class_of


class ChainComplex(Record):
    """Bounded complex of Q-vector spaces; differentials raise degree."""

    def __init__(self, spaces: dict[int, int], differentials: dict[int, Mat] | None = None):
        self.spaces = {i: n for i, n in spaces.items() if n}
        self.differentials = _nonempty(differentials or {})
        for i, d in self.differentials.items():
            if d.m != self.dim(i + 1) or d.n != self.dim(i):
                raise ValueError(f"differential at degree {i} has shape {d.m}x{d.n}, "
                                 f"expected {self.dim(i + 1)}x{self.dim(i)}")

    def dim(self, i: int) -> int:
        return self.spaces.get(i, 0)

    def d(self, i: int) -> Mat:
        return _block(self.differentials, i, self.dim(i + 1), self.dim(i), "differential")

    def degrees(self) -> list[int]:
        return sorted(self.spaces)

    @staticmethod
    def single(dim: int) -> "ChainComplex":
        return ChainComplex({0: dim}, {})

    def direct_sum(self, other: "ChainComplex") -> "ChainComplex":
        degrees = set(self.spaces) | set(other.spaces)
        spaces = {i: self.dim(i) + other.dim(i) for i in degrees}
        diffs = {i: self.d(i).direct_sum(other.d(i))
                 for i in set(self.differentials) | set(other.differentials)}
        return ChainComplex(spaces, diffs)


class Cohomology:
    """Cocycle representatives, coordinates and the d d = 0 test of a complex.

    Representatives are deterministic: kernel basis columns greedily
    extending the boundary basis, scanned left to right.  Each stored
    differential d(i) is eliminated once, for its kernel at degree i and its
    image at degree i + 1; an absent one is zero.  Where d(i) and d(i - 1)
    are stored, d(i) B is formed once, for the boundary basis B, the pivot
    columns of d(i - 1), whose other columns are combinations of earlier
    pivot columns: d(i) d(i - 1) = 0 iff d(i) B = 0 (``dd_failures``).

    Unless d(i) B != 0, the scan reads B's coordinates in the kernel basis
    K off B's rows at the free columns of d(i), as K is the standard rref
    basis, and takes a bottom-up rank scan of them (``complement_in_kernel``).
    [B | K] = K [C | I] for those coordinates C, and K is injective, so this
    keeps exactly the columns the scan of [B | K] keeps, and [B | K] is never
    eliminated.  Where d(i) B != 0, on an invalid complex, it scans [B | K].
    """

    def __init__(self, c: ChainComplex):
        self.c = c
        self._reps: dict[int, Mat] = {}
        self._split = {i: d.kernel_and_image() for i, d in c.differentials.items()}
        products = ((i, d * self._split[i - 1][1]) for i, d in c.differentials.items() if i - 1 in self._split)
        self._defects = {i: p for i, p in products if not p.is_zero()}  # d(i) B != 0

    def dd_failures(self) -> list[dict]:
        """Each degree i - 1 where d(i) B != 0, with the first nonzero column
        of d(i) d(i - 1), a pivot column, and its image."""
        problems = []
        for i in sorted(self._defects):
            k, image = next((k, col) for k, col in enumerate(self._defects[i].T.rows) if any(col))
            problems.append({
                "check": "d_squared",
                "degree": i - 1,
                "witness_basis_vector": self.c.d(i - 1).rref()[1][k],  # the k-th pivot column
                "image": [str(x) for x in image],
            })
        return problems

    def cocycles(self, i: int) -> Mat:
        """A basis of ker d(i), as columns."""
        return self._split[i][0] if i in self._split else Mat.identity(self.c.dim(i))

    def boundaries(self, i: int) -> Mat:
        """A basis of im d(i - 1), as columns."""
        return self._split[i - 1][1] if i - 1 in self._split else Mat.zeros(self.c.dim(i), 0)

    def reps(self, i: int) -> Mat:
        """Representatives of a basis of H^i, as columns."""
        if i not in self._reps:
            boundaries, kernel = self.boundaries(i), self.cocycles(i)
            if not boundaries.n:  # every cocycle is a representative, and no scan is needed
                reps = kernel
            elif i in self._defects:
                # d d != 0: an invalid complex keeps the representatives of the full scan
                reps = kernel.submatrix(range(kernel.m), extend_to_complement(boundaries, kernel))
            elif boundaries.n == kernel.n:
                # the boundaries are independent cocycles, dim ker d(i) of
                # them, so they span it and H^i = 0
                reps = Mat.zeros(kernel.m, 0)
            else:
                reps = kernel.submatrix(range(kernel.m), complement_in_kernel(boundaries, kernel))
            self._reps[i] = reps
        return self._reps[i]

    def dim(self, i: int) -> int:
        return self.reps(i).n

    def coords(self, i: int, vectors: Mat) -> Mat:
        """Class coordinates of cocycle columns; raises if not cocycles."""
        reps = self.reps(i)
        sol = reps.hstack(self.boundaries(i)).solve(vectors)
        if sol is None:
            raise ValueError(f"columns are not cocycles modulo boundaries in degree {i}")
        return sol.submatrix(range(reps.n), range(sol.n))

    def induced(self, fmap: dict[int, Mat], i: int, target: "Cohomology") -> Mat:
        """Map on degree-i cohomology induced by a chain map into target."""
        f_i = map_block(fmap, i, self.c, target.c)
        return target.coords(i, f_i * self.reps(i))


# A map, pairing or homotopy is a dict of blocks by degree.  An absent block
# is the zero matrix of its shape, and a block with no rows or no columns is
# not stored.


def _nonempty(blocks: dict[int, Mat]) -> dict[int, Mat]:
    return {i: b for i, b in blocks.items() if b.m and b.n}


def _block(blocks: dict[int, Mat], i: int, m: int, n: int, what: str) -> Mat:
    """The m x n block at degree i, checked, or zeros when it is absent."""
    b = blocks.get(i)
    if b is None:
        return Mat.zeros(m, n)
    if b.m != m or b.n != n:
        raise ValueError(f"{what} block at degree {i} has shape {b.m}x{b.n}, expected {m}x{n}")
    return b


def map_block(fmap: dict[int, Mat], i: int, src: ChainComplex, dst: ChainComplex) -> Mat:
    return _block(fmap, i, dst.dim(i), src.dim(i), "chain map")


def chain_map_failure(fmap: dict[int, Mat], src: ChainComplex, dst: ChainComplex) -> int | None:
    """The first degree at which fmap d_src != d_dst fmap, or None for a chain map."""
    for i in sorted(set(src.spaces) | set(dst.spaces)):
        lhs = map_block(fmap, i + 1, src, dst) * src.d(i)
        rhs = dst.d(i) * map_block(fmap, i, src, dst)
        if lhs != rhs:
            return i
    return None


def solve_homotopy(src: ChainComplex, dst: ChainComplex, target: dict[int, Mat]) -> dict[int, Mat] | None:
    """Find h with d h + h d = target, h of degree -1, or None.

    Over a field such an h exists exactly when the target chain map induces
    zero on all cohomology, so failure here means the witness square does
    not commute in the derived category.
    """
    var_index = {}
    for i in src.degrees():
        rows, cols = dst.dim(i - 1), src.dim(i)
        for r in range(rows):
            for c in range(cols):
                var_index[(i, r, c)] = len(var_index)
    equations = []
    rhs = []
    degrees = sorted(set(src.spaces) | set(dst.spaces))
    for i in degrees:
        # entry (r, c) of d_out h^i + h^(i+1) d_in = t, times a * b * e, on the
        # integer columns of a * d_out, b * d_in and e * t
        a, d_out = dst.d(i - 1).integer_columns()  # G'^{i-1} -> G'^{i}
        b, d_in = src.d(i).integer_columns()  # G^{i} -> G^{i+1}
        e, t = map_block(target, i, src, dst).integer_columns()
        for r in range(dst.dim(i)):
            for c, (t_c, d_in_c) in enumerate(zip(t, d_in)):
                row = [0] * len(var_index)
                for s, d_out_s in enumerate(d_out):
                    row[var_index[(i, s, c)]] = d_out_s[r] * b * e
                for s, x in enumerate(d_in_c):
                    row[var_index[(i + 1, r, s)]] = x * a * e
                equations.append(row)
                rhs.append([t_c[r] * a * b])
    if not var_index:
        return {} if all(x[0] == 0 for x in rhs) else None
    # the system's rows are scaled, not changed, so its reduced form and the
    # solution read off it are those of the unscaled system
    system = Mat(len(equations), len(var_index), ints=[(1, row) for row in equations])
    sol = system.solve(Mat(len(rhs), 1, ints=[(1, x) for x in rhs]))
    if sol is None:
        return None
    flat = sol.T
    h = {}
    for i in src.degrees():
        rows, cols = dst.dim(i - 1), src.dim(i)
        if rows and cols:
            start = var_index[(i, 0, 0)]
            h[i] = reduce(Mat.vstack, [flat.submatrix([0], range(start + r * cols, start + (r + 1) * cols))
                                       for r in range(rows)])
    return h


def mapping_cone(fmap: dict[int, Mat], a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """C(f)^i = A^{i+1} (+) B^i with d(x, y) = (-d_A x, f x + d_B y)."""
    degrees = sorted(set(a.spaces) | set(b.spaces) | {i - 1 for i in a.spaces})
    spaces = {i: a.dim(i + 1) + b.dim(i) for i in degrees}
    diffs = {}
    for i in degrees:
        rows = a.dim(i + 2) + b.dim(i + 1)
        cols = a.dim(i + 1) + b.dim(i)
        if not rows or not cols:
            continue
        top = (-a.d(i + 1)).hstack(Mat.zeros(a.dim(i + 2), b.dim(i)))
        bot = map_block(fmap, i + 1, a, b).hstack(b.d(i))
        diffs[i] = top.vstack(bot)
    return ChainComplex(spaces, diffs)


def cone_comparison(
    a1: ChainComplex, b1: ChainComplex, a2: ChainComplex, b2: ChainComplex,
    alpha: dict[int, Mat], beta: dict[int, Mat], h: dict[int, Mat],
) -> dict[int, Mat]:
    """The map C(f1) -> C(f2) of the cones of f1: A1 -> B1 and f2: A2 -> B2,
    (x, y) |-> (alpha x, beta y + h x), where h^{i+1}: A1^{i+1} -> B2^i is
    read with shape B2^i x A1^{i+1}.  Its blocks do not depend on f1 or f2."""
    out = {}
    for i in sorted(set(a1.spaces) | set(b1.spaces) | set(a2.spaces) | set(b2.spaces) | {j - 1 for j in a1.spaces} | {j - 1 for j in a2.spaces}):
        rows = a2.dim(i + 1) + b2.dim(i)
        cols = a1.dim(i + 1) + b1.dim(i)
        if not rows or not cols:
            continue
        top = map_block(alpha, i + 1, a1, a2).hstack(Mat.zeros(a2.dim(i + 1), b1.dim(i)))
        hpart = _block(h, i + 1, b2.dim(i), a1.dim(i + 1), "homotopy")
        bot = hpart.hstack(map_block(beta, i, b1, b2))
        out[i] = top.vstack(bot)
    return out


# -- self-dual complexes ------------------------------------------------


class SelfDualComplex(Record):
    """Complex with an epsilon-symmetric degree pairing S_i: F^i x F^{-i} -> Q."""

    def __init__(self, epsilon: int, complex: ChainComplex, pairings: dict[int, Mat]):
        self.epsilon = epsilon
        self.complex = complex
        self.pairings = pairings
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        for i, s in self.pairings.items():
            if s.m != self.dim(i) or s.n != self.dim(-i):
                raise ValueError(f"pairing block at degree {i} has shape {s.m}x{s.n}, "
                                 f"expected {self.dim(i)}x{self.dim(-i)}")

    @staticmethod
    def make(epsilon: int, spaces: dict[int, int], differentials: dict[int, Mat],
             pairings: dict[int, Mat]) -> "SelfDualComplex":
        """Build, completing missing S_{-i} blocks from S_{-i} = (-1)^i eps S_i^T."""
        given = _nonempty(pairings)
        cx = ChainComplex(spaces, differentials)
        SelfDualComplex(epsilon, cx, given)  # checks epsilon and each block's shape
        completed = dict(given)
        for i, s in given.items():
            mirror = s.T if (-1) ** i * epsilon == 1 else -s.T
            if completed.setdefault(-i, mirror) != mirror:
                raise ValueError(f"pairing blocks at degrees {i} and {-i} violate the "
                                 f"(-1)^i involution symmetry")
        return SelfDualComplex(epsilon, cx, completed)

    @staticmethod
    def from_form(f: BilinearForm) -> "SelfDualComplex":
        return SelfDualComplex.make(f.symmetry, {0: f.gram.n}, {}, {0: f.gram})

    def s(self, i: int) -> Mat:
        got = self.pairings.get(i)
        if got is not None:
            return got
        return Mat.zeros(self.complex.dim(i), self.complex.dim(-i))

    def dim(self, i: int) -> int:
        return self.complex.dim(i)

    def direct_sum(self, other: "SelfDualComplex") -> "SelfDualComplex":
        if self.epsilon != other.epsilon:
            raise ValueError("direct sum needs matching symmetry")
        cx = self.complex.direct_sum(other.complex)
        pairings = {i: self.s(i).direct_sum(other.s(i))
                    for i in set(self.pairings) | set(other.pairings)}
        return SelfDualComplex(self.epsilon, cx, pairings)

    def negated(self) -> "SelfDualComplex":
        return SelfDualComplex(self.epsilon, self.complex,
                               {i: -s for i, s in self.pairings.items()})


class ComplexReport(Record):
    """What ``validate`` found: its problems, or the cohomology, the induced
    pairings and the H^0 form (None for an invalid complex)."""

    def __init__(self, ok: bool, problems: list, cohomology_dims: dict[int, int],
                 induced_pairings: dict[int, Mat], cohomology: Cohomology,
                 h0_form: BilinearForm | None):
        self.ok = ok
        self.problems = problems
        self.cohomology_dims = cohomology_dims
        self.induced_pairings = induced_pairings
        self.cohomology = cohomology  # the representatives the induced pairings use
        self.h0_form = h0_form


def validate(c: SelfDualComplex) -> ComplexReport:
    """Check the four self-dual complex invariants, with witnesses, in this
    order: d d = 0, as the complex's ``Cohomology`` decides it; then the
    involution S_{-i} = (-1)^i eps S_i^T, the pairing chain map, and
    perfectness on cohomology, one function each.  Perfectness is decided
    at every degree, H^0 included, by the determinant of the induced Gram
    matrix.

    The identities come in mirror pairs.  The involution identity at -i is
    the transpose of the one at i.  Given it, the chain-map defect
    T_i = d(i)^T S_{i+1} + (-1)^i S_i d(-i-1) on F^i x F^{-i-1} satisfies
    T_{-i-1} = eps T_i^T, so T_i = 0 and T_{-i-1} = 0 together; T_i = 0
    reads S_i d(-i-1) = eps (S_{-i-1} d(i))^T.  Each pair is checked once,
    and a failing pair sends the check through every degree, so a report
    lists its problems as the degree-by-degree check does.
    """
    cx = c.complex
    coh = Cohomology(cx)
    problems = coh.dd_failures()
    involution = _involution_problems(c)
    problems += involution + _pairing_chain_map_problems(c, mirrored=not involution)
    dims = {i: coh.dim(i) for i in cx.degrees() if coh.dim(i)}
    h0 = None
    if not problems:  # the involution holds, so the H^0 pairing is eps-symmetric
        h0 = BilinearForm(RATIONAL, c.epsilon, _induced_gram(c.s(0), coh.reps(0), coh.reps(0)))
    induced, imperfect = _perfectness(c, coh, dims, h0)
    problems += imperfect
    return ComplexReport(ok=not problems, problems=problems, cohomology_dims=dims,
                         induced_pairings=induced, cohomology=coh, h0_form=None if problems else h0)


def _involution_problems(c: SelfDualComplex) -> list:
    """S_{-i} = (-1)^i eps S_i^T, once for each pair {i, -i}; on a failure,
    at every degree, with a witness entry for each failing one."""
    degrees = c.complex.degrees()
    if all(c.s(-i).is_signed_transpose(c.s(i), (-1) ** i * c.epsilon) for i in degrees if i >= 0):
        return []
    problems = []
    for i in degrees:
        s_i, s_mi = c.s(i), c.s(-i)
        mirror = s_i.T if (-1) ** i * c.epsilon == 1 else -s_i.T
        if s_mi != mirror:
            u, v = next(((a, b) for a in range(s_mi.m) for b in range(s_mi.n)
                         if s_mi[a, b] != mirror[a, b]))
            problems.append({
                "check": "involution_symmetry",
                "degree": i,
                "witness_pair": [u, v],
                "got": str(s_mi[u, v]),
                "expected": str(mirror[u, v]),
            })
    return problems


def _pairing_chain_map_problems(c: SelfDualComplex, mirrored: bool) -> list:
    """S(du, v) + (-1)^deg(u) S(u, dv) = 0 on F^i x F^{-i-1}.  Where the
    involution identity holds (``mirrored``), once for each pair {i, -i-1}
    with a differential; else, or on a failure, at every degree."""
    cx = c.complex
    stored = cx.differentials
    pairs = {k if k >= 0 else -k - 1 for k in stored}
    if mirrored and all((c.s(i) * cx.d(-i - 1)).is_signed_transpose(c.s(-i - 1) * cx.d(i), c.epsilon)
                        for i in pairs):
        return []
    problems = []
    degrees = cx.degrees()
    for i in range(min(degrees, default=0) - 1, max(degrees, default=0) + 1):
        if i not in stored and -i - 1 not in stored:
            continue  # d(i) = 0 and d(-i-1) = 0: both sides are zero
        a = cx.d(i).T * c.s(i + 1)
        b = c.s(i) * cx.d(-i - 1)
        if a != (-b if i % 2 == 0 else b):  # a + (-1)^i b is not zero
            total = a + b if i % 2 == 0 else a - b
            u, v = next(((r, cc) for r in range(total.m) for cc in range(total.n) if total[r, cc]))
            problems.append({
                "check": "pairing_chain_map",
                "degree": i,
                "witness_pair": [u, v],
                "value": str(total[u, v]),
            })
    return problems


def _perfectness(c: SelfDualComplex, coh: Cohomology, dims: dict[int, int],
                 h0: BilinearForm | None) -> tuple[dict[int, Mat], list]:
    """The pairings induced on H^i x H^{-i}, i >= 0, and the problems of
    those that are not perfect, at every degree by one determinant.  The
    pairing on H^0 is the Gram matrix of ``h0`` when that is given."""
    induced, problems = {}, []
    for i in sorted({abs(j) for j in dims} | ({0} if dims else set())):
        hi, hmi = coh.dim(i), coh.dim(-i)
        if hi == 0 and hmi == 0:
            continue
        if hi != hmi:
            problems.append({
                "check": "perfect_on_cohomology",
                "degree": i,
                "detail": f"H^{i} has dimension {hi} but H^{-i} has dimension {hmi}",
            })
            continue
        gram = h0.gram if i == 0 and h0 is not None else _induced_gram(c.s(i), coh.reps(i), coh.reps(-i))
        induced[i] = gram
        if gram.n and not gram.det():
            kernel = gram.nullspace()
            problems.append({
                "check": "perfect_on_cohomology",
                "degree": i,
                "witness_class_vector": [str(x) for x in kernel.T.rows[0]],
            })
    return induced, problems


def _induced_gram(s: Mat, left: Mat, right: Mat) -> Mat:
    """left^T s right.  Where both sets of columns are distinct unit vectors,
    that is the submatrix of s at their rows, taken with no product."""
    rows, cols = left.unit_positions(), right.unit_positions()
    if rows is not None and cols is not None:
        return s.submatrix(rows, cols)
    return left.T * s * right


def ensure_valid(c: SelfDualComplex) -> ComplexReport:
    report = validate(c)
    if not report.ok:
        raise ValueError(f"invalid self-dual complex: {report.problems}")
    return report


def h0_form(c: SelfDualComplex) -> BilinearForm:
    """The induced form on H^0 (H^0 = 0 gives the empty form); perfectness
    makes it nondegenerate."""
    return ensure_valid(c).h0_form


def cobordism_class(c: SelfDualComplex) -> WittClassQ:
    """Class in the point cobordism group: the Witt class of the H^0 form.

    The skew sector vanishes; for epsilon = -1 ``witt_class_of`` certifies
    the zero class by a symplectic basis of the H^0 form.
    """
    return witt_class_of(h0_form(c))


# -- witnesses ----------------------------------------------------------


class CobordismWitness(Record):
    """Diagram (G, F, F', G') with maps, pairing S'', optional homotopy."""

    def __init__(self, kind: str, f: SelfDualComplex, f_prime: SelfDualComplex, g: ChainComplex,
                 g_prime: ChainComplex, pi: dict[int, Mat], rho: dict[int, Mat],
                 rho_prime: dict[int, Mat], pi_prime: dict[int, Mat], s2: dict[int, Mat],
                 homotopy: dict[int, Mat] | None = None):
        self.kind = kind  # "direct" or "direct_subquotient"
        self.f = f
        self.f_prime = f_prime
        self.g = g
        self.g_prime = g_prime
        self.pi = pi  # G -> F
        self.rho = rho  # F -> G'
        self.rho_prime = rho_prime  # G -> F'
        self.pi_prime = pi_prime  # F' -> G'
        self.s2 = s2  # S'': G^i x G'^{-i} -> Q
        self.homotopy = homotopy


class WitnessReport(Record):
    """What ``verify_witness`` found: its failures, or the homotopy it used."""

    def __init__(self, ok: bool, failures: list, homotopy: dict[int, Mat] | None = None):
        self.ok = ok
        self.failures = failures
        self.homotopy = homotopy


def verify_witness(w: CobordismWitness) -> WitnessReport:
    """Check the witness conditions in order, one function each; the first
    condition that fails ends the check, and the report lists its failures."""
    return _verified(w)[0]


def _verified(w: CobordismWitness) -> tuple[WitnessReport, ComplexReport, ComplexReport,
                                            Cohomology, Cohomology]:
    """``verify_witness``'s report, with what it certified on the way: the
    reports of F and F' and the cohomologies of G and G'."""
    reports = validate(w.f), validate(w.f_prime)
    cg, cgp = Cohomology(w.g), Cohomology(w.g_prime)
    read = (*reports, cg, cgp)
    failures = _object_failures(w, reports, cg, cgp) or _chain_map_failures(w)
    if failures:
        return (WitnessReport(False, failures), *read)
    h, failures = _commutativity(w)
    failures = failures or _adjointness_failures(w) or _s2_perfect_failures(w, cg, cgp)
    if failures:
        return (WitnessReport(False, failures), *read)
    failures = _cone_failures(w, h)
    if not failures and w.kind == "direct_subquotient":
        failures = _subquotient_shape_failures(w)
    return (WitnessReport(not failures, failures, h), *read)


def _object_failures(w: CobordismWitness, reports: tuple[ComplexReport, ComplexReport],
                     cg: Cohomology, cgp: Cohomology) -> list:
    """F and F' are valid self-dual complexes of one symmetry, as their
    ``validate`` reports say; d d = 0 on G and G'."""
    failures = []
    for name, rep in zip(("F", "F'"), reports):
        if not rep.ok:
            failures.append({"check": "object_valid", "object": name, "problems": rep.problems})
    if w.f.epsilon != w.f_prime.epsilon:
        failures.append({"check": "symmetry_match"})
    for name, coh in (("G", cg), ("G'", cgp)):
        bad = coh.dd_failures()
        if bad:
            failures.append({"check": "object_valid", "object": name, "problems": bad})
    return failures


def _chain_map_failures(w: CobordismWitness) -> list:
    """pi, rho, rho' and pi' are chain maps."""
    fc, fpc = w.f.complex, w.f_prime.complex
    maps = (("pi", w.pi, w.g, fc), ("rho", w.rho, fc, w.g_prime),
            ("rho'", w.rho_prime, w.g, fpc), ("pi'", w.pi_prime, fpc, w.g_prime))
    first = [(name, chain_map_failure(fmap, src, dst)) for name, fmap, src, dst in maps]
    return [{"check": "chain_map", "map": name, "degree": i} for name, i in first if i is not None]


def _commutativity(w: CobordismWitness) -> tuple[dict[int, Mat] | None, list]:
    """The square commutes up to homotopy, pi' rho' - rho pi = d h + h d: the
    given h is checked, or one is solved for.  Returns h and the failures."""
    g, gp, fc, fpc = w.g, w.g_prime, w.f.complex, w.f_prime.complex
    degrees = sorted(set(g.spaces) | set(gp.spaces))
    # every pi' rho' block first: a misshapen block of pi' or rho' is refused before one of rho or pi
    top = [map_block(w.pi_prime, i, fpc, gp) * map_block(w.rho_prime, i, g, fpc) for i in degrees]
    diff = _nonempty({i: t - map_block(w.rho, i, fc, gp) * map_block(w.pi, i, g, fc)
                      for i, t in zip(degrees, top)})
    h = w.homotopy
    if h is None:
        h = solve_homotopy(g, gp, diff)
        if h is None:
            return None, [{"check": "commutativity", "detail": "square does not commute up to homotopy"}]
        return h, []
    for i in degrees:
        # h^i: G^i -> G'^{i-1}
        dh = gp.d(i - 1) * _block(h, i, gp.dim(i - 1), g.dim(i), "homotopy")
        hd = _block(h, i + 1, gp.dim(i), g.dim(i + 1), "homotopy") * g.d(i)
        if dh + hd != map_block(diff, i, g, gp):
            return h, [{"check": "homotopy_identity", "degree": i}]
    return h, []


def _adjointness_failures(w: CobordismWitness) -> list:
    """S(pi g, f) = S''(g, rho f) and S'(rho' g, f') = S''(g, pi' f'), as
    exact matrix equations, degree by degree."""
    identities = (("adjointness_pi_rho", w.pi, w.f, w.rho),
                  ("adjointness_rho_prime_pi_prime", w.rho_prime, w.f_prime, w.pi_prime))
    failures = []
    for i in sorted(w.g.spaces):
        for check, into, obj, out_of in identities:
            if obj.dim(-i):
                lhs = map_block(into, i, w.g, obj.complex).T * obj.s(i)
                rhs = _s2_block(w, i) * map_block(out_of, -i, obj.complex, w.g_prime)
                if lhs != rhs:
                    failures.append({"check": check, "degree": i, "lhs": lhs.rows, "rhs": rhs.rows})
    return failures


def _s2_perfect_failures(w: CobordismWitness, cg: Cohomology, cgp: Cohomology) -> list:
    """S'' is perfect on cohomology: H^i(G) x H^-i(G') -> Q in every degree,
    on the cohomologies whose d d = 0 test ``_object_failures`` read."""
    failures = []
    for i in sorted(set(w.g.degrees()) | {-j for j in w.g_prime.degrees()} | {0}):
        hi, hmi = cg.dim(i), cgp.dim(-i)
        if hi != hmi:
            failures.append({"check": "s2_perfect", "degree": i,
                             "detail": f"H^{i}(G) = {hi} vs H^{-i}(G') = {hmi}"})
            continue
        if hi == 0:
            continue
        gram = _induced_gram(_s2_block(w, i), cg.reps(i), cgp.reps(-i))
        if not gram.det():
            failures.append({"check": "s2_perfect", "degree": i})
    return failures


def _cone_failures(w: CobordismWitness, h: dict[int, Mat]) -> list:
    """The mapping-cone condition: C(rho') -> C(rho) is a quasi-isomorphism."""
    fc, fpc = w.f.complex, w.f_prime.complex
    cone_src = mapping_cone(w.rho_prime, w.g, fpc)
    cone_dst = mapping_cone(w.rho, fc, w.g_prime)
    phi = cone_comparison(w.g, fpc, fc, w.g_prime, w.pi, w.pi_prime, h)
    bad = chain_map_failure(phi, cone_src, cone_dst)
    if bad is not None:
        # the checks before make (pi, pi' + h) a chain map; this certifies the cone signs
        raise CertificateError(f"cone_comparison_chain_map certificate failed at degree {bad}")
    failures = []
    src_coh, dst_coh = Cohomology(cone_src), Cohomology(cone_dst)
    for i in sorted(set(cone_src.spaces) | set(cone_dst.spaces)):
        hs, hd = src_coh.dim(i), dst_coh.dim(i)
        if hs != hd:
            failures.append({"check": "cone_isomorphism", "degree": i,
                             "detail": f"cone cohomology {hs} vs {hd}"})
            continue
        if hs == 0:
            continue
        induced = src_coh.induced(phi, i, dst_coh)
        if not induced.det():
            failures.append({"check": "cone_isomorphism", "degree": i,
                             "detail": "induced map on cone cohomology is singular"})
    return failures


def _s2_block(w: CobordismWitness, i: int) -> Mat:
    return _block(w.s2, i, w.g.dim(i), w.g_prime.dim(-i), "S''")


def _subquotient_shape_failures(w: CobordismWitness) -> list:
    failures = []
    for cpx, name in ((w.f.complex, "F"), (w.f_prime.complex, "F'"),
                      (w.g, "G"), (w.g_prime, "G'")):
        if any(i != 0 for i in cpx.degrees()):
            failures.append({"check": "subquotient_degree_zero", "object": name})
    if failures:
        return failures
    rho_p = map_block(w.rho_prime, 0, w.g, w.f_prime.complex)
    rho = map_block(w.rho, 0, w.f.complex, w.g_prime)
    pi = map_block(w.pi, 0, w.g, w.f.complex)
    pi_p = map_block(w.pi_prime, 0, w.f_prime.complex, w.g_prime)
    # by rank-nullity a map is injective iff its rank is n, surjective iff it is m
    r_rho_p, r_rho, r_pi, r_pi_p = (f.rank() for f in (rho_p, rho, pi, pi_p))
    horizontals_inj = r_rho_p == rho_p.n and r_rho == rho.n and r_pi == pi.m and r_pi_p == pi_p.m
    horizontals_surj = r_rho_p == rho_p.m and r_rho == rho.m and r_pi == pi.n and r_pi_p == pi_p.n
    if not (horizontals_inj or horizontals_surj):
        failures.append({
            "check": "subquotient_pattern",
            "detail": "horizontal maps must be injective with vertical surjective, or conversely",
        })
    return failures


# -- constructions ------------------------------------------------------


def quotient_data(n: int, sub: Mat) -> tuple[Mat, Mat]:
    """(projection, section) for Q^n / span(sub); projection . section = I.
    An empty ``sub`` gives (I, I), with no elimination."""
    if not sub.n:
        return Mat.identity(n), Mat.identity(n)
    idx = extend_to_complement(sub, Mat.identity(n))
    if len(idx) != n - sub.n:
        raise ValueError("subspace basis is not independent")
    section = Mat.identity(n).submatrix(range(n), idx)
    projection = section.hstack(sub).inv().submatrix(range(section.n), range(n))
    return projection, section


def truncation_witness(c: SelfDualComplex) -> CobordismWitness:
    """The witness realizing that a complex is directly cobordant to its H^0 form:
    G is the lower truncation, G' the upper truncation, and S'' is induced."""
    report = ensure_valid(c)
    cx = c.complex
    coh = report.cohomology
    kernel = coh.cocycles(0)  # ker d^0 as columns in F^0
    z = kernel.n
    projection, section = quotient_data(cx.dim(0), coh.boundaries(0))

    g_spaces = {i: cx.dim(i) for i in cx.degrees() if i < 0}
    if z:
        g_spaces[0] = z
    g_diffs = {i: cx.d(i) for i in cx.degrees() if i < -1 and cx.d(i).m}
    if cx.dim(-1) and z:
        lift = kernel.solve(cx.d(-1))
        if lift is None:
            raise CertificateError("truncation certificate failed: d^-1 does not land in ker d^0")
        g_diffs[-1] = lift
    g = ChainComplex(g_spaces, g_diffs)

    q = projection.m
    gp_spaces = {i: cx.dim(i) for i in cx.degrees() if i > 0}
    if q:
        gp_spaces[0] = q
    gp_diffs = {i: cx.d(i) for i in cx.degrees() if i > 0 and cx.d(i).m}
    if q and cx.dim(1):
        gp_diffs[0] = cx.d(0) * section
    gp = ChainComplex(gp_spaces, gp_diffs)

    f_obj = SelfDualComplex.from_form(report.h0_form)

    rho_prime = {i: Mat.identity(cx.dim(i)) for i in cx.degrees() if i < 0}
    if z:
        rho_prime[0] = kernel
    pi = {0: coh.coords(0, kernel)} if z else {}
    pi_prime = {i: Mat.identity(cx.dim(i)) for i in cx.degrees() if i > 0}
    if q:
        pi_prime[0] = projection
    rho = {0: projection * coh.reps(0)} if coh.dim(0) else {}

    s2 = {}
    for i in cx.degrees():
        if i < 0 and cx.dim(i) and cx.dim(-i):
            s2[i] = c.s(i)
    if z and q:
        s2[0] = kernel.T * c.s(0) * section
    return CobordismWitness(
        kind="direct", f=f_obj, f_prime=c, g=g, g_prime=gp,
        pi=pi, rho=rho, rho_prime=rho_prime, pi_prime=pi_prime, s2=s2,
    )


def null_witness(w: CobordismWitness) -> CobordismWitness:
    """From a direct witness between (F, S) and (F', S'), the witness showing
    (F', S') + (F, -S) is directly cobordant to 0."""
    fsum = w.f_prime.direct_sum(w.f.negated())
    fc, fpc, g, gp = w.f.complex, w.f_prime.complex, w.g, w.g_prime
    # the new rho' is (rho', pi): G -> F' + F, the new pi' is (pi', -rho): F' + F -> G'
    rho_prime = _nonempty({i: map_block(w.rho_prime, i, g, fpc).vstack(map_block(w.pi, i, g, fc))
                           for i in sorted(set(g.spaces) | set(fsum.complex.spaces))})
    pi_prime = _nonempty({i: map_block(w.pi_prime, i, fpc, gp).hstack(-map_block(w.rho, i, fc, gp))
                          for i in sorted(set(fsum.complex.spaces) | set(gp.spaces))})
    zero_obj = SelfDualComplex.make(w.f.epsilon, {}, {}, {})
    return CobordismWitness(
        kind="direct", f=zero_obj, f_prime=fsum, g=w.g, g_prime=w.g_prime,
        pi={}, rho={}, rho_prime=rho_prime, pi_prime=pi_prime,
        s2=dict(w.s2), homotopy=w.homotopy,
    )


def congruence_witness(f: BilinearForm, p: Mat) -> CobordismWitness:
    """Witness between a form and its congruent image P^T G P (an isometry)."""
    return _congruence_witness(f, f.congruent_by(p), p)


def _congruence_witness(f: BilinearForm, image: BilinearForm, p: Mat) -> CobordismWitness:
    """``congruence_witness`` for the image P^T G P of f, built by the caller."""
    ident = Mat.identity(f.gram.n)
    return _degree0_witness(f, image, pi=ident, rho=ident, rho_prime=p.inv(), pi_prime=p, s2=f.gram)


def _metabolic_witness(block: BlockMetabolicForm, form: BilinearForm,
                       f_big: BilinearForm, p: Mat) -> CobordismWitness:
    """Subquotient witness between the core S and f_big = P^T G P, the image
    of the assembled block form G: the isotropic block is divided out."""
    n, k, m = form.gram.n, block.isotropic_rank, block.s.gram.n
    # G: the first k + m basis vectors; G': the last m + k, modulo the first k
    incl = Mat.identity(n).submatrix(range(n), range(k + m))
    section_old = Mat.identity(n).submatrix(range(n), range(k, n))
    return _degree0_witness(
        block.s, f_big,
        pi=Mat.identity(k + m).submatrix(range(k, k + m), range(k + m)),
        rho=Mat.identity(m + k).submatrix(range(m + k), range(m)),
        rho_prime=p.inv() * incl,
        pi_prime=section_old.T * p,
        s2=incl.T * form.gram * section_old,
    )


class OrthogonalSplit(Record):
    def __init__(self, kind: str, restriction: BilinearForm | None = None,
                 complement: BilinearForm | None = None, complement_basis: Mat | None = None,
                 quotient_form: BilinearForm | None = None, witness: CobordismWitness | None = None):
        self.kind = kind  # "split" or "subquotient"
        self.restriction = restriction
        self.complement = complement
        self.complement_basis = complement_basis
        self.quotient_form = quotient_form
        self.witness = witness


def orthogonal_split(f: BilinearForm, sub: Mat) -> OrthogonalSplit:
    """Split off a subspace, or divide out an isotropic one.

    If f restricted to the subspace is nondegenerate, V decomposes as an
    orthogonal direct sum.  If the restriction is zero, the subspace sits
    inside its own orthogonal complement G' and the induced form on G'/G is
    returned with the subquotient witness.  Mixed restrictions must have
    their radical extracted by the caller first.
    """
    if not f.is_nondegenerate():
        raise ValueError("ambient form must be nondegenerate")
    n = f.gram.n
    if sub.rank() != sub.n or sub.n == 0:
        raise ValueError("subspace basis must be independent and nonempty")
    restriction = sub.T * f.gram * sub
    if restriction.det():
        perp = (sub.T * f.gram).nullspace()
        return OrthogonalSplit(
            kind="split",
            restriction=BilinearForm(RATIONAL, f.symmetry, restriction),
            complement=f.restrict(perp),
            complement_basis=perp,
        )
    if not restriction.is_zero():
        raise ValueError("restriction is degenerate but nonzero: "
                         "extract the radical of the restriction first")
    perp = (sub.T * f.gram).nullspace()  # contains sub
    inside = perp.solve(sub)
    if inside is None:
        raise CertificateError("isotropic subspace not inside its orthogonal complement")
    quot_reps = perp.submatrix(range(n), extend_to_complement(sub, perp))
    q_gram = quot_reps.T * f.gram * quot_reps
    quotient_form = BilinearForm(RATIONAL, f.symmetry, q_gram)

    g_basis = quot_reps.hstack(sub)  # basis of G', quotient representatives first
    projection, section = quotient_data(n, sub)
    witness = _degree0_witness(
        quotient_form, f,
        pi=Mat.identity(g_basis.n).submatrix(range(quot_reps.n), range(g_basis.n)),
        rho=projection * quot_reps,
        rho_prime=g_basis,
        pi_prime=projection,
        s2=g_basis.T * f.gram * section,
    )
    return OrthogonalSplit(kind="subquotient", quotient_form=quotient_form, witness=witness)


class WitnessCoreResult(Record):
    def __init__(self, core: BilinearForm, witness_to_f: CobordismWitness,
                 witness_to_f_prime: CobordismWitness):
        self.core = core
        self.witness_to_f = witness_to_f
        self.witness_to_f_prime = witness_to_f_prime


def witness_common_core(w: CobordismWitness) -> WitnessCoreResult:
    """From a verified direct witness, the degree-0 core (Im delta, S'') with
    subquotient witnesses to the H^0 forms of both ends."""
    report, rep_f, rep_fp, ch_g, ch_gp = _verified(w)
    if not report.ok:
        raise ValueError(f"witness does not verify: {report.failures}")
    ch_f, ch_fp = rep_f.cohomology, rep_fp.cohomology  # the representatives of the H^0 forms
    pi0 = ch_g.induced(w.pi, 0, ch_f)
    rho0 = ch_f.induced(w.rho, 0, ch_gp)
    rho_p0 = ch_g.induced(w.rho_prime, 0, ch_fp)
    pi_p0 = ch_fp.induced(w.pi_prime, 0, ch_gp)
    delta = rho0 * pi0
    if delta != pi_p0 * rho_p0:
        raise CertificateError("core certificate failed: the square does not commute on H^0")

    mf, mfp = rep_f.h0_form.gram, rep_fp.h0_form.gram

    im_delta = delta.column_space_basis()
    x = delta.solve(im_delta)
    if x is None:
        raise CertificateError("core certificate failed: Im delta has no preimage under delta")
    core_gram = (pi0 * x).T * mf * (pi0 * x)
    core_gram_2 = (rho_p0 * x).T * mfp * (rho_p0 * x)
    if core_gram != core_gram_2:
        raise CertificateError("core certificate failed: the two ends induce different core forms")
    core = BilinearForm(RATIONAL, w.f.epsilon, core_gram)

    w1 = _core_side_witness(mf, w.f.epsilon, pi0, rho0, im_delta, x, core)
    w2 = _core_side_witness(mfp, w.f_prime.epsilon, rho_p0, pi_p0, im_delta, x, core)
    for side in (w1, w2):
        rep = verify_witness(side)
        if not rep.ok:
            raise CertificateError(f"constructed subquotient witness failed: {rep.failures}")
    return WitnessCoreResult(core=core, witness_to_f=w1, witness_to_f_prime=w2)


def _core_side_witness(mf: Mat, epsilon: int, pi0: Mat, rho0: Mat, im_delta: Mat,
                  x: Mat, core: BilinearForm) -> CobordismWitness:
    hf = mf.n
    bl = pi0.column_space_basis()  # L = Im pi0
    lk = rho0.nullspace()  # L'' = Ker rho0
    if bl.solve(lk) is None:
        raise CertificateError("Ker rho0 is not inside Im pi0")
    projection, section = quotient_data(hf, lk)
    pi_w = im_delta.solve(rho0 * bl) if bl.n else Mat.zeros(im_delta.n, 0)
    if pi_w is None:
        raise CertificateError("core certificate failed: rho0 of Im pi0 is not inside Im delta")
    return _degree0_witness(
        core, BilinearForm(RATIONAL, epsilon, mf),
        pi=pi_w,
        rho=projection * pi0 * x,
        rho_prime=bl,
        pi_prime=projection,
        s2=bl.T * mf * section,
    )


def _degree0_witness(f: BilinearForm, f_prime: BilinearForm, *, pi: Mat, rho: Mat,
                     rho_prime: Mat, pi_prime: Mat, s2: Mat) -> CobordismWitness:
    """The subquotient witness between two forms placed in degree 0: G is
    the source of rho' and G' the target of pi'."""
    return CobordismWitness(
        kind="direct_subquotient",
        f=SelfDualComplex.from_form(f),
        f_prime=SelfDualComplex.from_form(f_prime),
        g=ChainComplex.single(rho_prime.n),
        g_prime=ChainComplex.single(pi_prime.m),
        pi=_nonempty({0: pi}), rho=_nonempty({0: rho}), rho_prime=_nonempty({0: rho_prime}),
        pi_prime=_nonempty({0: pi_prime}), s2=_nonempty({0: s2}),
    )


# -- seeded fixture generators ------------------------------------------


def random_invertible(rng: Random, n: int, bound: int = 2) -> Mat:
    """Product of unit triangular matrices and a permutation: always invertible.

    Sparse (each entry below or above the diagonal is drawn with probability
    0.35) so Gram entries stay small enough to factor quickly along witness
    chains.
    """
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [list(r) for r in lower]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.35:
                lower[i][j] = rng.randint(-bound, bound)
            if rng.random() < 0.35:
                upper[j][i] = rng.randint(-bound, bound)
    perm = list(range(n))
    rng.shuffle(perm)
    # times the permutation matrix with rows e_perm[i]: column perm[i] is column i
    return (_integer_mat(n, n, lower) * _integer_mat(n, n, upper)).submatrix(
        range(n), sorted(range(n), key=perm.__getitem__))


def random_nondegenerate_form(rng: Random, n: int, symmetry: int = SYMMETRIC,
                              bound: int = 3) -> BilinearForm:
    if symmetry == SKEW and n % 2:
        raise ValueError("skew nondegenerate forms need even rank")
    while True:
        form = BilinearForm(RATIONAL, symmetry, random_gram(rng, n, bound, symmetry))
        if n == 0 or form.is_nondegenerate():
            return form


def random_gram(rng: Random, n: int, bound: int, symmetry: int = SYMMETRIC) -> Mat:
    """A random epsilon-symmetric n x n Gram matrix, entries in [-bound, bound].

    One entry is drawn for each (i, j <= i) in row order; a skew matrix
    draws its diagonal entries too and keeps them zero.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            v = rng.randint(-bound, bound)
            if symmetry == SYMMETRIC or i != j:
                rows[i][j], rows[j][i] = v, symmetry * v
    return _integer_mat(n, n, rows)


def random_integer_matrix(rng: Random, m: int, n: int, bound: int) -> Mat:
    """An m x n matrix of integers in [-bound, bound], drawn row by row."""
    return _integer_mat(m, n, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def _integer_mat(m: int, n: int, rows: list[list[int]]) -> Mat:
    return Mat(m, n, ints=[(1, r) for r in rows])


def acyclic_extension(f: BilinearForm, rng: Random, a: int) -> SelfDualComplex:
    """Extend a degree-0 form by a contractible complex in degrees -1, 0, 1.

    H^0 of the result carries exactly the input Gram matrix, so the
    cobordism class is unchanged by construction.
    """
    eps = f.symmetry
    n = f.gram.n
    mm = random_invertible(rng, a, bound=1)
    r = random_integer_matrix(rng, n, a, 1)
    y = random_gram(rng, a, 1, eps)
    d_minus1 = Mat.zeros(n, a).vstack(Mat.identity(a)).vstack(Mat.zeros(a, a))
    d_0 = Mat.zeros(a, n).hstack(Mat.zeros(a, a)).hstack(Mat.identity(a))
    s1 = mm
    s0_top = f.gram.hstack(Mat.zeros(n, a)).hstack(r)
    s0_mid = Mat.zeros(a, n).hstack(Mat.zeros(a, a)).hstack(-mm.T if eps == 1 else mm.T)
    s0_bot = (r.T if eps == 1 else -r.T).hstack(-mm).hstack(y)
    s0 = s0_top.vstack(s0_mid).vstack(s0_bot)
    return SelfDualComplex.make(
        eps,
        {-1: a, 0: n + 2 * a, 1: a},
        {-1: d_minus1, 0: d_0},
        {0: s0, 1: s1},
    )


class ChainLink(Record):
    def __init__(self, step: str, obj, witness: CobordismWitness, block: BlockMetabolicForm | None = None):
        self.step = step  # "metabolic", "congruence", "acyclic"
        self.obj = obj  # BilinearForm or SelfDualComplex
        self.witness = witness
        self.block = block  # set for metabolic steps


class WitnessChain(Record):
    def __init__(self, core: BilinearForm, links: list[ChainLink]):
        self.core = core
        self.links = links


def form_height_ok(f: BilinearForm) -> bool:
    """Keep diagonal entries small enough to factor quickly: |num * den| <= 10^8."""
    return all(abs(e.numerator * e.denominator) <= 10**8 for e in diagonalize(f).entries)


def random_witness_chain(rng: Random, core_rank: int, steps: int) -> WitnessChain:
    """Random chain of witnessed cobordisms with class fixed at the core's.

    At most two steps are metabolic.  Steps whose Gram entries grow past
    factoring range are regenerated, so every object in the chain has a
    computable Witt class.
    """
    core = random_nondegenerate_form(rng, core_rank)
    current = core
    links = []
    metabolic_used = 0
    for _ in range(steps):
        choices = ["congruence", "acyclic"]
        if metabolic_used < 2:
            choices.append("metabolic")
        step = rng.choice(choices)
        if step == "metabolic" and current.gram.n > 0:
            metabolic_used += 1
            k = rng.randint(1, 2)
            m = current.gram.n
            for _attempt in range(20):
                a = random_gram(rng, k, 2)
                b = random_integer_matrix(rng, m, k, 2)
                block = BlockMetabolicForm(current, a, b)
                p = random_invertible(rng, m + 2 * k, bound=1)
                form = block.assemble()
                candidate = form.congruent_by(p)
                if form_height_ok(candidate):
                    break
            else:
                p = Mat.identity(m + 2 * k)
                candidate = form
            w = _metabolic_witness(block, form, candidate, p)
            current = candidate
            links.append(ChainLink("metabolic", current, w, block=block))
        elif step == "congruence" and current.gram.n > 0:
            for _attempt in range(20):
                p = random_invertible(rng, current.gram.n, bound=1)
                candidate = current.congruent_by(p)
                if form_height_ok(candidate):
                    break
            else:
                p = Mat.identity(current.gram.n)
                candidate = current.congruent_by(p)
            w = _congruence_witness(current, candidate, p)
            current = candidate
            links.append(ChainLink("congruence", current, w))
        else:
            cpx = acyclic_extension(current, rng, rng.randint(1, 2))
            w = truncation_witness(cpx)
            links.append(ChainLink("acyclic", cpx, w))
            # the chain continues from H^0 of the extension, which is `current`
    return WitnessChain(core=core, links=links)
