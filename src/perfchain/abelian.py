"""Finitely generated abelian groups, Smith normal form, and l-completion.

All integer arithmetic uses Python ints (arbitrary precision).  Smith
normal forms come from Kannan-Bachem echelon passes that keep the entries
off the diagonal reduced modulo the diagonal, so the transforms U and V
stay near the size of the determinant (see `smith_normal_form`).  The
l-adic integers are handled symbolically: a completed module is a free
rank plus a multiset of l-power torsion orders, and "over Z_l" questions
reduce to l-valuations of integer Smith data.  With U R V = diag(d), v lies
in the column lattice of R over Z iff each (U v)_i is divisible by d_i, and
over Z_l iff it is divisible by the l-part of d_i; `Lattice.contains` is
that one test for both rings, and `check_exactness` runs the same lattice
conditions once over Z and once over Z_l.  Each `FGAbelian` owns the
lattice of its relations, so its Smith form is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .errors import DimensionMismatchError, NotExactIntegrallyError


def _identity(n: int) -> list[list[int]]:
    zero = [0] * n
    out = []
    for i in range(n):
        row = zero[:]
        row[i] = 1
        out.append(row)
    return out


def mat_mul(A, B) -> list[list[int]]:
    # k from B: a matrix with no rows keeps no column count, and its
    # product with anything is the matrix with no rows
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    if A and len(A[0]) != k:
        raise DimensionMismatchError("integer matrix shapes do not compose")
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def mat_vec(A, v) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V == diag(d) with U, V unimodular and d_1 | d_2 | ...

    `diag` has min(rows, cols) entries, nonnegative, zeros last.
    `u_inv` is the exact inverse of U (tracked during reduction).
    """

    diag: tuple
    U: tuple
    V: tuple
    u_inv: tuple

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d)


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b > 0, for a, b not both 0.

    Euclid's cofactors, so |s| <= |b|/g and |t| <= |a|/g.
    """
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _echelon(A, T, Tinv, S, Sinv) -> int:
    """Column Hermite form of A, given as its list of columns, in place.

    Returns the rank r.  Afterwards columns r.. are zero, and rows and
    columns 0..r-1 hold a lower-triangular block with positive diagonal in
    which every entry left of the diagonal lies in [0, diagonal of its row).
    Each column is cleared in the pivot rows found so far by 2x2 Bezout
    column operations; a column that stays nonzero swaps a row up as the
    next pivot row.  Column operations are applied to the columns of T and,
    inverted, to the rows of Tinv; row swaps to the rows of S and the
    columns of Sinv (Tinv, Sinv may be None).
    """
    m = len(A[0])
    r = 0
    for j in range(len(A)):
        col = A[j]
        changed = False
        for k in range(r):
            b = col[k]
            if not b:
                continue
            pk = A[k]
            a = pk[k]
            q, rem = divmod(b, a)
            if not rem:
                A[j] = col = [y - q * x for x, y in zip(pk, col)]
                T[j] = [y - q * x for x, y in zip(T[k], T[j])]
                if Tinv is not None:
                    Tinv[k] = [x + q * y for x, y in zip(Tinv[k], Tinv[j])]
                continue
            g, s, t = _xgcd(a, b)
            a //= g
            b //= g
            A[k] = [s * x + t * y for x, y in zip(pk, col)]
            A[j] = col = [a * y - b * x for x, y in zip(pk, col)]
            tk, tj = T[k], T[j]
            T[k] = [s * x + t * y for x, y in zip(tk, tj)]
            T[j] = [a * y - b * x for x, y in zip(tk, tj)]
            if Tinv is not None:
                tk, tj = Tinv[k], Tinv[j]
                Tinv[k] = [a * x + b * y for x, y in zip(tk, tj)]
                Tinv[j] = [s * y - t * x for x, y in zip(tk, tj)]
            changed = True
        p = -1
        for i in range(r, m):
            v = col[i]
            if v and (p < 0 or abs(v) < best):
                p, best = i, abs(v)
        if p >= 0:
            if j != r:
                A[r], A[j] = col, A[r]
                T[r], T[j] = T[j], T[r]
                if Tinv is not None:
                    Tinv[r], Tinv[j] = Tinv[j], Tinv[r]
            if p != r:
                for c in A:
                    c[r], c[p] = c[p], c[r]
                S[r], S[p] = S[p], S[r]
                if Sinv is not None:
                    Sinv[r], Sinv[p] = Sinv[p], Sinv[r]
            if col[r] < 0:
                A[r] = [-x for x in col]
                T[r] = [-x for x in T[r]]
                if Tinv is not None:
                    Tinv[r] = [-x for x in Tinv[r]]
            r += 1
        elif not changed:
            continue
        if r < 2:
            continue
        # reduce left of the diagonal: every row after a change to a pivot
        # column, else only the new pivot row
        for i in range(1, r) if changed else (r - 1,):
            ci, di, ti = A[i], A[i][i], T[i]
            for k in range(i):
                q = A[k][i] // di
                if q:
                    A[k] = [x - q * y for x, y in zip(A[k], ci)]
                    T[k] = [x - q * y for x, y in zip(T[k], ti)]
                    if Tinv is not None:
                        Tinv[i] = [x + q * y for x, y in zip(Tinv[i], Tinv[k])]
    return r


def smith_normal_form(M) -> SNFResult:
    """Smith normal form with transformation witnesses (Kannan-Bachem).

    Column echelon passes (`_echelon`) alternate with the same pass on the
    transpose, which acts on rows, until the matrix is diagonal; then 2x2
    steps diag(a, b) -> diag(gcd, lcm) give d_1 | d_2 | ... .  Each pass
    keeps the entries left of its diagonal reduced modulo that diagonal,
    which bounds every intermediate entry polynomially in the size of M
    (Kannan & Bachem, SIAM J. Comput. 8, 1979).  The tests hold the entries
    of U and V for dense square inputs to at most 3x the decimal digits of
    the Hadamard bound of M.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if len(set(map(len, M))) > 1:
        raise DimensionMismatchError("integer matrix rows differ in length")
    A = [list(map(int, c)) for c in zip(*M)]    # columns
    U = _identity(m)        # rows of U
    Uinv = _identity(m)     # columns of U^-1
    V = _identity(n)        # columns of V
    r = 0
    if n:
        on_rows = False
        while True:
            if on_rows:
                r = _echelon(A, U, Uinv, V, None)
            else:
                r = _echelon(A, V, None, U, Uinv)
            # diagonal: no pivot column has a nonzero entry off its pivot
            if sum(map(list.count, A[:r], repeat(0, r))) == r * (len(A[0]) - 1):
                break
            A = list(map(list, zip(*A)))
            on_rows = not on_rows
        d = [A[i][i] for i in range(r)]
    else:
        d = []
    # d_1 | d_2 | ... by 2x2 steps diag(a, b) -> diag(gcd, lcm), needed
    # only when some factor fails to divide the next
    if r > 1 and any(b % a for a, b in zip(d, d[1:])):
        for i in range(r):
            for j in range(i + 1, r):
                a, b = d[i], d[j]
                if b % a:
                    g, s, t = _xgcd(a, b)
                    a1, b1 = a // g, b // g
                    ui, uj = U[i], U[j]
                    U[i] = [s * x + t * y for x, y in zip(ui, uj)]
                    U[j] = [a1 * y - b1 * x for x, y in zip(ui, uj)]
                    wi, wj = Uinv[i], Uinv[j]
                    Uinv[i] = [a1 * x + b1 * y for x, y in zip(wi, wj)]
                    Uinv[j] = [s * y - t * x for x, y in zip(wi, wj)]
                    vi, vj = V[i], V[j]
                    s, t = s * a1, t * b1
                    V[i] = [x + y for x, y in zip(vi, vj)]
                    V[j] = [s * y - t * x for x, y in zip(vi, vj)]
                    d[i], d[j] = g, a * b1
    diag = tuple(d) + (0,) * (min(m, n) - r)
    return SNFResult(diag, tuple(map(tuple, U)), tuple(zip(*V)), tuple(zip(*Uinv)))


def invariant_factors(M) -> tuple:
    return smith_normal_form(M).diag


class Lattice:
    """The column lattice of an integer matrix, with exact membership tests
    over Z and over the l-adic integers Z_l."""

    def __init__(self, matrix, ambient_dim: int | None = None):
        matrix = [list(map(int, row)) for row in matrix]
        if ambient_dim is None:
            ambient_dim = len(matrix)
        self.ambient_dim = ambient_dim
        if not matrix:
            matrix = [[] for _ in range(ambient_dim)]
        if len(matrix) != ambient_dim:
            raise DimensionMismatchError("lattice generators have wrong length")
        self.matrix = matrix
        self._snf = None

    def snf(self) -> SNFResult:
        if self._snf is None:
            self._snf = smith_normal_form(self.matrix)
        return self._snf

    def _moduli(self, l: int | None) -> list[int]:
        """What coordinate i of U v must be divisible by for v to lie in the
        span, where U R V = diag(d): d_i over Z (l None), and over Z_l the
        l-part of d_i, since the integers prime to l are units there.
        Past the rank the modulus is 0, which asks for (U v)_i = 0."""
        s = self.snf()
        moduli = [d if l is None or not d else _l_part(d, l) for d in s.diag]
        return moduli + [0] * (self.ambient_dim - len(moduli))

    def contains(self, v, l: int | None = None) -> bool:
        """Is v in the span of the columns over Z, or over Z_l when l is
        given?  One Smith-form test for both (see `_moduli`)."""
        c = mat_vec(self.snf().U, list(map(int, v)))
        return all(ci % m == 0 if m else ci == 0 for ci, m in zip(c, self._moduli(l)))


def _l_part(d: int, l: int) -> int:
    d = abs(d)
    out = 1
    while d % l == 0:
        d //= l
        out *= l
    return out


def integer_kernel_columns(M) -> list[list[int]]:
    """Columns spanning {x : M x = 0} over Z."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if cols == 0:
        return [[] for _ in range(0)]
    s = smith_normal_form(M)
    r = s.rank
    # M (V y) = 0 iff the first r coordinates of y vanish
    return [[s.V[i][j] for j in range(r, cols)] for i in range(cols)]


def _preimage(M, tgt: Lattice, l: int | None, n: int) -> list[list[int]]:
    """Generators, as the columns of an n-row matrix, of {x in Z^n : M x
    lies in the span of tgt over Z (l None) or over Z_l}.

    With U R V = diag(d) for the matrix R of tgt, M x lies in the span iff
    each coordinate of c = U M x is divisible by its modulus (see
    `Lattice._moduli`); a modulus of 1 asks nothing.  So x is the first n
    coordinates of the integer kernel of [U M | D], where D holds one
    column per nonzero modulus m, with m in that modulus's row.
    """
    rows = [(row, m) for row, m in zip(mat_mul(tgt.snf().U, M), tgt._moduli(l)) if m != 1]
    if not rows:
        return _identity(n)
    k = sum(1 for _, m in rows if m)
    mat, j = [], n
    for row, m in rows:
        row = row + [0] * k
        if m:
            row[j] = m
            j += 1
        mat.append(row)
    return integer_kernel_columns(mat)[:n]


# ----------------------------------------------------------------------
# finitely generated abelian groups and their maps


class FGAbelian:
    """Z^n modulo the column lattice of a presentation matrix.

    The group owns that relation `Lattice`, so its Smith form is computed
    once and shared by `snf`, map validation and `check_exactness`.
    """

    def __init__(self, n_generators: int, relations=None):
        self.n = int(n_generators)
        if relations is None:
            relations = []
        if len(relations) and len(relations) != self.n:
            raise DimensionMismatchError(
                f"presentation has {len(relations)} rows for {self.n} generators"
            )
        self.lattice = Lattice(relations, self.n)

    @property
    def relations(self) -> list[list[int]]:
        return self.lattice.matrix

    @staticmethod
    def from_invariants(free_rank: int, torsion=()) -> "FGAbelian":
        """Z^free_rank direct sum of Z/t for t in torsion."""
        torsion = [int(t) for t in torsion]
        n = free_rank + len(torsion)
        rel = [[0] * len(torsion) for _ in range(n)]
        for k, t in enumerate(torsion):
            rel[free_rank + k][k] = t
        return FGAbelian(n, rel)

    def snf(self) -> SNFResult:
        return self.lattice.snf()

    @property
    def free_rank(self) -> int:
        return self.n - self.snf().rank

    @property
    def invariant_factors(self) -> list[int]:
        """Torsion orders > 1, in divisibility order."""
        return [d for d in self.snf().diag if d > 1]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelian({self})"


class FGAbelianMap:
    """A homomorphism given by an integer matrix on generators."""

    def __init__(self, source: FGAbelian, target: FGAbelian, matrix, validate: bool = True):
        matrix = [list(map(int, row)) for row in matrix]
        if len(matrix) != target.n or any(len(r) != source.n for r in matrix):
            raise DimensionMismatchError(
                f"matrix must be {target.n} x {source.n}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate and not all(target.lattice.contains(mat_vec(matrix, r))
                                for r in zip(*source.relations)):
            raise DimensionMismatchError("matrix does not send relations into relations")

    def __repr__(self):
        return f"FGAbelianMap({self.source} -> {self.target})"


@dataclass(frozen=True)
class FGZlModule:
    """A finitely generated module over the l-adic integers, symbolically:
    a free rank plus l-power torsion orders."""

    prime: int
    rank: int
    torsion: tuple

    def __post_init__(self):
        for t in self.torsion:
            if t <= 1 or _l_part(t, self.prime) != t:
                raise DimensionMismatchError(f"torsion order {t} is not an l-power > 1")

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "FGZlModule") -> "FGZlModule":
        if other.prime != self.prime:
            raise DimensionMismatchError("direct sum over different primes")
        tors = tuple(sorted(self.torsion + other.torsion, reverse=True))
        return FGZlModule(self.prime, self.rank + other.rank, tors)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append(f"Z_{self.prime}")
        elif self.rank > 1:
            parts.append(f"Z_{self.prime}^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def l_complete(A: FGAbelian, l: int) -> FGZlModule:
    """The inverse limit of A/l^n A: keep the free rank (now of l-adic
    summands) and the l-parts of the torsion."""
    torsion = []
    for d in A.invariant_factors:
        p = _l_part(d, l)
        if p > 1:
            torsion.append(p)
    return FGZlModule(l, A.free_rank, tuple(sorted(torsion, reverse=True)))


def _within(M, big: Lattice, l: int | None) -> bool:
    """Does every column of M lie in `big`, over Z (l None) or over Z_l?"""
    return all(big.contains(v, l) for v in zip(*M))


def _short_exact(f: FGAbelianMap, g: FGAbelianMap, im_f: Lattice, im_g: Lattice,
                 l: int | None) -> bool:
    """Exactness of 0 -> A -> B -> C -> 0 over Z (l None) or over Z_l,
    given the lattices im f + rel B and im g + rel C: f^-1(rel B) lies in
    rel A (injective), g^-1(rel C) in im f + rel B (exact at B), and every
    generator of C in im g + rel C (surjective)."""
    A, B, C = f.source, f.target, g.target
    return (_within(_preimage(f.matrix, B.lattice, l, A.n), A.lattice, l)
            and _within(_preimage(g.matrix, C.lattice, l, B.n), im_f, l)
            and _within(_identity(C.n), im_g, l))


def check_exactness(f: FGAbelianMap, g: FGAbelianMap, l: int) -> bool:
    """Does 0 -> A_l -> B_l -> C_l -> 0 stay exact after l-completion?

    Checks that g o f = 0 and that the integral sequence is short exact
    (NotExactIntegrallyError otherwise), then decides the completed
    sequence by the same three lattice conditions over Z_l, on the same
    five lattices: the relations of A, B and C, im f + rel B and
    im g + rel C.  The l-local pass is an independent decision; it does
    not appeal to the flatness of Z_l over Z.
    """
    if f.target is not g.source and f.target.n != g.source.n:
        raise DimensionMismatchError("maps do not compose")
    B, C = f.target, g.target
    if not all(C.lattice.contains(mat_vec(g.matrix, v)) for v in zip(*f.matrix)):
        raise NotExactIntegrallyError("g o f is not zero")
    im_f = Lattice([a + b for a, b in zip(f.matrix, B.relations)], B.n)
    im_g = Lattice([a + b for a, b in zip(g.matrix, C.relations)], C.n)
    if not _short_exact(f, g, im_f, im_g, None):
        raise NotExactIntegrallyError("integral sequence is not short exact")
    return _short_exact(f, g, im_f, im_g, l)
