"""Finitely generated abelian groups, Smith normal form, and l-completion.

All integer arithmetic uses Python ints (arbitrary precision), and numpy
words only for residues.  Smith normal forms come from Kannan-Bachem
echelon passes that keep the entries off the diagonal reduced modulo the
diagonal, so the transforms U and V stay near the size of the determinant;
a first pass of full column rank solves for its V by Dixon's p-adic
lifting instead, reduces from each pivot row down, and for a square input
takes B^-1 from the inversion mod p that decided its rank (see
`smith_normal_form`).  The l-adic integers are handled symbolically: a
completed module is a free rank plus a multiset of l-power torsion orders,
and "over Z_l" questions reduce to l-valuations of integer Smith data.  A
group is Z^n modulo its relation lattice, spanned by the columns of its
presentation matrix R, and one `FGAbelian` holds both.  With U R V =
diag(d), v lies in that lattice over Z iff each (U v)_i is divisible by
d_i, and over Z_l iff by the l-part of d_i; `_within` is that one test for
both rings, on every column of a matrix at once (`FGAbelian.is_relation`
is its one-vector case).  `check_exactness` runs it for injectivity and
reads the other two conditions off the moduli of coker f, coker g and C,
over Z alone, as Z_l is flat over Z.  Each group computes its Smith form
once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import flinalg
from .errors import DimensionMismatchError, NotExactIntegrallyError
from .groups import MAX_PRIME, _is_prime, check_prime


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


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V == diag(d) with U, V unimodular and d_1 | d_2 | ...

    `diag` has min(rows, cols) entries, nonnegative, zeros last; U and V
    are tuples of rows.
    """

    diag: tuple
    U: tuple
    V: tuple

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


def _echelon(A, T, S) -> int:
    """Column Hermite form of A, given as its list of columns, in place.

    Returns the rank r.  Afterwards columns r.. are zero, and rows and
    columns 0..r-1 hold a lower-triangular block with positive diagonal in
    which every entry left of the diagonal lies in [0, diagonal of its row).
    Each column is cleared in the pivot rows found so far by 2x2 Bezout
    column operations; a column that stays nonzero swaps a row up as the
    next pivot row.  Column operations are applied to the columns of T,
    row swaps to the rows of S.

    T None carries no transform (the lifted first pass of
    `smith_normal_form`): then a clear or reduction by pivot column i,
    which is zero above row i, updates rows i.. alone, in place.  Passes
    with a transform update whole columns, which costs less on the small
    inputs that carry one; the clear loop is written once for each kind of
    pass, so neither tests which it is per clear.
    """
    m = len(A[0])
    lean = T is None
    if lean:
        T = [[]] * len(A)       # empty columns, which the steps below copy at no cost
    r = 0
    for j in range(len(A)):
        col = A[j]
        first = r       # the first pivot column a Bezout step changes
        if lean:
            # cleared by pivot columns 0..k-1, col is zero above row k too
            for k in range(r):
                b = col[k]
                if not b:
                    continue
                pk = A[k]
                a = pk[k]
                q, rem = divmod(b, a)
                if not rem:
                    col[k:] = [y - q * x for x, y in zip(pk[k:], col[k:])]
                    continue
                g, s, t = _xgcd(a, b)
                a //= g
                b //= g
                tk, tj = pk[k:], col[k:]
                pk[k:] = [s * x + t * y for x, y in zip(tk, tj)]
                col[k:] = [a * y - b * x for x, y in zip(tk, tj)]
                first = min(first, k)
        else:
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
                    continue
                g, s, t = _xgcd(a, b)
                a //= g
                b //= g
                A[k] = [s * x + t * y for x, y in zip(pk, col)]
                A[j] = col = [a * y - b * x for x, y in zip(pk, col)]
                tk, tj = T[k], T[j]
                T[k] = [s * x + t * y for x, y in zip(tk, tj)]
                T[j] = [a * y - b * x for x, y in zip(tk, tj)]
                first = min(first, k)
        p = -1
        for i in range(r, m):
            v = col[i]
            if v and (p < 0 or abs(v) < best):
                p, best = i, abs(v)
        if p >= 0:
            if j != r:
                A[r], A[j] = col, A[r]
                T[r], T[j] = T[j], T[r]
            if p != r:
                for c in A:
                    c[r], c[p] = c[p], c[r]
                S[r], S[p] = S[p], S[r]
            if col[r] < 0:
                A[r] = [-x for x in col]
                T[r] = [-x for x in T[r]]
            r += 1
        elif first == r:
            continue
        # reduce left of the diagonal from the first changed pivot row on
        # (or the new pivot row alone): the rows above it, and the columns
        # their entries sit in, are as reduced as before
        if lean:
            for i in range(first, r):
                ci, di = A[i][i:], A[i][i]
                for k in range(i):
                    ck = A[k]
                    q = ck[i] // di
                    if q:
                        ck[i:] = [x - q * y for x, y in zip(ck[i:], ci)]
        else:
            for i in range(first, r):
                ci, di, ti = A[i], A[i][i], T[i]
                for k in range(i):
                    q = A[k][i] // di
                    if q:
                        A[k] = [x - q * y for x, y in zip(A[k], ci)]
                        T[k] = [x - q * y for x, y in zip(T[k], ti)]
    return r


# From this many columns the first pass leaves V to `_lifted_transform`.
# Forced through that path (in-process, best of 11, one BLAS thread, 2-vCPU
# x86-64 host), dense n x n inputs in [-9, 9] take 1.19x the carried time
# at n = 16, 0.97x at 20, 0.93x at 22 and 0.63x at 48; 2n x n, 1.5n x n and
# entries up to 10^6 break even near 21 and take 0.89-0.98x at 22.
_LIFT_MIN_COLS = 22
_is_lifting_prime = functools.cache(_is_prime)      # asked by every lifted pass


def _lifting_primes():
    """The primes below MAX_PRIME = 2^20, as every l is, largest first."""
    return (q for q in range(MAX_PRIME - 1, 2, -2) if _is_lifting_prime(q))


def _liftable(A, m: int):
    """(C, M_inv) when the first pass of `smith_normal_form` on an m-row
    matrix M with columns A can leave V to `_lifted_transform`: at least
    _LIFT_MIN_COLS and at most m columns, entries under the float64 guard,
    and full column rank modulo the first lifting prime, which implies it
    over Q.  None otherwise.  C holds the columns A as an int64 array.  A
    square M is inverted modulo that prime, which decides its rank, and
    M_inv is that inverse; for a tall M it is None."""
    n = len(A)
    if not _LIFT_MIN_COLS <= n <= m:
        return None
    # B X_t is formed in float64, exact while n max|M| p < 2^53
    if n * max(max(map(abs, c)) for c in A) * MAX_PRIME >= 1 << 53:
        return None
    C = np.array(A, dtype=np.int64)
    p = next(_lifting_primes())
    if n < m:
        return (C, None) if flinalg.rank(C % p, p) == n else None
    M_inv = flinalg.solve_matrix(C.T % p, flinalg.identity(n), p)     # None iff singular
    return None if M_inv is None else (C, M_inv)


def _lifted_transform(lift, A, U) -> list[list[int]]:
    """The columns of V_1 = B^-1 H, the column transform of a first pass
    that reached full column rank n (see `smith_normal_form`).

    lift is `_liftable`'s (C, M_inv): C the columns of M.  A holds the
    columns the pass left (H on top), and U the rows it swapped, whose top
    n pick B.  The prime p is the first lifting prime that divides no
    h_ii, so not det B.  For a tall M, B^-1 mod p is solved for.  For a
    square M, det M = +-det B = +-prod h_ii, so p is the first lifting
    prime, at which `_liftable` inverted M, and B^-1 is M_inv with its
    columns picked as B's rows are.  From R_0 = H each step takes the digit
    X_t = B^-1 R_t mod p in (-p/2, p/2) and R_{t+1} = (R_t - B X_t) / p, an
    exact division; the sum of the X_t p^t is the symmetric residue of V_1
    mod p^k.  A row of H with h_ii = 1 is e_i (its entries left of the
    diagonal lie in [0, 1)), and its rows of R stay below n max|M| in
    int64; the other rows are Python ints.
    """
    n = len(A)
    C, M_inv = lift
    rows = [u.index(1) for u in U[:n]]
    B = C[:, rows].T
    h = [A[i][i] for i in range(n)]
    p = next(q for q in _lifting_primes() if all(x % q for x in h))
    B_inv = (flinalg.solve_matrix(B % p, flinalg.identity(n), p) if M_inv is None
             else M_inv[:, rows])
    B_f = B.astype(np.float64)
    big = [i for i in range(n) if h[i] > 1]
    R = np.eye(n, dtype=np.int64)
    R_big = [[A[j][i] for j in range(n)] for i in big]
    # n max|M|^2 < 2^62 under the guard of `_liftable`
    bound = 4 * n * n * math.prod((B * B).sum(axis=1).tolist())
    digits, pk = [], 1
    while pk * pk <= bound:
        R_p = R % p
        if big:     # none when B is unimodular
            R_p[big] = [[x % p for x in row] for row in R_big]
        X = flinalg.matmul(B_inv, R_p, p)
        X[X > p // 2] -= p
        BX = (B_f @ X).astype(np.int64)     # exact under the guard of `_liftable`
        R = (R - BX) // p       # exact on the unit rows; the rows in big are not read
        R_big = [[(x - y) // p for x, y in zip(row, BX[i].tolist())]
                 for i, row in zip(big, R_big)]
        digits.append(X)
        pk *= p
    # three digits at a time, each group below 2^59 in int64, the top first
    groups = [sum(X * p ** s for s, X in enumerate(digits[t:t + 3]))
              for t in range(0, len(digits), 3)]
    V = groups.pop().astype(object)
    for g in reversed(groups):
        V = V * p ** 3 + g.astype(object)
    return V.T.tolist()


def smith_normal_form(M) -> SNFResult:
    """Smith normal form with transformation witnesses (Kannan-Bachem).

    Column echelon passes (`_echelon`) alternate with the same pass on the
    transpose, which acts on rows, until the matrix is diagonal; then 2x2
    steps diag(a, b) -> diag(gcd, lcm) give d_1 | d_2 | ... .  Each pass
    keeps the entries left of its diagonal reduced modulo that diagonal,
    which bounds every intermediate entry polynomially in the size of M
    (Kannan & Bachem, SIAM J. Comput. 8, 1979).  The tests hold the entries
    of U and V for dense square inputs to at most 3x the decimal digits of
    the Hadamard bound of M.  Only U, V and the diagonal are built: the
    lattice tests read U alone, so U^-1 is never formed.

    The first pass does nearly all the work on a dense input, half of it
    on V.  Its pivots, multipliers and row swaps come from M alone, so when
    it reaches full column rank n (`_liftable` says when it will) it runs
    without V: it leaves the lower-triangular pivot block H, h_ii > 0, in
    the top n rows of U M V_1, so B V_1 = H for the n rows B of M it moved
    up, B is nonsingular, and V_1 = B^-1 H is the unique integer solution,
    the carried V entry for entry.  `_lifted_transform` solves for it by
    Dixon's p-adic lifting (Dixon, Numer. Math. 40, 1982) to p^k > 2 n
    prod_i |B_i|: every cofactor of B is at most the Hadamard product
    prod_i |B_i|, and every column of H sums to at most n |det B|.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    if len(set(map(len, M))) > 1:
        raise DimensionMismatchError("integer matrix rows differ in length")
    A = [list(map(int, c)) for c in zip(*M)]    # columns
    U = _identity(m)        # rows of U
    lift = _liftable(A, m)
    V = _identity(n) if lift is None else None      # columns of V
    r = 0
    if n:
        on_rows = False
        while True:
            if on_rows:
                r = _echelon(A, U, V)
            else:
                r = _echelon(A, V, U)
                if lift is not None:
                    V, lift = _lifted_transform(lift, A, U), None
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
                    vi, vj = V[i], V[j]
                    s, t = s * a1, t * b1
                    V[i] = [x + y for x, y in zip(vi, vj)]
                    V[j] = [s * y - t * x for x, y in zip(vi, vj)]
                    d[i], d[j] = g, a * b1
    diag = tuple(d) + (0,) * (min(m, n) - r)
    return SNFResult(diag, tuple(map(tuple, U)), tuple(zip(*V)))


def _l_part(d: int, l: int) -> int:
    d = abs(d)
    out = 1
    while d and d % l == 0:
        d //= l
        out *= l
    return out


def integer_kernel_columns(M) -> list[list[int]]:
    """Columns spanning {x : M x = 0} over Z: after one column echelon
    pass M T = [L | 0] with T unimodular and the r columns of L
    independent, so the columns r.. of T are a basis of the kernel."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if cols == 0:
        return []
    T = _identity(cols)     # columns of T
    r = _echelon([list(map(int, c)) for c in zip(*M)], T, [None] * rows)
    return [list(row) for row in zip(*T[r:])] if r < cols else [[] for _ in range(cols)]


def _preimage(M, tgt: FGAbelian, n: int) -> list[list[int]]:
    """Generators, as the columns of an n-row matrix, of {x in Z^n : M x
    lies in the relation lattice of tgt}.

    With U R V = diag(d) for the relations R of tgt, M x lies in their span
    iff each coordinate of c = U M x is divisible by its modulus (see
    `FGAbelian._moduli`); a modulus of 1 asks nothing.  So x is the first n
    coordinates of the integer kernel of [U M | D], where D holds one
    column per nonzero modulus m, with m in that modulus's row.
    """
    rows = [(row, m) for row, m in zip(mat_mul(tgt.snf().U, M), tgt._moduli(None)) if m != 1]
    if not rows:
        return _identity(n)
    D = [i for i, (_, m) in enumerate(rows) if m]
    mat = [row + [m if i == t else 0 for t in D] for i, (row, m) in enumerate(rows)]
    return integer_kernel_columns(mat)[:n]


# ----------------------------------------------------------------------
# finitely generated abelian groups and their maps


class FGAbelian:
    """Z^n modulo the relation lattice, the column span of the n-row
    presentation matrix `relations` (`None` or `[]`: n empty rows, Z^n).

    Its Smith form is computed once and shared by `snf`, `is_relation`,
    map validation and `check_exactness`.
    """

    def __init__(self, n_generators: int, relations=None):
        self.n = int(n_generators)
        relations = [list(map(int, row)) for row in ([] if relations is None else relations)]
        if not relations:
            relations = [[] for _ in range(self.n)]
        if len(relations) != self.n:
            raise DimensionMismatchError(
                f"presentation has {len(relations)} rows for {self.n} generators"
            )
        self.relations = relations
        self._snf = None

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
        if self._snf is None:
            self._snf = smith_normal_form(self.relations)
        return self._snf

    def _moduli(self, l: int | None) -> list[int]:
        """What coordinate i of U v must be divisible by for v to lie in the
        relation lattice, where U R V = diag(d): d_i over Z (l None), and
        over Z_l the l-part of d_i, since the integers prime to l are units
        there.  Past the rank the modulus is 0, which asks for (U v)_i = 0."""
        moduli = [d if l is None or not d else _l_part(d, l) for d in self.snf().diag]
        return moduli + [0] * (self.n - len(moduli))

    def is_relation(self, v, l: int | None = None) -> bool:
        """Is v in the relation lattice over Z, or over Z_l when l is given
        (a prime, else `check_prime`'s error)?  One Smith-form test for
        both (see `_moduli`)."""
        if l is not None:
            check_prime(l)
        v = list(map(int, v))
        if len(v) != self.n:
            raise DimensionMismatchError(
                f"vector of length {len(v)}; the relations lie in Z^{self.n}")
        return _within([[x] for x in v], self, l)

    @property
    def free_rank(self) -> int:
        return self.n - self.snf().rank

    @property
    def invariant_factors(self) -> list[int]:
        """Torsion orders > 1, in divisibility order."""
        return [d for d in self.snf().diag if d > 1]

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FGAbelian({self})"


class FGAbelianMap:
    """A homomorphism given by an integer matrix on generators."""

    def __init__(self, source: FGAbelian, target: FGAbelian, matrix):
        matrix = [list(map(int, row)) for row in matrix]
        if len(matrix) != target.n or any(len(r) != source.n for r in matrix):
            raise DimensionMismatchError(
                f"matrix must be {target.n} x {source.n}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        if not _within(mat_mul(matrix, source.relations), target, None):
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
        check_prime(self.prime)
        for t in self.torsion:
            if t <= 1 or _l_part(t, self.prime) != t:
                raise DimensionMismatchError(f"torsion order {t} is not an l-power > 1")

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append(f"Z_{self.prime}")
        elif self.rank > 1:
            parts.append(f"Z_{self.prime}^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def l_complete(A: FGAbelian, l: int) -> FGZlModule:
    """The inverse limit of A/l^n A for a prime l (else `check_prime`'s
    error): keep the free rank (now of l-adic summands) and the l-parts
    of the torsion."""
    check_prime(l)
    torsion = sorted((m for m in A._moduli(l) if m > 1), reverse=True)
    return FGZlModule(l, A.free_rank, tuple(torsion))


def _within(M, big: FGAbelian, l: int | None) -> bool:
    """Does every column of M lie in the relation lattice of the group
    `big`, over Z (l None) or over Z_l?  One product U M, then each of its
    rows against its modulus (see `FGAbelian._moduli`)."""
    return all(all(c % m == 0 for c in row) if m else not any(row)
               for row, m in zip(mat_mul(big.snf().U, M), big._moduli(l)))


def _short_exact(f: FGAbelianMap, g: FGAbelianMap, coker_f: FGAbelian,
                 coker_g: FGAbelian) -> bool:
    """Exactness of 0 -> A -> B -> C -> 0 over Z, given coker f and coker g
    (relations im f + rel B and im g + rel C), for a g that sends im f +
    rel B into rel C.  A group's moduli other than 1 (`FGAbelian._moduli`),
    in order, name it up to isomorphism: ta, tg, tf and tc for A, coker g,
    coker f and C.  g is onto iff tg is empty (a row of U is primitive);
    then g induces a surjection coker f -> C, injective iff tf == tc, since
    a surjective endomorphism of a finitely generated module over a
    commutative ring is injective (Vasconcelos, Proc. AMS 25, 1970;
    Matsumura, Commutative Ring Theory, Thm 2.4).  f is injective iff A is
    0 or f^-1(rel B), a kernel, lies in rel A."""
    ta, tg, tf, tc = ([m for m in G._moduli(None) if m != 1]
                      for G in (f.source, coker_g, coker_f, g.target))
    return not tg and tf == tc and (not ta or _within(
        _preimage(f.matrix, f.target, f.source.n), f.source, None))


def check_exactness(f: FGAbelianMap, g: FGAbelianMap, l: int) -> bool:
    """Does 0 -> A_l -> B_l -> C_l -> 0 stay exact after l-completion?

    B is f.target: a g on another group must send B's relations into C's,
    else the maps do not compose (DimensionMismatchError).  Checks g o f = 0
    and the integral sequence (NotExactIntegrallyError) by `_short_exact`:
    g onto iff coker g is 0, exact at B iff coker f and C have the same
    invariant factors and free rank, as g induces a surjection coker f -> C
    (Vasconcelos 1970), and f injective by a kernel.  Then the answer is
    True: l-completion of finitely generated groups is the tensor product
    with Z_l, which is flat over Z (Atiyah & Macdonald, Introduction to
    Commutative Algebra, Props. 10.13-10.14).  An l that is not prime is
    refused first.
    """
    check_prime(l)
    B, C = f.target, g.target
    if g.source is not B and (g.source.n != B.n
                              or not _within(mat_mul(g.matrix, B.relations), C, None)):
        raise DimensionMismatchError("maps do not compose")
    if not _within(mat_mul(g.matrix, f.matrix), C, None):
        raise NotExactIntegrallyError("g o f is not zero")
    coker_f = FGAbelian(B.n, [a + b for a, b in zip(f.matrix, B.relations)])
    coker_g = FGAbelian(C.n, [a + b for a, b in zip(g.matrix, C.relations)])
    if not _short_exact(f, g, coker_f, coker_g):
        raise NotExactIntegrallyError("integral sequence is not short exact")
    return True
