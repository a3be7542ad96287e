"""Exact linear algebra over the prime field F_l.

Kernels take and return numpy int64 arrays with entries in [0, l); only
`_eliminate`'s working copy is narrower.  They reduce nothing themselves:
data is reduced once, with `asfield`, where it enters (group-ring
matrices, `HomologyData.chain_of_class` and the certificate and text
readers).  All routines are deterministic: pivots
are the first nonzero entry in column order, scanning top down.

One Gaussian elimination loop serves every kernel; the only choice is
which rows a pivot clears.  `pivot_columns` clears the rows below it,
and `rank`, `complete_basis` and `QuotientSpace` read only the pivots
that forward elimination finds; the reduced form (`rref`) clears every
other row, for the three kernels that read it, `kernel_basis`,
`solve_matrix` and `canonical_columns`.  Products go through `matmul`.
"""

from __future__ import annotations

import math

import numpy as np

# A dot product of length n with entries in [0, l) has every partial sum at
# most n (l - 1)^2, so it is exact in float64 while that stays below 2^53.
_F64_EXACT = 1 << 53
# Below this many multiply-adds, or with a single result row or fewer than
# _F64_MIN_COLS result columns (vector products, which int64 loops read
# contiguously), the conversions cost more than BLAS saves.  Measured with
# one OpenBLAS thread on a 2-vCPU x86-64 host: the two paths break even
# near 2^12 multiply-adds, both for `ga_compose` shapes over Heis27
# ((n, 27) by (m, 27, 27): 5.6 against 5.2 us at 2^12) and for 2-D
# `matmul` at l = 2, 3 (16 x 16 x 16: 5.4 against 5.3 us); at 2^13 float64
# is 1.3-1.5x faster and at 2^14 about 1.8-2x.
_F64_MIN_WORK = 1 << 12
_F64_MIN_COLS = 4


def asfield(a, l: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod l."""
    return np.asarray(a, dtype=np.int64) % l


def product_dtype(a_shape, b_shape, l: int):
    """The dtype `matmul` multiplies operands of these shapes in.

    float64, through BLAS, when inner_dim * (l - 1)^2 < 2^53, so every
    partial sum is an exact integer whatever order BLAS adds in (the
    delayed reduction of Dumas, Giorgi & Pernet, "Dense linear algebra over
    word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 35(3),
    2008), and the product is large enough to pay for the conversions;
    int64 otherwise, exact because `GroupTable` refuses l >= 2^20.
    """
    inner = a_shape[-1]
    rows = a_shape[-2] if len(a_shape) > 1 else 1
    cols = b_shape[-1] if len(b_shape) > 1 else 1
    # multiply-adds when one side is a single matrix or both stack alike
    work = max(math.prod(a_shape) * cols, math.prod(b_shape) * rows)
    if (rows > 1 and cols >= _F64_MIN_COLS and work >= _F64_MIN_WORK
            and inner * (l - 1) ** 2 < _F64_EXACT):
        return np.float64
    return np.int64


def matmul(A, B, l: int) -> np.ndarray:
    """(A @ B) mod l as int64, for operands with integer entries in [0, l);
    stacked shapes broadcast as with `@`.  Operands are int64, or already
    in their `product_dtype`, which spares a caller that builds a large
    operand from a small one a second copy of it."""
    A = np.asarray(A)
    B = np.asarray(B)
    return _matmul_in(A, B, product_dtype(A.shape, B.shape, l), l)


def _matmul_in(A: np.ndarray, B: np.ndarray, dtype, l: int) -> np.ndarray:
    """`matmul` in the dtype its caller has already chosen by
    `product_dtype`."""
    if dtype is np.float64:
        C = (A.astype(np.float64, copy=False) @ B.astype(np.float64, copy=False)).astype(np.int64)
    else:
        C = A @ B
    C %= l
    return C


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def elimination_dtype(l: int):
    bits = (l + (l - 1) ** 2).bit_length()
    return (np.uint8 if l == 2 else np.int8 if bits < 8 else np.int16 if bits < 16
            else np.int32 if bits < 32 else np.int64)


def _eliminate(A, l: int, reduced: bool):
    """Gaussian elimination of a working copy of A, pivoting on the first
    nonzero entry of each column from the top.  Returns (R, pivot_columns).

    Each pivot row is scaled to a leading 1.  With `reduced` the pivot
    clears every other row, so R is the reduced row echelon form; without
    it only the rows below, which finds the same pivot columns (the
    column rank profile; Jeannerod, Pernet & Storjohann, J. Symb. Comput.
    56, 2013).  Rows r onward are zero left of the pivot column c, so a
    step touches columns c onward, and a scan of up to 64 columns skips
    those zero from row r down, as they stay.

    R is in the narrowest exact word (`elimination_dtype`): bytes at l = 2,
    pivot rows added by XOR (Albrecht & Pernet, arXiv:1006.1744); else the
    signed word holding l + (l-1)^2, which bounds l, y*z and x - y*z for
    x, y, z in [0, l): int8 to l = 11, int16 to 181, int32 to 46337.
    """
    R = np.array(A, dtype=elimination_dtype(l))
    rows, cols = R.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        nz = R[r:, c].nonzero()[0]
        if not nz.size:     # on to the next column nonzero from row r down
            c += int(R[r:, c:c + 64].any(axis=0).argmax()) or 64
            continue
        if nz[0]:
            p = r + int(nz[0])
            R[r, c:], R[p, c:] = R[p, c:].copy(), R[r, c:].copy()
        if l != 2 and R[r, c] != 1:
            R[r, c:] = (R[r, c:] * pow(int(R[r, c]), l - 2, l)) % l
        other = R[:, c].nonzero()[0] if reduced else nz
        if other.size > 1:      # more rows than the pivot's own
            other = other[other != r] if reduced else r + nz[1:]
            block, row = R[other, c:], R[r, c:]
            R[other, c:] = (np.bitwise_xor(block, row, out=block) if l == 2 else
                            np.remainder(block - np.outer(block[:, 0], row), l, out=block))
        pivots.append(c)
        r += 1
        c += 1
    return R, pivots


def rref(A, l: int):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R, pivots = _eliminate(A, l, reduced=True)
    return R.astype(np.int64, copy=False), pivots


def pivot_columns(A, l: int) -> list[int]:
    """The pivot columns of `rref(A)`, found by forward elimination alone."""
    return _eliminate(A, l, reduced=False)[1]


def rank(A, l: int) -> int:
    """The number of pivot columns."""
    return len(pivot_columns(A, l))


def kernel_basis(A, l: int) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}."""
    R, pivots = rref(A, l)
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    K = np.zeros((cols, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[pivots] = (-R[:len(pivots), free]) % l
    return K


def canonical_columns(A, l: int) -> np.ndarray:
    """Canonical basis of the column space: two matrices span the same
    subspace iff their canonical forms are equal arrays.  Only the pivot
    rows of the echelon form are widened to int64."""
    R, pivots = _eliminate(A.T, l, reduced=True)
    return R[: len(pivots)].T.astype(np.int64, order="C")


def solve_matrix(A, B, l: int):
    """One exact solution X of A X = B, or None if unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    cols = A.shape[1]
    R, pivots = rref(np.hstack([A, B]), l)
    # a pivot falling in the B block marks an inconsistent column
    if pivots and pivots[-1] >= cols:
        return None
    X = np.zeros((cols, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:len(pivots), cols:]
    return X


def _split_pivots(W, V, l: int) -> tuple[list[int], list[int]]:
    """The pivot columns of [W V], split into those in W and those in V
    (indexed within V), from one forward elimination.  The pivots in W
    are W's own, because a column rank profile is prefix-stable."""
    a = W.shape[1]
    pivots = pivot_columns(np.hstack([W, V]), l)
    return [c for c in pivots if c < a], [c - a for c in pivots if c >= a]


def complete_basis(W, V, l: int) -> np.ndarray:
    """Columns of V extending a basis of col(W) to a basis of col([W V]).

    Selection is pivot-greedy left to right, giving the "first preimage"
    determinism the rest of the package relies on.
    """
    return V[:, _split_pivots(W, V, l)[1]]


class QuotientSpace:
    """Coordinates on U/W for the column spans W <= U of two matrices over
    F_l; the columns of W need not be independent.

    One forward elimination of [W U] chooses both bases: its pivots in W
    are `sub`, a basis of col(W), and its pivots in U are `reps`, coset
    representatives completing it.  `project` sends vectors of U to their
    coordinates in the quotient basis.
    """

    def __init__(self, U, W, l: int):
        self.l = l
        in_w, in_u = _split_pivots(W, U, l)
        self.sub = W[:, in_w]
        self.reps = U[:, in_u]
        self.dim = self.reps.shape[1]
        self._solve_block = np.hstack([self.sub, self.reps])

    def project(self, vectors) -> np.ndarray:
        """Quotient coordinates of columns of `vectors` (must lie in U)."""
        X = solve_matrix(self._solve_block, vectors, self.l)
        if X is None:
            raise ValueError("vector lies outside the ambient subspace")
        return X[self.sub.shape[1]:]
