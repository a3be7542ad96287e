"""Exact linear algebra over the prime field F_l.

Matrices are numpy int64 arrays with entries reduced into [0, l).  All
routines are deterministic: pivots are always the first nonzero entry in
column order, scanning rows top to bottom.  `rank` finds those pivots by
forward elimination alone; everything that needs the reduced form goes
through `rref`.
"""

from __future__ import annotations

import numpy as np


def asfield(a, l: int) -> np.ndarray:
    """Coerce to an int64 array reduced mod l."""
    return np.asarray(a, dtype=np.int64) % l


def identity(n: int, l: int) -> np.ndarray:
    del l
    return np.eye(n, dtype=np.int64)


def rref(A, l: int):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Row r of R is zero left of its pivot column c, so each elimination
    step updates columns c onward only.
    """
    R = asfield(A, l)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        if R[r, c] != 1:
            R[r, c:] = (R[r, c:] * pow(int(R[r, c]), l - 2, l)) % l
        other = np.flatnonzero(R[:, c])
        other = other[other != r]
        if other.size:
            R[other, c:] = (R[other, c:] - np.outer(R[other, c], R[r, c:])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A, l: int) -> int:
    """Rank by forward elimination: the pivots of `rref`, found by clearing
    only the rows below each pivot, from its column on, with no reduced
    form built."""
    R = asfield(A, l)
    rows, cols = R.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        if nz.size > 1:
            # the swap moves no row below the pivot that is nonzero in column c
            below = r + nz[1:]
            pivot_row = R[r, c:]
            if pivot_row[0] != 1:
                pivot_row = (pivot_row * pow(int(pivot_row[0]), l - 2, l)) % l
            block = R[below, c:]
            block -= np.outer(block[:, 0], pivot_row)
            R[below, c:] = block % l
        r += 1
    return r


def kernel_basis(A, l: int) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}."""
    R, pivots = rref(A, l)
    cols = R.shape[1]
    free = np.delete(np.arange(cols), pivots)
    K = np.zeros((cols, free.size), dtype=np.int64)
    K[free, np.arange(free.size)] = 1
    K[pivots] = (-R[:len(pivots), free]) % l
    return K


def column_space_basis(A, l: int) -> np.ndarray:
    """The pivot columns of A (a deterministic basis of the image)."""
    A = asfield(A, l)
    _, pivots = rref(A, l)
    return A[:, pivots]


def canonical_columns(A, l: int) -> np.ndarray:
    """Canonical basis of the column space: two matrices span the same
    subspace iff their canonical forms are equal arrays."""
    A = asfield(A, l)
    R, pivots = rref(A.T, l)
    return R[: len(pivots)].T.copy()


def same_column_space(A, B, l: int) -> bool:
    return np.array_equal(canonical_columns(A, l), canonical_columns(B, l))


def solve_matrix(A, B, l: int):
    """One exact solution X of A X = B, or None if unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    A = asfield(A, l)
    B = asfield(B, l)
    if B.ndim == 1:
        X = solve_matrix(A, B[:, None], l)
        return None if X is None else X[:, 0]
    cols = A.shape[1]
    R, pivots = rref(np.hstack([A, B]), l)
    # a pivot falling in the B block marks an inconsistent column
    if pivots and pivots[-1] >= cols:
        return None
    X = np.zeros((cols, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:len(pivots), cols:]
    return X


def complete_basis(W, V, l: int) -> np.ndarray:
    """Columns of V extending a basis of col(W) to a basis of col([W V]).

    Selection is pivot-greedy left to right, giving the "first preimage"
    determinism the rest of the package relies on.
    """
    W = asfield(W, l)
    V = asfield(V, l)
    a = W.shape[1]
    _, pivots = rref(np.hstack([W, V]), l)
    chosen = [c - a for c in pivots if c >= a]
    return V[:, chosen]


class QuotientSpace:
    """Coordinates on U/W for subspaces W <= U of F_l^n.

    `reps` holds coset representatives (columns); `project` sends vectors
    of U to their coordinates in the quotient basis.
    """

    def __init__(self, U, W, l: int):
        self.l = l
        U = asfield(U, l)
        W = asfield(W, l)
        self.sub = column_space_basis(W, l)
        self.reps = complete_basis(self.sub, U, l)
        self.dim = self.reps.shape[1]
        self._solve_block = np.hstack([self.sub, self.reps])

    def project(self, vectors) -> np.ndarray:
        """Quotient coordinates of columns of `vectors` (must lie in U)."""
        vectors = asfield(vectors, self.l)
        one_dim = vectors.ndim == 1
        if one_dim:
            vectors = vectors[:, None]
        if self.dim == 0 and self._solve_block.shape[1] == 0:
            coords = np.zeros((0, vectors.shape[1]), dtype=np.int64)
        else:
            X = solve_matrix(self._solve_block, vectors, self.l)
            if X is None:
                raise ValueError("vector lies outside the ambient subspace")
            coords = X[self.sub.shape[1]:]
        return coords[:, 0] if one_dim else coords

