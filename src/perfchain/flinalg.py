"""Exact linear algebra over the prime field F_l.

Matrices are numpy int64 arrays with entries reduced into [0, l).  All
routines are deterministic: pivots are always the first nonzero entry in
column order, scanning rows top to bottom.
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
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R = asfield(A, l).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        R[r] = (R[r] * pow(int(R[r, c]), l - 2, l)) % l
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def rank(A, l: int) -> int:
    A = asfield(A, l)
    if A.size == 0:
        return 0
    return len(rref(A, l)[1])


def kernel_basis(A, l: int) -> np.ndarray:
    """Columns form a basis of {x : A x = 0}."""
    A = asfield(A, l)
    rows, cols = A.shape
    R, pivots = rref(A, l)
    free = [c for c in range(cols) if c not in pivots]
    K = np.zeros((cols, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        K[c, k] = 1
        for r, pc in enumerate(pivots):
            K[pc, k] = (-R[r, c]) % l
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
    rows, cols = A.shape
    aug = np.hstack([A, B])
    R, pivots = rref(aug, l)
    pivots_in_A = [c for c in pivots if c < cols]
    # any pivot falling in the B block marks an inconsistent column
    if len(pivots_in_A) != len(pivots):
        return None
    X = np.zeros((cols, B.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots_in_A):
        X[c] = R[r, cols:]
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

