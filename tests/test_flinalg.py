"""Exact linear algebra over F_l."""

import tracemalloc

import numpy as np
import pytest

from perfchain import flinalg

from conftest import batched_rank, rref_reference


def test_rank_at_a_large_prime_allocates_little():
    """Pivots are inverted one at a time; nothing of size l is built."""
    l = 1_000_003
    tracemalloc.start()
    try:
        full = flinalg.rank(np.array([[1, 2], [3, 4]]), l)
        singular = flinalg.rank(np.array([[1, 2], [2, 4]]), l)
        R, pivots = flinalg.rref(np.array([[3, 5], [0, 7]]), l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (full, singular) == (2, 1)
    assert pivots == [0, 1] and R.tolist() == [[1, 0], [0, 1]]
    assert peak < 1_000_000


KERNEL_PRIMES = (2, 3, 5, 1048573)     # 1048573 is the largest prime below 2^20


def seeded_matrices(l: int):
    """Dense, ~1%-sparse, low-rank, tall, wide and zero-size matrices over
    F_l, seeded by l."""
    gen = np.random.default_rng(l)

    def dense(rows, cols):
        return gen.integers(0, l, (rows, cols))

    def sparse(rows, cols):
        return dense(rows, cols) * (gen.random((rows, cols)) < 0.01)

    yield from (dense(12, 15), dense(15, 12), dense(30, 30))
    yield from (sparse(80, 90), sparse(120, 60))
    yield (dense(40, 3) @ dense(3, 50)) % l
    yield (sparse(60, 60) @ dense(60, 70)) % l
    yield from (dense(40, 4), dense(4, 40), sparse(50, 5), sparse(5, 50))
    yield from (dense(0, 7), dense(7, 0), dense(0, 0), np.zeros((6, 9), dtype=np.int64))


@pytest.mark.parametrize("l", KERNEL_PRIMES)
def test_rref_and_rank_agree_with_the_oracles(l):
    """rref matches Gauss-Jordan on whole rows in R and in pivots; rank by
    forward elimination matches the batched rank."""
    for A in seeded_matrices(l):
        R, pivots = flinalg.rref(A, l)
        R_ref, pivots_ref = rref_reference(A, l)
        assert pivots == pivots_ref
        assert R.dtype == np.int64 and np.array_equal(R, R_ref)
        assert flinalg.rank(A, l) == len(pivots) == batched_rank(A[None], l)[0]


@pytest.mark.parametrize("l", KERNEL_PRIMES)
def test_kernel_basis_and_solve_matrix(l):
    """A K = 0 with K of full column rank cols - rank(A); A X = B for a
    solvable B with the free variables zero, and no solution for a column
    outside the image."""
    gen = np.random.default_rng(l + 1)
    for A in seeded_matrices(l):
        rows, cols = A.shape
        K = flinalg.kernel_basis(A, l)
        assert K.shape == (cols, cols - flinalg.rank(A, l))
        assert not ((A @ K) % l).any()
        assert flinalg.rank(K, l) == K.shape[1]
        # the basis read off the reduced form: a unit at each free column
        R, pivots = rref_reference(A, l)
        free = [c for c in range(cols) if c not in pivots]
        assert np.array_equal(K[free], np.eye(len(free), dtype=np.int64))
        assert np.array_equal(K[pivots], (-R[:len(pivots), free]) % l)
        B = (A @ gen.integers(0, l, (cols, 3))) % l
        X = flinalg.solve_matrix(A, B, l)
        assert X.shape == (cols, 3) and np.array_equal((A @ X) % l, B)
        assert not X[free].any()
        outside = flinalg.complete_basis(A, np.eye(rows, dtype=np.int64), l)[:, :1]
        if outside.size:
            assert flinalg.solve_matrix(A, np.hstack([B, outside]), l) is None
