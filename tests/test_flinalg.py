"""Exact linear algebra over F_l."""

import tracemalloc

import numpy as np
import pytest

from perfchain import flinalg

from conftest import batched_rank, column_space_basis, eliminate_reference, rref_reference


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


# Both sides of each boundary of `elimination_dtype` (int8 to 11, int16 to
# 181, int32 to 46337), and 1048573, the largest prime below 2^20.
KERNEL_PRIMES = (2, 3, 5, 11, 13, 181, 191, 46337, 46349, 1048573)


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
    # every entry l - 1, the largest product when a pivot row is scaled;
    # with ones on the diagonal, x - y*z reaches (l - 1) - (l - 1)^2
    yield from (np.full((9, 11), l - 1), np.full((11, 9), l - 1))
    yield np.where(np.eye(10, 12, dtype=bool), 1, l - 1)


@pytest.mark.parametrize("l", KERNEL_PRIMES)
def test_rref_and_rank_agree_with_the_oracles(l):
    """rref matches Gauss-Jordan on whole rows in R and in pivots; forward
    elimination finds the same pivots, its rank matches the batched rank,
    and the column bases read those pivots.  QuotientSpace's one pass
    picks the bases of the two passes pivot_columns + complete_basis."""
    for A in seeded_matrices(l):
        R, pivots = flinalg.rref(A, l)
        R_ref, pivots_ref = rref_reference(A, l)
        assert pivots == pivots_ref
        assert R.dtype == np.int64 and np.array_equal(R, R_ref)
        assert flinalg.pivot_columns(A, l) == pivots_ref
        assert flinalg.rank(A, l) == len(pivots) == batched_rank(A[None], l)[0]
        # A as [W V]: V's columns that complete W are its pivots in A
        a = A.shape[1] // 2
        chosen = [c for c in pivots_ref if c >= a]
        assert np.array_equal(flinalg.complete_basis(A[:, :a], A[:, a:], l), A[:, chosen])
        quo = flinalg.QuotientSpace(A[:, a:], A[:, :a], l)
        sub = column_space_basis(A[:, :a], l)
        assert np.array_equal(quo.sub, sub)
        assert np.array_equal(quo.reps, flinalg.complete_basis(sub, A[:, a:], l))
        assert quo.dim == quo.reps.shape[1]


def solve_reference(A, B, l: int) -> np.ndarray:
    """The solution of A X = B, for B inside col(A), read off the
    Gauss-Jordan oracle's form of [A | B] with free variables zero."""
    cols = A.shape[1]
    R, pivots = rref_reference(np.hstack([A, B]), l)
    assert not pivots or pivots[-1] < cols
    X = np.zeros((cols, B.shape[1]), dtype=np.int64)
    X[pivots] = R[:len(pivots), cols:]
    return X


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
        assert np.array_equal(X, solve_reference(A, B, l))
        assert not X[free].any()
        outside = flinalg.complete_basis(A, np.eye(rows, dtype=np.int64), l)[:, :1]
        if outside.size:
            assert flinalg.solve_matrix(A, np.hstack([B, outside]), l) is None


@pytest.mark.parametrize("l", KERNEL_PRIMES)
def test_narrow_words_agree_with_the_int64_loop(l):
    """`_eliminate` in its `elimination_dtype` finds the int64 loop's
    pivots and R, forward and reduced, and the kernels that read R agree
    with the Gauss-Jordan oracle: canonical columns with its form of A^T,
    quotient coordinates with its solution of [sub reps] X = U."""
    for A in seeded_matrices(l):
        for reduced in (False, True):
            R, pivots = flinalg._eliminate(A, l, reduced)
            R_ref, pivots_ref = eliminate_reference(A, l, reduced)
            assert R.dtype == flinalg.elimination_dtype(l)
            assert pivots == pivots_ref and np.array_equal(R, R_ref)
        R_t, pivots_t = rref_reference(A.T, l)
        assert np.array_equal(flinalg.canonical_columns(A, l), R_t[:len(pivots_t)].T)
        a = A.shape[1] // 2
        quo = flinalg.QuotientSpace(A[:, a:], A[:, :a], l)
        coords = solve_reference(np.hstack([quo.sub, quo.reps]), A[:, a:], l)
        assert np.array_equal(quo.project(A[:, a:]), coords[quo.sub.shape[1]:])


def test_elimination_words_are_the_narrowest_exact():
    """Bytes at l = 2, else the narrowest signed word whose maximum is at
    least l + (l - 1)^2, which bounds l, y*z and x - y*z for x, y, z in
    [0, l); the prime just past each boundary moves up a word."""
    signed = [np.int8, np.int16, np.int32, np.int64]
    expected = {2: np.uint8, 3: np.int8, 11: np.int8, 13: np.int16, 181: np.int16,
                191: np.int32, 46337: np.int32, 46349: np.int64, 1048573: np.int64}
    for l, word in expected.items():
        assert flinalg.elimination_dtype(l) is word, l
        if l > 2:
            k = signed.index(word)
            assert l + (l - 1) ** 2 <= np.iinfo(word).max
            assert k == 0 or l + (l - 1) ** 2 > np.iinfo(signed[k - 1]).max


@pytest.mark.parametrize("l", KERNEL_PRIMES)
def test_every_kernel_returns_int64(l):
    """Only `_eliminate`'s working copy is narrow.  A narrow array reaching
    `matmul` or `@` would wrap silently, so every public kernel returns
    int64 at every word."""
    gen = np.random.default_rng(l + 3)
    A = gen.integers(0, l, (12, 16))
    A[:, 5] = 0
    W, U = A[:, :6], A[:, 6:]
    quo = flinalg.QuotientSpace(U, W, l)
    results = {
        "rref": flinalg.rref(A, l)[0],
        "kernel_basis": flinalg.kernel_basis(A, l),
        "complete_basis": flinalg.complete_basis(W, U, l),
        "canonical_columns": flinalg.canonical_columns(A, l),
        "solve_matrix": flinalg.solve_matrix(A, A[:, :3], l),
        "QuotientSpace.sub": quo.sub,
        "QuotientSpace.reps": quo.reps,
        "QuotientSpace.project": quo.project(U),
    }
    for name, M in results.items():
        assert M.dtype == np.int64, name


def test_dense_f2_elimination_at_2048_stays_small():
    """A = B C over F_2, with B of full column rank 1024 and C in reduced
    row echelon form with random pivots: the reduced form of A is C over
    zero rows, and its pivots are C's, so C is the oracle at a size where
    the int64 loop takes seconds.  `rank` works in a 4 MB byte copy; its
    traced peak stays under 12 MB, where an int64 copy alone is 33.5 MB."""
    n, k = 2048, 1024
    gen = np.random.default_rng(2048)
    pivots = np.sort(gen.choice(n, k, replace=False))
    C = gen.integers(0, 2, (k, n))
    C[np.arange(n) < pivots[:, None]] = 0
    C[:, pivots] = np.eye(k, dtype=np.int64)
    A = flinalg.matmul(gen.integers(0, 2, (n, k)), C, 2)
    R, found = flinalg.rref(A, 2)
    assert found == pivots.tolist()
    assert np.array_equal(R[:k], C) and not R[k:].any()
    assert flinalg.pivot_columns(A, 2) == found
    tracemalloc.start()
    try:
        r = flinalg.rank(A, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r == k
    assert peak < 12_000_000, peak


def exact_product(A, B, l: int) -> np.ndarray:
    return ((np.asarray(A).astype(object) @ np.asarray(B).astype(object)) % l).astype(np.int64)


@pytest.mark.parametrize("l", (2, 3, 5, 1048573))
def test_matmul_matches_the_exact_product(l):
    """Square, skinny, matrix-vector and empty shapes, the stacked
    shapes of `ga_compose`: (j, i*o) by (k, i*o, o), and shapes one
    multiply-add row below and at the float64 break-even _F64_MIN_WORK,
    where `product_dtype` flips from int64 to float64."""
    gen = np.random.default_rng(l)
    shapes = [((1, 27), (27, 27)), ((8, 27), (27, 27)), ((40, 64), (64, 40)),
              ((3, 200), (200, 5)), ((64, 64), (64,)), ((64,), (64, 64)),
              ((0, 5), (5, 7)), ((5, 0), (0, 7)),
              ((2, 3 * 64), (4, 3 * 64, 64)), ((1, 27), (1, 27, 27)), ((5, 5 * 8), (5, 5 * 8, 8))]
    # 3840 and 4096 = 2^12 multiply-adds
    for below, at in ((((15, 16), (16, 16)), ((16, 16), (16, 16))),
                      (((15, 16), (1, 16, 16)), ((16, 16), (1, 16, 16))),
                      (((16, 16), (16, 15)), ((16, 16), (16, 16)))):
        assert flinalg.product_dtype(*below, l) == np.int64, below
        assert flinalg.product_dtype(*at, l) == np.float64, at
        shapes += [below, at]
    for a, b in shapes:
        A, B = gen.integers(0, l, a), gen.integers(0, l, b)
        expected = exact_product(A, B, l)
        dtype = flinalg.product_dtype(a, b, l)
        for C in (flinalg.matmul(A, B, l), flinalg.matmul(A.astype(dtype), B.astype(dtype), l)):
            assert C.dtype == np.int64 and np.array_equal(C, expected), (a, b)
    # every entry l - 1: the largest dot product at each inner dimension
    for n in (1, 100, 4000):
        A = np.full((6, n), l - 1)
        assert np.array_equal(flinalg.matmul(A, A.T.copy(), l), exact_product(A, A.T, l))


def test_matmul_stays_exact_across_the_float64_bound():
    """At l = 1048573 a dot product is exact in float64 up to inner
    dimension 8192.  With every entry l - 2 the dot product at 8193 is an
    odd integer above 2^53, which float64 cannot hold, so only the int64
    product gets it right."""
    l = 1048573
    bound = ((1 << 53) - 1) // (l - 1) ** 2
    assert bound == 8192
    assert flinalg.product_dtype((4, bound), (bound, 4), l) == np.float64
    assert flinalg.product_dtype((4, bound + 1), (bound + 1, 4), l) == np.int64
    for n in (bound, bound + 1):
        for a, b in (((4, n), (n, 4)), ((1, n), (n, 1))):
            A, B = np.full(a, l - 2), np.full(b, l - 2)
            assert np.array_equal(flinalg.matmul(A, B, l), exact_product(A, B, l)), (a, b)
    A = np.full((4, bound + 1), l - 2)
    in_float = (A.astype(np.float64) @ A.T.astype(np.float64)).astype(np.int64) % l
    assert not np.array_equal(in_float, exact_product(A, A.T, l))
