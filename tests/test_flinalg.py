"""Exact linear algebra over F_l."""

import tracemalloc

import numpy as np

from perfchain import flinalg


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
