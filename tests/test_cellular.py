"""Equivariant cell data, lens fixtures, and base homology."""

import numpy as np
import pytest

from perfchain import (
    BoundarySquareNonzeroError,
    EquivariantCellComplex,
    GroupMismatchError,
    GroupRingMatrix,
    chains_of_cover,
    cyclic_group,
    decide_perfect,
    lens_complex,
)
from perfchain.groups import grm_compose

from conftest import SMALL_GROUPS, base_homology, ga_mul_reference, homology, module_action


def bareiss_det(M):
    A = [list(map(int, row)) for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def minor_rank_mod(M, l):
    """Rank over F_l as the largest k with a k x k minor nonzero mod l."""
    from itertools import combinations
    M = [list(map(int, row)) for row in M]
    rows, cols = len(M), len(M[0]) if M else 0
    best = 0
    for k in range(1, min(rows, cols) + 1):
        found = False
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = [[M[i][j] for j in cs] for i in rs]
                if bareiss_det(sub) % l != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def brute_force_base_homology(X, q):
    """Independent cellular homology of the coinvariant complex, with
    ranks computed by minor enumeration."""
    l = X.group.prime_l
    dims = X.orbit_counts
    if q < 0 or q >= len(dims):
        return 0
    mats = [b.augmentation_matrix().tolist() for b in X.boundaries]
    rank_out = minor_rank_mod(mats[q - 1], l) if 1 <= q < len(dims) else 0
    rank_in = minor_rank_mod(mats[q], l) if q + 1 < len(dims) else 0
    return dims[q] - rank_out - rank_in


def test_lens_2_1_2_boundaries():
    X = lens_complex(2, 1, 2)
    assert [b.data.tolist() for b in X.boundaries] == [[[[1, 1]]], [[[1, 1]]]]
    # (1+t)^2 = 0 in characteristic 2
    assert grm_compose(*X.boundaries).is_zero()
    assert not ga_mul_reference([1, 1], [1, 1], X.group).any()


def test_lens_3_1_2_boundaries():
    """The boundaries t - 1 and the norm compose to zero either way round,
    by `grm_compose` and by the table product."""
    X = lens_complex(3, 1, 2)
    G = X.group
    tm1, norm = [-1, 1, 0], [1, 1, 1]
    assert X.boundaries == [GroupRingMatrix(G, [[tm1]]), GroupRingMatrix(G, [[norm]])]
    d1, d2 = X.boundaries
    assert grm_compose(d1, d2).is_zero() and grm_compose(d2, d1).is_zero()
    assert not ga_mul_reference(np.mod(tm1, 3), norm, G).any()
    assert not ga_mul_reference(norm, np.mod(tm1, 3), G).any()


def test_lens_degree_zero():
    X = lens_complex(3, 2, 0)
    assert X.orbit_counts == [1] and X.boundaries == []


def test_chains_of_cover_examples():
    # one orbit of 0-cells only
    G = SMALL_GROUPS["C4"]
    X = EquivariantCellComplex(G, [1], [])
    C = chains_of_cover(X)
    assert C.ranks == [1] and C.bottom == 0
    # point with the trivial group
    G1 = cyclic_group(1, 5)
    P = EquivariantCellComplex(G1, [1], [])
    assert chains_of_cover(P).ranks == [1]
    # the lens fixture gives the familiar complex
    L = chains_of_cover(lens_complex(2, 1, 2))
    assert L.ranks == [1, 1, 1]
    assert homology(L, 0).dim == 1


def test_chains_of_cover_rejects_bad_boundaries():
    G = SMALL_GROUPS["C2"]
    ident = GroupRingMatrix.identity(G, 1)
    X = EquivariantCellComplex(G, [1, 1, 1], [ident, ident])
    with pytest.raises(BoundarySquareNonzeroError):
        chains_of_cover(X)
    # other construction errors keep their own code
    wrong_group = GroupRingMatrix.identity(SMALL_GROUPS["C4"], 1)
    X = EquivariantCellComplex(G, [1, 1], [wrong_group])
    with pytest.raises(GroupMismatchError) as info:
        chains_of_cover(X)
    assert info.value.code == "E_GROUP_MISMATCH"


def test_base_homology_examples():
    X = lens_complex(2, 1, 2)
    assert [base_homology(X, q) for q in range(3)] == [1, 1, 1]
    X3 = lens_complex(3, 1, 2)
    assert [base_homology(X3, q) for q in range(3)] == [1, 1, 1]
    P = EquivariantCellComplex(cyclic_group(1, 3), [1], [])
    assert base_homology(P, 0) == 1 and base_homology(P, 1) == 0


def test_base_homology_against_minor_oracle():
    for l, k, n in [(2, 1, 3), (3, 1, 4), (5, 1, 2), (2, 2, 4), (3, 2, 3)]:
        X = lens_complex(l, k, n)
        for q in range(n + 2):
            assert base_homology(X, q) == brute_force_base_homology(X, q)


def test_lens_perfect_grid_small():
    for l, k, n in [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 2)]:
        C = chains_of_cover(lens_complex(l, k, n))
        v = decide_perfect(C)
        assert v.perfect
        assert v.euler_class == (1 if n % 2 == 0 else 0)


def test_connected_fixture_h0_is_trivial_line():
    for l, k, n in [(2, 1, 3), (3, 1, 2), (5, 1, 1)]:
        C = chains_of_cover(lens_complex(l, k, n))
        H0 = homology(C, 0)
        assert H0.dim == 1
        assert all(np.array_equal(a, np.eye(1, dtype=int)) for a in module_action(H0))
