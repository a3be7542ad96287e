"""Integer Smith normal form, l-completion, and completed exactness."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from perfchain import (
    FGAbelian,
    FGAbelianMap,
    FGZlModule,
    NotExactIntegrallyError,
    check_exactness,
    invariant_factors,
    l_complete,
    smith_normal_form,
)
from perfchain.abelian import Lattice, _preimage, integer_kernel_columns, mat_mul, mat_vec
from perfchain.certificates import _check_snf_witness, _int_det

from conftest import preimage_lattice_reference, smith_normal_form_reference


def minor_gcd_oracle(M):
    """Invariant factors from gcds of k x k minors (brute force)."""
    rows, cols = len(M), len(M[0]) if M else 0
    n = min(rows, cols)
    gcds = []
    for k in range(1, n + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[M[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _int_det(sub))
        gcds.append(g)
    diag = []
    prev = 1
    for k in range(n):
        if gcds[k] == 0:
            diag.append(0)
        else:
            diag.append(gcds[k] // prev)
            prev = gcds[k]
    return tuple(diag)


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]).diag == (1, 1)
    assert smith_normal_form([[2, 4], [6, 8]]).diag == (2, 4)
    assert smith_normal_form([[0, 0], [0, 0]]).diag == (0, 0)


def test_snf_witnesses_and_divisibility():
    rng = random.Random(4)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        s = smith_normal_form(M)
        assert abs(_int_det([list(r) for r in s.U])) == 1
        assert abs(_int_det([list(r) for r in s.V])) == 1
        D = mat_mul(mat_mul([list(r) for r in s.U], M), [list(r) for r in s.V])
        for i in range(rows):
            for j in range(cols):
                expected = s.diag[i] if i == j and i < len(s.diag) else 0
                assert D[i][j] == expected
        nonzero = [d for d in s.diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert mat_mul([list(r) for r in s.U], [list(r) for r in s.u_inv]) == \
            [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(12)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert invariant_factors(M) == minor_gcd_oracle(M)


def snf_shape_zoo(rng):
    """200 seeded integer matrices up to 12 x 12: dense, 1 x n and n x 1,
    with zero rows and columns, zero, and of planted rank r < min(m, n)
    (an m x r times an r x n product)."""
    mats = []
    for k in range(200):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        kind = k % 5
        if kind == 1:
            m, n = (1, n) if k % 2 else (m, 1)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if kind == 2:
            for i in rng.sample(range(m), rng.randint(1, m)):
                M[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n - 1)):
                for row in M:
                    row[j] = 0
        elif kind == 3:
            r = rng.randint(0, min(m, n) - 1)
            X = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
            Y = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
            M = mat_mul(X, Y) if r else [[0] * n for _ in range(m)]
        elif kind == 4 and k % 4 == 0:
            M = [[0] * n for _ in range(m)]
        mats.append(M)
    return mats


def test_snf_matches_reference_on_shape_zoo():
    for M in snf_shape_zoo(random.Random(2506)):
        rows, cols = len(M), len(M[0])
        s = smith_normal_form(M)
        assert s.diag == smith_normal_form_reference(M).diag
        _check_snf_witness(M, {"U": [list(r) for r in s.U], "V": [list(r) for r in s.V],
                               "diag": list(s.diag)})
        assert mat_mul([list(r) for r in s.U], [list(r) for r in s.u_inv]) == \
            [[int(i == j) for j in range(rows)] for i in range(rows)]
        K = integer_kernel_columns(M)
        assert len(K) == cols and all(len(row) == cols - s.rank for row in K)
        assert mat_mul(M, K) == [[0] * (cols - s.rank) for _ in range(rows)]


def hadamard_digits(M) -> int:
    """Decimal digits of the Hadamard bound of M, the product of the
    Euclidean lengths of its columns."""
    square = 1
    for col in zip(*M):
        square *= sum(x * x for x in col)
    return len(str(math.isqrt(square) + 1))


def test_snf_transforms_stay_within_hadamard_digits():
    """Reduced echelon steps keep U and V near det size: every entry has at
    most 3x the digits of the Hadamard bound of M (dense 48 x 48, entries
    in [-9, 9])."""
    for seed in range(3):
        rng = random.Random(f"snf-growth:{seed}")
        M = [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)]
        s = smith_normal_form(M)
        digits = max(len(str(abs(x))) for T in (s.U, s.V) for row in T for x in row)
        assert digits <= 3 * hadamard_digits(M)


def test_fg_abelian_canonical_form():
    A = FGAbelian(3, [[2, 0], [0, 6], [0, 0]])
    assert A.free_rank == 1
    assert A.invariant_factors == [2, 6]
    assert str(A) == "Z + Z/2 + Z/6"
    assert FGAbelian(0).is_trivial()
    assert FGAbelian.from_invariants(0, [4]).order() == 4


def test_l_complete_examples():
    assert l_complete(FGAbelian.from_invariants(1), 3) == FGZlModule(3, 1, ())
    assert l_complete(FGAbelian.from_invariants(0, [6]), 3) == FGZlModule(3, 0, (3,))
    assert l_complete(FGAbelian.from_invariants(0, [4]), 3).is_zero()


def test_l_complete_additive(rng):
    for _ in range(40):
        l = rng.choice([2, 3])
        t1 = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 2))]
        t2 = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 2))]
        r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
        A = FGAbelian.from_invariants(r1, t1)
        B = FGAbelian.from_invariants(r2, t2)
        AB = FGAbelian.from_invariants(r1 + r2, t1 + t2)
        assert l_complete(AB, l) == l_complete(A, l).direct_sum(l_complete(B, l))


def test_l_complete_of_finite_group_is_sylow_data():
    A = FGAbelian.from_invariants(0, [4, 12, 18])
    c2 = l_complete(A, 2)
    assert c2.rank == 0 and sorted(c2.torsion) == [2, 4, 4]
    c3 = l_complete(A, 3)
    assert sorted(c3.torsion) == [3, 9]


def test_check_exactness_examples():
    Z = FGAbelian(1)
    Zmod2 = FGAbelian.from_invariants(0, [2])
    Zmod3 = FGAbelian.from_invariants(0, [3])
    f = FGAbelianMap(Z, Z, [[2]])
    g = FGAbelianMap(Z, Zmod2, [[1]])
    assert check_exactness(f, g, 2)
    f3 = FGAbelianMap(Z, Z, [[3]])
    g3 = FGAbelianMap(Z, Zmod3, [[1]])
    assert check_exactness(f3, g3, 2)
    # identity sequence 0 -> 0 -> Z -> Z -> 0
    zero = FGAbelian(0)
    fi = FGAbelianMap(zero, Z, [[]])
    gi = FGAbelianMap(Z, Z, [[1]])
    assert check_exactness(fi, gi, 5)


def test_check_exactness_rejects_non_exact():
    Z = FGAbelian(1)
    Zmod2 = FGAbelian.from_invariants(0, [2])
    f = FGAbelianMap(Z, Z, [[2]])
    with pytest.raises(NotExactIntegrallyError):
        check_exactness(f, FGAbelianMap(Z, Zmod2, [[0]]), 2)  # not surjective
    with pytest.raises(NotExactIntegrallyError):
        # g o f != 0
        g = FGAbelianMap(Z, Z, [[1]])
        check_exactness(f, g, 2)


def test_map_well_definedness_enforced():
    Zmod2 = FGAbelian.from_invariants(0, [2])
    Zmod4 = FGAbelian.from_invariants(0, [4])
    FGAbelianMap(Zmod2, Zmod4, [[2]])  # 2 * (Z/2 relation) = 4 ok
    with pytest.raises(Exception):
        FGAbelianMap(Zmod2, Zmod4, [[1]])  # 1 * 2 = 2 not in 4Z


def random_ses(rng):
    """A random short exact sequence via a block-triangular presentation."""
    na = rng.randint(1, 3)
    nc = rng.randint(1, 3)
    ra = rng.randint(0, 3)
    RA = [[rng.randint(-6, 6) for _ in range(ra)] for _ in range(na)]
    # relations of C must be integrally independent columns
    while True:
        mc = rng.randint(0, nc)
        RC = [[rng.randint(-6, 6) for _ in range(mc)] for _ in range(nc)]
        if mc == 0 or len([d for d in smith_normal_form(RC).diag if d]) == mc:
            break
    X = [[rng.randint(-6, 6) for _ in range(mc)] for _ in range(na)]
    A = FGAbelian(na, RA)
    C = FGAbelian(nc, RC)
    rel_b = [[RA[i][j] for j in range(ra)] + [X[i][j] for j in range(mc)]
             for i in range(na)]
    rel_b += [[0] * ra + [RC[i][j] for j in range(mc)] for i in range(nc)]
    B = FGAbelian(na + nc, rel_b)
    f = FGAbelianMap(A, B, [[1 if i == j else 0 for j in range(na)]
                            for i in range(na + nc)])
    g = FGAbelianMap(B, C, [[1 if j == na + i else 0 for j in range(na + nc)]
                            for i in range(nc)])
    return f, g


def test_random_exact_sequences_stay_exact_after_completion(rng):
    for i in range(60):
        f, g = random_ses(rng)
        l = (2, 3, 5)[i % 3]
        assert check_exactness(f, g, l)


def test_lattice_membership():
    L = Lattice([[2, 0], [0, 3]])
    assert L.contains([4, 3])
    assert not L.contains([1, 0])
    assert L.contains([1, 0], 3)  # 2 is invertible in Z_3
    assert not L.contains([0, 1], 3)


def test_check_exactness_with_zero_groups():
    """Maps into the zero group have matrices with no rows; the column count
    comes from the source."""
    Z, zero = FGAbelian(1), FGAbelian(0)
    Zmod2 = FGAbelian.from_invariants(0, [2])
    to_zero = FGAbelianMap(Z, zero, [])
    assert check_exactness(FGAbelianMap(Z, Z, [[1]]), to_zero, 2)      # Z -id-> Z -> 0
    with pytest.raises(NotExactIntegrallyError):
        check_exactness(FGAbelianMap(Z, Z, [[2]]), to_zero, 2)         # Z -2-> Z -> 0
    with pytest.raises(NotExactIntegrallyError):
        check_exactness(to_zero, FGAbelianMap(zero, zero, []), 2)      # Z -> 0 -> 0
    assert check_exactness(FGAbelianMap(zero, zero, []), FGAbelianMap(zero, zero, []), 2)
    for l in (2, 3):                                                   # Z/2 -id-> Z/2 -> 0
        assert check_exactness(FGAbelianMap(Zmod2, Zmod2, [[1]]),
                               FGAbelianMap(Zmod2, zero, []), l)


def test_preimage_matches_kernel_reference():
    """Over Z, the Smith-form preimage and the kernel of [M | -R] span the
    same lattice, and over Z_l the preimage contains the integral one and
    is sent into the Z_l-span."""
    rng = random.Random(2506079)
    for _ in range(150):
        r, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(r)]
        L = Lattice([[rng.randint(-6, 6) for _ in range(k)] for _ in range(r)], r)
        mine = _preimage(M, L, None, n)
        ref = preimage_lattice_reference(M, L)
        assert all(Lattice(ref, n).contains(x) for x in zip(*mine))
        assert all(Lattice(mine, n).contains(x) for x in zip(*ref))
        for l in (2, 3, 5):
            local = _preimage(M, L, l, n)
            assert all(L.contains(mat_vec(M, x), l) for x in zip(*local))
            assert all(Lattice(local, n).contains(x) for x in zip(*mine))


def fraction_solve(R, v) -> list[Fraction]:
    """R^-1 v for square nonsingular R, by Gauss-Jordan over the rationals."""
    n = len(R)
    A = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(R, v)]
    for c in range(n):
        p = next(i for i in range(c, n) if A[i][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[c])]
    return [row[n] for row in A]


def test_lattice_contains_matches_fraction_oracle():
    """For square nonsingular R, v lies in the column lattice over Z iff
    R^-1 v is integral, and over Z_l iff no denominator is divisible by l."""
    rng = random.Random(79142)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        while True:
            R = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if _int_det(R):
                break
        L = Lattice(R)
        for _ in range(4):
            v = [rng.randint(-12, 12) for _ in range(n)]
            dens = [x.denominator for x in fraction_solve(R, v)]
            expected = all(d == 1 for d in dens)
            assert L.contains(v) == L.contains(v, None) == expected
            seen[expected] += 1
            for l in (2, 3, 5):
                assert L.contains(v, l) == all(d % l for d in dens)
    assert min(seen.values()) > 50
