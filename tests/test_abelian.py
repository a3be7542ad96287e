"""Integer Smith normal form, l-completion, and completed exactness."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from perfchain import (
    DimensionMismatchError,
    FGAbelian,
    FGAbelianMap,
    FGZlModule,
    NotExactIntegrallyError,
    check_exactness,
    l_complete,
    smith_normal_form,
)
import perfchain
from perfchain.abelian import _l_part, _preimage, integer_kernel_columns, mat_mul
from perfchain.errors import LimitError, NotAnLGroupError
from perfchain.groups import MAX_PRIME
from perfchain.certificates import _check_snf_witness

from conftest import int_det_reference as _int_det
from conftest import invariant_factors, preimage_lattice_reference, smith_normal_form_reference
from conftest import smith_normal_form_carried
from conftest import abelian_order, is_trivial, zl_direct_sum, zl_is_zero


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
        K = integer_kernel_columns(M)
        assert len(K) == cols and all(len(row) == cols - s.rank for row in K)
        assert mat_mul(M, K) == [[0] * (cols - s.rank) for _ in range(rows)]
        # a basis of the kernel, not a sublattice: K's invariant factors are 1
        assert set(smith_normal_form(K).diag) <= {1}


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


# The first lifting prime, the largest below 2^20, and the largest entry
# that `abelian._liftable` admits in a 24-column input: n max|M| 2^20 < 2^53.
_FIRST_LIFTING_PRIME = 1048573
_GUARD_24 = ((1 << 33) - 1) // 24


def lifting_zoo(rng):
    """Seeded inputs with 16 to 64 columns for the lifted first pass:
    dense square and tall, planted factors, rank-deficient, sparse,
    unimodular, entries just under and just past the guard, and a tall
    input whose pivot block has the first lifting prime on its diagonal."""
    def dense(m, n, e=9):
        return [[rng.randint(-e, e) for _ in range(n)] for _ in range(m)]

    def planted(m, n, factors):
        D = [[factors[i] if i == j else 0 for j in range(n)] for i in range(m)]
        P, Q = dense(m, m, 2), dense(n, n, 2)
        for i in range(m):
            P[i][i] = 1
        return mat_mul(mat_mul(P, D), Q)

    mats = [dense(n, n) for n in (16, 24, 33, 48, 64)]
    mats += [dense(n + 7, n) for n in (30, 40)]
    mats += [planted(24, 24, [1] * 20 + [2, 6, 12, 36]),
             planted(40, 36, [1] * 30 + [3, 3, 9, 45, 90, 0])]
    mats += [mat_mul(dense(n, n - 1, 3), dense(n - 1, n, 3)) for n in (30, 40)]
    mats += [[[rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(n)]
              for _ in range(n)] for n in (28, 45)]
    # unimodular: every h_ii is 1, so no row of the pivot block is big
    L = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(30)] for i in range(30)]
    mats.append(mat_mul(L, [list(reversed(row)) for row in reversed(L)]))
    for e in (_GUARD_24, _GUARD_24 + 1):
        M = dense(24, 24, e)
        M[5][7] = -e
        mats.append(M)
    q = _FIRST_LIFTING_PRIME
    mats.append([[q] + [0] * 21] + [[q + rng.randint(1, 9)] + row for row in dense(22, 21)])
    return mats


def test_lifted_first_pass_matches_the_carried_transform():
    """Solving for the first pass's V gives the V that carrying it through
    the pass gives, entry for entry, and the same U and diagonal, on every
    input of the lifting zoo, lifted or not."""
    for M in lifting_zoo(random.Random(2506)):
        s, t = smith_normal_form(M), smith_normal_form_carried(M)
        assert (s.diag, s.U, s.V) == (t.diag, t.U, t.V)


def test_lifted_first_pass_runs_where_it_pays(monkeypatch):
    """The lifted solve runs for a dense 48 x 48 input, a unimodular one
    and one whose first pass ends on the first lifting prime (it takes the
    next prime);
    it does not run for 12 x 12, for rank-deficient inputs of 20 x 20 and
    40 x 40, or past the entry guard."""
    calls = []

    def counting(C, A, U):
        calls.append([A[i][i] for i in range(len(A))])
        return lifted(C, A, U)

    lifted = perfchain.abelian._lifted_transform
    monkeypatch.setattr(perfchain.abelian, "_lifted_transform", counting)
    rng = random.Random(37)
    zoo = lifting_zoo(random.Random(2506))
    deficient = [mat_mul([[rng.randint(-3, 3) for _ in range(n - 1)] for _ in range(n)],
                         [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)])
                 for n in (20, 40)]
    for M, runs in [(zoo[3], True), (zoo[-1], True),
                    ([[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)], False),
                    (deficient[0], False), (deficient[1], False),
                    (zoo[-4], True), (zoo[-3], True), (zoo[-2], False)]:
        calls.clear()
        smith_normal_form(M)
        assert len(calls) == runs, (len(M), len(M[0]))
    calls.clear()
    smith_normal_form(zoo[-1])
    assert _FIRST_LIFTING_PRIME in calls[0]


def test_fg_abelian_canonical_form():
    A = FGAbelian(3, [[2, 0], [0, 6], [0, 0]])
    assert A.free_rank == 1
    assert A.invariant_factors == [2, 6]
    assert str(A) == "Z + Z/2 + Z/6"
    assert is_trivial(FGAbelian(0))
    assert abelian_order(FGAbelian.from_invariants(0, [4])) == 4


def test_l_complete_examples():
    assert l_complete(FGAbelian.from_invariants(1), 3) == FGZlModule(3, 1, ())
    assert l_complete(FGAbelian.from_invariants(0, [6]), 3) == FGZlModule(3, 0, (3,))
    assert zl_is_zero(l_complete(FGAbelian.from_invariants(0, [4]), 3))


def test_l_adic_paths_refuse_an_l_that_is_not_prime():
    """l_complete, check_exactness and FGAbelian.is_relation over Z_l refuse an
    l that is not a prime below MAX_PRIME before any arithmetic, with the
    group side's errors in its order: l = 0 used to divide by zero and
    l = 4 to give Z/4 for Z/8.  l = 1, which looped forever in the
    l-part, is tested in a fresh process with a timeout (test_cli)."""
    A = FGAbelian.from_invariants(1, [8])
    Z = FGAbelian.from_invariants(1)
    ident = FGAbelianMap(Z, Z, [[1]])
    to_zero = FGAbelianMap(Z, FGAbelian.from_invariants(0), [])
    L = FGAbelian(2, [[2, 0], [0, 3]])
    for l in (-2, 0, 4, 6, MAX_PRIME + 1):
        error = LimitError if l >= MAX_PRIME else NotAnLGroupError
        with pytest.raises(error):
            l_complete(A, l)
        with pytest.raises(error):
            check_exactness(ident, to_zero, l)
        with pytest.raises(error):
            L.is_relation([1, 0], l)
    with pytest.raises(LimitError):
        l_complete(A, MAX_PRIME)
    assert L.is_relation([1, 0], 3) and str(l_complete(A, 2)) == "Z_2 + Z/8"


@pytest.mark.parametrize("prime, rank, torsion, error", [
    (0, 0, (2,), NotAnLGroupError), (4, 1, (4,), NotAnLGroupError),
    (-2, 1, (), NotAnLGroupError), (MAX_PRIME, 0, (), LimitError)])
def test_zl_module_refuses_a_prime_that_is_not_prime(prime, rank, torsion, error):
    """FGZlModule checks its prime (`check_prime`) before its torsion:
    prime 0 used to divide by zero, and prime 4 to print Z_4 + Z/4."""
    with pytest.raises(error):
        FGZlModule(prime, rank, torsion)


def test_zl_module_with_prime_one_is_refused_not_a_hang():
    """Prime 1 used to loop forever in the l-part of its torsion; it runs
    in a fresh process with a timeout, so a hang fails."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(perfchain.__file__))}
    code = "from perfchain import FGZlModule\nFGZlModule(1, 0, (2,))\n"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=False, timeout=60)
    assert done.returncode == 1
    assert done.stderr.rstrip().endswith("NotAnLGroupError: 1 is not prime"), done.stderr


def test_l_part_of_zero_is_one():
    """Every integer divides 0, so the loop needs its guard; the l-part of
    d is the largest power of l dividing |d|."""
    assert _l_part(0, 2) == 1
    assert [_l_part(d, 3) for d in (1, -9, 18, 54, 7)] == [1, 9, 9, 27, 1]


def test_l_complete_additive(rng):
    for _ in range(40):
        l = rng.choice([2, 3])
        t1 = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 2))]
        t2 = [rng.choice([2, 3, 4, 6, 9, 12]) for _ in range(rng.randint(0, 2))]
        r1, r2 = rng.randint(0, 2), rng.randint(0, 2)
        A = FGAbelian.from_invariants(r1, t1)
        B = FGAbelian.from_invariants(r2, t2)
        AB = FGAbelian.from_invariants(r1 + r2, t1 + t2)
        assert l_complete(AB, l) == zl_direct_sum(l_complete(A, l), l_complete(B, l))


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


def test_each_group_computes_its_smith_form_once(rng, monkeypatch):
    """A group's relations go through `smith_normal_form` once, however
    often they are read: A, B and C are each decomposed exactly once across
    both `FGAbelianMap` validations and `check_exactness` at l = 2 and then
    l = 3 on the same objects."""
    seen = []

    def counting(M):
        seen.append(M)
        return smith_normal_form(M)

    monkeypatch.setattr(perfchain.abelian, "smith_normal_form", counting)
    for _ in range(10):
        seen.clear()
        f, g = random_ses(rng)
        for l in (2, 3):
            assert check_exactness(f, g, l)
        for X in (f.source, f.target, g.target):
            assert sum(M is X.relations for M in seen) == 1, X


def test_lattice_membership():
    L = FGAbelian(2, [[2, 0], [0, 3]])
    assert L.is_relation([4, 3])
    assert not L.is_relation([1, 0])
    assert L.is_relation([1, 0], 3)  # 2 is invertible in Z_3
    assert not L.is_relation([0, 1], 3)


def test_lattice_membership_needs_vectors_of_the_ambient_length():
    L = FGAbelian(2, [[2, 0], [0, 3]])
    for v in ([2], [2, 0, 5]):
        for l in (None, 2):
            with pytest.raises(DimensionMismatchError):
                L.is_relation(v, l)


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
        L = FGAbelian(r, [[rng.randint(-6, 6) for _ in range(k)] for _ in range(r)])
        mine = _preimage(M, L, None, n)
        ref = preimage_lattice_reference(M, L)
        assert all(FGAbelian(n, ref).is_relation(x) for x in zip(*mine))
        assert all(FGAbelian(n, mine).is_relation(x) for x in zip(*ref))
        for l in (2, 3, 5):
            local = _preimage(M, L, l, n)
            assert all(L.is_relation(v, l) for v in zip(*mat_mul(M, local)))
            assert all(FGAbelian(n, local).is_relation(x) for x in zip(*mine))


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
        L = FGAbelian(n, R)
        for _ in range(4):
            v = [rng.randint(-12, 12) for _ in range(n)]
            dens = [x.denominator for x in fraction_solve(R, v)]
            expected = all(d == 1 for d in dens)
            assert L.is_relation(v) == L.is_relation(v, None) == expected
            seen[expected] += 1
            for l in (2, 3, 5):
                assert L.is_relation(v, l) == all(d % l for d in dens)
    assert min(seen.values()) > 50
