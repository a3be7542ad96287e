"""The Smith-form check modulo primes against the exact product and the
exact determinant over Z."""

import functools
import math
import random
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from perfchain import certificates
from perfchain.abelian import smith_normal_form
from perfchain.errors import LimitError
from perfchain.certificates import (
    _DET_ENTRIES,
    _EXACT_DET_ROWS,
    VerificationFailure,
    _Limbs,
    _abs_det_is,
    _check_snf_witness,
    _is_claimed_diagonal,
    _mod,
    _residue_passes,
    _residue_primes,
    _window_primes,
)

from conftest import int_det_reference, snf_diagonal_reference


@functools.cache
def primes_below(m: int) -> frozenset:
    sieve = bytearray([1]) * m
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(m) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, m, q)))
    return frozenset(i for i in range(m) if sieve[i])


def witness_bound(M, U, V, diag) -> int:
    """The bound B the check takes for every entry of U M V and of diag."""
    top = [max((abs(x) for row in A for x in row), default=0) for A in (U, M, V, [diag])]
    return max(len(U) * len(V) * top[0] * top[1] * top[2], top[3])


def snf_decision_zoo(rng):
    """Integer matrices with their genuine Smith witnesses: 0 x 0, n x 0,
    1 x 1, 1 x n, n x 1, non-square, singular, entries past 2^64 of both
    signs, and dense 24 to 60 square ones; and a matrix with no rows
    against a 3 x 3 V."""
    big = lambda: rng.choice([-1, 1]) * rng.getrandbits(rng.randint(65, 90))
    small = lambda: rng.randint(-9, 9)
    shapes = [(0, 0, small), (3, 0, small), (1, 1, big), (1, 1, small), (1, 5, big),
              (5, 1, small), (3, 5, small), (6, 4, big), (4, 7, big)]
    mats = [[[f() for _ in range(n)] for _ in range(m)] for m, n, f in shapes]
    for m, n, r in ((5, 5, 3), (6, 4, 2), (4, 6, 1)):      # singular, rank r
        X = [[big() for _ in range(r)] for _ in range(m)]
        Y = [[small() for _ in range(n)] for _ in range(r)]
        mats.append([[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)]
                     for row in X])
    mats += [[[small() for _ in range(n)] for _ in range(n)] for n in (24, 36, 48, 60)]
    for M in mats:
        s = smith_normal_form(M)
        yield M, [list(r) for r in s.U], [list(r) for r in s.V], list(s.diag)
    # no rows, so no columns either: U M V is empty whatever V is
    yield [], [], [[int(i == j) for j in range(3)] for i in range(3)], []


def forgeries(rng, M, U, V, diag):
    """Witnesses one edit away from the genuine one: an entry of M, U, V
    or diag moved by +-1 or by +- the product of the primes the check
    uses on the genuine witness; a row of U doubled together with its
    factor; two factors swapped."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    P = math.prod(_residue_primes(max(rows, cols), witness_bound(M, U, V, diag)))
    for step in (1, -1, P, -P):
        for name in ("M", "U", "V", "diag"):
            w = {"M": [r[:] for r in M], "U": [r[:] for r in U], "V": [r[:] for r in V],
                 "diag": [diag[:]]}
            A = w[name]
            if A and A[0]:
                row = rng.choice(A)
                row[rng.randrange(len(row))] += step
                w["diag"] = w["diag"][0]
                yield w["M"], w["U"], w["V"], w["diag"]
    if rows:
        i = rng.randrange(rows)
        U2 = [r[:] for r in U]
        U2[i] = [2 * x for x in U2[i]]
        d2 = [2 * d if k == i else d for k, d in enumerate(diag)]
        yield M, U2, V, d2
    if len(diag) >= 2:
        i, j = rng.sample(range(len(diag)), 2)
        d2 = diag[:]
        d2[i], d2[j] = d2[j], d2[i]
        yield M, U, V, d2


def test_residue_decision_matches_the_exact_product():
    """On genuine and forged witnesses alike, U M V = diag(d) decided
    modulo primes agrees with the product over Z every time, and the
    genuine witnesses pass the whole check."""
    rng = random.Random(2506)
    seen = {True: 0, False: 0}
    for M, U, V, diag in snf_decision_zoo(rng):
        assert _is_claimed_diagonal(M, U, V, diag)
        _check_snf_witness(M, {"U": U, "V": V, "diag": diag})
        for case in forgeries(rng, M, U, V, diag):
            expected = snf_diagonal_reference(*case)
            assert _is_claimed_diagonal(*case) == expected
            seen[expected] += 1
    assert seen[True] > 10 and seen[False] > 100


@pytest.mark.parametrize("x", [2**63 - 1, -2**63 + 1, -2**63, 2**63, 2**64 - 1, -2**64])
def test_entries_at_the_machine_word_boundary(x):
    """Entries on either side of the int64 range, which the limbs read as
    machine words below 2^63 and through `int.to_bytes` from there, in
    each of M, U, V and diag."""
    one, I = [[1]], [[1, 0], [0, 1]]
    cases = [([[x]], one, one, [x]), ([[1]], [[x]], [[-1]], [-x]),
             ([[x, 0], [0, 1]], I, [[1, 0], [0, x]], [x, x]),
             ([[3, 0], [0, 0]], [[1, x], [0, 1]], I, [3, 0])]
    for M, U, V, diag in cases:
        assert _is_claimed_diagonal(M, U, V, diag)
        for d in ([diag[0] + 1, *diag[1:]], [-diag[0], *diag[1:]]):
            assert _is_claimed_diagonal(M, U, V, d) == snf_diagonal_reference(M, U, V, d)
    # one matrix whose rows are read both ways: row 1 always as words,
    # row 2 always through bytes, rows 0 and 3 as x falls
    A = [[x, -1, 0], [2**63 - 1, -2**63 + 1, 5], [2**70 + 3, -2**65, 1], [-x, 0, 7]]
    entries = list(chain.from_iterable(A))
    limbs = _Limbs(A)
    assert limbs.top == max(map(abs, entries))
    assert [sum(int(w) << 16 * j for j, w in enumerate(column))
            for column in limbs.wide.T] == entries
    for p, (residues,) in _residue_passes([limbs], 3, limbs.top, 1 << 13):
        assert residues.tolist() == [[a % q for a in entries] for q in p[:, 0].astype(int).tolist()]


@pytest.mark.parametrize("n, b", [(1, 21), (48, 21), (2047, 21), (2048, 20), (8191, 20),
                                  (8192, 19), (10**6, 16)])
@pytest.mark.parametrize("bound", [0, 1, 2**64 + 1, 2**999 - 1, 2**999, 10**300,
                                   48 * 48 * 10**(3 * 4300)],
                         ids=["0", "1", "2^64+1", "2^999-1", "2^999", "10^300",
                              "cube_of_4300_digits"])
def test_residue_primes_exceed_twice_the_bound(n, b, bound):
    """The primes are distinct, lie between 2^(b-1) and 2^b with
    n 2^(2b) <= 2^53, so every product of residues over inner dimension n
    is an exact float64 integer, and multiply past 2 bound; b is 21 up to
    n = 2047.  The largest bound is that of a 48 x 48 certificate whose
    entries all have 4300 digits, as many as a certificate can hold."""
    primes = _residue_primes(n, bound)
    assert len(set(primes)) == len(primes)
    assert set(primes) <= primes_below(1 << 21)
    assert all(1 << (b - 1) < p < 1 << b for p in primes)
    assert n * (1 << (2 * b)) <= 1 << 53
    assert n * (max(primes) - 1) ** 2 < 1 << 53
    assert math.prod(primes) > 2 * bound


def test_window_primes_are_the_largest_below_the_power_of_two():
    """Sieved a block at a time and cached: asking for more primes extends
    the list, asking for fewer returns its prefix, and asking for more
    than the window holds is a coded error."""
    expected = sorted((p for p in primes_below(1 << 21) if p > 1 << 20), reverse=True)
    assert _window_primes(21, 5) == expected[:5]
    assert _window_primes(21, 6000) == expected[:6000]
    assert _window_primes(21, 3) == expected[:3]
    assert _window_primes(4, 2) == [13, 11]
    with pytest.raises(LimitError):
        _window_primes(4, 3)


@pytest.mark.parametrize("p", [2, 3, 65521, (1 << 20) + 7, (1 << 21) - 9])
def test_floor_reduction_is_exact_on_its_range(p):
    """x - floor(x / p) p is x mod p for every integer x in
    [-2^53 + p, 2^53), including those at and one off a multiple of p
    near both ends."""
    top, bottom = (1 << 53) - 1, -(1 << 53) + p
    xs = [0, 1, -1, p - 1, p, top, bottom, top // p * p, top // p * p - 1,
          -(-bottom // p) * p, -(-bottom // p) * p + 1]
    got = _mod(np.array(xs, dtype=np.float64), np.float64(p))
    assert got.tolist() == [x % p for x in xs]


def determinant_zoo(rng):
    """Square integer matrices: 0 x 0; 1 x 1; dense ones of entries up to
    9, at +-2^63 and 10^30, and of 70 bits; singular over Z; singular
    modulo the first window prime q alone; ones where only modulo q the
    elimination must swap rows (a leading entry q); and each with its
    first two rows swapped, which negates the determinant."""
    q = _window_primes(21, 1)[0]        # used at every n below 2048
    small = lambda: rng.randint(-9, 9)
    big = lambda: rng.choice([-1, 1]) * rng.choice([2**63, 2**63 - 1, 10**30,
                                                     rng.getrandbits(70)])
    mats = [[], [[0]], [[7]], [[-2**63]], [[10**30]], [[0, 1], [1, 0]]]
    for n in (2, 3, 5, 8):
        mats += [[[f() for _ in range(n)] for _ in range(n)] for f in (small, big)]
    for n, f in ((4, small), (5, big)):
        M = [[f() for _ in range(n)] for _ in range(n - 1)]
        mats.append(M + [[a - 2 * b for a, b in zip(M[0], M[1])]])
    R = [[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [0, 0, 1, 5]]
    mats.append([[q * x for x in R[0]], *R[1:]])
    mats.append([[q, 1, 0], [1, 0, 0], [0, 0, q]])
    for n in (2, 6):
        M = [[small() or 1 for _ in range(n)] for _ in range(n)]
        M[0][0] = q
        mats.append(M)
    for M in mats:
        yield M
        if len(M) >= 2:
            yield [M[1], M[0], *M[2:]]


def test_residue_determinant_matches_bareiss():
    """|det A| = |t| decided modulo primes agrees with Bareiss over Z for
    the targets d, -d, d +- 1, 2d and 0, d = det A, and for d plus the
    product of the primes that the Hadamard bound alone would take, which
    a bound without |t| would accept."""
    rng = random.Random(2507)
    seen = {True: 0, False: 0}
    for A in determinant_zoo(rng):
        d = int_det_reference(A)
        n = len(A)
        hadamard = math.isqrt(math.prod(sum(x * x for x in row) for row in A)) + 1
        beyond = math.prod(_residue_primes(n, hadamard))
        for t in (d, -d, d + 1, d - 1, 2 * d, 0, d + beyond):
            expected = abs(d) == abs(t)
            assert _abs_det_is(A, t) == expected, (A, t)
            seen[expected] += 1
    assert seen[True] > 40 and seen[False] > 100


def traced_peak(f, *args) -> int:
    """The most memory traced at once during f(*args), after one untraced
    call has sieved the window primes."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_determinant_working_set():
    """Verifying a 48 x 48 Smith certificate takes no more memory than its
    product check alone: the determinant's stack of primes stays below it.
    At n = 182, where one prime's n x n block passes _DET_ENTRIES, the
    determinant holds a few blocks, not one per prime: a permuted
    unimodular upper-triangular matrix takes 10 primes."""
    rng = random.Random(48)
    M = [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)]
    s = smith_normal_form(M)
    U, V, diag = [list(r) for r in s.U], [list(r) for r in s.V], list(s.diag)
    product = traced_peak(_is_claimed_diagonal, M, U, V, diag)
    assert traced_peak(_abs_det_is, M, math.prod(diag)) < product
    assert traced_peak(_check_snf_witness, M, {"U": U, "V": V, "diag": diag}) <= product

    n = 182
    assert n * n > _DET_ENTRIES
    A = []
    for i in range(n):
        row = [0] * n
        row[i] = rng.choice([-1, 1])
        for j in rng.sample(range(i + 1, n), min(3, n - i - 1)):
            row[j] = rng.choice([-1, 1])
        A.append(row)
    rng.shuffle(A)
    hadamard = math.isqrt(math.prod(sum(x * x for x in row) for row in A)) + 1
    assert len(_residue_primes(n, hadamard + 1)) == 10
    assert traced_peak(_abs_det_is, A, -1) < 5 * 8 * n * n


def test_small_determinants_on_the_residue_path(monkeypatch):
    """The determinant zoo, whose matrices lie below _EXACT_DET_ROWS and so
    are decided exactly, decided on residue primes instead, all but the
    0 x 0 one."""
    monkeypatch.setattr(certificates, "_EXACT_DET_ROWS", 1)
    test_residue_determinant_matches_bareiss()


def crossover_zoo(rng, n):
    """n x n matrices: dense ones of entries up to 9, one of them with its
    first rows swapped so that one of the two determinants is negative; a
    singular one; and the U and V of the Smith form of diag(first n
    primes), whose fix-ups give V entries of hundreds of digits, as the
    transforms of a non-square presentation are checked."""
    A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    yield A
    yield [A[1], A[0], *A[2:]]
    yield A[:-1] + [[a + 3 * b for a, b in zip(A[0], A[1])]]
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:n]
    s = smith_normal_form([[primes[i] if i == j else 0 for j in range(n)] for i in range(n)])
    yield [list(r) for r in s.U]
    yield [list(r) for r in s.V]


@pytest.mark.parametrize("n", [_EXACT_DET_ROWS - 1, _EXACT_DET_ROWS, _EXACT_DET_ROWS + 1])
def test_exact_and_residue_determinants_agree_at_the_crossover(n, monkeypatch):
    """On either side of _EXACT_DET_ROWS and at it, |det A| = |t| decided
    exactly, on residue primes and by the default choice agree with
    Bareiss over Z, for t = det A, -det A, det A + 1, 2 det A and 0."""
    rng = random.Random(n)
    for A in crossover_zoo(rng, n):
        d = int_det_reference(A)
        targets = (d, -d, d + 1, 2 * d, 0)
        expected = [abs(d) == abs(t) for t in targets]
        got = [[_abs_det_is(A, t) for t in targets]]
        for rows in (1, n + 1):
            monkeypatch.setattr(certificates, "_EXACT_DET_ROWS", rows)
            got.append([_abs_det_is(A, t) for t in targets])
        monkeypatch.undo()
        assert got == [expected] * 3, (n, d)


def unimodularity_forgeries(rng, M, U, V, diag):
    """Witnesses that keep U M V = diag(d) but whose U or V is not
    unimodular: a row of U doubled with its factor, a column of V doubled
    with its factor."""
    i = rng.randrange(len(diag))
    U2 = [[2 * x for x in row] if k == i else row for k, row in enumerate(U)]
    yield U2, V, [2 * d if k == i else d for k, d in enumerate(diag)]
    j = rng.randrange(len(diag))
    V2 = [[2 * x if k == j else x for k, x in enumerate(row)] for row in V]
    yield U, V2, [2 * d if k == j else d for k, d in enumerate(diag)]


@pytest.mark.parametrize("n", [6, _EXACT_DET_ROWS + 4, 40])
def test_determinant_dividing_the_product_is_decided_past_three_times_it(n):
    """Once U M V = diag(d), det M divides t = prod d, and the bound
    |t| / 2 on every other |det M| decides |det M| = |t| as Bareiss does,
    for t = +-prod d and prod d +- 1, on the genuine witness and on
    forgeries whose doubled U row or V column doubles prod d.  The
    forgeries are refused by the fallback on U and V."""
    rng = random.Random(n)
    M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    det = int_det_reference(M)
    s = smith_normal_form(M)
    U, V, diag = [list(r) for r in s.U], [list(r) for r in s.V], list(s.diag)
    witnesses = [(U, V, diag), *unimodularity_forgeries(rng, M, U, V, diag)]
    for k, (U1, V1, d1) in enumerate(witnesses):
        assert _is_claimed_diagonal(M, U1, V1, d1)
        t = math.prod(d1)
        assert t % det == 0
        for target in (t, -t, t + 1, t - 1):
            assert _abs_det_is(M, target, abs(target) // 2) == (abs(det) == abs(target))
        if k:
            with pytest.raises(VerificationFailure, match="not unimodular"):
                _check_snf_witness(M, {"U": U1, "V": V1, "diag": d1})
        else:
            _check_snf_witness(M, {"U": U1, "V": V1, "diag": d1})
