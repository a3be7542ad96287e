"""PiModules: minimal generators, kernels, freeness and projectivity."""

import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    DimensionMismatchError,
    GroupRingMatrix,
    PiModule,
    build_group,
    free_cover,
    minimal_generators,
    regular_module,
    trivial_module,
    zero_module,
)
from perfchain import flinalg
from perfchain.modules import (
    direct_sum_modules,
    induced_action,
    minimal_generator_lifts,
    orbit,
    orbit_columns,
)

from conftest import (
    SMALL_GROUPS,
    action_is_homomorphism_brute,
    check_action,
    equivariant_map,
    has_equivariant_section,
    is_equivariant,
    is_equivariant_brute,
    is_free,
    is_projective,
    first_generator_projection,
    kernel_of_map,
    module_action,
    module_is_zero,
    per_element_action,
    quotient_module,
    radical_basis,
    regular_action_matrices,
    right_act,
    right_multiplication_matrix,
    rref_reference,
    submodule_span,
    three_group_zoo,
    two_group_zoo,
)


def test_regular_module_c2():
    G = SMALL_GROUPS["C2"]
    M = regular_module(G, 1)
    assert M.dim == 2
    assert module_action(M)[1].tolist() == [[0, 1], [1, 0]]


def test_regular_module_zero_rank():
    assert module_is_zero(regular_module(SMALL_GROUPS["C4"], 0))


def test_regular_module_c3_rank2():
    G = SMALL_GROUPS["C3"]
    M = regular_module(G, 2)
    assert M.dim == 6
    # block-diagonal 3-cycles
    expected = np.zeros((6, 6), dtype=int)
    for i in range(2):
        for s in range(3):
            expected[i * 3 + (s + 1) % 3, i * 3 + s] = 1
    assert np.array_equal(module_action(M)[1], expected)
    check_action(PiModule(G, 6, [M.matrix(0)]))


def test_action_axioms_enforced():
    G = SMALL_GROUPS["C2"]
    with pytest.raises(DimensionMismatchError):
        # square is not the identity
        check_action(PiModule(G, 2, [np.array([[1, 1], [1, 0]])]))


def test_minimal_generators_examples():
    C2 = SMALL_GROUPS["C2"]
    assert minimal_generators(regular_module(C2, 3)) == 3
    assert minimal_generators(trivial_module(C2, 1)) == 1
    # submodule spanned by 1+t inside F_2[C_2]
    R = regular_module(C2, 1)
    W = submodule_span(R, np.array([[1], [1]]))
    check_action(PiModule(C2, 1, [np.eye(1, dtype=np.int64)]))
    assert W.shape[1] == 1
    Q, _ = quotient_module(R, W)
    assert minimal_generators(Q) == 1


def test_minimal_generators_of_regular_modules():
    for name in ["C2", "C3", "C4", "C2xC2", "D4"]:
        G = SMALL_GROUPS[name]
        for k in range(5):
            assert minimal_generators(regular_module(G, k)) == k


def test_kernel_of_map_examples():
    C2 = SMALL_GROUPS["C2"]
    R = regular_module(C2, 1)
    mult = equivariant_map(R, R, np.array([[1, 1], [1, 1]]))  # right mult by 1+t
    ker, incl = kernel_of_map(mult)
    assert ker.dim == 1
    assert ((mult.matrix @ incl.matrix) % 2 == 0).all()
    # identity has zero kernel
    ident = equivariant_map(R, R, np.eye(2, dtype=int))
    assert kernel_of_map(ident)[0].dim == 0
    # zero map on the regular module of C3
    R3 = regular_module(SMALL_GROUPS["C3"], 1)
    zero = equivariant_map(R3, R3, np.zeros((3, 3), dtype=int))
    assert kernel_of_map(zero)[0].dim == 3


def test_is_free_examples():
    C2 = SMALL_GROUPS["C2"]
    assert is_free(regular_module(C2, 2)) == (True, 2)
    assert is_free(trivial_module(C2)) == (False, None)
    assert is_free(zero_module(C2)) == (True, 0)


def test_is_projective_examples():
    C3 = SMALL_GROUPS["C3"]
    assert is_projective(regular_module(C3, 1))
    assert not is_projective(trivial_module(C3))
    assert is_projective(direct_sum_modules(regular_module(C3, 1), zero_module(C3)))


def test_free_dim_divisibility():
    for name in ["C2", "C3", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        M = trivial_module(G, 1)
        if G.order > 1:
            assert M.dim % G.order != 0
            assert not is_free(M)[0]


def test_trivial_module_splitting_oracle():
    C3 = SMALL_GROUPS["C3"]
    cover = free_cover(trivial_module(C3))
    assert not has_equivariant_section(cover)
    cover2 = free_cover(regular_module(C3, 1))
    assert has_equivariant_section(cover2)


def _random_quotient(G, rng, max_rank=2):
    R = regular_module(G, rng.randint(1, max_rank))
    n_vecs = rng.randint(0, 2)
    vecs = np.array([[rng.randrange(G.prime_l) for _ in range(n_vecs)]
                     for _ in range(R.dim)], dtype=np.int64)
    W = submodule_span(R, vecs) if n_vecs else np.zeros((R.dim, 0), dtype=np.int64)
    Q, _ = quotient_module(R, W)
    return Q


def test_projective_iff_splitting_oracle():
    rng = random.Random(99)
    for name in ["C2", "C3", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for _ in range(25):
            Q = _random_quotient(G, rng)
            expected = has_equivariant_section(free_cover(Q)) if Q.dim else True
            assert is_projective(Q) == expected


def test_nakayama_zero_iff_zero_module():
    rng = random.Random(5)
    for name in ["C2", "C3", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for _ in range(10):
            Q = _random_quotient(G, rng)
            assert (minimal_generators(Q) == 0) == module_is_zero(Q)


def test_kernel_inclusion_composes_to_zero():
    rng = random.Random(17)
    G = SMALL_GROUPS["C4"]
    R = regular_module(G, 1)
    for a in module_action(R):
        f = equivariant_map(R, R, a - np.eye(4, dtype=int))
        ker, incl = kernel_of_map(f)
        assert not ((f.matrix @ incl.matrix) % 2).any()
    del rng


def test_quotient_requires_invariant_subspace():
    G = SMALL_GROUPS["C2"]
    R = regular_module(G, 1)
    with pytest.raises(DimensionMismatchError):
        quotient_module(R, np.array([[1], [0]]))  # span{1} is not a submodule


def test_equivariance_enforced_on_maps():
    """The projection onto the identity coordinate of F_2[C_2] does not
    commute with the action; a PiModuleMap trusts its caller, so the check
    is `is_equivariant`."""
    G = SMALL_GROUPS["C2"]
    R = regular_module(G, 1)
    P = np.array([[1, 0], [0, 0]])
    assert not is_equivariant(R, R, P) and not is_equivariant_brute(R, R, P)
    assert is_equivariant(R, R, np.ones((2, 2), dtype=np.int64))


ZOO = two_group_zoo() + three_group_zoo()


def _perturbed_at(M, i, entry):
    gens = [M.matrix(j).copy() for j in range(len(M.gens))]
    gens[i][entry] = (gens[i][entry] + 1) % M.group.prime_l
    return gens


def test_action_check_on_generators_matches_all_pairs():
    """Changing any one generator, at an entry of the regular summand or
    at the trivial one, is rejected, and the check agrees with the
    all-pairs scan."""
    for name, G in ZOO:
        M = direct_sum_modules(regular_module(G, 1), trivial_module(G))
        assert action_is_homomorphism_brute(M), name
        check_action(PiModule(G, M.dim, [M.matrix(i) for i in range(len(M.gens))]))
        for i in range(len(M.gens)):
            for entry in ((0, 0), (-1, -1)):
                bad = PiModule(G, M.dim, _perturbed_at(M, i, entry))
                assert not action_is_homomorphism_brute(bad), (name, i, entry)
                with pytest.raises(DimensionMismatchError):
                    check_action(bad)


def test_map_check_on_generators_matches_all_elements():
    """A map of free modules is fixed by its values on the basis h e; a
    change at any h is rejected, and the generator check agrees with the
    all-elements scan."""
    rng = random.Random(41)
    for name, G in ZOO:
        if G.order == 1:
            continue  # every linear map is equivariant
        R = regular_module(G, 1)
        f = right_multiplication_matrix(G, rng)
        assert is_equivariant(R, R, f) and is_equivariant_brute(R, R, f), name
        for h in range(G.order):
            bad = f.copy()
            bad[0, h] = (bad[0, h] + 1) % G.prime_l
            assert not is_equivariant_brute(R, R, bad), (name, h)
            assert not is_equivariant(R, R, bad), (name, h)
        if len(G.generators) > 1:
            P = first_generator_projection(G)
            assert not is_equivariant_brute(R, R, P), name
            assert not is_equivariant(R, R, P), name


TWISTED = [("product:cyclic:2,cyclic:2", 2), ("product:cyclic:4,cyclic:2", 2),
           ("product:cyclic:2,cyclic:2,cyclic:2", 2), ("product:cyclic:4,cyclic:4,cyclic:4", 2),
           ("product:cyclic:3,cyclic:3", 3), ("product:cyclic:9,cyclic:3", 3),
           ("product:cyclic:3,cyclic:3,cyclic:3", 3)]


@pytest.mark.parametrize("spec,l", TWISTED)
def test_action_check_uses_every_generator(spec, l):
    """rho(g) = Q^j for g = (j, ...) in C_n x ..., with Q^n != 1, given by
    its generators, passes the check for every generator except the last
    one, which moves j."""
    G = build_group(spec, l)
    n = int(spec.split(",")[0].split(":")[-1])
    Q = np.array([[0, 1], [1, 1]]) if l == 2 else np.array([[2]])
    powers = [np.linalg.matrix_power(Q, j) % l for j in range(n)]
    gens = [powers[s // (G.order // n)] for s in G.generators]
    M = PiModule(G, len(Q), gens)
    assert not action_is_homomorphism_brute(M)
    with pytest.raises(DimensionMismatchError):
        check_action(M)


def test_induced_action_matches_per_element_solve_for_kernels_and_quotients():
    rng = random.Random(43)
    for name, G in ZOO:
        l = G.prime_l
        R2 = regular_module(G, 2)
        data = np.array([[[rng.randrange(l) for _ in range(G.order)] for _ in range(2)]])
        f = equivariant_map(R2, regular_module(G, 1), GroupRingMatrix(G, data).expand())
        ker, incl = kernel_of_map(f)
        K = incl.matrix
        expected = per_element_action(R2, K, lambda B: flinalg.solve_matrix(K, B, l))
        assert _same(module_action(ker), expected), name

        W = submodule_span(R2, K[:, :1]) if K.shape[1] else K
        Q, _ = quotient_module(R2, W)
        quo = flinalg.QuotientSpace(flinalg.identity(R2.dim), W, l)
        expected = per_element_action(R2, quo.reps, quo.project)
        assert _same(module_action(Q), expected), name


def test_radical_basis_spans_all_group_elements():
    rng = random.Random(47)
    for name, G in ZOO:
        l = G.prime_l
        M = _random_quotient(G, rng)
        if not M.dim:
            continue
        eye = np.eye(M.dim, dtype=np.int64)
        every = np.hstack([(a - eye) % l for a in module_action(M)])
        assert np.array_equal(flinalg.canonical_columns(radical_basis(M), l),
                              flinalg.canonical_columns(every, l)), name


def _same(actions, expected) -> bool:
    return len(actions) == len(expected) and all(
        np.array_equal(a, b) for a, b in zip(actions, expected))


def _dense_sum(*actions) -> list[np.ndarray]:
    """Per-element block-diagonal matrices of a direct sum."""
    out = []
    for blocks in zip(*actions):
        n = sum(len(b) for b in blocks)
        big = np.zeros((n, n), dtype=np.int64)
        off = 0
        for b in blocks:
            big[off:off + len(b), off:off + len(b)] = b
            off += len(b)
        out.append(big)
    return out


def test_generator_modules_materialize_the_dense_actions():
    """The per-element matrices walked from each constructor's generators
    equal the dense matrices built element by element."""
    for name, G in two_group_zoo():
        eye = [np.eye(2, dtype=np.int64)] * G.order
        for r in (1, 2):
            assert _same(module_action(regular_module(G, r)),
                         regular_action_matrices(G, r)), (name, r)
        assert _same(module_action(trivial_module(G, 2)), eye), name
        assert _same(module_action(zero_module(G)),
                     [np.zeros((0, 0), dtype=np.int64)] * G.order), name
        M = direct_sum_modules(regular_module(G, 1), trivial_module(G, 2), regular_module(G, 2))
        expected = _dense_sum(regular_action_matrices(G, 1), eye, regular_action_matrices(G, 2))
        assert _same(module_action(M), expected), name
        assert M == check_action(PiModule(G, M.dim, [expected[s] for s in G.generators])), name


def test_induced_action_on_a_direct_sum_matches_per_element_solve():
    rng = random.Random(53)
    for name, G in two_group_zoo():
        l, o = G.prime_l, G.order
        S = direct_sum_modules(regular_module(G, 1), trivial_module(G))
        dense = _dense_sum(regular_action_matrices(G, 1), [np.eye(1, dtype=np.int64)] * o)
        # augmentation on F_l[pi] plus c on the trivial summand is equivariant
        f = equivariant_map(S, trivial_module(G), [[1] * o + [rng.randrange(l)]])
        ker, incl = kernel_of_map(f)
        K = incl.matrix
        expected = [flinalg.solve_matrix(K, (a @ K) % l, l) for a in dense]
        assert _same(module_action(ker), expected), name

        W = submodule_span(S, K[:, :1]) if K.shape[1] else K
        Q, _ = quotient_module(S, W)
        quo = flinalg.QuotientSpace(flinalg.identity(S.dim), W, l)
        expected = [quo.project((a @ quo.reps) % l) for a in dense]
        assert _same(module_action(Q), expected), name


def test_orbit_matches_dense_products():
    rng = random.Random(59)
    for name, G in two_group_zoo():
        l = G.prime_l
        dense = _dense_sum(regular_action_matrices(G, 1), regular_action_matrices(G, 2))
        M = check_action(PiModule(G, 3 * G.order, [dense[s] for s in G.generators]))
        V = np.array([[rng.randrange(l) for _ in range(2)] for _ in range(M.dim)])
        assert _same(orbit(M, V), [(a @ V) % l for a in dense]), name


def test_free_cover_matches_per_element_loop():
    """The cover's columns rho(g) x_t, against one product per element and
    lift, for quotients of F_l[pi]^2 given densely and by generators."""
    rng = random.Random(61)
    for name, G in two_group_zoo():
        l, o = G.prime_l, G.order
        regular = regular_action_matrices(G, 2)
        R = check_action(PiModule(G, 2 * o, [regular[s] for s in G.generators]))
        vec = np.array([[rng.randrange(l)] for _ in range(R.dim)])
        W = submodule_span(R, vec)
        quo = flinalg.QuotientSpace(flinalg.identity(R.dim), W, l)
        dense = [quo.project((a @ quo.reps) % l) for a in regular]
        for Q in (check_action(PiModule(G, quo.dim, [dense[s] for s in G.generators])),
                  quotient_module(R, W)[0]):
            lifts = minimal_generator_lifts(Q)
            expected = np.zeros((Q.dim, lifts.shape[1] * o), dtype=np.int64)
            for t in range(lifts.shape[1]):
                for g in range(o):
                    expected[:, t * o + g] = (dense[g] @ lifts[:, t]) % l
            assert np.array_equal(free_cover(Q).matrix, expected), name


def test_internal_constructors_hand_over_reduced_read_only_generators():
    """PiModule keeps the generators it is given, with no reducing copy,
    so each constructor must hand over reduced, read-only int64 generator
    matrices, or read-only int64 row-index arrays of a permutation."""
    rng = random.Random(67)
    for name, G in ZOO:
        l = G.prime_l
        R2 = regular_module(G, 2)
        f = equivariant_map(R2, regular_module(G, 1), GroupRingMatrix(G, np.array(
            [[[rng.randrange(l) for _ in range(G.order)] for _ in range(2)]])).expand())
        ker, _ = kernel_of_map(f)
        W = submodule_span(R2, [[rng.randrange(l)] for _ in range(R2.dim)])
        mods = [R2, trivial_module(G, 2), zero_module(G), ker, quotient_module(R2, W)[0],
                direct_sum_modules(R2, trivial_module(G), ker),
                free_cover(ker).source if ker.dim else zero_module(G)]
        for M in mods:
            assert len(M.gens) == len(G.generators), name
            for rho in M.gens:
                assert isinstance(rho, np.ndarray) and rho.dtype == np.int64, name
                assert not rho.flags.writeable, name
                if rho.ndim == 1:
                    assert rho.shape == (M.dim,), name
                    assert np.array_equal(np.sort(rho), np.arange(M.dim)), name
                else:
                    assert rho.shape == (M.dim, M.dim), name
                    assert ((rho >= 0) & (rho < l)).all(), name


def test_act_matches_dense_products_on_both_sides():
    """Generators applied by `act`, and on the right by the oracle
    `right_act`, equal the dense products (rho @ V) % l and (V @ rho) % l,
    on regular modules, direct sums, trivial modules, permutation matrices
    given to PiModule and modules with generators that only look like
    permutations; and every permutation generator is stored as its 1-D
    row-index array, applied by index, and every other one as a 2-D
    matrix."""
    rng = np.random.default_rng(71)
    for name, G in ZOO:
        l = G.prime_l
        R2 = regular_module(G, 2)
        sums = direct_sum_modules(regular_module(G, 1), trivial_module(G, 2), R2)
        shuffle = np.eye(R2.dim, dtype=np.int64)[rng.permutation(R2.dim)]
        given = check_action(PiModule(G, R2.dim, [shuffle @ R2.matrix(i) @ shuffle.T
                                                  for i in range(len(R2.gens))]))
        mods = [regular_module(G, 1), R2, sums, trivial_module(G, 3), zero_module(G), given]
        if G.generators and l > 2:
            # n nonzero entries but not all 1: not a permutation
            mods.append(PiModule(G, 2, gens=[2 * np.eye(2, dtype=np.int64)] * len(G.generators)))
        if G.generators:
            # n ones, two in one column
            fake = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
            mods.append(PiModule(G, 3, gens=[fake] * len(G.generators)))
        for M in mods:
            V = rng.integers(0, l, (M.dim, 5))
            W = rng.integers(0, l, (3, M.dim))
            stack = rng.integers(0, l, (2, 4, M.dim))
            for i in range(len(M.gens)):
                rho = M.matrix(i)
                assert np.array_equal(M.act(i, V), (rho @ V) % l), name
                assert np.array_equal(right_act(M, i, W), (W @ rho) % l), name
                assert np.array_equal(right_act(M, i, stack), (stack @ rho) % l), name
        for M in mods[:6]:
            assert all(rho.shape == (M.dim,) for rho in M.gens), name
        for M in mods[6:]:
            assert all(rho.shape == (M.dim, M.dim) for rho in M.gens), name


def test_regular_module_stores_no_dense_matrix():
    """F_2[C_8^3]^4 has dim 2048 and 3 generators: as dense int64 matrices
    they would take 100 MB, as row-index arrays 49 kB."""
    G = build_group("product:cyclic:8,cyclic:8,cyclic:8", 2)
    tracemalloc.start()
    try:
        R = regular_module(G, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert R.dim == 2048 and len(R.gens) == 3
    assert peak < 1_000_000


def test_regular_modules_check_and_induce_without_products(monkeypatch):
    """On regular modules `is_equivariant` and `induced_action` gather
    rows and columns and call no F_l product."""
    rng = random.Random(73)
    cases = []
    for name, G in ZOO:
        R = regular_module(G, 2)
        f = np.kron(np.eye(2, dtype=np.int64), right_multiplication_matrix(G, rng))
        cases.append((name, G, R, f, radical_basis(R)))

    def refuse(*args, **kwargs):
        raise AssertionError("flinalg.matmul called")

    monkeypatch.setattr(flinalg, "matmul", refuse)
    for name, G, R, f, V in cases:
        l = G.prime_l
        assert is_equivariant(R, R, f), name
        rad = induced_action(R, V, lambda B: flinalg.solve_matrix(V, B, l))
        assert rad.dim == V.shape[1], name


def test_pivot_kernels_build_no_reduced_form(monkeypatch):
    """rank, pivot_columns, complete_basis, minimal_generator_lifts
    and is_free read their pivots from forward elimination: with
    flinalg.rref and a reduced elimination refused they still pick the
    pivots of the Gauss-Jordan oracle, on regular modules, a regular
    module plus a trivial one and random quotients over the zoo.  The
    lifts, one completion of the radical's spanning blocks, equal the
    completion of the oracle's radical basis."""
    rng = random.Random(79)
    cases = []
    for name, G in ZOO:
        cases.append((name, regular_module(G, 2), (True, 2)))
        cases.append((name, direct_sum_modules(regular_module(G, 1), trivial_module(G)),
                      (True, 2) if G.order == 1 else (False, None)))
        cases.append((name, _random_quotient(G, rng), None))

    def refuse(*args, **kwargs):
        raise AssertionError("flinalg.rref called")

    eliminate = flinalg._eliminate

    def forward_only(A, l, reduced):
        if reduced:
            raise AssertionError("reduced elimination run")
        return eliminate(A, l, reduced)

    monkeypatch.setattr(flinalg, "rref", refuse)
    monkeypatch.setattr(flinalg, "_eliminate", forward_only)
    for name, M, freeness in cases:
        l = M.group.prime_l
        eye = flinalg.identity(M.dim)
        spans = np.hstack([np.zeros((M.dim, 0), dtype=np.int64)]
                          + [(M.matrix(i) - eye) % l for i in range(len(M.gens))])
        pivots = rref_reference(spans, l)[1]
        assert flinalg.rank(spans, l) == len(pivots), name
        assert flinalg.pivot_columns(spans, l) == pivots, name
        rad = radical_basis(M)
        assert np.array_equal(rad, spans[:, pivots]), name
        r = rad.shape[1]
        chosen = [c - r for c in rref_reference(np.hstack([rad, eye]), l)[1] if c >= r]
        assert np.array_equal(flinalg.complete_basis(rad, eye, l), eye[:, chosen]), name
        lifts = minimal_generator_lifts(M)
        assert np.array_equal(lifts, eye[:, chosen]), name
        assert np.array_equal(lifts, flinalg.complete_basis(rad, eye, l)), name
        k = len(chosen)
        if freeness is None:
            cover = rref_reference(orbit_columns(M, lifts), l)[1]
            freeness = (True, k) if M.dim == k * M.group.order == len(cover) else (False, None)
        assert is_free(M) == freeness, name
