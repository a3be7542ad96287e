"""PiModules: minimal generators, kernels, freeness and projectivity."""

import random

import numpy as np
import pytest

from perfchain import (
    DimensionMismatchError,
    GroupRingMatrix,
    PiModule,
    build_group,
    PiModuleMap,
    free_cover,
    is_free,
    is_projective,
    kernel_of_map,
    minimal_generators,
    quotient_module,
    regular_module,
    trivial_module,
    zero_module,
)
from perfchain import flinalg
from perfchain.modules import (
    direct_sum_modules,
    is_equivariant,
    minimal_generator_lifts,
    orbit,
    radical_basis,
    submodule_span,
)

from conftest import (
    SMALL_GROUPS,
    action_is_homomorphism_brute,
    has_equivariant_section,
    is_equivariant_brute,
    first_generator_projection,
    per_element_action,
    regular_action_matrices,
    right_multiplication_matrix,
    three_group_zoo,
    two_group_zoo,
)


def test_regular_module_c2():
    G = SMALL_GROUPS["C2"]
    M = regular_module(G, 1)
    assert M.dim == 2
    assert M.action[1].tolist() == [[0, 1], [1, 0]]


def test_regular_module_zero_rank():
    assert regular_module(SMALL_GROUPS["C4"], 0).is_zero()


def test_regular_module_c3_rank2():
    G = SMALL_GROUPS["C3"]
    M = regular_module(G, 2)
    assert M.dim == 6
    # block-diagonal 3-cycles; constructor validates the action axioms
    expected = np.zeros((6, 6), dtype=int)
    for i in range(2):
        for s in range(3):
            expected[i * 3 + (s + 1) % 3, i * 3 + s] = 1
    assert np.array_equal(M.action[1], expected)
    PiModule(G, 6, M.action)  # re-validate explicitly


def test_action_axioms_enforced():
    G = SMALL_GROUPS["C2"]
    bad = [np.eye(2, dtype=int), np.array([[1, 1], [1, 0]])]
    with pytest.raises(DimensionMismatchError):
        PiModule(G, 2, bad)  # square is not the identity


def test_minimal_generators_examples():
    C2 = SMALL_GROUPS["C2"]
    assert minimal_generators(regular_module(C2, 3)) == 3
    assert minimal_generators(trivial_module(C2, 1)) == 1
    # submodule spanned by 1+t inside F_2[C_2]
    R = regular_module(C2, 1)
    W = submodule_span(R, np.array([[1], [1]]))
    sub = PiModule(C2, 1, [np.eye(1, dtype=int)] * 2)
    del sub
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
    mult = PiModuleMap(R, R, np.array([[1, 1], [1, 1]]))  # right mult by 1+t
    ker, incl = kernel_of_map(mult)
    assert ker.dim == 1
    assert ((mult.matrix @ incl.matrix) % 2 == 0).all()
    # identity has zero kernel
    ident = PiModuleMap(R, R, np.eye(2, dtype=int))
    assert kernel_of_map(ident)[0].dim == 0
    # zero map on the regular module of C3
    R3 = regular_module(SMALL_GROUPS["C3"], 1)
    zero = PiModuleMap(R3, R3, np.zeros((3, 3), dtype=int))
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
            assert (minimal_generators(Q) == 0) == Q.is_zero()


def test_kernel_inclusion_composes_to_zero():
    rng = random.Random(17)
    G = SMALL_GROUPS["C4"]
    R = regular_module(G, 1)
    for g in range(G.order):
        f = PiModuleMap(R, R, R.action[g] - np.eye(4, dtype=int))
        ker, incl = kernel_of_map(f)
        assert not ((f.matrix @ incl.matrix) % 2).any()
    del rng


def test_quotient_requires_invariant_subspace():
    G = SMALL_GROUPS["C2"]
    R = regular_module(G, 1)
    with pytest.raises(DimensionMismatchError):
        quotient_module(R, np.array([[1], [0]]))  # span{1} is not a submodule


def test_equivariance_enforced_on_maps():
    G = SMALL_GROUPS["C2"]
    R = regular_module(G, 1)
    with pytest.raises(DimensionMismatchError):
        PiModuleMap(R, R, np.array([[1, 0], [0, 0]]))


ZOO = two_group_zoo() + three_group_zoo()


def _perturbed_at(M, h):
    action = [a.copy() for a in M.action]
    action[h][0, 0] = (action[h][0, 0] + 1) % M.group.prime_l
    return action


def test_action_check_on_generators_matches_all_pairs():
    """Changing the action at any one element, generators or not, is
    rejected, and the generator check agrees with the all-pairs scan."""
    for name, G in ZOO:
        M = direct_sum_modules(regular_module(G, 1), trivial_module(G))
        assert action_is_homomorphism_brute(M), name
        PiModule(G, M.dim, M.action)
        for h in range(G.order):
            bad = PiModule(G, M.dim, _perturbed_at(M, h), validate=False)
            assert not action_is_homomorphism_brute(bad), (name, h)
            with pytest.raises(DimensionMismatchError):
                PiModule(G, M.dim, bad.action)


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
        PiModuleMap(R, R, f)
        for h in range(G.order):
            bad = f.copy()
            bad[0, h] = (bad[0, h] + 1) % G.prime_l
            assert not is_equivariant_brute(R, R, bad), (name, h)
            with pytest.raises(DimensionMismatchError):
                PiModuleMap(R, R, bad)
        if len(G.generators) > 1:
            P = first_generator_projection(G)
            assert not is_equivariant_brute(R, R, P), name
            with pytest.raises(DimensionMismatchError):
                PiModuleMap(R, R, P)


TWISTED = [("product:cyclic:2,cyclic:2", 2), ("product:cyclic:4,cyclic:2", 2),
           ("product:cyclic:2,cyclic:2,cyclic:2", 2), ("product:cyclic:4,cyclic:4,cyclic:4", 2),
           ("product:cyclic:3,cyclic:3", 3), ("product:cyclic:9,cyclic:3", 3),
           ("product:cyclic:3,cyclic:3,cyclic:3", 3)]


@pytest.mark.parametrize("spec,l", TWISTED)
def test_action_check_uses_every_generator(spec, l):
    """rho(g) = Q^j for g = (j, ...) in C_n x ..., with Q^n != 1, passes the
    check for every generator except the last one, which moves j."""
    G = build_group(spec, l)
    n = int(spec.split(",")[0].split(":")[-1])
    Q = np.array([[0, 1], [1, 1]]) if l == 2 else np.array([[2]])
    powers = [np.linalg.matrix_power(Q, j) % l for j in range(n)]
    action = [powers[g // (G.order // n)] for g in range(G.order)]
    assert not action_is_homomorphism_brute(PiModule(G, len(Q), action, validate=False))
    with pytest.raises(DimensionMismatchError):
        PiModule(G, len(Q), action)


def test_induced_action_matches_per_element_solve_for_kernels_and_quotients():
    rng = random.Random(43)
    for name, G in ZOO:
        l = G.prime_l
        R2 = regular_module(G, 2)
        data = np.array([[[rng.randrange(l) for _ in range(G.order)] for _ in range(2)]])
        f = PiModuleMap(R2, regular_module(G, 1), GroupRingMatrix(G, data).expand())
        ker, incl = kernel_of_map(f)
        K = incl.matrix
        expected = per_element_action(R2, K, lambda B: flinalg.solve_matrix(K, B, l))
        assert all(np.array_equal(a, b) for a, b in zip(ker.action, expected)), name

        W = submodule_span(R2, K[:, :1]) if K.shape[1] else K
        Q, _ = quotient_module(R2, W)
        quo = flinalg.QuotientSpace(flinalg.identity(R2.dim, l), W, l)
        expected = per_element_action(R2, quo.reps, quo.project)
        assert all(np.array_equal(a, b) for a, b in zip(Q.action, expected)), name


def test_radical_basis_spans_all_group_elements():
    rng = random.Random(47)
    for name, G in ZOO:
        l = G.prime_l
        M = _random_quotient(G, rng)
        if not M.dim:
            continue
        eye = np.eye(M.dim, dtype=np.int64)
        every = np.hstack([(M.action[g] - eye) % l for g in range(G.order)])
        assert flinalg.same_column_space(radical_basis(M), every, l), name


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
    """The per-element view of each constructor that stores generators only
    equals the dense matrices built element by element."""
    for name, G in two_group_zoo():
        eye = [np.eye(2, dtype=np.int64)] * G.order
        for r in (1, 2):
            assert _same(regular_module(G, r).action, regular_action_matrices(G, r)), (name, r)
        assert _same(trivial_module(G, 2).action, eye), name
        assert _same(zero_module(G).action, [np.zeros((0, 0), dtype=np.int64)] * G.order)
        M = direct_sum_modules(regular_module(G, 1), trivial_module(G, 2), regular_module(G, 2))
        expected = _dense_sum(regular_action_matrices(G, 1), eye, regular_action_matrices(G, 2))
        assert _same(M.action, expected), name
        assert M == PiModule(G, M.dim, expected), name


def test_induced_action_on_a_direct_sum_matches_per_element_solve():
    rng = random.Random(53)
    for name, G in two_group_zoo():
        l, o = G.prime_l, G.order
        S = direct_sum_modules(regular_module(G, 1), trivial_module(G))
        dense = _dense_sum(regular_action_matrices(G, 1), [np.eye(1, dtype=np.int64)] * o)
        # augmentation on F_l[pi] plus c on the trivial summand is equivariant
        f = PiModuleMap(S, trivial_module(G), [[1] * o + [rng.randrange(l)]])
        ker, incl = kernel_of_map(f)
        K = incl.matrix
        expected = [flinalg.solve_matrix(K, (a @ K) % l, l) for a in dense]
        assert _same(ker.action, expected), name

        W = submodule_span(S, K[:, :1]) if K.shape[1] else K
        Q, _ = quotient_module(S, W)
        quo = flinalg.QuotientSpace(flinalg.identity(S.dim, l), W, l)
        expected = [quo.project((a @ quo.reps) % l) for a in dense]
        assert _same(Q.action, expected), name


def test_orbit_matches_dense_products():
    rng = random.Random(59)
    for name, G in two_group_zoo():
        l = G.prime_l
        dense = _dense_sum(regular_action_matrices(G, 1), regular_action_matrices(G, 2))
        M = PiModule(G, 3 * G.order, dense)
        V = np.array([[rng.randrange(l) for _ in range(2)] for _ in range(M.dim)])
        assert _same(orbit(M, V), [(a @ V) % l for a in dense]), name


def test_free_cover_matches_per_element_loop():
    """The cover's columns rho(g) x_t, against one product per element and
    lift, for quotients of F_l[pi]^2 given densely and by generators."""
    rng = random.Random(61)
    for name, G in two_group_zoo():
        l, o = G.prime_l, G.order
        R = PiModule(G, 2 * o, regular_action_matrices(G, 2))
        vec = np.array([[rng.randrange(l)] for _ in range(R.dim)])
        W = submodule_span(R, vec)
        quo = flinalg.QuotientSpace(flinalg.identity(R.dim, l), W, l)
        dense = [quo.project((a @ quo.reps) % l) for a in R.action]
        for Q in (PiModule(G, quo.dim, dense), quotient_module(R, W)[0]):
            lifts = minimal_generator_lifts(Q)
            expected = np.zeros((Q.dim, lifts.shape[1] * o), dtype=np.int64)
            for t in range(lifts.shape[1]):
                for g in range(o):
                    expected[:, t * o + g] = (dense[g] @ lifts[:, t]) % l
            assert np.array_equal(free_cover(Q).matrix, expected), name


def test_internal_constructors_hand_over_reduced_read_only_generators():
    """Modules built inside the package skip the reducing copy in
    PiModule, so each constructor must hand over reduced, read-only int64
    generator arrays."""
    rng = random.Random(67)
    for name, G in ZOO:
        l = G.prime_l
        R2 = regular_module(G, 2)
        f = PiModuleMap(R2, regular_module(G, 1), GroupRingMatrix(G, np.array(
            [[[rng.randrange(l) for _ in range(G.order)] for _ in range(2)]])).expand())
        ker, _ = kernel_of_map(f)
        W = submodule_span(R2, [[rng.randrange(l)] for _ in range(R2.dim)])
        mods = [R2, trivial_module(G, 2), zero_module(G), ker, quotient_module(R2, W)[0],
                direct_sum_modules(R2, trivial_module(G), ker),
                free_cover(ker).source if ker.dim else zero_module(G)]
        for M in mods:
            assert len(M.gens) == len(G.generators), name
            for a in M.gens:
                assert isinstance(a, np.ndarray) and a.dtype == np.int64, name
                assert not a.flags.writeable, name
                assert ((a >= 0) & (a < l)).all(), name
