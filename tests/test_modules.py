"""PiModules: minimal generators, kernels, freeness and projectivity."""

import random

import numpy as np
import pytest

from perfchain import (
    DimensionMismatchError,
    PiModule,
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
from perfchain.modules import direct_sum_modules, submodule_span

from conftest import SMALL_GROUPS, has_equivariant_section


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
