"""The perfectness decision procedure and free replacements."""

import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
    ModuleComplex,
    NotPerfectError,
    build_group,
    decide_perfect,
    euler_characteristic,
    is_quasi_iso,
    limit_complex,
    mapping_cone,
    Tower,
    trivial_module,
    wall_class,
)
from perfchain import finiteness, flinalg
from perfchain.chains import module_mapping_cone
from perfchain.finiteness import _approximate
from perfchain.modules import PiModule, direct_sum_modules

from conftest import SMALL_GROUPS, check_action, check_module_complex, check_module_map, \
    conjugate_complex, direct_sum, heisenberg_27, homology, identity_chain_map, \
    is_equivariant_brute, is_free, pad_with_identity_cones, random_minimal_complex, \
    random_stabilizing_tower, three_group_zoo, two_group_zoo, zero_complex


def one_plus_t(G):
    return GroupRingMatrix(G, [[[1, 1]]])


def test_decide_perfect_two_term_complex():
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 0, [1, 1], [one_plus_t(G)])
    v = decide_perfect(C)
    assert v.perfect
    assert v.replacement.ranks == [1, 1]
    assert v.euler_class == 0
    assert v.replacement.is_minimal()
    assert is_quasi_iso(v.witness)


def test_decide_perfect_trivial_module_is_negative():
    for name in ["C2", "C3", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        MC = ModuleComplex(G, 0, [trivial_module(G)], [])
        v = decide_perfect(MC)
        assert not v.perfect
        assert v.top_obstruction.dim == 1
        assert not is_free(v.top_obstruction)[0]
        assert v.replacement is None and v.euler_class is None


def test_decide_perfect_invariant_under_cone_padding(rng):
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 0, [1, 1, 1], [one_plus_t(G), one_plus_t(G)])
    base = decide_perfect(C)
    padded = C
    for k in range(3):
        cone = mapping_cone(identity_chain_map(ChainComplex(G, k, [1], [])))
        padded = direct_sum(padded, cone)
        v = decide_perfect(padded)
        assert v.perfect == base.perfect
        assert v.euler_class == base.euler_class


def norm_tower(G, rank, n_levels=4):
    """F_l[pi]^rank in degree 0 at every level; the first bond is the norm
    on the diagonal and the others identities, so the limit is the
    trivial module of dimension rank (not free)."""
    L = ChainComplex(G, 0, [rank], [])
    N = np.zeros((rank, rank, G.order), dtype=np.int64)
    N[np.arange(rank), np.arange(rank)] = 1
    bonds = [ChainMap(L, L, {0: GroupRingMatrix(G, N)})]
    return Tower([L] * n_levels, bonds + [identity_chain_map(L)] * (n_levels - 2))


def test_approximation_concentrates_homology_in_the_top_degree(rng):
    """With m the top homology degree, the cone of the approximation
    through degree m - 1 has homology in degree m alone, and the module
    the degree-m step starts from is that homology.  After the degree-m
    step the cone is acyclic when the input is perfect; otherwise its
    homology sits in degree m + 1 alone, over the kernel of the cover of
    the non-free obstruction.  That final cone is the oracle for
    `decide_perfect`, which reads the verdict off the degree-m step's
    rank instead; the inputs include the limits of norm towers over C4^3
    of ranks 1 and 2, shaped as the bench's."""
    C4_3 = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    inputs = [(limit_complex(norm_tower(C4_3, r), 3), False) for r in (1, 2)]
    for _, G in two_group_zoo() + three_group_zoo():
        if G.order > 16:
            continue
        C, _ = pad_and_scramble(G, rng)
        inputs.append((C.expanded(), True))
        T, _ = random_stabilizing_tower(G, rng, n_levels=3)
        inputs.append((limit_complex(T, 2), True))
        if G.order > 1:
            inputs.append((with_trivial_summand_on_top(C.expanded()), False))
    tops = set()
    for MC, perfect in inputs:
        m = max(MC.homology_support(), default=None)
        if m is None:
            continue
        tops.add(m - MC.bottom)
        below, _ = _approximate(MC, m - 1)
        cone = below.cone()
        assert cone.homology_support() == [m]
        approx, P = _approximate(MC, m)
        assert P.dim == cone.homology_dim(m)
        assert is_free(P)[0] == perfect == decide_perfect(MC).perfect
        assert approx.cone().homology_support() == ([] if perfect else [m + 1])
        assert (P.dim == approx.ranks[-1] * MC.group.order) == perfect
    assert len(tops) > 1


def test_module_route_builds_one_cone_per_loop_degree(rng, monkeypatch):
    """A module-route `decide_perfect` builds the cone of its
    approximation once per degree of Wall's loop, bottom to the top
    homology degree, and no final cone: the verdict is read off the rank
    adjoined in the top degree.  Checked on perfect and non-perfect
    inputs, and on an acyclic one, where the loop runs no step."""
    calls = []

    def counted(f):
        calls.append(f)
        return module_mapping_cone(f)

    monkeypatch.setattr(finiteness, "module_mapping_cone", counted)
    G = SMALL_GROUPS["C2xC2"]
    C, _ = pad_and_scramble(G, rng)
    R = trivial_module(G, 2)
    acyclic = ModuleComplex(G, 0, [R, R], [flinalg.identity(R.dim)])
    C4_3 = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    cases = [(C.expanded(), True), (with_trivial_summand_on_top(C.expanded()), False),
             (limit_complex(norm_tower(C4_3, 2), 3), False), (acyclic, True)]
    for MC, perfect in cases:
        calls.clear()
        assert decide_perfect(MC).perfect == perfect
        top = max(MC.homology_support(), default=MC.bottom - 1)
        assert len(calls) == top - MC.bottom + 1


def test_approximation_zero_and_single():
    G = SMALL_GROUPS["C3"]
    approx, P = _approximate(zero_complex(G).expanded(), 2)
    assert approx.free_complex().ranks == [] and P.dim == 0
    assert approx.cone().is_acyclic()
    single = ChainComplex(G, 0, [1], []).expanded()
    approx, P = _approximate(single, -1)
    assert approx.free_complex().ranks == [] and P.dim == 0
    assert approx.cone().homology_support() == [0]
    approx, P = _approximate(single, 1)
    assert approx.free_complex().ranks == [1]
    assert P.dim == 0 and approx.cone().is_acyclic()


def test_verdict_choice_independence(rng):
    """Generator-lift choices do not affect the verdict or the obstruction
    module's numerical data.  Each input is decided next to a copy whose
    basis is permuted in every degree, which moves the echelon choices of
    the lifts.  Free inputs are expanded so that the choices are made (a
    ChainComplex is decided by cancellation alone)."""
    witnesses_differ = False
    for name in ["C2", "C3", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for _ in range(4):
            C, core = pad_and_scramble(G, rng)
            MC = C.expanded()
            MP, perms = permute_basis(MC, rng)
            a = decide_perfect(MC)
            b = decide_perfect(MP)
            assert a.perfect == b.perfect
            assert a.euler_class == b.euler_class
            assert a.top_obstruction.dim == b.top_obstruction.dim
            assert is_free(a.top_obstruction) == is_free(b.top_obstruction)
            assert a.replacement.ranks == b.replacement.ranks
            assert is_quasi_iso(check_module_map(b.witness))
            witnesses_differ |= any(
                not np.array_equal(m, perms[q - MC.bottom].T @ b.witness.component_at(q))
                for q, m in a.witness.components.items())
        # module-complex inputs: same choice independence on the false branch
        if G.order > 1:
            C, _ = pad_and_scramble(G, rng)
            MC = with_trivial_summand_on_top(C.expanded())
            a = decide_perfect(MC)
            b = decide_perfect(permute_basis(MC, rng)[0])
            assert a.perfect == b.perfect == False  # noqa: E712
            assert a.top_obstruction.dim == b.top_obstruction.dim
    assert witnesses_differ


def permute_basis(MC, rng):
    """A copy of MC on a permuted basis in every degree, with the actions
    and differentials conjugated by the permutation matrices P_q; returns
    the copy and the P_q (new coordinates are P_q times old ones)."""
    G = MC.group
    perms = [np.eye(M.dim, dtype=np.int64)[:, rng.sample(range(M.dim), M.dim)]
             for M in MC.modules]
    mods = [check_action(PiModule(G, M.dim, [P @ M.matrix(i) @ P.T for i in range(len(M.gens))]))
            for P, M in zip(perms, MC.modules)]
    diffs = [perms[i] @ d @ perms[i + 1].T for i, d in enumerate(MC.diffs)]
    return check_module_complex(ModuleComplex(G, MC.bottom, mods, diffs)), perms


def with_trivial_summand_on_top(MC):
    """MC with a trivial module added to its top degree by a zero map; not
    perfect when the group is nontrivial."""
    G = MC.group
    mods = MC.modules[:-1] + [direct_sum_modules(MC.modules[-1], trivial_module(G))]
    diffs = MC.diffs[:-1] + [np.hstack([MC.diffs[-1], np.zeros((MC.modules[-2].dim, 1),
                                                               dtype=np.int64)])]
    return check_module_complex(ModuleComplex(G, MC.bottom, mods, diffs))


def pad_and_scramble(G, rng):
    core = random_minimal_complex(G, rng)
    return conjugate_complex(pad_with_identity_cones(core, rng, 2), rng), core


def test_cancellation_agrees_with_approximation(rng):
    """A free input decided by cancellation and its expansion decided by
    the approximation give the same verdict, replacement, euler class and
    obstruction size, and the replacement is the core of the input."""
    groups = [G for _, G in two_group_zoo() + three_group_zoo() if G.order <= 16]
    for G in groups + [heisenberg_27()]:
        C, core = pad_and_scramble(G, rng)
        a = decide_perfect(C)
        b = decide_perfect(C.expanded())
        assert a.perfect and b.perfect
        assert a.replacement.ranks == b.replacement.ranks == core.ranks
        assert a.replacement.bottom == b.replacement.bottom == core.bottom
        assert a.euler_class == b.euler_class == euler_characteristic(core)
        assert a.top_obstruction.dim == b.top_obstruction.dim


def test_trivial_group_matches_plain_linear_algebra(rng):
    """Over the trivial group the euler class is the ordinary alternating
    sum of homology dimensions."""
    G = SMALL_GROUPS["C1"]
    for _ in range(10):
        n_deg = rng.randint(1, 4)
        ranks = [rng.randint(0, 3) for _ in range(n_deg)]
        if not any(ranks):
            ranks[0] = 1
        mats = []
        for i in range(1, n_deg):
            data = np.zeros((ranks[i - 1], ranks[i], 1), dtype=np.int64)
            mats.append(GroupRingMatrix(G, data))
        C = ChainComplex(G, 0, ranks, mats)
        v = decide_perfect(C)
        assert v.perfect
        plain = sum((-1) ** q * homology(C, q).dim for q in range(C.bottom, C.top + 1))
        assert v.euler_class == plain


def test_obstruction_dim_divisible_when_perfect(rng):
    for name in ["C2", "C3", "C4"]:
        G = SMALL_GROUPS[name]
        for _ in range(3):
            C, _ = pad_and_scramble(G, rng)
            v = decide_perfect(C)
            assert v.perfect
            assert v.top_obstruction.dim % G.order == 0


def test_wall_class_examples():
    G = SMALL_GROUPS["C2"]
    single = ChainComplex(G, 0, [1], [])
    assert wall_class(single) == (1, 0)
    lens = ChainComplex(G, 0, [1, 1, 1], [one_plus_t(G), one_plus_t(G)])
    assert wall_class(lens) == (1, 0)
    cone = mapping_cone(identity_chain_map(ChainComplex(G, 0, [2], [])))
    assert wall_class(cone) == (0, 0)
    MC = ModuleComplex(G, 0, [trivial_module(G)], [])
    with pytest.raises(NotPerfectError):
        wall_class(MC)


def test_acyclic_module_complex_is_perfect():
    G = SMALL_GROUPS["C3"]
    R = trivial_module(G, 2)
    MC = check_module_complex(ModuleComplex(G, 0, [R, R], [np.eye(2, dtype=np.int64)]))
    v = decide_perfect(MC)
    assert v.perfect and v.euler_class == 0 and v.replacement.ranks == []


def test_module_complex_witness_is_quasi_iso():
    """For positive module-complex verdicts the recorded witness has an
    acyclic cone."""
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 0, [1, 1], [one_plus_t(G)])
    MC = C.expanded()
    v = decide_perfect(MC)
    assert v.perfect
    assert module_mapping_cone(check_module_map(v.witness)).is_acyclic()
    assert is_quasi_iso(v.witness)
    assert euler_characteristic(v.replacement) == v.euler_class


def test_module_route_witnesses_pass_the_oracles_across_the_zoo(rng):
    """The module route builds its witness unchecked.  Over the group zoo,
    on conjugated expanded free complexes, acyclic trivial-module
    complexes and tower limits, every positive verdict's witness has
    components equivariant on every element, commutes with d and is a
    quasi-isomorphism, and the euler class is that of the input's core."""
    for name, G in two_group_zoo() + three_group_zoo():
        C, core = pad_and_scramble(G, rng)
        R = trivial_module(G, rng.randint(1, 2))
        acyclic = ModuleComplex(G, 0, [R, R], [flinalg.identity(R.dim)])
        T, tower_core = random_stabilizing_tower(G, rng, n_levels=3)
        for MC, euler in ((C.expanded(), euler_characteristic(core)), (acyclic, 0),
                          (limit_complex(T, 2), euler_characteristic(tower_core))):
            v = decide_perfect(MC)
            assert v.perfect and v.euler_class == euler, name
            f = v.witness
            for q, m in f.components.items():
                assert is_equivariant_brute(f.source.module_at(q), f.target.module_at(q), m), \
                    (name, q)
            f.check_commutes()
            assert is_quasi_iso(f), name


def test_free_decision_at_order_512_stays_in_memory():
    """decide_perfect and the witness check over C8^3 (group order 512,
    total rank 35) gather the smaller operand of each product once, at the
    size of its expansion: a traced peak near 100 MB.  Gathering `second`
    in every product peaks near 255 MB, and copying that gather a second
    time near 500 MB."""
    G = build_group("product:cyclic:8,cyclic:8,cyclic:8", 2)
    rng = random.Random(5)
    C = conjugate_complex(pad_with_identity_cones(random_minimal_complex(G, rng, 4, 4), rng, 10),
                          rng)
    assert sum(C.ranks) == 35
    tracemalloc.start()
    try:
        v = decide_perfect(C)
        assert is_quasi_iso(v.witness)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.perfect and v.replacement.ranks == [1, 4, 2]
    assert peak < 160_000_000
