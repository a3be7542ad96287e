"""Towers: stable images, limits, and pro-perfectness."""

import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
    HorizonExhaustedError,
    Tower,
    build_group,
    decide_perfect,
    identity_chain_map,
    is_free,
    is_quasi_iso,
    limit_complex,
    norm_element,
    pro_decide_perfect,
    stable_images,
)
from perfchain import certificates, chains, flinalg, modules
from perfchain.modules import free_cover, orbit_columns
from perfchain.serialize import module_complex_to_json

from conftest import (
    SMALL_GROUPS,
    conjugate_complex,
    constant_tower,
    homology_image_dims,
    module_action,
    pad_with_identity_cones,
    per_element_action,
    random_minimal_complex,
    random_stabilizing_tower,
    stable_images_reference,
    three_group_zoo,
    two_group_zoo,
)


def one_plus_t(G):
    return GroupRingMatrix.from_entries(G, [[[1, 1]]])


def lens_like(G, n):
    return ChainComplex(G, 0, [1] * (n + 1), [one_plus_t(G)] * n)


def single_free(G):
    return ChainComplex(G, 0, [1], [])


def norm_tower(G, n_levels=4):
    """Levels F_l[pi] in degree 0; first bond is the norm, the rest are
    identities, so the stable image at level 0 is the trivial line."""
    L = single_free(G)
    N = GroupRingMatrix.from_entries(G, [[norm_element(G)]])
    bonds = [ChainMap(L, L, {0: N})] + [identity_chain_map(L)] * (n_levels - 2)
    return Tower([L] * n_levels, bonds)


def test_tower_certificate_maps_are_the_orbits_of_their_generator_columns(rng):
    """Over C2, C4 and C4^3, on random stabilizing towers and the norm
    tower, the witness map and the obstruction's cover that the solver
    holds are the orbits of the generator columns its certificate
    writes, component by component."""
    groups = [SMALL_GROUPS["C2"], SMALL_GROUPS["C4"],
              build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)]
    counts = [0, 0]         # maps checked for negative and positive verdicts
    for G in groups:
        towers = [random_stabilizing_tower(G, rng, n_levels=3)[0] for _ in range(3)]
        for T in towers + [norm_tower(G, 3)]:
            verdict = pro_decide_perfect(T, 2)
            witness = certificates.tower_perfectness_certificate(T, 2, verdict)["witness"]
            if verdict.perfect:
                f = verdict.witness
                assert sorted(witness["map"]) == sorted(map(str, f.components))
                held = [(f.target.module_at(q), m, witness["map"][str(q)])
                        for q, m in f.components.items()]
            else:
                P = verdict.top_obstruction
                held = [(P, free_cover(P).matrix, witness["cover"])]
            counts[verdict.perfect] += len(held)
            for M, full, cols in held:
                V = np.array(cols, dtype=np.int64).reshape(M.dim, full.shape[1] // G.order)
                assert np.array_equal(orbit_columns(M, V), full), G.descriptor
    assert min(counts) > 0


def test_stable_images_constant_tower():
    G = SMALL_GROUPS["C2"]
    T = constant_tower(lens_like(G, 2), 4)
    si = stable_images(T, 1, 0, 2)
    assert si.stabilized and si.stable_at == 0
    assert si.value.shape[1] == 2  # full expanded space


def test_stable_images_radical_bond_tower():
    G = SMALL_GROUPS["C2"]
    L = single_free(G)
    bond = ChainMap(L, L, {0: one_plus_t(G)})
    T = Tower([L] * 5, [bond] * 4)
    si = stable_images(T, 0, 0, 3)
    assert si.dims == [2, 1, 0, 0]
    assert si.stable_at == 2 and si.stabilized
    assert si.value.shape[1] == 0


def test_stable_images_eventually_constant():
    from perfchain import direct_sum, mapping_cone
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 1)
    junk = mapping_cone(identity_chain_map(ChainComplex(G, 5, [1], [])))
    level0 = direct_sum(C, junk)  # junk lives in degrees 5 and 6
    comps = {q: GroupRingMatrix.identity(G, 1) for q in (0, 1)}
    bond0 = ChainMap(C, level0, comps)
    T = Tower([level0, C, C, C], [bond0, identity_chain_map(C),
                                  identity_chain_map(C)])
    # at level 1 the tower is constant at C: full image, stable immediately
    si = stable_images(T, 1, 1, 2)
    assert si.stabilized and si.stable_at == 0 and si.value.shape[1] == 2
    # at level 0 the junk degrees receive nothing from far levels
    si6 = stable_images(T, 6, 0, 2)
    assert si6.stabilized and si6.value.shape[1] == 0


def test_stable_images_horizon_bounds():
    G = SMALL_GROUPS["C2"]
    T = constant_tower(single_free(G), 3)
    with pytest.raises(HorizonExhaustedError):
        stable_images(T, 0, 1, 3)
    si0 = stable_images(T, 0, 0, 0)
    assert not si0.stabilized  # a single level is never evidence


def test_limit_of_constant_tower_is_the_complex():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    T = constant_tower(C, 3)
    lim = limit_complex(T, 2)
    assert module_complex_to_json(lim) == module_complex_to_json(C.expanded())


def test_limit_of_radical_bond_tower_is_zero():
    G = SMALL_GROUPS["C2"]
    L = single_free(G)
    bond = ChainMap(L, L, {0: one_plus_t(G)})
    T = Tower([L] * 5, [bond] * 4)
    lim = limit_complex(T, 3)
    assert all(m.dim == 0 for m in lim.modules)


def test_limit_of_padded_approximations_is_the_core(rng):
    """Towers whose levels carry extra junk collapse onto the core."""
    for name in ["C2", "C3", "C4"]:
        G = SMALL_GROUPS[name]
        T, core = random_stabilizing_tower(G, rng)
        lim = limit_complex(T, 2)
        for q in range(core.bottom, core.top + 1):
            assert lim.module_at(q).dim == core.rank_at(q) * G.order
            assert lim.homology_dim(q) == core.expanded().homology_dim(q)


def test_limit_requires_stabilization():
    G = SMALL_GROUPS["C4"]
    L = single_free(G)
    u = GroupRingMatrix.from_entries(G, [[[-1, 1, 0, 0]]])  # t - 1, order 4
    bond = ChainMap(L, L, {0: u})
    T = Tower([L] * 3, [bond] * 2)
    # images shrink strictly through the whole prefix: 4, 3, 2
    with pytest.raises(HorizonExhaustedError):
        limit_complex(T, 2)


def test_pro_decide_constant_towers_agree_with_direct(rng):
    for name in ["C2", "C3", "C2xC2"]:
        G = SMALL_GROUPS[name]
        C = lens_like(SMALL_GROUPS["C2"], 2) if name == "C2" else single_free(G)
        T = constant_tower(C, 3)
        direct = decide_perfect(C)
        pro = pro_decide_perfect(T, 2)
        assert pro.perfect == direct.perfect
        assert pro.euler_class == direct.euler_class


def test_pro_decide_trivial_limit_is_not_perfect():
    for name in ["C2", "C3", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        v = pro_decide_perfect(norm_tower(G), 2)
        assert not v.perfect
        assert v.top_obstruction.dim == 1
        assert not is_free(v.top_obstruction)[0]


def test_pro_decide_tower_limiting_to_lens():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    T = constant_tower(C, 4)
    v = pro_decide_perfect(T, 3)
    assert v.perfect and v.euler_class == 1


def test_limit_homology_matches_stabilized_homology_images(rng):
    for name in ["C2", "C3", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for _ in range(3):
            T, core = random_stabilizing_tower(G, rng)
            lim = limit_complex(T, 3)
            for q in range(lim.bottom, lim.bottom + len(lim.modules)):
                dims = homology_image_dims(T, q, 3)
                assert dims[-1] == dims[-2]  # stabilized
                assert lim.homology_dim(q) == dims[-1]


def test_reindexing_invariance_on_collapsing_towers(rng):
    for name in ["C2", "C3"]:
        G = SMALL_GROUPS[name]
        for _ in range(3):
            T, core = random_stabilizing_tower(G, rng)
            lim = limit_complex(T, 2)
            lim_dropped = limit_complex(Tower(T.levels[1:], T.bonds[1:]), 2)
            assert [m.dim for m in lim.modules] == [m.dim for m in lim_dropped.modules]
            for q in range(lim.bottom, lim.bottom + len(lim.modules)):
                assert lim.homology_dim(q) == lim_dropped.homology_dim(q)
            a = decide_perfect(lim)
            b = decide_perfect(lim_dropped)
            assert a.perfect == b.perfect and a.euler_class == b.euler_class


def test_limit_action_matches_per_element_solve(rng):
    """The limit's action and differentials are the coordinates a solver
    gives in the stable bases: per element of pi for the action, and
    `solve_matrix(W, d_q V)` for the differential from the basis V at q
    to the basis W at q - 1."""
    for name, G in two_group_zoo() + three_group_zoo():
        l = G.prime_l
        T, _ = random_stabilizing_tower(G, rng, n_levels=3)
        lim = limit_complex(T, 2)
        E = T.levels[0].expanded()
        W = None
        for q in range(lim.bottom, lim.top + 1):
            V = stable_images(T, q, 0, 2).value
            expected = per_element_action(E.module_at(q), V,
                                          lambda B: flinalg.solve_matrix(V, B, l))
            actual = module_action(lim.module_at(q))
            assert all(np.array_equal(a, b) for a, b in zip(actual, expected)), name
            if W is not None:
                D = flinalg.solve_matrix(W, flinalg.matmul(E.diff_at(q), V, l), l)
                assert np.array_equal(lim.diff_at(q), D), (name, q)
            W = V


def test_limit_complex_solves_and_re_checks_nothing(rng, monkeypatch):
    """Limit coordinates are read off the pivot rows of canonical bases,
    and the stable-image subcomplex, which holds by construction, is not
    validated again: over the group zoo, with the solver and the
    equivariance and d o d checks made to raise, every limit is built
    with the dims of the tower's core."""
    def refuse(*args):
        raise AssertionError("limit_complex solved or re-checked")

    zoo = [(name, G, random_stabilizing_tower(G, rng, n_levels=3), norm_tower(G, 3))
           for name, G in two_group_zoo() + three_group_zoo()]
    for module, attr in ((flinalg, "solve_matrix"), (modules, "is_equivariant"),
                         (chains, "is_equivariant"), (chains, "_check_d_squared")):
        monkeypatch.setattr(module, attr, refuse)
    for name, G, (T, core), norm in zoo:
        lim = limit_complex(T, 2)
        assert [lim.dim_at(q) for q in range(core.bottom, core.top + 1)] == \
            [r * G.order for r in core.ranks], name
        assert [m.dim for m in limit_complex(norm, 2).modules] == [1], name


def test_stable_images_match_the_identity_start_reference(rng):
    """Deciding stabilization by rank changes no image dimension, no final
    image, no `stabilized` and no `stable_at` against canonical images
    composed from the identity; and those images are nested, which is what
    makes equal ranks mean equal images."""
    for name, G in two_group_zoo():
        l = G.prime_l
        for T in (random_stabilizing_tower(G, rng)[0], norm_tower(G)):
            base = T.levels[0]
            for q in range(base.bottom - 1, base.top + 2):
                for h in range(4):
                    si = stable_images(T, q, 0, h)
                    images, stabilized, stable_at = stable_images_reference(T, q, 0, h)
                    assert si.dims == [im.shape[1] for im in images], (name, q, h)
                    assert np.array_equal(si.value, images[-1]), (name, q, h)
                    assert (si.stabilized, si.stable_at) == (stabilized, stable_at), (name, q, h)
                    for wide, narrow in zip(images, images[1:]):
                        assert flinalg.solve_matrix(wide, narrow, l) is not None, (name, q, h)


def test_limit_complex_puts_one_image_per_degree_in_canonical_form(rng, monkeypatch):
    """Horizons before the last are compared by rank alone."""
    calls = []
    canonical = flinalg.canonical_columns

    def counting(A, l):
        calls.append(A.shape)
        return canonical(A, l)

    monkeypatch.setattr(flinalg, "canonical_columns", counting)
    for name in ["C2", "C4", "C2xC2"]:
        T, core = random_stabilizing_tower(SMALL_GROUPS[name], rng)
        base = T.levels[0]
        calls.clear()
        limit_complex(T, 3)
        assert len(calls) == base.top - base.bottom + 1, name


def test_module_path_at_scale_stays_within_memory():
    """A scrambled C4^3 complex of level ranks [1, 6, 7, 5, 2, 4, 2] (total
    F_2 dimension 1728) as a constant 3-level tower: the limit, Wall's
    approximation and the witness check decide it perfect with the core's
    ranks, with a traced peak below 48 MB."""
    G = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    rng = random.Random(5)
    core = random_minimal_complex(G, rng, 4, 3)
    C = conjugate_complex(pad_with_identity_cones(core, rng, 6), rng)
    assert C.ranks == [1, 6, 7, 5, 2, 4, 2]
    T = constant_tower(C, 3)
    tracemalloc.start()
    try:
        v = decide_perfect(limit_complex(T, 2))
        witnessed = is_quasi_iso(v.witness)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.perfect and witnessed
    assert v.replacement.ranks == core.ranks == [3, 3, 3] and v.euler_class == 3
    assert peak < 48_000_000
