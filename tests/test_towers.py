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
    euler_characteristic,
    is_quasi_iso,
    limit_complex,
    pro_decide_perfect,
    stable_images,
)
from perfchain import certificates, chains, flinalg, towers
from perfchain.groups import grm_compose
from perfchain.modules import free_cover, orbit_columns, regular_module
from perfchain.serialize import json_field_array, module_complex_to_json
from perfchain.towers import free_limit

from conftest import (
    SMALL_GROUPS,
    cone_junk_with_map,
    conjugate_complex,
    constant_tower,
    direct_sum,
    fold_tower,
    homology_image_dims,
    identity_chain_map,
    is_free,
    kill_tower,
    module_action,
    pad_with_identity_cones,
    per_element_action,
    radical_entry,
    random_invertible,
    norm_matrix,
    norm_pair_tower,
    random_minimal_complex,
    random_stabilizing_tower,
    stable_images_reference,
    three_group_zoo,
    two_group_zoo,
)


def one_plus_t(G):
    return GroupRingMatrix(G, [[[1, 1]]])


def lens_like(G, n):
    return ChainComplex(G, 0, [1] * (n + 1), [one_plus_t(G)] * n)


def single_free(G):
    return ChainComplex(G, 0, [1], [])


def norm_tower(G, n_levels=4):
    """Levels F_l[pi] in degree 0; first bond is the norm, the rest are
    identities, so the stable image at level 0 is the trivial line."""
    L = single_free(G)
    N = norm_matrix(G)
    bonds = [ChainMap(L, L, {0: N})] + [identity_chain_map(L)] * (n_levels - 2)
    return Tower([L] * n_levels, bonds)


def test_tower_certificate_maps_are_the_orbits_of_their_generator_columns(rng):
    """Over C2, C4 and C4^3, on random stabilizing towers and the norm
    tower, the maps a certificate writes are the ones the solver holds.
    On module-route verdicts (the norm tower's, and the stabilizing
    towers' with that route forced) the witness map and the obstruction's
    cover are the orbits of the generator columns written, component by
    component.  On free-route verdicts the witness's group-ring data is
    written, and its expansion is the orbit of its generator columns over
    the regular module."""
    groups = [SMALL_GROUPS["C2"], SMALL_GROUPS["C4"],
              build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)]
    counts = [0, 0, 0]      # module-route negative and positive, free-route maps
    for G in groups:
        towers = [random_stabilizing_tower(G, rng, n_levels=3)[0] for _ in range(3)]
        for T in towers + [norm_tower(G, 3)]:
            for verdict in (pro_decide_perfect(T, 2), decide_perfect(limit_complex(T, 2))):
                witness = certificates.tower_perfectness_certificate(T, 2, verdict)["witness"]
                f = verdict.witness
                if isinstance(f, ChainMap):
                    assert sorted(witness["map"]) == sorted(map(str, f.components))
                    for q, m in f.components.items():
                        written = GroupRingMatrix(G, json_field_array(
                            witness["map"][str(q)], "map", G.prime_l, m.rows, m.cols, G.order))
                        assert written == m, G.descriptor
                        E = written.expand()
                        cols = E[:, G.identity::G.order]
                        assert np.array_equal(orbit_columns(regular_module(G, m.rows), cols), E)
                    counts[2] += len(f.components)
                    continue
                if verdict.perfect:
                    assert sorted(witness["map"]) == sorted(map(str, f.components))
                    held = [(f.target.module_at(q), m, witness["map"][str(q)])
                            for q, m in f.components.items()]
                else:
                    P = verdict.top_obstruction
                    held = [(P, free_cover(P).matrix, witness["cover"])]
                counts[verdict.perfect] += len(held)
                for M, full, cols in held:
                    V = json_field_array(cols, "columns", G.prime_l, M.dim,
                                         full.shape[1] // G.order)
                    assert np.array_equal(orbit_columns(M, V), full), G.descriptor
    assert min(counts) > 0


def _route_answer(decide):
    """(perfect, euler_class, replacement ranks, obstruction dim) of a
    verdict, or the message of the horizon error that ends it."""
    try:
        v = decide()
    except HorizonExhaustedError as e:
        return str(e)
    return (v.perfect, v.euler_class, v.replacement.ranks if v.perfect else None,
            v.top_obstruction.dim)


def _core_of_ranks(G, rng, bottom, ranks):
    """A minimal complex of the given ranks, boundary slots alternating
    between the norm and g - 1 as in `random_minimal_complex`."""
    bnds = []
    for i in range(1, len(ranks)):
        data = np.zeros((ranks[i - 1], ranks[i], G.order), dtype=np.int64)
        for s in range(min(ranks[i - 1], ranks[i])):
            data[s, s] = radical_entry(G, rng, (bottom + i) % 2)
        bnds.append(GroupRingMatrix(G, data))
    return ChainComplex(G, bottom, ranks, bnds)


def bench_shaped_towers(G, rng):
    """Kill and fold towers of the shapes of the order-64 benchmark: cores
    of ranks [1] and [1, 1], junk of rank 1 or 2, four levels."""
    core = _core_of_ranks(G, rng, 0, [1])
    yield kill_tower(core, _core_of_ranks(G, rng, 0, [1]), 4), core
    for bottom, ranks, r in ((0, [1], 2), (-1, [1, 1], 1)):
        core = _core_of_ranks(G, rng, bottom, ranks)
        yield fold_tower(core, *cone_junk_with_map(core, rng, core.top - 1, r), 4), core


def test_free_route_matches_the_module_route(rng):
    """Stabilizing towers over the small groups and both group zoos, and
    the benchmark's kill and fold towers over C4^3, take the free route at
    horizons 2 and 3, and it gives the verdict, replacement ranks and Euler
    class of the module route forced by `decide_perfect(limit_complex(...))`,
    with a limit of the same dims and a witness that is a quasi-isomorphism."""
    C64 = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    towers = [random_stabilizing_tower(G, rng, n_levels=4)
              for G in list(SMALL_GROUPS.values())
              + [G for _, G in two_group_zoo() + three_group_zoo()]]
    towers += list(bench_shaped_towers(C64, rng))
    for T, core in towers:
        for h in (2, 3):
            lim = free_limit(T, h)
            assert lim is not None, (T.group.descriptor, h)
            module = limit_complex(T, h)
            assert [lim.complex.dim_at(q) for q in range(module.bottom, module.top + 1)] \
                == [m.dim for m in module.modules]
            v = pro_decide_perfect(T, h)
            assert isinstance(v.witness, ChainMap) and is_quasi_iso(v.witness)
            assert _route_answer(lambda: v) == \
                _route_answer(lambda: decide_perfect(limit_complex(T, h)))
            assert (v.replacement.ranks, v.euler_class) == \
                (core.ranks, euler_characteristic(core))


def _diagonal(G, entries):
    """The diagonal group-ring matrix with the given coefficient vectors."""
    data = np.zeros((len(entries), len(entries), G.order), dtype=np.int64)
    for i, a in enumerate(entries):
        data[i, i] = a
    return GroupRingMatrix(G, data)


def _one_norm_zero(G):
    """The coefficients of 1, of the norm element and of 0."""
    return (GroupRingMatrix.identity(G, 1).data[0, 0], np.ones(G.order, dtype=np.int64),
            np.zeros(G.order, dtype=np.int64))


def _free_plus_norm_tower(G):
    """A minimal complex C of ranks [1, 1, 1] plus F_l[pi] in degree 1,
    whose first bond is the norm there and the rest identities: the limit
    is C plus the trivial line, which is not perfect."""
    C = _core_of_ranks(G, random.Random(0), 0, [1, 1, 1])
    level = direct_sum(C, ChainComplex(G, 1, [1], []))
    one, norm, _ = _one_norm_zero(G)
    comps = {0: _diagonal(G, [one]), 1: _diagonal(G, [one, norm]), 2: _diagonal(G, [one])}
    bonds = [ChainMap(level, level, comps)] + [identity_chain_map(level)] * 2
    return Tower([level] * 4, bonds)


def _free_only_at_the_horizon(G):
    """F_l[pi]^2 in degree 0 with bonds diag(1, norm), then diag(1, 0): the
    image is free at horizon 2 but not at 1, so it is not stable."""
    L = ChainComplex(G, 0, [2], [])
    one, norm, zero = _one_norm_zero(G)
    first = _diagonal(G, [one, norm])
    second = _diagonal(G, [one, zero])
    return Tower([L] * 3, [ChainMap(L, L, {0: first}), ChainMap(L, L, {0: second})])


def test_non_free_limits_fall_back_to_the_module_route():
    """The norm tower and a free (+) norm tower are refused by the free
    route and come out negative, as on the module route; an image free at
    the horizon but not just before it is refused too, and both routes end
    in the same horizon error."""
    for name in ["C2", "C3", "C4", "C2xC2", "D4"]:
        G = SMALL_GROUPS[name]
        for T, negative in ((norm_tower(G), True), (_free_plus_norm_tower(G), True),
                            (_free_only_at_the_horizon(G), False)):
            h = len(T.levels) - 1
            assert free_limit(T, h) is None, name
            answer = _route_answer(lambda: pro_decide_perfect(T, h))
            assert answer == _route_answer(lambda: decide_perfect(limit_complex(T, h))), name
            assert (answer[0] is False) if negative else ("not stabilized" in answer), name


def test_free_limit_inverts_its_pivot_blocks(rng):
    """On one-degree towers whose bonds are a random invertible W, the image
    at horizon 2 is everything, its pivot block is W^2, and Newton's
    iteration gives exactly W^-1 W^-1, over both group zoos."""
    for name, G in two_group_zoo() + three_group_zoo():
        k = rng.randint(1, 3)
        W, Winv = random_invertible(G, k, rng)
        L = ChainComplex(G, 0, [k], [])
        bond = ChainMap(L, L, {0: W})
        lim = free_limit(Tower([L] * 3, [bond, bond]), 2)
        assert lim is not None and lim.complex.ranks == [k], name
        A = GroupRingMatrix(G, lim.bases[0].data[lim.rows[0]])
        assert A == grm_compose(W, W), name
        assert lim.inverses[0] == grm_compose(Winv, Winv), name


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
    from perfchain import mapping_cone
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
    u = GroupRingMatrix(G, [[[-1, 1, 0, 0]]])  # t - 1, order 4
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


def test_stable_image_at_level_zero_is_decided_without_a_transition_check():
    """On the C2 norm tower the stable image S_1 is free of dim 2 and the
    norm carries it onto S_0, the trivial line of dim 1.  The decision
    reads the stable image at level 0 and checks no transition from S_1
    to S_0: the tower from level 1 is decided perfect, the whole tower not
    perfect, and neither is refused with HorizonExhaustedError."""
    T = norm_tower(SMALL_GROUPS["C2"])
    upper = Tower(T.levels[1:], T.bonds[1:])
    assert stable_images(T, 0, 1, 2).dims[-1] == 2
    assert stable_images(T, 0, 0, 2).dims[-1] == 1
    assert [m.dim for m in limit_complex(upper, 2).modules] == [2]
    assert [m.dim for m in limit_complex(T, 2).modules] == [1]
    assert pro_decide_perfect(upper, 2).perfect
    assert not pro_decide_perfect(T, 2).perfect


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
    checked again: over the group zoo, with the solver, the d o d check
    and both chain-map checks made to raise, every limit is built with the
    dims of the tower's core.  Nor is a generator's action built over all
    generators at once: `induced_action`, which stacks them, raises too."""
    def refuse(*args):
        raise AssertionError("limit_complex solved or re-checked")

    zoo = [(name, G, random_stabilizing_tower(G, rng, n_levels=3), norm_tower(G, 3))
           for name, G in two_group_zoo() + three_group_zoo()]
    for owner, attr in ((flinalg, "solve_matrix"), (chains.ChainComplex, "check_d_squared"),
                        (chains.ChainMap, "check_commutes"),
                        (chains.ModuleComplexMap, "check_commutes")):
        monkeypatch.setattr(owner, attr, refuse)
    monkeypatch.setattr("perfchain.modules.induced_action", refuse)
    monkeypatch.setattr("perfchain.towers.induced_action", refuse, raising=False)
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


def scale_tower():
    """A scrambled C4^3 complex of level ranks [1, 6, 7, 5, 2, 4, 2] (total
    F_2 dimension 1728) as a constant 3-level tower, and its core."""
    G = build_group("product:cyclic:4,cyclic:4,cyclic:4", 2)
    rng = random.Random(5)
    core = random_minimal_complex(G, rng, 4, 3)
    C = conjugate_complex(pad_with_identity_cones(core, rng, 6), rng)
    assert C.ranks == [1, 6, 7, 5, 2, 4, 2]
    return constant_tower(C, 3), core


def test_module_path_at_scale_stays_within_memory():
    """On the scale tower, the limit, Wall's approximation and the witness
    check decide it perfect with the core's ranks, with a traced peak
    below 32 MB."""
    T, core = scale_tower()
    tracemalloc.start()
    try:
        v = decide_perfect(limit_complex(T, 2))
        witnessed = is_quasi_iso(v.witness)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.perfect and witnessed
    assert v.replacement.ranks == core.ranks == [3, 3, 3] and v.euler_class == 3
    assert peak < 32_000_000


def test_limit_complex_keeps_no_expansion():
    """While the scale tower lives on, the memory still traced after
    `limit_complex` returns is the limit's own arrays (its differentials
    and generators) within 1 MB: no expansion of a bond or a differential
    outlives its reader."""
    T, _ = scale_tower()
    tracemalloc.start()
    try:
        lim = limit_complex(T, 2)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(d.nbytes for d in lim.diffs) + sum(g.nbytes for m in lim.modules for g in m.gens)
    assert own <= current <= own + 1_000_000, (current, own)


def test_both_routes_read_the_composites_the_tower_keeps(monkeypatch):
    """On the norm-pair tower over C4 at horizon 3, the free route builds
    M_1, M_2, M_3 at degrees 0 and 1 and is refused at degree 1; the
    module route reads those and builds degree 2's.  So
    `pro_decide_perfect` composes two bonds per degree, 6 in all, where
    building the refused route's composites again would take 10, and
    reading the kept composites once more composes nothing and changes
    none of them."""
    calls = []

    def counting(second, first):
        calls.append(1)
        return grm_compose(second, first)

    monkeypatch.setattr(towers, "grm_compose", counting)
    G = SMALL_GROUPS["C4"]
    T, _ = norm_pair_tower(G)
    assert free_limit(T, 3) is None
    assert (sorted(T.composites), len(calls)) == ([(0, 0), (1, 0)], 4)
    T, core = norm_pair_tower(G)
    calls.clear()
    v = pro_decide_perfect(T, 3)
    assert len(calls) == 6
    assert v.perfect and (v.replacement.ranks, v.euler_class) == (core.ranks, 1)
    assert not isinstance(v.witness, ChainMap)
    kept = {key: list(Ms) for key, Ms in T.composites.items()}
    assert sorted(kept) == [(0, 0), (1, 0), (2, 0)] and all(len(Ms) == 3 for Ms in kept.values())
    assert [stable_images(T, q, 0, 3).dims for q in range(3)] == \
        [[4, 4, 4, 4], [8, 5, 5, 5], [8, 5, 5, 5]]
    assert len(calls) == 6
    assert all(T.composites[key][k] is M for key, Ms in kept.items() for k, M in enumerate(Ms))
