"""Chain complexes: homology, cones, quasi-isomorphisms, minimalization."""

import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    BoundarySquareNonzeroError,
    ChainComplex,
    ChainMap,
    DimensionMismatchError,
    GroupMismatchError,
    GroupRingMatrix,
    ModuleComplex,
    ModuleComplexMap,
    PiModule,
    build_group,
    direct_sum,
    euler_characteristic,
    homology,
    identity_chain_map,
    is_quasi_iso,
    mapping_cone,
    minimalize,
    norm_element,
    regular_module,
    shift,
    zero_complex,
)
from perfchain import flinalg
from perfchain.chains import compose_chain_maps, module_mapping_cone

from conftest import (
    SMALL_GROUPS,
    conjugate_complex,
    first_generator_projection,
    heisenberg_27,
    is_equivariant_brute,
    pad_with_identity_cones,
    per_element_action,
    random_minimal_complex,
    right_multiplication_matrix,
    three_group_zoo,
    two_group_zoo,
)


def one_plus_t(G):
    return GroupRingMatrix.from_entries(G, [[[1, 1]]])


def lens_like(G, n):
    """[F -> ... -> F] with alternating 1+t boundaries over C_2."""
    return ChainComplex(G, 0, [1] * (n + 1), [one_plus_t(G)] * n)


def test_homology_of_two_step_complex():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    dims = [homology(C, q).dim for q in range(-1, 4)]
    assert dims == [0, 1, 0, 1, 0]
    # H_0 and H_2 carry the trivial action
    for q in (0, 2):
        H = homology(C, q)
        assert all(np.array_equal(a, np.eye(1, dtype=int)) for a in H.action)


def test_homology_of_zero_and_single():
    G = SMALL_GROUPS["C3"]
    assert homology(zero_complex(G), 0).dim == 0
    single = ChainComplex(G, 0, [2], [])
    assert homology(single, 0).dim == 6
    assert homology(single, 1).dim == 0


def test_d_squared_rejected():
    G = SMALL_GROUPS["C2"]
    rng = random.Random(23)
    rejected = 0
    for _ in range(40):
        d1 = GroupRingMatrix(G, np.array([[[rng.randrange(2), rng.randrange(2)]
                                           for _ in range(2)] for _ in range(2)]))
        d2 = GroupRingMatrix(G, np.array([[[rng.randrange(2), rng.randrange(2)]
                                           for _ in range(2)] for _ in range(2)]))
        try:
            ChainComplex(G, 0, [2, 2, 2], [d1, d2])
        except BoundarySquareNonzeroError:
            rejected += 1
    assert rejected > 30  # random pairs overwhelmingly violate d*d = 0


def test_mapping_cone_of_identity_is_acyclic():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    cone = mapping_cone(identity_chain_map(C))
    assert cone.expanded().is_acyclic()


def test_is_acyclic_ranks_each_differential_once(monkeypatch):
    """Homology dimensions share one rank per differential, so deciding
    acyclicity (twice) ranks no differential twice."""
    G = SMALL_GROUPS["C2"]
    cone = mapping_cone(identity_chain_map(lens_like(G, 3))).expanded()
    real, calls = flinalg.rank, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(flinalg, "rank", counted)
    assert cone.is_acyclic() and cone.is_acyclic()
    assert [cone.homology_dim(q) for q in range(cone.bottom - 1, cone.top + 2)] == \
        [0] * (len(cone.modules) + 2)
    assert 0 < len(calls) <= len(cone.diffs)


def test_mapping_cone_of_zero_map_from_zero():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 1)
    f = ChainMap(zero_complex(G), C, {})
    assert mapping_cone(f) == C


def test_empty_source_adds_no_degrees(monkeypatch):
    """The zero complex's nominal bottom 0 widens neither the commutation
    check nor the cone of a map out of it into degree 1000."""
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 1000, [1, 1], [GroupRingMatrix.identity(G, 1)])
    real, calls = ChainComplex.boundary_at, []

    def counted(self, q):
        calls.append(q)
        return real(self, q)

    monkeypatch.setattr(ChainComplex, "boundary_at", counted)
    f = ChainMap(zero_complex(G), C, {})
    assert mapping_cone(f) == C and is_quasi_iso(f)
    assert len(calls) < 50
    g = ModuleComplexMap(zero_complex(G).expanded(), C.expanded(), {})
    cone = module_mapping_cone(g)
    assert (cone.bottom, len(cone.modules)) == (1000, 2) and is_quasi_iso(g)


def test_cone_of_multiplication_by_radical():
    G = SMALL_GROUPS["C2"]
    C = ChainComplex(G, 0, [1], [])
    f = ChainMap(C, C, {0: one_plus_t(G)})
    cone = mapping_cone(f)
    assert cone.ranks == [1, 1]
    H0, H1 = homology(cone, 0), homology(cone, 1)
    assert (H0.dim, H1.dim) == (1, 1)
    for H in (H0, H1):
        assert all(np.array_equal(a, np.eye(1, dtype=int)) for a in H.action)


def test_is_quasi_iso_examples():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    assert is_quasi_iso(identity_chain_map(C))
    D = lens_like(G, 1)
    zero_map = ChainMap(D, C, {})
    assert not is_quasi_iso(zero_map)
    # inclusion of C into C + cone(identity)
    cone = mapping_cone(identity_chain_map(ChainComplex(G, 1, [3], [])))
    S = direct_sum(C, cone)
    comps = {}
    for q in range(C.bottom, C.top + 1):
        data = np.zeros((S.rank_at(q), C.rank_at(q), 2), dtype=np.int64)
        data[:C.rank_at(q)] = GroupRingMatrix.identity(G, C.rank_at(q)).data
        comps[q] = GroupRingMatrix(G, data)
    incl = ChainMap(C, S, comps)
    assert is_quasi_iso(incl)


def test_free_and_module_cones_agree(rng):
    """The group-ring cone expands to the module cone of the expanded map,
    degree by degree, and both decide quasi-isomorphism alike."""
    for name in ["C2", "C3", "C4", "C2xC2", "Q8"]:
        G = SMALL_GROUPS[name]
        for shift_by in (0, 1, 3):
            core = random_minimal_complex(G, rng)
            C = conjugate_complex(pad_with_identity_cones(core, rng, 2), rng)
            w = minimalize(C).witness
            maps = [w, ChainMap(shift(w.source, shift_by), C, {})]
            for f in maps:
                free = mapping_cone(f).expanded()
                module = module_mapping_cone(f.expanded())
                lo = min(free.bottom, module.bottom) - 1
                for q in range(lo, max(free.top, module.top) + 2):
                    assert np.array_equal(free.diff_at(q), module.diff_at(q)), (name, q)
                assert is_quasi_iso(f) == is_quasi_iso(f.expanded()) == module.is_acyclic()


def _zoo_with_heis27():
    return two_group_zoo() + [("Heis27", heisenberg_27())]


def test_free_acyclicity_matches_the_module_cone(rng):
    """On free complexes, is_quasi_iso and homology dimensions read from
    the expanded differentials agree with the module cone and the
    expanded complex, for quasi-isomorphisms and for maps that are not."""
    for name, G in _zoo_with_heis27():
        core = random_minimal_complex(G, rng)
        C = conjugate_complex(pad_with_identity_cones(core, rng, 2), rng)
        w = minimalize(C).witness
        for f, verdict in ((w, True), (ChainMap(w.source, C, {}), False)):
            assert is_quasi_iso(f) is verdict, name
            assert module_mapping_cone(f.expanded()).is_acyclic() is verdict, name
        for D in (C, mapping_cone(w)):
            E = D.expanded()
            for q in range(D.bottom - 1, D.top + 2):
                assert D.homology_dim(q) == E.homology_dim(q), (name, q)
            assert D.homology_support() == E.homology_support(), name


def test_free_acyclicity_builds_no_module(rng, monkeypatch):
    """is_quasi_iso on a ChainMap and the homology dimensions of a free
    complex are read from group-ring expansions alone."""
    G = heisenberg_27()
    C = conjugate_complex(pad_with_identity_cones(random_minimal_complex(G, rng), rng, 2),
                          rng)
    w = minimalize(C).witness
    zero = ChainMap(w.source, C, {})
    degrees = range(C.bottom - 1, C.top + 2)
    expected = [C.expanded().homology_dim(q) for q in degrees]

    def refuse(*args, **kwargs):
        raise AssertionError("a PiModule was built")

    monkeypatch.setattr(PiModule, "__init__", refuse)
    assert is_quasi_iso(w) and not is_quasi_iso(zero)
    assert [C.homology_dim(q) for q in degrees] == expected


def test_minimalize_identity_and_radical():
    G = SMALL_GROUPS["C2"]
    D = ChainComplex(G, 0, [1, 1], [GroupRingMatrix.identity(G, 1)])
    m = minimalize(D)
    assert m.complex.ranks == []
    assert is_quasi_iso(m.witness)

    C = ChainComplex(G, 0, [1, 1], [one_plus_t(G)])
    m2 = minimalize(C)
    assert m2.complex == C  # entries in the radical stay put


def test_minimalize_removes_cone_summand_exactly():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    cone = mapping_cone(identity_chain_map(ChainComplex(G, 0, [3], [])))
    m = minimalize(direct_sum(C, cone))
    assert m.complex == C
    assert is_quasi_iso(m.witness)


def test_minimalize_idempotent_and_euler_invariant(rng):
    for name in ["C2", "C3", "C4", "C2xC2", "Q8"]:
        G = SMALL_GROUPS[name]
        for _ in range(5):
            core = random_minimal_complex(G, rng)
            C = conjugate_complex(pad_with_identity_cones(core, rng, 2), rng)
            m = minimalize(C)
            assert m.complex.ranks == core.ranks
            assert is_quasi_iso(m.witness)
            again = minimalize(m.complex)
            assert again.complex.ranks == m.complex.ranks
            assert euler_characteristic(C) == euler_characteristic(m.complex)
            # homology dimensions are preserved degreewise
            for q in range(C.bottom, C.top + 1):
                assert homology(C, q).dim == homology(m.complex, q).dim


def test_direct_sum_and_shift():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    assert direct_sum(C, zero_complex(G)) == C
    assert shift(C, 0) == C
    S = shift(C, 2)
    for q in range(-1, 6):
        assert homology(S, q).dim == homology(C, q - 2).dim
    with pytest.raises(GroupMismatchError):
        direct_sum(C, zero_complex(SMALL_GROUPS["C3"]))


def test_euler_characteristic_examples():
    G = SMALL_GROUPS["C2"]
    assert euler_characteristic(zero_complex(G)) == 0
    C = lens_like(G, 2)
    assert euler_characteristic(C) == 1
    cone = mapping_cone(identity_chain_map(ChainComplex(G, 0, [2], [])))
    assert euler_characteristic(direct_sum(C, cone)) == 1
    # expanded-dimension identity
    total = sum((-1) ** q * C.rank_at(q) * G.order for q in range(C.bottom, C.top + 1))
    assert euler_characteristic(C) == total // G.order


def test_chain_map_validation():
    G = SMALL_GROUPS["C2"]
    C = lens_like(G, 2)
    bad = {1: GroupRingMatrix.identity(G, 1), 0: GroupRingMatrix.zeros(G, 1, 1)}
    with pytest.raises(Exception):
        ChainMap(C, C, bad)


def test_compose_chain_maps_witnesses(rng):
    G = SMALL_GROUPS["C4"]
    core = random_minimal_complex(G, rng)
    C = pad_with_identity_cones(core, rng, 2)
    m1 = minimalize(C)
    m2 = minimalize(m1.complex)
    comp = compose_chain_maps(m1.witness, m2.witness)
    assert is_quasi_iso(comp)


def random_entries(G, rng, rows, cols, kind):
    """Group-ring data of one kind: "norm" (scalar multiples of the norm
    element), "radical" (augmentation zero) or "any"."""
    l, o = G.prime_l, G.order
    data = np.array([[[rng.randrange(l) for _ in range(o)] for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, cols, o)
    if kind == "norm":
        data[:] = data[:, :, :1]
    elif kind == "radical":
        data[:, :, G.identity] -= data.sum(axis=2)
    if rng.random() < 0.5:
        data[:, 0] = 0  # a defect, if any, then shows only past the first column
    return GroupRingMatrix(G, data % l)


# norm * radical = 0, radical * radical may or may not vanish, and random
# entries rarely compose to zero
KINDS = [("norm", "radical"), ("radical", "radical"), ("any", "any")]


def test_d_squared_check_matches_full_expansion():
    """d o d = 0 is checked on basis columns only; a complex is accepted
    exactly when the full expanded product vanishes."""
    rng = random.Random(41)
    seen = set()
    for _, G in two_group_zoo():
        for k1, k2 in KINDS * 2:
            a, b, c = (rng.randint(1, 2) for _ in range(3))
            d1 = random_entries(G, rng, a, b, k1)
            d2 = random_entries(G, rng, b, c, k2)
            full_zero = not ((d1.expand() @ d2.expand()) % G.prime_l).any()
            try:
                ChainComplex(G, 0, [a, b, c], [d1, d2])
                accepted = True
            except BoundarySquareNonzeroError:
                accepted = False
            assert accepted == full_zero
            seen.add(full_zero)
    assert seen == {True, False}


def test_chain_map_check_matches_full_expansion():
    """Commutation with d is checked on basis columns only; a chain map is
    accepted exactly when the full expanded squares commute."""
    rng = random.Random(43)
    seen = set()
    for _, G in two_group_zoo():
        l = G.prime_l
        for kd, kf in KINDS * 2:
            a, b, c, e = (rng.randint(1, 2) for _ in range(4))
            S = ChainComplex(G, 0, [a, b], [random_entries(G, rng, a, b, kd)])
            T = ChainComplex(G, 0, [c, e], [random_entries(G, rng, c, e, kd)])
            f0 = random_entries(G, rng, c, a, kf)
            f1 = random_entries(G, rng, e, b, kf)
            lhs = T.boundary_at(1).expand() @ f1.expand()
            rhs = f0.expand() @ S.boundary_at(1).expand()
            commutes = not ((lhs - rhs) % l).any()
            try:
                ChainMap(S, T, {0: f0, 1: f1})
                accepted = True
            except DimensionMismatchError:
                accepted = False
            assert accepted == commutes
            seen.add(commutes)
    assert seen == {True, False}


def test_differential_and_map_checks_on_generators_match_all_elements():
    """An equivariant map of free modules is fixed by its values on the
    basis h e; changing it at any h is rejected as a differential and as a
    chain-map component, in agreement with the all-elements scan."""
    rng = random.Random(53)
    for name, G in two_group_zoo() + three_group_zoo():
        if G.order == 1:
            continue  # every linear map is equivariant
        R = regular_module(G, 1)
        point = ModuleComplex(G, 0, [R], [])
        f = right_multiplication_matrix(G, rng)
        ModuleComplex(G, 0, [R, R], [f])
        ModuleComplexMap(point, point, {0: f})
        for h in range(G.order):
            bad = f.copy()
            bad[0, h] = (bad[0, h] + 1) % G.prime_l
            assert not is_equivariant_brute(R, R, bad), (name, h)
            with pytest.raises(DimensionMismatchError):
                ModuleComplex(G, 0, [R, R], [bad])
            with pytest.raises(DimensionMismatchError):
                ModuleComplexMap(point, point, {0: bad})
        if len(G.generators) > 1:
            P = first_generator_projection(G)
            assert not is_equivariant_brute(R, R, P), name
            with pytest.raises(DimensionMismatchError):
                ModuleComplex(G, 0, [R, R], [P])
            with pytest.raises(DimensionMismatchError):
                ModuleComplexMap(point, point, {0: P})


def test_homology_action_matches_per_element_solve(rng):
    for name, G in two_group_zoo() + three_group_zoo():
        C = random_minimal_complex(G, rng).expanded()
        for q in range(C.bottom, C.top + 1):
            data = C.homology_data(q)
            expected = per_element_action(C.module_at(q), data.reps, data.quotient.project)
            assert all(np.array_equal(a, b) for a, b in zip(data.module.action, expected)), name


def test_expanded_free_complex_allocates_generator_actions_only():
    """The regular modules of an expansion hold one matrix per generator:
    over cyclic:81 that is one 324 x 324 matrix per degree, where one
    matrix per element would take 81 of them (68 MB) per degree."""
    G = build_group("cyclic:81", 3)
    x = np.zeros(G.order, dtype=np.int64)
    x[G.generators[0]], x[G.identity] = 1, 2
    eye = np.eye(4, dtype=np.int64)[:, :, None]
    d1 = GroupRingMatrix(G, eye * x)                              # (g - 1) I
    d2 = GroupRingMatrix(G, eye * norm_element(G).coeffs)         # N I
    C = ChainComplex(G, 0, [4, 4, 4], [d1, d2])
    tracemalloc.start()
    try:
        E = C.expanded()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [M.dim for M in E.modules] == [324] * 3
    assert peak < 8_000_000
