"""Group tables and exact F_l[pi] arithmetic."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    DimensionMismatchError,
    GroupRingElement,
    GroupRingMatrix,
    GroupTable,
    LimitError,
    NotAGroupError,
    NotAnLGroupError,
    NotAUnitError,
    ParseError,
    augmentation,
    build_group,
    cyclic_group,
    direct_product,
    ga_inverse,
    ga_mul,
    ga_one,
    is_unit,
    norm_element,
)
from perfchain.groups import ga_compose, grm_compose

from conftest import (
    SMALL_GROUPS,
    closure_brute,
    dihedral,
    expand_reference,
    from_expanded,
    from_expanded_reference,
    ga_compose_reference,
    ga_inverse_series_reference,
    ga_mul_reference,
    heisenberg_27,
    is_group_brute,
    random_unit,
    regular_action_matrices,
    three_group_zoo,
    two_group_zoo,
)


def elt(coeffs, l):
    return GroupRingElement(coeffs, l)


def all_elements(G):
    for coeffs in itertools.product(range(G.prime_l), repeat=G.order):
        yield GroupRingElement(coeffs, G.prime_l)


def test_build_cyclic2():
    G = build_group("cyclic:2", 2)
    assert G.order == 2
    assert G.mult.tolist() == [[0, 1], [1, 0]]


def test_build_rejects_non_l_group():
    with pytest.raises(NotAnLGroupError):
        build_group("cyclic:6", 2)
    with pytest.raises(NotAnLGroupError):
        cyclic_group(4, 3)


def test_primes_past_the_int64_bound_are_rejected():
    """l >= 2^20 could overflow the int64 products of F_l matrices."""
    assert build_group("cyclic:1", 1048573).prime_l == 1048573  # largest below 2^20
    for l in (1 << 20, 4294967291):
        with pytest.raises(LimitError):
            build_group("cyclic:1", l)


def test_build_klein_four():
    G = build_group("product:cyclic:2,cyclic:2", 2)
    assert G.order == 4
    # brute-force validation of the table against the packed product rule
    for a in range(4):
        for b in range(4):
            expected = (((a // 2) ^ (b // 2)) * 2) + ((a % 2) ^ (b % 2))
            assert G.mult[a, b] == expected


def test_bad_tables_rejected():
    with pytest.raises(NotAGroupError):
        build_group("table:{order:2;identity:0;mult:0,1|1,1}", 2)
    with pytest.raises(NotAGroupError):
        build_group("table:{order:2;identity:1;mult:0,1|1,0}", 2)
    with pytest.raises(ParseError):
        build_group("rubbish:3", 2)


def test_non_associative_loop_rejected():
    """A loop of order 5 (identity 0, every element its own inverse) passes
    the identity and inverse checks and fails only associativity.  So does
    its product with C2, whose first generator (1, e) associates with
    everything."""
    rows = ["0,1,2,3,4", "1,0,3,4,2", "2,4,0,1,3", "3,2,4,0,1", "4,3,1,2,0"]
    loop = [[int(x) for x in r.split(",")] for r in rows]
    assert not is_group_brute(loop, 0)
    with pytest.raises(NotAGroupError, match="associative"):
        build_group("table:{order:5;identity:0;mult:" + "|".join(rows) + "}", 5)
    # element 2b + a is (a, b) in C2 x loop
    product = [[2 * loop[x // 2][y // 2] + (x ^ y) % 2 for y in range(10)] for x in range(10)]
    assert not is_group_brute(product, 0)
    with pytest.raises(NotAGroupError, match="associative"):
        GroupTable(product, 0, 2)


def test_generators_generate_within_log_bound():
    for name, G in two_group_zoo() + three_group_zoo():
        assert closure_brute(G, G.generators) == set(range(G.order)), name
        assert G.prime_l ** len(G.generators) <= G.order, name
        assert G.identity not in G.generators
    assert cyclic_group(1, 2).generators == ()
    assert build_group("product:cyclic:4,cyclic:4,cyclic:4", 2).generators == (1, 4, 16)


def test_group_check_matches_brute_force_on_perturbed_tables():
    """Swapping two entries of one column keeps the identity row and column
    and often the inverses; the verdict must match the literal scan."""
    rng = random.Random(31)
    reasons = set()
    for name, G in two_group_zoo() + three_group_zoo():
        assert is_group_brute(G.mult, G.identity), name
        others = [x for x in range(G.order) if x != G.identity]
        if len(others) < 2:
            continue
        for _ in range(4):
            a, b = rng.sample(others, 2)
            c = rng.choice(others)
            mult = G.mult.copy()
            mult[[a, b], c] = mult[[b, a], c]
            try:
                GroupTable(mult, G.identity, G.prime_l)
                accepted = True
            except NotAGroupError as e:
                accepted = False
                reasons.add(str(e))
            assert accepted == is_group_brute(mult, G.identity), name
    assert "multiplication table is not associative" in reasons


def test_ga_mul_examples():
    C2 = SMALL_GROUPS["C2"]
    one, t = ga_one(C2), elt([0, 1], 2)
    assert ga_mul(one, t, C2) == t
    assert ga_mul(elt([1, 1], 2), elt([1, 1], 2), C2).is_zero()

    C3 = SMALL_GROUPS["C3"]
    prod = ga_mul(elt([1, 1, 0], 3), elt([1, 1, 1], 3), C3)
    assert prod == elt([2, 2, 2], 3)


def test_ga_mul_matches_table_reference():
    """The product read through G.ldiv equals the table scatter, on every
    zoo group and Heis27 (nonabelian, l = 3)."""
    rng = random.Random(17)
    for name, G in two_group_zoo() + [("Heis27", heisenberg_27())]:
        l = G.prime_l
        for _ in range(6):
            a = [rng.randrange(l) for _ in range(G.order)]
            b = [rng.randrange(l) for _ in range(G.order)]
            prod = ga_mul(GroupRingElement(a, l), GroupRingElement(b, l), G)
            assert np.array_equal(prod.coeffs, ga_mul_reference(a, b, G)), name


def test_ga_compose_matches_the_one_sided_gather():
    """Gathering whichever operand is smaller gives the product that
    gathering `second` alone gives, for k < j, k = j and k > j and for
    empty shapes, on both zoos (nonabelian groups among them, such as
    Heis27, where the side matters) and on entries all l - 1.  G.rdiv is
    read-only, as every table the product reads must be."""
    rng = np.random.default_rng(29)
    shapes = [(1, 1, 1), (2, 3, 5), (3, 2, 3), (5, 3, 2), (6, 1, 1), (1, 4, 7),
              (0, 2, 3), (3, 2, 0), (2, 0, 3), (3, 0, 2)]
    for name, G in two_group_zoo() + three_group_zoo():
        assert not G.rdiv.flags.writeable, name
        for k, i, j in shapes:
            second = rng.integers(0, G.prime_l, (k, i, G.order))
            first = rng.integers(0, G.prime_l, (i, j, G.order))
            got = ga_compose(second, first, G)
            assert got.shape == (k, j, G.order), (name, k, i, j)
            assert np.array_equal(got, ga_compose_reference(second, first, G)), (name, k, i, j)
        full = np.full((3, 2, G.order), G.prime_l - 1)
        assert np.array_equal(ga_compose(full, full[:2, :1], G),
                              ga_compose_reference(full, full[:2, :1], G)), name


def test_ga_mul_dimension_mismatch():
    C2 = SMALL_GROUPS["C2"]
    with pytest.raises(DimensionMismatchError):
        ga_mul(elt([1, 0, 0], 2), elt([1, 0], 2), C2)


def test_augmentation_examples():
    C2, C3 = SMALL_GROUPS["C2"], SMALL_GROUPS["C3"]
    assert augmentation(ga_one(C2)) == 1
    assert augmentation(elt([1, 1], 2)) == 0
    assert augmentation(elt([2, 1, 2], 3)) == 2


def test_is_unit_examples():
    C2, C3 = SMALL_GROUPS["C2"], SMALL_GROUPS["C3"]
    assert is_unit(elt([0, 1], 2), C2)
    assert not is_unit(elt([1, 1], 2), C2)
    assert is_unit(elt([1, 1, 0], 3), C3)


def test_ga_inverse_examples():
    C3 = SMALL_GROUPS["C3"]
    t = elt([0, 1, 0], 3)
    assert ga_inverse(t, C3) == elt([0, 0, 1], 3)
    assert ga_inverse(ga_one(C3), C3) == ga_one(C3)
    assert ga_inverse(elt([1, 1, 0], 3), C3) == elt([2, 1, 2], 3)
    with pytest.raises(NotAUnitError):
        ga_inverse(elt([1, 1], 2), SMALL_GROUPS["C2"])
    # [[1, 1], [1, 1]] over F_3[C_3]: the augmentation matrix is singular
    with pytest.raises(NotAUnitError):
        ga_inverse(np.ones((2, 2, 1), dtype=np.int64) * np.array([1, 0, 0]), C3)


def test_ga_inverse_matches_geometric_series():
    """Newton's iteration gives the inverse that the geometric series
    gives, on random units and on generators g (where n = 1 - g has
    nilpotency index the order of g), over the zoos and cyclic:729, for
    an element and for the same unit as 1 x 1 group-ring data."""
    rng = random.Random(47)
    C729 = build_group("cyclic:729", 3)
    for name, G in two_group_zoo() + three_group_zoo() + [("C729", C729)]:
        units = [random_unit(G, rng) for _ in range(4 if G.order < 729 else 1)]
        for g in G.generators:
            units.append(np.eye(G.order, dtype=np.int64)[g] * rng.randrange(1, G.prime_l))
        for u in units:
            a = elt(u, G.prime_l)
            expected = ga_inverse_series_reference(u, G)
            assert np.array_equal(ga_inverse(a, G).coeffs, expected), name
            assert np.array_equal(ga_inverse(a.coeffs[None, None], G)[0, 0], expected), name
            assert ga_mul(a, elt(expected, G.prime_l), G) == ga_one(G), name


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "D4"])
def test_unit_criterion_against_scan(name):
    """is_unit(a) iff some b satisfies ab = 1, by literal scan."""
    G = SMALL_GROUPS[name]
    for a in all_elements(G):
        found = None
        for b in all_elements(G):
            if ga_mul(a, b, G) == ga_one(G):
                found = b
                break
        assert is_unit(a, G) == (found is not None)
        if found is not None:
            assert ga_mul(found, a, G) == ga_one(G)  # two-sided


def test_inverse_roundtrip_on_units():
    for name in ["C2", "C3", "C4", "C2xC2", "Q8", "C9"]:
        G = SMALL_GROUPS[name]
        rng = random.Random(hash(name) & 0xFFFF)
        count = 0
        while count < 25:
            coeffs = [rng.randrange(G.prime_l) for _ in range(G.order)]
            a = GroupRingElement(coeffs, G.prime_l)
            if not is_unit(a, G):
                continue
            b = ga_inverse(a, G)
            assert ga_mul(a, b, G) == ga_one(G)
            assert ga_mul(b, a, G) == ga_one(G)
            count += 1


def test_augmentation_multiplicative_exhaustive_small():
    for name in ["C2", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for a in all_elements(G):
            for b in all_elements(G):
                assert augmentation(ga_mul(a, b, G)) == (
                    augmentation(a) * augmentation(b)) % G.prime_l


def test_radical_is_an_ideal():
    G = SMALL_GROUPS["C2xC2"]
    rng = random.Random(7)
    for _ in range(200):
        a = GroupRingElement([rng.randrange(2) for _ in range(4)], 2)
        b = GroupRingElement([rng.randrange(2) for _ in range(4)], 2)
        if augmentation(a) == 0 and augmentation(b) == 0:
            assert augmentation(a + b) == 0
        if augmentation(a) == 0:
            assert augmentation(ga_mul(a, b, G)) == 0
            assert augmentation(ga_mul(b, a, G)) == 0


def test_radical_nilpotence_bound():
    for name in ["C2", "C3", "C4", "Q8", "C9"]:
        G = SMALL_GROUPS[name]
        N = G.order * (G.prime_l - 1) + 1
        rng = random.Random(11)
        for _ in range(20):
            prod = ga_one(G)
            for _ in range(N):
                coeffs = [rng.randrange(G.prime_l) for _ in range(G.order)]
                a = GroupRingElement(coeffs, G.prime_l)
                a = a - GroupRingElement(
                    [augmentation(a) if i == G.identity else 0 for i in range(G.order)],
                    G.prime_l)
                prod = ga_mul(prod, a, G)
            assert prod.is_zero()


def test_norm_element_kills_radical():
    for name, G in [("C4", SMALL_GROUPS["C4"]), ("Q8", SMALL_GROUPS["Q8"])]:
        N = norm_element(G)
        for g in range(G.order):
            gm1 = GroupRingElement(
                [1 if i == g else 0 for i in range(G.order)], G.prime_l) - ga_one(G)
            assert ga_mul(gm1, N, G).is_zero()
            assert ga_mul(N, gm1, G).is_zero()


def test_direct_product_orders_and_descriptor():
    C4 = cyclic_group(4, 2)
    C2 = cyclic_group(2, 2)
    G = direct_product(C4, C2)
    assert G.order == 8
    assert G.descriptor == "product:cyclic:4,cyclic:2"
    D4 = dihedral(4)
    H = direct_product(D4, C2)
    assert H.order == 16 and H.descriptor.startswith("table:")


def test_group_zoo_all_validate():
    zoo = two_group_zoo()
    assert len(zoo) == 23
    orders = sorted(g.order for _, g in zoo)
    assert orders == [1, 2, 4, 4, 8, 8, 8, 8, 8] + [16] * 14


def test_expand_is_multiplicative_nonabelian():
    """Matrix expansion is a ring map even for nonabelian groups, also for
    shapes with a zero row, zero column or zero inner dimension, and for
    shapes large enough that the product runs in float64."""
    rng = random.Random(13)
    shapes = [(3, 2, 2), (1, 1, 1), (2, 3, 4), (0, 2, 3), (3, 2, 0), (2, 0, 3), (4, 5, 6)]
    for name, G in two_group_zoo() + [("Heis27", heisenberg_27())]:
        l, o = G.prime_l, G.order
        for k, i, j in shapes:
            A = GroupRingMatrix(G, np.array([rng.randrange(l) for _ in range(k * i * o)],
                                            dtype=np.int64).reshape(k, i, o))
            B = GroupRingMatrix(G, np.array([rng.randrange(l) for _ in range(i * j * o)],
                                            dtype=np.int64).reshape(i, j, o))
            C = grm_compose(A, B)
            assert C.data.shape == (k, j, o)
            assert np.array_equal(C.expand(), (A.expand() @ B.expand()) % l), name


def test_expand_is_one_gather_in_its_final_layout():
    """`expand` equals the gather-then-transpose oracle on the zoo, empty
    shapes included, is cached and read-only, and builds a square 7 x 7
    expansion over C243 with a traced peak within 1.5 times its bytes (a
    second copy would double it)."""
    rng = np.random.default_rng(17)
    for name, G in two_group_zoo() + three_group_zoo():
        for rows, cols in [(1, 1), (2, 3), (3, 2), (0, 2), (2, 0)]:
            A = GroupRingMatrix(G, rng.integers(0, G.prime_l, (rows, cols, G.order)))
            E = A.expand()
            assert E.dtype == np.int64 and np.array_equal(E, expand_reference(A)), name
            assert A.expand() is E and not E.flags.writeable, name
    G = cyclic_group(243, 3)
    A = GroupRingMatrix(G, rng.integers(0, 3, (7, 7, G.order)))
    tracemalloc.start()
    try:
        E = A.expand()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(E, expand_reference(A))
    assert peak <= 1.5 * E.nbytes, (peak, E.nbytes)


def test_expand_commutes_with_left_action():
    for name in ["C4", "D4"]:
        G = SMALL_GROUPS[name]
        rng = random.Random(5)
        A = GroupRingMatrix(G, np.array(
            [[[rng.randrange(2) for _ in range(G.order)] for _ in range(2)]
             for _ in range(2)]))
        E = A.expand()
        acts_src = regular_action_matrices(G, 2)
        for g in range(G.order):
            assert np.array_equal((acts_src[g] @ E) % 2, (E @ acts_src[g]) % 2)


def test_from_expanded_roundtrip():
    G = SMALL_GROUPS["D4"]
    rng = random.Random(3)
    A = GroupRingMatrix(G, np.array(
        [[[rng.randrange(2) for _ in range(8)] for _ in range(3)] for _ in range(2)]))
    B = from_expanded(G, A.expand(), 2, 3)
    assert B == A


def test_from_expanded_matches_entrywise_reference():
    """The basis-column slice reads the same data as the entry loop, and
    validation still refuses a matrix that is not equivariant."""
    rng = random.Random(11)
    for name, G in two_group_zoo():
        for rows, cols in [(1, 1), (2, 3), (3, 2), (0, 2), (2, 0)]:
            data = np.array([rng.randrange(2) for _ in range(rows * cols * G.order)],
                            dtype=np.int64).reshape(rows, cols, G.order)
            E = GroupRingMatrix(G, data).expand()
            B = from_expanded(G, E, rows, cols)
            assert np.array_equal(B.data, from_expanded_reference(G, E, rows, cols)), name
            assert np.array_equal(B.data, data), name
        if G.order > 1:
            E = np.array(GroupRingMatrix.identity(G, 2).expand())
            E[0, 1] ^= 1
            with pytest.raises(DimensionMismatchError):
                from_expanded(G, E, 2, 2)
