"""Group tables and exact F_l[pi] arithmetic."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from perfchain import (
    DimensionMismatchError,
    GroupMismatchError,
    GroupRingMatrix,
    LimitError,
    NotAGroupError,
    NotAnLGroupError,
    NotAUnitError,
    ParseError,
    build_group,
    cyclic_group,
    ga_inverse,
    group_from_table,
)
from perfchain import flinalg, groups
from perfchain.groups import ga_compose, grm_compose

from conftest import (
    SMALL_GROUPS,
    closure_brute,
    dihedral,
    direct_product,
    expand_reference,
    from_expanded,
    from_expanded_reference,
    ga_compose_reference,
    ga_inverse_newton_reference,
    ga_inverse_series_reference,
    ga_mul_reference,
    heisenberg_27,
    is_group_brute,
    norm_matrix,
    random_invertible,
    random_unit,
    regular_action_matrices,
    three_group_zoo,
    two_group_zoo,
)


def elt(G, coeffs) -> GroupRingMatrix:
    """An element of F_l[pi]: 1 x 1 group-ring data."""
    return GroupRingMatrix(G, [[coeffs]])


def times(a, b) -> GroupRingMatrix:
    """The product a b of 1 x 1 matrices: the map x -> x a b is the
    right multiplication by b after that by a."""
    return grm_compose(b, a)


def augmentation(a) -> int:
    return int(a.augmentation_matrix()[0, 0])


def all_elements(G):
    for coeffs in itertools.product(range(G.prime_l), repeat=G.order):
        yield elt(G, coeffs)


def test_build_cyclic2():
    G = build_group("cyclic:2", 2)
    assert G.order == 2
    assert G.ldiv[G.inv].tolist() == [[0, 1], [1, 0]]


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


def test_order_is_bounded_by_its_table_bytes():
    """An order passes while its four |pi|^2 int64 tables fit in
    MAX_TABLE_BYTES (4 GiB): 8192 and 11585 do, 11586 and 16384, which
    are within MAX_FREE_DIM, do not.  Checked without building a table."""
    assert groups.MAX_TABLE_BYTES == 1 << 32
    for n in (1, 8192, 11585):
        groups._check_order(n)
    for n in (11586, 16384):
        with pytest.raises(LimitError, match=f"group order {n} needs {32 * n * n} bytes"):
            groups._check_order(n)


def test_a_group_table_keeps_one_table():
    """A GroupTable keeps its left divisions and no other |pi|^2 array:
    after cyclic_group(1024, 2) the memory still held is one 8 MB int64
    table with 1 MB to spare, the build peaks within two such tables and
    1 MB, and neither a product table nor right divisions are
    attributes."""
    tracemalloc.start()
    try:
        G = cyclic_group(1024, 2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.ldiv.nbytes == 8 << 20
    assert held <= (8 << 20) + (1 << 20), held
    assert peak <= 2 * (8 << 20) + (1 << 20), peak
    assert not hasattr(G, "mult") and not hasattr(G, "rdiv")


def _abelian_descriptors() -> list[tuple[str, int]]:
    """(descriptor, l) of every `cyclic:` and `product:` group of both zoos,
    and of two groups of order 1024."""
    found = [(G.descriptor, G.prime_l) for _, G in two_group_zoo() + three_group_zoo()
             if G.descriptor.startswith(("cyclic:", "product:"))]
    return found + [("cyclic:1024", 2), ("product:cyclic:8,cyclic:8,cyclic:16", 2)]


def test_abelian_groups_equal_the_checked_reading_of_their_tables():
    """A `cyclic:` or `product:` group, built by index arithmetic, equals
    the checked reading of its own product table ldiv[inv] in ldiv, inv,
    generators and identity, and that table is the componentwise sum of
    exponent vectors indexed in mixed radix, the last factor least
    significant."""
    found = _abelian_descriptors()
    assert len(found) == 21
    for desc, l in found:
        G = build_group(desc, l)
        assert G.descriptor == desc
        mult = G.ldiv[G.inv]
        H = group_from_table(mult, G.identity, l)
        assert H.descriptor.startswith("table:"), desc
        assert np.array_equal(G.ldiv, H.ldiv) and np.array_equal(G.inv, H.inv), desc
        assert (G.generators, G.identity) == (H.generators, H.identity), desc
        orders = [int(f[len("cyclic:"):]) for f in desc.removeprefix("product:").split(",")]
        digits = np.array(np.unravel_index(np.arange(G.order), orders))
        total = (digits[:, :, None] + digits[:, None, :]) % np.array(orders)[:, None, None]
        assert np.array_equal(mult, np.ravel_multi_index(tuple(total), orders)), desc


def test_building_an_abelian_group_compares_no_arrays(monkeypatch):
    """`cyclic:` and `product:` groups are groups by construction: building
    them, past the descriptor cache, runs no check that compares arrays."""
    found = _abelian_descriptors()

    def no_array_checks(*args, **kwargs):
        raise AssertionError("compared arrays while building a group")

    monkeypatch.setattr(np, "array_equal", no_array_checks)
    for desc, l in found:
        assert build_group.__wrapped__(desc, l).descriptor == desc
    assert cyclic_group(27, 3).order == 27


def test_build_klein_four():
    G = build_group("product:cyclic:2,cyclic:2", 2)
    assert G.order == 4
    # brute-force validation of the table against the packed product rule
    for a in range(4):
        for b in range(4):
            expected = (((a // 2) ^ (b // 2)) * 2) + ((a % 2) ^ (b % 2))
            assert G.ldiv[G.inv][a, b] == expected


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
        group_from_table(product, 0, 2)


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
        assert is_group_brute(G.ldiv[G.inv], G.identity), name
        others = [x for x in range(G.order) if x != G.identity]
        if len(others) < 2:
            continue
        for _ in range(4):
            a, b = rng.sample(others, 2)
            c = rng.choice(others)
            mult = G.ldiv[G.inv]
            mult[[a, b], c] = mult[[b, a], c]
            try:
                group_from_table(mult, G.identity, G.prime_l)
                accepted = True
            except NotAGroupError as e:
                accepted = False
                reasons.add(str(e))
            assert accepted == is_group_brute(mult, G.identity), name
    assert "multiplication table is not associative" in reasons


def test_ga_mul_examples():
    """Products in F_l[pi] of elements as 1 x 1 matrices."""
    C2 = SMALL_GROUPS["C2"]
    one, t = GroupRingMatrix.identity(C2, 1), elt(C2, [0, 1])
    assert times(one, t) == t and times(t, one) == t
    assert times(elt(C2, [1, 1]), elt(C2, [1, 1])).is_zero()

    C3 = SMALL_GROUPS["C3"]
    assert times(elt(C3, [1, 1, 0]), elt(C3, [1, 1, 1])) == elt(C3, [2, 2, 2])


def test_ga_mul_matches_table_reference():
    """The product of 1 x 1 data read through G.ldiv equals the
    table scatter, on every zoo group and Heis27 (nonabelian, l = 3)."""
    rng = random.Random(17)
    for name, G in two_group_zoo() + [("Heis27", heisenberg_27())]:
        l = G.prime_l
        for _ in range(6):
            a = np.array([rng.randrange(l) for _ in range(G.order)])
            b = np.array([rng.randrange(l) for _ in range(G.order)])
            prod = ga_compose(b[None, None], a[None, None], G)[0, 0]
            assert np.array_equal(prod, ga_mul_reference(a, b, G)), name
            assert np.array_equal(times(elt(G, a), elt(G, b)).data[0, 0], prod), name


def test_ga_compose_matches_the_one_sided_gather():
    """Gathering whichever operand is smaller gives the product that
    gathering `second` alone gives, for k < j, k = j and k > j and for
    empty shapes, on both zoos (nonabelian groups among them, such as
    Heis27, where the side matters) and on entries all l - 1.  G.ldiv is
    read-only, as every table the product reads must be."""
    rng = np.random.default_rng(29)
    shapes = [(1, 1, 1), (2, 3, 5), (3, 2, 3), (5, 3, 2), (6, 1, 1), (1, 4, 7),
              (0, 2, 3), (3, 2, 0), (2, 0, 3), (3, 0, 2)]
    for name, G in two_group_zoo() + three_group_zoo():
        assert not G.ldiv.flags.writeable, name
        for k, i, j in shapes:
            second = rng.integers(0, G.prime_l, (k, i, G.order))
            first = rng.integers(0, G.prime_l, (i, j, G.order))
            got = ga_compose(second, first, G)
            assert got.shape == (k, j, G.order), (name, k, i, j)
            assert np.array_equal(got, ga_compose_reference(second, first, G)), (name, k, i, j)
        full = np.full((3, 2, G.order), G.prime_l - 1)
        assert np.array_equal(ga_compose(full, full[:2, :1], G),
                              ga_compose_reference(full, full[:2, :1], G)), name
        # (1, 1) by (1, j): j o^2 multiply-adds, one side of the float64
        # break-even _F64_MIN_WORK and the other (o >= 4 result columns)
        o = G.order
        if o >= flinalg._F64_MIN_COLS:
            j = -(-flinalg._F64_MIN_WORK // (o * o))
            for width, dtype in ((j - 1, np.int64), (j, np.float64)):
                assert flinalg.product_dtype((width, o), (1, o, o), G.prime_l) == dtype, name
                second = rng.integers(0, G.prime_l, (1, 1, o))
                first = rng.integers(0, G.prime_l, (1, width, o))
                assert np.array_equal(ga_compose(second, first, G),
                                      ga_compose_reference(second, first, G)), (name, width)


def test_ga_mul_dimension_mismatch():
    """An entry of the wrong length is refused when the element is built,
    and elements over different groups do not multiply."""
    C2, C4 = SMALL_GROUPS["C2"], SMALL_GROUPS["C4"]
    with pytest.raises(DimensionMismatchError):
        elt(C2, [1, 0, 0])
    with pytest.raises(GroupMismatchError):
        times(elt(C2, [1, 0]), elt(C4, [1, 0, 0, 0]))


def test_augmentation_examples():
    C2, C3 = SMALL_GROUPS["C2"], SMALL_GROUPS["C3"]
    assert augmentation(GroupRingMatrix.identity(C2, 1)) == 1
    assert augmentation(elt(C2, [1, 1])) == 0
    assert augmentation(elt(C3, [2, 1, 2])) == 2


def test_is_unit_examples():
    """A unit has nonzero augmentation, and only a unit is inverted."""
    C2, C3 = SMALL_GROUPS["C2"], SMALL_GROUPS["C3"]
    for a, unit in ((elt(C2, [0, 1]), True), (elt(C2, [1, 1]), False),
                    (elt(C3, [1, 1, 0]), True)):
        assert (augmentation(a) != 0) == unit
        if unit:
            ga_inverse(a.data, a.group)
        else:
            with pytest.raises(NotAUnitError):
                ga_inverse(a.data, a.group)


def test_ga_inverse_examples():
    C3 = SMALL_GROUPS["C3"]
    one = GroupRingMatrix.identity(C3, 1)
    assert np.array_equal(ga_inverse(elt(C3, [0, 1, 0]).data, C3), elt(C3, [0, 0, 1]).data)
    assert np.array_equal(ga_inverse(one.data, C3), one.data)
    assert np.array_equal(ga_inverse(elt(C3, [1, 1, 0]).data, C3), elt(C3, [2, 1, 2]).data)
    with pytest.raises(NotAUnitError):
        ga_inverse(elt(SMALL_GROUPS["C2"], [1, 1]).data, SMALL_GROUPS["C2"])
    # [[1, 1], [1, 1]] over F_3[C_3]: the augmentation matrix is singular
    with pytest.raises(NotAUnitError):
        ga_inverse(np.ones((2, 2, 1), dtype=np.int64) * np.array([1, 0, 0]), C3)


def test_ga_inverse_matches_geometric_series():
    """Newton's iteration gives the inverse that the geometric series
    gives, on random units and on generators g (where n = 1 - g has
    nilpotency index the order of g), over the zoos, cyclic:729 and the
    trivial group at the largest admitted prime, 1048573 (where the
    Fermat seed eps^(l-2) is the whole inverse), as 1 x 1 group-ring
    data, and it is a two-sided inverse."""
    rng = random.Random(47)
    C729 = build_group("cyclic:729", 3)
    C1 = build_group("cyclic:1", 1048573)
    for name, G in two_group_zoo() + three_group_zoo() + [("C729", C729), ("C1", C1)]:
        units = [random_unit(G, rng) for _ in range(4 if G.order < 729 else 1)]
        for g in G.generators:
            units.append(np.eye(G.order, dtype=np.int64)[g] * rng.randrange(1, G.prime_l))
        one = GroupRingMatrix.identity(G, 1)
        for u in units:
            expected = ga_inverse_series_reference(u, G)
            inverse = ga_inverse(u[None, None], G)
            assert inverse.shape == (1, 1, G.order), name
            assert np.array_equal(inverse[0, 0], expected), name
            a, b = elt(G, u), GroupRingMatrix(G, inverse)
            assert times(a, b) == one and times(b, a) == one, name


@pytest.mark.parametrize("group, l", [("heis27", 3), ("cyclic:64", 2),
                                      ("product:cyclic:4,cyclic:4,cyclic:4", 2),
                                      ("cyclic:25", 5), ("cyclic:2", 2),
                                      ("cyclic:1", 1048573)])
def test_ga_inverse_matches_newton_with_recomputed_residuals(group, l):
    """Squaring the residual gives the iterates of recomputing I - a X
    from a: on random invertible k x k data, k = 1..5, and on random 1 x 1
    units, the inverse equals the recomputing reference (seeded by
    `solve_matrix`, where `ga_inverse` seeds an element by Fermat) and is
    two-sided by `ga_compose_reference`.  1 x 1 data of augmentation zero
    is NotAUnitError."""
    G = heisenberg_27() if group == "heis27" else build_group(group, l)
    rng = random.Random(group)
    cases = [random_invertible(G, k, rng, n_ops=6)[0].data for k in range(1, 6)]
    cases += [random_unit(G, rng)[None, None] for _ in range(4)]
    for a in cases:
        one = GroupRingMatrix.identity(G, a.shape[0]).data
        inverse = ga_inverse(a, G)
        assert inverse.dtype == np.int64
        assert np.array_equal(inverse, ga_inverse_newton_reference(a, G))
        assert np.array_equal(ga_compose_reference(a, inverse, G), one)
        assert np.array_equal(ga_compose_reference(inverse, a, G), one)
    for _ in range(4):
        a = random_unit(G, rng)
        a[G.identity] = (a[G.identity] - a.sum()) % l     # augmentation zero
        with pytest.raises(NotAUnitError):
            ga_inverse(a[None, None], G)


@pytest.mark.parametrize("k, i, j", [(0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 0), (0, 3, 0),
                                     (2, 0, 0)])
def test_ga_compose_with_an_empty_operand_gathers_nothing(k, i, j, monkeypatch):
    """A product with k, i or j = 0 equals the reference in shape, dtype
    (int64) and data, and is made without a gather or a matmul."""
    G = SMALL_GROUPS["D4"]
    rng = np.random.default_rng(k * 100 + i * 10 + j)
    second = rng.integers(0, G.prime_l, size=(k, i, G.order))
    first = rng.integers(0, G.prime_l, size=(i, j, G.order))
    want = ga_compose_reference(second, first, G)

    def refuse(*args, **kwargs):
        raise AssertionError("an empty product gathered or multiplied")

    monkeypatch.setattr(np, "take", refuse)
    monkeypatch.setattr(groups.flinalg, "_matmul_in", refuse)
    got = ga_compose(second, first, G)
    assert got.shape == want.shape == (k, j, G.order)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "C2xC2", "D4"])
def test_unit_criterion_against_scan(name):
    """ga_inverse of 1 x 1 data succeeds iff some b satisfies ab = 1, by
    literal scan with the table product, and then returns that b, which
    is also a left inverse; exactly then the augmentation is nonzero."""
    G = SMALL_GROUPS[name]
    one = GroupRingMatrix.identity(G, 1).data[0, 0]
    scan = [np.array(c) for c in itertools.product(range(G.prime_l), repeat=G.order)]
    for a in scan:
        found = next((b for b in scan if np.array_equal(ga_mul_reference(a, b, G), one)),
                     None)
        try:
            inverse = ga_inverse(a[None, None], G)[0, 0]
        except NotAUnitError:
            inverse = None
        assert (inverse is None) == (found is None)
        assert (found is not None) == (augmentation(elt(G, a)) != 0)
        if found is not None:
            assert np.array_equal(inverse, found)
            assert np.array_equal(ga_mul_reference(found, a, G), one)  # two-sided


def test_inverse_roundtrip_on_units():
    for name in ["C2", "C3", "C4", "C2xC2", "Q8", "C9"]:
        G = SMALL_GROUPS[name]
        one = GroupRingMatrix.identity(G, 1)
        rng = random.Random(hash(name) & 0xFFFF)
        count = 0
        while count < 25:
            a = elt(G, [rng.randrange(G.prime_l) for _ in range(G.order)])
            if augmentation(a) == 0:
                continue
            b = GroupRingMatrix(G, ga_inverse(a.data, G))
            assert times(a, b) == one
            assert times(b, a) == one
            count += 1


def test_augmentation_multiplicative_exhaustive_small():
    for name in ["C2", "C4", "C2xC2"]:
        G = SMALL_GROUPS[name]
        for a in all_elements(G):
            for b in all_elements(G):
                assert augmentation(times(a, b)) == (
                    augmentation(a) * augmentation(b)) % G.prime_l


def test_radical_is_an_ideal():
    G = SMALL_GROUPS["C2xC2"]
    rng = random.Random(7)
    for _ in range(200):
        a = elt(G, [rng.randrange(2) for _ in range(4)])
        b = elt(G, [rng.randrange(2) for _ in range(4)])
        if augmentation(a) == 0 and augmentation(b) == 0:
            assert augmentation(GroupRingMatrix(G, a.data + b.data)) == 0
        if augmentation(a) == 0:
            assert augmentation(times(a, b)) == 0
            assert augmentation(times(b, a)) == 0


def test_radical_nilpotence_bound():
    for name in ["C2", "C3", "C4", "Q8", "C9"]:
        G = SMALL_GROUPS[name]
        N = G.order * (G.prime_l - 1) + 1
        rng = random.Random(11)
        for _ in range(20):
            prod = GroupRingMatrix.identity(G, 1)
            for _ in range(N):
                coeffs = np.array([rng.randrange(G.prime_l) for _ in range(G.order)])
                coeffs[G.identity] -= coeffs.sum()      # into the radical
                prod = times(prod, elt(G, coeffs))
            assert prod.is_zero()


def test_norm_element_kills_radical():
    for name, G in [("C4", SMALL_GROUPS["C4"]), ("Q8", SMALL_GROUPS["Q8"])]:
        N = norm_matrix(G)
        for g in range(G.order):
            gm1 = np.eye(G.order, dtype=np.int64)[g]
            gm1[G.identity] -= 1
            assert times(elt(G, gm1), N).is_zero()
            assert times(N, elt(G, gm1)).is_zero()


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
    shapes included, is read-only, and builds a square 7 x 7
    expansion over C243 with a traced peak within 1.5 times its bytes (a
    second copy would double it)."""
    rng = np.random.default_rng(17)
    for name, G in two_group_zoo() + three_group_zoo():
        for rows, cols in [(1, 1), (2, 3), (3, 2), (0, 2), (2, 0)]:
            A = GroupRingMatrix(G, rng.integers(0, G.prime_l, (rows, cols, G.order)))
            E = A.expand()
            assert E.dtype == np.int64 and np.array_equal(E, expand_reference(A)), name
            assert np.array_equal(A.expand(), E) and not E.flags.writeable, name
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


def test_group_equality_and_hash_keep_their_meaning(monkeypatch):
    """Equal tables built apart compare equal with one hash, tables that
    differ in product, identity or prime do not, and a table compared
    with itself is equal without reading its multiplication table."""
    a, b = cyclic_group(9, 3), cyclic_group(9, 3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != direct_product(cyclic_group(3, 3), cyclic_group(3, 3))
    assert a != cyclic_group(3, 3) and a != "cyclic:9"
    assert SMALL_GROUPS["D4"] != SMALL_GROUPS["Q8"]
    relabel = (np.arange(9) + 1) % 9                 # the same group, identity at 1
    mult = np.empty_like(a.ldiv)
    mult[np.ix_(relabel, relabel)] = relabel[a.ldiv[a.inv]]
    assert group_from_table(mult, 1, 3) != a

    def no_table_reads(*args, **kwargs):
        raise AssertionError("compared the multiplication tables")

    monkeypatch.setattr(np, "array_equal", no_table_reads)
    assert a == a and SMALL_GROUPS["Q8"] == SMALL_GROUPS["Q8"]


def test_each_group_ring_product_chooses_its_word_once(monkeypatch):
    """`ga_compose` decides the product's dtype once, for the gather and
    the product both, at each shape and on both sides of the float64
    bound."""
    from perfchain import flinalg
    calls = []
    real = flinalg.product_dtype

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(flinalg, "product_dtype", counting)
    rng = np.random.default_rng(4)
    for G in (SMALL_GROUPS["C4"], heisenberg_27(), build_group("cyclic:101", 101)):
        for k, i, j in ((1, 1, 1), (5, 3, 2), (2, 4, 7), (8, 8, 8)):
            second = rng.integers(0, G.prime_l, size=(k, i, G.order))
            first = rng.integers(0, G.prime_l, size=(i, j, G.order))
            calls.clear()
            got = ga_compose(second, first, G)
            assert len(calls) == 1
            assert np.array_equal(got, ga_compose_reference(second, first, G))
