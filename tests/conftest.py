"""Shared fixtures: the group zoo and randomized complex/tower generators."""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from perfchain import (
    ChainComplex,
    ChainMap,
    GroupRingMatrix,
    GroupTable,
    Tower,
    build_group,
    cyclic_group,
    direct_product,
    direct_sum,
    identity_chain_map,
    mapping_cone,
    norm_element,
)
from perfchain import certificates, flinalg
from perfchain.abelian import Lattice, SNFResult, integer_kernel_columns
from perfchain.chains import compose_chain_maps
from perfchain.groups import grm_compose


def group_from_mul(elems, mul, identity_elem, l: int) -> GroupTable:
    """Build a validated table from an element list and a product function."""
    idx = {e: i for i, e in enumerate(elems)}
    mult = [[idx[mul(a, b)] for b in elems] for a in elems]
    return GroupTable(mult, idx[identity_elem], l)


def dihedral(m: int) -> GroupTable:
    """Dihedral group of order 2m (m a 2-power for the zoo)."""
    elems = [(i, e) for e in range(2) for i in range(m)]

    def mul(x, y):
        (i, e), (j, f) = x, y
        return ((i + (j if e == 0 else -j)) % m, (e + f) % 2)

    return group_from_mul(elems, mul, (0, 0), 2)


def generalized_quaternion(k: int) -> GroupTable:
    """Q_{4k}: a^{2k} = 1, b^2 = a^k, b a b^-1 = a^-1."""
    elems = [(i, e) for e in range(2) for i in range(2 * k)]

    def mul(x, y):
        (i, e), (j, f) = x, y
        i2 = (i + (j if e == 0 else -j)) % (2 * k)
        if e and f:
            return ((i2 + k) % (2 * k), 0)
        return (i2, (e + f) % 2)

    return group_from_mul(elems, mul, (0, 0), 2)


def _twisted_16(r_power: int) -> GroupTable:
    """Order 16 with s r s^-1 = r^r_power (r of order 8)."""
    elems = [(i, e) for e in range(2) for i in range(8)]

    def mul(x, y):
        (i, e), (j, f) = x, y
        return ((i + (j if e == 0 else r_power * j)) % 8, (e + f) % 2)

    return group_from_mul(elems, mul, (0, 0), 2)


def semidihedral_16() -> GroupTable:
    return _twisted_16(3)


def modular_16() -> GroupTable:
    return _twisted_16(5)


def c4_semidirect_c4() -> GroupTable:
    elems = [(a, b) for a in range(4) for b in range(4)]

    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a + (c if b % 2 == 0 else -c)) % 4, (b + d) % 4)

    return group_from_mul(elems, mul, (0, 0), 2)


def c2c2_semidirect_c4() -> GroupTable:
    elems = [(u, v, b) for u in range(2) for v in range(2) for b in range(4)]

    def mul(x, y):
        (u, v, b), (w, z, d) = x, y
        if b % 2 == 0:
            return ((u + w) % 2, (v + z) % 2, (b + d) % 4)
        return ((u + z) % 2, (v + w) % 2, (b + d) % 4)

    return group_from_mul(elems, mul, (0, 0, 0), 2)


def pauli_16() -> GroupTable:
    """Central product generated by two order-4 anticommuting involutions
    and a central fourth root: (k,a,b) ~ i^k X^a Z^b."""
    elems = [(k, a, b) for k in range(4) for a in range(2) for b in range(2)]

    def mul(x, y):
        (k, a, b), (m, c, d) = x, y
        return ((k + m + 2 * b * c) % 4, (a + c) % 2, (b + d) % 2)

    return group_from_mul(elems, mul, (0, 0, 0), 2)


def heisenberg_27() -> GroupTable:
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]

    def mul(x, y):
        (a, b, c), (d, e, f) = x, y
        return ((a + d) % 3, (b + e) % 3, (c + f + a * e) % 3)

    return group_from_mul(elems, mul, (0, 0, 0), 3)


def c9_semidirect_c3() -> GroupTable:
    elems = [(a, b) for a in range(9) for b in range(3)]

    def mul(x, y):
        (a, b), (c, d) = x, y
        return ((a + pow(4, b, 9) * c) % 9, (b + d) % 3)

    return group_from_mul(elems, mul, (0, 0), 3)


def two_group_zoo() -> list[tuple[str, GroupTable]]:
    """All 23 groups of 2-power order <= 27 (orders 1, 2, 4, 8, 16)."""
    C2 = cyclic_group(2, 2)
    C4 = cyclic_group(4, 2)
    C8 = cyclic_group(8, 2)
    D4 = dihedral(4)
    Q8 = generalized_quaternion(2)
    return [
        ("C1", cyclic_group(1, 2)),
        ("C2", C2),
        ("C4", C4),
        ("C2xC2", direct_product(C2, C2)),
        ("C8", C8),
        ("C4xC2", direct_product(C4, C2)),
        ("C2^3", build_group("product:cyclic:2,cyclic:2,cyclic:2", 2)),
        ("D4", D4),
        ("Q8", Q8),
        ("C16", cyclic_group(16, 2)),
        ("C8xC2", direct_product(C8, C2)),
        ("C4xC4", direct_product(C4, C4)),
        ("C4xC2^2", direct_product(C4, direct_product(C2, C2))),
        ("C2^4", build_group("product:cyclic:2,cyclic:2,cyclic:2,cyclic:2", 2)),
        ("D16", dihedral(8)),
        ("SD16", semidihedral_16()),
        ("M16", modular_16()),
        ("Q16", generalized_quaternion(4)),
        ("D4xC2", direct_product(D4, C2)),
        ("Q8xC2", direct_product(Q8, C2)),
        ("C4:C4", c4_semidirect_c4()),
        ("C2^2:C4", c2c2_semidirect_c4()),
        ("Pauli16", pauli_16()),
    ]


def three_group_zoo() -> list[tuple[str, GroupTable]]:
    """All 9 groups of 3-power order <= 27 (orders 1, 3, 9, 27)."""
    C3 = cyclic_group(3, 3)
    C9 = cyclic_group(9, 3)
    return [
        ("C1", cyclic_group(1, 3)),
        ("C3", C3),
        ("C9", C9),
        ("C3xC3", direct_product(C3, C3)),
        ("C27", cyclic_group(27, 3)),
        ("C9xC3", direct_product(C9, C3)),
        ("C3^3", build_group("product:cyclic:3,cyclic:3,cyclic:3", 3)),
        ("Heis27", heisenberg_27()),
        ("C9:C3", c9_semidirect_c3()),
    ]


SMALL_GROUPS = {
    "C1": cyclic_group(1, 2),
    "C2": cyclic_group(2, 2),
    "C3": cyclic_group(3, 3),
    "C4": cyclic_group(4, 2),
    "C2xC2": build_group("product:cyclic:2,cyclic:2", 2),
    "C9": cyclic_group(9, 3),
    "D4": dihedral(4),
    "Q8": generalized_quaternion(2),
}


# ----------------------------------------------------------------------
# test-only oracles


@functools.cache
def inverse_table(l: int) -> np.ndarray:
    """inv[x] = x^(l-2) for x in 1..l-1 (inv[0] unused), by square and
    multiply over the whole table at once; built once per prime."""
    inv = np.ones(l, dtype=np.int64)
    base = np.arange(l, dtype=np.int64)
    e = l - 2
    while e:
        if e & 1:
            inv = (inv * base) % l
        base = (base * base) % l
        e >>= 1
    inv.flags.writeable = False
    return inv


def rref_reference(A, l: int):
    """Gauss-Jordan over F_l row by row on whole rows, always scaling the
    pivot row and clearing every other row: the oracle for `flinalg.rref`
    (the same pivots and the same reduced form)."""
    R = (np.asarray(A, dtype=np.int64) % l).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        R[r] = (R[r] * pow(int(R[r, c]), l - 2, l)) % l
        other = np.nonzero(R[:, c])[0]
        other = other[other != r]
        if other.size:
            R[other] = (R[other] - np.outer(R[other, c], R[r])) % l
        pivots.append(c)
        r += 1
    return R, pivots


def batched_rank(mats: np.ndarray, l: int) -> np.ndarray:
    """Ranks of a stack of matrices (N, rows, cols) over F_l, vectorized
    across the batch.  Used by exhaustive test sweeps."""
    B = (np.asarray(mats, dtype=np.int64) % l).copy()
    N, rows, cols = B.shape
    inv = inverse_table(l)
    ranks = np.zeros(N, dtype=np.int64)
    top = np.zeros(N, dtype=np.int64)  # next pivot row per matrix
    for c in range(cols):
        colvals = B[:, :, c]
        rows_idx = np.arange(rows)[None, :]
        eligible = (rows_idx >= top[:, None]) & (colvals != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        pivot_row = np.where(has, np.argmax(eligible, axis=1), 0)
        sel = np.nonzero(has)[0]
        pr = pivot_row[sel]
        tr = top[sel]
        # swap pivot row up to the current top row
        tmp = B[sel, pr].copy()
        B[sel, pr] = B[sel, tr]
        B[sel, tr] = tmp
        piv = B[sel, tr, c]
        B[sel, tr] = (B[sel, tr] * inv[piv][:, None]) % l
        below = B[sel][:, :, c].copy()
        below[np.arange(sel.size), tr] = 0
        B[sel] = (B[sel] - below[:, :, None] * B[sel, tr][:, None, :]) % l
        top[sel] += 1
        ranks[sel] += 1
    return ranks


def is_group_brute(mult, identity: int) -> bool:
    """Group axioms by literal scan: a neutral identity, two-sided
    inverses, and (ab)c == a(bc) for every triple."""
    mult = np.asarray(mult)
    n = len(mult)
    rng_ = range(n)
    if any(mult[identity, a] != a or mult[a, identity] != a for a in rng_):
        return False
    for a in rng_:
        if not any(mult[a, b] == identity and mult[b, a] == identity for b in rng_):
            return False
    return all(mult[mult[a, b], c] == mult[a, mult[b, c]]
               for a in rng_ for b in rng_ for c in rng_)


def closure_brute(G: GroupTable, gens) -> set[int]:
    """Elements reached from the identity by right multiplication by gens."""
    reached = {G.identity}
    frontier = [G.identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            gs = int(G.mult[g, s])
            if gs not in reached:
                reached.add(gs)
                frontier.append(gs)
    return reached


def action_is_homomorphism_brute(M) -> bool:
    """rho(e) == 1 and rho(g) rho(h) == rho(gh) for every pair g, h."""
    G = M.group
    l = G.prime_l
    if not np.array_equal(M.action[G.identity], np.eye(M.dim, dtype=np.int64)):
        return False
    return all(np.array_equal((M.action[g] @ M.action[h]) % l, M.action[G.mult[g, h]])
               for g in range(G.order) for h in range(G.order))


def is_equivariant_brute(source, target, matrix) -> bool:
    """matrix @ rho_source(g) == rho_target(g) @ matrix for every g."""
    l = source.group.prime_l
    return all(np.array_equal((target.action[g] @ matrix) % l,
                              (matrix @ source.action[g]) % l)
               for g in range(source.group.order))


def right_multiplication_matrix(G: GroupTable, rng) -> np.ndarray:
    """The equivariant endomorphism x -> x a of F_l[pi], for a random a,
    on coordinates indexed by group elements."""
    a = np.array([rng.randrange(G.prime_l) for _ in range(G.order)], dtype=np.int64)
    return GroupRingMatrix(G, a[None, None, :]).expand()


def first_generator_projection(G: GroupTable) -> np.ndarray:
    """Identity on the coordinates of the cyclic subgroup of the first
    generator, zero elsewhere.  On F_l[pi] it commutes with the action of
    that generator, and with no generator outside the subgroup."""
    inside = closure_brute(G, G.generators[:1])
    return np.diag([1 if g in inside else 0 for g in range(G.order)]).astype(np.int64)


def regular_action_matrices(G: GroupTable, rank: int) -> list[np.ndarray]:
    """Left-multiplication permutation matrices of F_l[pi]^rank, one per
    group element, on coordinates (i, s) -> i*order + s."""
    o = G.order
    mats = []
    for g in range(o):
        P = np.zeros((o, o), dtype=np.int64)
        P[G.mult[g], np.arange(o)] = 1
        if rank == 1:
            mats.append(P)
        else:
            big = np.zeros((rank * o, rank * o), dtype=np.int64)
            for i in range(rank):
                big[i * o:(i + 1) * o, i * o:(i + 1) * o] = P
            mats.append(big)
    return mats


def per_element_action(M, V, solve) -> list[np.ndarray]:
    """The induced action by one solve per group element."""
    l = M.group.prime_l
    k = V.shape[1]
    if k == 0:
        return [np.zeros((0, 0), dtype=np.int64)] * M.group.order
    return [solve((M.action[g] @ V) % l) for g in range(M.group.order)]


def has_equivariant_section(f) -> bool:
    """Splitting oracle: does the PiModuleMap f admit an equivariant right
    inverse?

    Solves the finite linear system f @ s = id, s equivariant, over F_l.
    Kept independent of is_free/is_projective so tests can compare the
    two routes.
    """
    G = f.source.group
    l = G.prime_l
    sdim, tdim = f.source.dim, f.target.dim
    if tdim == 0:
        return True
    eye_s = flinalg.identity(sdim, l)
    eye_t = flinalg.identity(tdim, l)
    rows = [np.kron(eye_t, f.matrix)]
    rhs = [flinalg.identity(tdim, l).T.reshape(-1)]
    for g in range(G.order):
        rows.append(np.kron(f.target.action[g].T, eye_s) - np.kron(eye_t, f.source.action[g]))
        rhs.append(np.zeros(sdim * tdim, dtype=np.int64))
    A = np.vstack(rows) % l
    b = np.concatenate(rhs) % l
    return flinalg.solve_matrix(A, b, l) is not None


def smith_normal_form_reference(M) -> SNFResult:
    """Smith normal form by the min-|a| pivot loop: pick the nonzero entry
    of least absolute value in the trailing block, clear its row and column
    by division with remainder, and add a row when the pivot fails to
    divide the rest of the block.  Simple and slow, with unbounded entry
    growth in U and V; kept as the oracle for `smith_normal_form`."""
    A = [[int(x) for x in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    Uinv = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row i += q * row j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        for r in Uinv:
            r[j] -= q * r[i]

    def col_add(i, j, q):
        # col i += q * col j
        for r in A:
            r[i] += q * r[j]
        for r in V:
            r[i] += q * r[j]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in Uinv:
            r[i] = -r[i]

    n = min(rows, cols)
    for k in range(n):
        while True:
            pivot = None
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    a = abs(A[i][j])
                    if a and (best is None or a < best):
                        best, pivot = a, (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            dirty = False
            for i in range(k + 1, rows):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    if q:
                        row_add(i, k, -q)
                    if A[i][k]:
                        dirty = True
            for j in range(k + 1, cols):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    if q:
                        col_add(j, k, -q)
                    if A[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            fix = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if A[i][j] % A[k][k]:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is None:
                break
            row_add(k, fix, 1)
        if A[k][k] < 0:
            row_negate(k)
    diag = tuple(A[k][k] for k in range(n))
    return SNFResult(diag, tuple(map(tuple, U)), tuple(map(tuple, V)),
                     tuple(map(tuple, Uinv)))


def preimage_lattice_reference(M, tgt: Lattice) -> list[list[int]]:
    """Generators, as columns, of {x : M x lies in tgt} over Z: the first
    n coordinates of the integer kernel of [M | -R], R the matrix of tgt.
    A construction independent of tgt's Smith form, kept as the oracle for
    `abelian._preimage`."""
    n = len(M[0]) if M else 0
    big = [list(a) + [-v for v in b] for a, b in zip(M, tgt.matrix)]
    ker = integer_kernel_columns(big)
    if not ker or not ker[0]:
        return [[] for _ in range(n)]
    return [ker[i] for i in range(n)]


def stable_images_reference(T: Tower, q: int, n: int, h: int):
    """(images, stabilized, stable_at) of `towers.stable_images`, from the
    composite bonds starting at the identity of level n."""
    l = T.group.prime_l
    rank = T.levels[n].rank_at(q)
    M = np.eye(rank * T.group.order, dtype=np.int64)
    images = [flinalg.canonical_columns(M, l)]
    for k in range(h):
        M = (M @ T.bonds[n + k].component_at(q).expand()) % l
        images.append(flinalg.canonical_columns(M, l))
    if h == 0:
        return images, rank == 0, None if rank else 0
    stable_at = h
    while stable_at > 0 and np.array_equal(images[stable_at - 1], images[h]):
        stable_at -= 1
    return images, stable_at < h, stable_at if stable_at < h else None


def ga_mul_reference(a, b, G: GroupTable) -> np.ndarray:
    """Coefficients of a * b by the multiplication table: the coefficient
    a[g] b[h] is added at g h."""
    out = np.zeros(G.order, dtype=np.int64)
    np.add.at(out, G.mult.ravel(), np.outer(a, b).ravel())
    return out % G.prime_l


def from_expanded_reference(G: GroupTable, E, rows: int, cols: int) -> np.ndarray:
    """The group-ring data of an equivariant expanded matrix, read entry
    by entry: entry (i, j) is block row i of column (j, identity)."""
    o = G.order
    data = np.zeros((rows, cols, o), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            data[i, j] = E[i * o:(i + 1) * o, j * o + G.identity]
    return data


def dense_action(G: GroupTable, dim: int, gens) -> list[list]:
    """The per-element action lists of a module given by its generator
    matrices: a breadth-first walk rho(gs) = rho(g) rho(s) of the right
    Cayley graph."""
    l = G.prime_l
    out = {G.identity: np.eye(dim, dtype=np.int64)}
    queue = [G.identity]
    for g in queue:
        for s, rho in zip(G.generators, gens):
            gs = int(G.mult[g, s])
            if gs not in out:
                out[gs] = (out[g] @ np.asarray(rho, dtype=np.int64).reshape(dim, dim)) % l
                queue.append(gs)
    return [out[g].tolist() for g in range(G.order)]


def cert_as_v1(cert: dict, G: GroupTable) -> str:
    """The bytes the perfchain-cert-v1 writer gave for this certificate:
    each module {"dim", "gens"} written as {"dim", "action"}, one matrix
    per group element."""
    def v1(obj):
        if isinstance(obj, dict) and set(obj) == {"dim", "gens"}:
            return {"dim": obj["dim"], "action": dense_action(G, obj["dim"], obj["gens"])}
        if isinstance(obj, dict):
            return {k: v1(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [v1(v) for v in obj]
        return obj

    return certificates.dumps({**v1(cert), "format": "perfchain-cert-v1"})


@pytest.fixture
def rng():
    return random.Random(20240811)


# ----------------------------------------------------------------------
# randomized generators


def radical_entry(G: GroupTable, rng, parity: int) -> np.ndarray:
    """A radical element whose products across parities vanish:
    parity 0 slots carry the norm, parity 1 slots carry g - 1."""
    o = G.order
    out = np.zeros(o, dtype=np.int64)
    if o == 1:
        return out
    if parity == 0:
        out[:] = 1
    else:
        g = rng.randrange(1, o)
        out[g] += 1
        out[G.identity] -= 1
    return out % G.prime_l


def random_minimal_complex(G: GroupTable, rng, max_degrees: int = 4,
                           max_rank: int = 3) -> ChainComplex:
    """A random minimal complex: diagonal boundary slots alternate between
    the norm element and elements g - 1, so d o d = 0 and every entry has
    augmentation zero."""
    n_deg = rng.randint(1, max_degrees)
    bottom = rng.randint(-2, 2)
    ranks = [rng.randint(1, max_rank) for _ in range(n_deg)]
    boundaries = []
    for i in range(1, n_deg):
        data = np.zeros((ranks[i - 1], ranks[i], G.order), dtype=np.int64)
        if G.order > 1:
            for s in range(min(ranks[i - 1], ranks[i])):
                if rng.random() < 0.7:
                    data[s, s] = radical_entry(G, rng, (bottom + i) % 2)
        boundaries.append(GroupRingMatrix(G, data))
    return ChainComplex(G, bottom, ranks, boundaries)


def pad_with_identity_cones(C: ChainComplex, rng, count: int) -> ChainComplex:
    for _ in range(count):
        q = rng.randint(C.bottom - 1, C.top + 1)
        r = rng.randint(1, 2)
        cone = mapping_cone(identity_chain_map(ChainComplex(C.group, q, [r], [])))
        C = direct_sum(C, cone)
    return C


def random_unit(G: GroupTable, rng) -> np.ndarray:
    """A random unit: a group element plus a random radical perturbation."""
    o = G.order
    out = np.zeros(o, dtype=np.int64)
    out[rng.randrange(o)] = rng.randrange(1, G.prime_l)
    if o > 1 and rng.random() < 0.5:
        out = (out + radical_entry(G, rng, rng.randint(0, 1))) % G.prime_l
    return out


def random_invertible(G: GroupTable, n: int, rng,
                      n_ops: int = 4) -> tuple[GroupRingMatrix, GroupRingMatrix]:
    """A random invertible matrix over F_l[pi] with its exact inverse,
    built from elementary transvections and unit scalings."""
    W = GroupRingMatrix.identity(G, n)
    Winv = GroupRingMatrix.identity(G, n)
    o = G.order
    for _ in range(n_ops):
        if n > 1 and rng.random() < 0.6:
            i, j = rng.sample(range(n), 2)
            a = np.zeros(o, dtype=np.int64)
            a[rng.randrange(o)] = rng.randrange(1, G.prime_l)
            E = GroupRingMatrix.identity(G, n).data.copy()
            E[i, j] = a
            Einv = GroupRingMatrix.identity(G, n).data.copy()
            Einv[i, j] = (-a) % G.prime_l
        else:
            i = rng.randrange(n)
            u = random_unit(G, rng)
            from perfchain import ga_inverse, GroupRingElement
            uinv = ga_inverse(GroupRingElement(u, G.prime_l), G).coeffs
            E = GroupRingMatrix.identity(G, n).data.copy()
            E[i, i] = u
            Einv = GroupRingMatrix.identity(G, n).data.copy()
            Einv[i, i] = uinv
        W = grm_compose(W, GroupRingMatrix(G, E))
        Winv = grm_compose(GroupRingMatrix(G, Einv), Winv)
    return W, Winv


def conjugate_complex(C: ChainComplex, rng) -> ChainComplex:
    """A complex isomorphic to C via random basis changes in every degree."""
    G = C.group
    Ws = {}
    for q in range(C.bottom, C.top + 1):
        r = C.rank_at(q)
        Ws[q] = random_invertible(G, r, rng) if r else None
    boundaries = []
    for q in range(C.bottom + 1, C.top + 1):
        d = C.boundary_at(q)
        if Ws[q] is not None:
            d = grm_compose(d, Ws[q][0])
        if Ws[q - 1] is not None:
            d = grm_compose(Ws[q - 1][1], d)
        boundaries.append(d)
    return ChainComplex(G, C.bottom, C.ranks, boundaries)


def random_perfect_instance(G: GroupTable, rng):
    """(complex, core_ranks, core_bottom): a random minimal complex padded
    by identity cones and scrambled by a basis change."""
    core = random_minimal_complex(G, rng)
    padded = pad_with_identity_cones(core, rng, rng.randint(0, 3))
    return conjugate_complex(padded, rng), core


def cone_junk_with_map(core: ChainComplex, rng):
    """An acyclic junk complex J = cone(identity) plus a chain map J -> core."""
    G = core.group
    q = rng.randint(core.bottom - 1, core.top)
    r = rng.randint(1, 2)
    J = mapping_cone(identity_chain_map(ChainComplex(G, q, [r], [])))
    phi_data = np.zeros((core.rank_at(q + 1), r, G.order), dtype=np.int64)
    for i in range(core.rank_at(q + 1)):
        for j in range(r):
            phi_data[i, j, rng.randrange(G.order)] = rng.randrange(G.prime_l)
    phi = GroupRingMatrix(G, phi_data)
    comps = {}
    if core.rank_at(q + 1) and r:
        comps[q + 1] = phi
        lower = grm_compose(core.boundary_at(q + 1), phi)
        if core.rank_at(q) and not lower.is_zero():
            comps[q] = lower
    theta = ChainMap(J, core, comps)
    return J, theta


def homology_image_dims(T: Tower, q: int, h: int) -> list[int]:
    """dim of the image of H_q(level_k) -> H_q(level_0) for k = 0..h,
    computed through induced maps on homology (the oracle for the
    exactness-of-limits property)."""
    from perfchain import induced_map_on_homology
    from perfchain.flinalg import rank

    l = T.group.prime_l
    dims = []
    composite = identity_chain_map(T.levels[0])
    dims.append(induced_map_on_homology(composite, q).source.dim)
    for k in range(h):
        composite = compose_chain_maps(composite, T.bonds[k])
        dims.append(rank(induced_map_on_homology(composite, q).matrix, l))
    return dims


def random_stabilizing_tower(G: GroupTable, rng, n_levels: int = 5):
    """A tower whose stable images reproduce a core complex: levels are
    core (+) junk, bonds are identity on the core and kill the junk."""
    core = random_minimal_complex(G, rng, max_degrees=3, max_rank=2)
    style = rng.randrange(3)
    if style == 0:
        # junk with homology, killed outright
        junk = random_minimal_complex(G, rng, max_degrees=2, max_rank=2)
        junk = ChainComplex(G, core.bottom, junk.ranks, junk.boundaries)
        level = direct_sum(core, junk)
        comps = {}
        for q in range(core.bottom, core.top + 1):
            if core.rank_at(q):
                data = np.zeros((level.rank_at(q), level.rank_at(q), G.order),
                                dtype=np.int64)
                ident = GroupRingMatrix.identity(G, core.rank_at(q)).data
                data[:core.rank_at(q), :core.rank_at(q)] = ident
                comps[q] = GroupRingMatrix(G, data)
        bond = ChainMap(level, level, comps)
    elif style == 1:
        # contractible junk folded into the core by a chain map
        junk, theta = cone_junk_with_map(core, rng)
        level = direct_sum(core, junk)
        comps = {}
        for q in range(level.bottom, level.top + 1):
            rc, rj = core.rank_at(q), junk.rank_at(q)
            if rc + rj == 0:
                continue
            data = np.zeros((rc + rj, rc + rj, G.order), dtype=np.int64)
            if rc:
                data[:rc, :rc] = GroupRingMatrix.identity(G, rc).data
            th = theta.component_at(q)
            if rc and rj:
                data[:rc, rc:] = th.data
            comps[q] = GroupRingMatrix(G, data)
        bond = ChainMap(level, level, comps)
    else:
        level = core
        bond = identity_chain_map(core)
    levels = [level] * n_levels
    bonds = [bond] * (n_levels - 1)
    return Tower(levels, bonds), core
