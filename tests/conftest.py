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
    ModuleComplex,
    ModuleComplexMap,
    Tower,
    build_group,
    cyclic_group,
    direct_product,
    direct_sum,
    identity_chain_map,
    limit_complex,
    mapping_cone,
)
from perfchain import certificates, flinalg, serialize
from perfchain.abelian import (
    FGAbelian,
    SNFResult,
    integer_kernel_columns,
    mat_mul,
    smith_normal_form,
)
from perfchain.chains import check_ranks
from perfchain.errors import (
    BoundarySquareNonzeroError,
    DimensionMismatchError,
    LimitError,
    ParseError,
)
from perfchain.finiteness import decide_perfect
from perfchain.groups import MAX_FREE_DIM, ga_compose, ga_inverse, grm_compose
from perfchain.modules import (
    PiModule,
    PiModuleMap,
    induced_action,
    minimal_generator_lifts,
    orbit,
    orbit_columns,
    trivial_module,
)
from perfchain.serialize import json_field, json_field_array
from perfchain.towers import FreeLimit, decided_limit


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


def eliminate_reference(A, l: int, reduced: bool):
    """Gaussian elimination on int64 rows, one outer-product update and
    one reduction mod l per pivot: the oracle for `flinalg._eliminate` in
    its narrow words (the same pivots and, entry by entry, the same R,
    forward or reduced)."""
    R = np.array(A, dtype=np.int64)
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        if R[r, c] != 1:
            R[r, c:] = (R[r, c:] * pow(int(R[r, c]), l - 2, l)) % l
        if reduced:
            other = R[:, c].nonzero()[0]
            other = other[other != r]
        else:
            other = r + nz[1:]
        if other.size:
            R[other, c:] = (R[other, c:] - np.outer(R[other, c], R[r, c:])) % l
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
            gs = int(G.ldiv[G.inv[g], s])
            if gs not in reached:
                reached.add(gs)
                frontier.append(gs)
    return reached


def action_is_homomorphism_brute(M) -> bool:
    """rho(e) == 1 and rho(g) rho(h) == rho(gh) for every pair g, h."""
    G = M.group
    l = G.prime_l
    action = module_action(M)
    if not np.array_equal(action[G.identity], np.eye(M.dim, dtype=np.int64)):
        return False
    return all(np.array_equal((action[g] @ action[h]) % l, action[G.ldiv[G.inv[g], h]])
               for g in range(G.order) for h in range(G.order))


def right_act(M: PiModule, i: int, V) -> np.ndarray:
    """V @ rho mod l, rho the action of the i-th generator, for V reduced
    mod l (a matrix or a stack of matrices): a column gather by the
    inverse of a permutation's row-index array, else a product with
    M.matrix(i)."""
    rho = M.gens[i]
    if rho.ndim == 1:
        return V[..., np.argsort(rho)]
    return flinalg.matmul(V, M.matrix(i), M.group.prime_l)


def check_action(M: PiModule) -> PiModule:
    """M, after checking that its generators give an action: the walk of
    the Cayley graph to rho(g) for every g, and rho(g) @ rho(s) ==
    rho(gs) for g in pi and s in the group's generators, else
    DimensionMismatchError.  By induction on the word length of h = h's
    (s in S) this gives rho(g) rho(h) = rho(g) rho(h') rho(s) =
    rho(gh') rho(s) = rho(gh) for every pair, and so invertibility."""
    G = M.group
    stacked = np.stack(orbit(M, flinalg.identity(M.dim)))
    for i, s in enumerate(G.generators):
        if not np.array_equal(right_act(M, i, stacked), stacked[G.ldiv[G.inv, s]]):
            raise DimensionMismatchError("action is not a homomorphism")
    return M


def is_equivariant(source, target, matrix) -> bool:
    """Does matrix: source -> target commute with the action?

    Checked on the generators only: commuting with rho(g) and rho(h)
    means commuting with rho(g) rho(h) = rho(gh).
    """
    return all(np.array_equal(target.act(i, matrix), right_act(source, i, matrix))
               for i in range(len(source.gens)))


def is_equivariant_brute(source, target, matrix) -> bool:
    """matrix @ rho_source(g) == rho_target(g) @ matrix for every g."""
    l = source.group.prime_l
    return all(np.array_equal((t @ matrix) % l, (matrix @ s) % l)
               for s, t in zip(module_action(source), module_action(target)))


def equivariant_map(source, target, matrix) -> PiModuleMap:
    """The PiModuleMap of matrix, reduced mod l, after asserting that it
    commutes with the action on the generators (`is_equivariant`) and on
    every group element."""
    matrix = flinalg.asfield(matrix, source.group.prime_l)
    assert is_equivariant(source, target, matrix)
    assert is_equivariant_brute(source, target, matrix)
    return PiModuleMap(source, target, matrix)


def check_module_complex(MC):
    """The ModuleComplex MC, after checking that every differential is
    equivariant (DimensionMismatchError) and that d o d = 0
    (BoundarySquareNonzeroError)."""
    l = MC.group.prime_l
    for i, d in enumerate(MC.diffs):
        if not is_equivariant(MC.modules[i + 1], MC.modules[i], d):
            raise DimensionMismatchError("differential is not equivariant")
    for q in range(MC.bottom + 2, MC.top + 1):
        if flinalg.matmul(MC.diff_at(q - 1), MC.diff_at(q), l).any():
            raise BoundarySquareNonzeroError(f"d_{q - 1} o d_{q} != 0")
    return MC


def check_module_map(f):
    """The ModuleComplexMap f, after checking that every component is
    equivariant (DimensionMismatchError) and that f commutes with the
    differentials (`check_commutes`)."""
    for q, m in f.components.items():
        if not is_equivariant(f.source.module_at(q), f.target.module_at(q), m):
            raise DimensionMismatchError("map component not equivariant")
    return f.check_commutes()


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
        P[G.ldiv[G.inv[g]], np.arange(o)] = 1
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
    return [solve((a @ V) % l) for a in module_action(M)]


def radical_basis(M) -> np.ndarray:
    """Basis (columns) of rad * M = span{(g - 1) m}, the pivot columns of
    the blocks rho(s) - 1 over the generators s: the two-pass oracle of
    `minimal_generator_lifts`, which completes the blocks themselves."""
    l = M.group.prime_l
    if M.dim == 0:
        return np.zeros((0, 0), dtype=np.int64)
    eye = flinalg.identity(M.dim)
    blocks = [np.zeros((M.dim, 0), dtype=np.int64)]
    blocks += [(M.matrix(i) - eye) % l for i in range(len(M.gens))]
    return column_space_basis(np.hstack(blocks), l)


def column_space_basis(A, l: int) -> np.ndarray:
    """The pivot columns of A (a deterministic basis of the image)."""
    return A[:, flinalg.pivot_columns(A, l)]


def submodule_span(M: PiModule, vectors) -> np.ndarray:
    """Basis of the submodule generated by the given columns.

    One pass over the orbit suffices because the action matrices form a
    group.
    """
    l = M.group.prime_l
    V = flinalg.asfield(vectors, l)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[1] == 0:
        return np.zeros((M.dim, 0), dtype=np.int64)
    return column_space_basis(np.hstack(orbit(M, V)), l)


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
    eye_s = flinalg.identity(sdim)
    eye_t = flinalg.identity(tdim)
    rows = [np.kron(eye_t, f.matrix)]
    rhs = [flinalg.identity(tdim).T.reshape(-1)]
    for s, t in zip(module_action(f.source), module_action(f.target)):
        rows.append(np.kron(t.T, eye_s) - np.kron(eye_t, s))
        rhs.append(np.zeros(sdim * tdim, dtype=np.int64))
    A = np.vstack(rows) % l
    b = np.concatenate(rhs) % l
    return flinalg.solve_matrix(A, b[:, None], l) is not None


def kernel_of_map(f: PiModuleMap) -> tuple[PiModule, PiModuleMap]:
    """Kernel with its inclusion; the pi-action restricts exactly."""
    l = f.source.group.prime_l
    K = flinalg.kernel_basis(f.matrix, l)
    ker = induced_action(f.source, K, lambda B: flinalg.solve_matrix(K, B, l))
    return ker, PiModuleMap(ker, f.source, K)


def is_free(M: PiModule) -> tuple[bool, int | None]:
    """True iff M is a free module, with its rank when so.

    Decided by the minimal free cover: over a local ring the cover is
    onto, and M is free exactly when the cover has zero kernel.
    """
    lifts = minimal_generator_lifts(M)
    k = lifts.shape[1]
    if M.dim != k * M.group.order:
        return False, None
    if flinalg.rank(orbit_columns(M, lifts), M.group.prime_l) == M.dim:
        return True, k
    return False, None


def is_projective(M: PiModule) -> bool:
    """Projective == free over F_l[pi]; same verdict as is_free."""
    return is_free(M)[0]


def quotient_module(M: PiModule, sub_basis) -> tuple[PiModule, PiModuleMap]:
    """Quotient of M by an action-invariant subspace, with the projection."""
    l = M.group.prime_l
    W = flinalg.asfield(sub_basis, l)
    if W.size:
        # col(W) lies in col([W img]), so the spans are equal iff the ranks are
        r = flinalg.rank(W, l)
        for i in range(len(M.gens)):
            if flinalg.rank(np.hstack([W, M.act(i, W)]), l) != r:
                raise DimensionMismatchError("subspace is not action-invariant")
    quo = flinalg.QuotientSpace(flinalg.identity(M.dim), W, l)
    Q = induced_action(M, quo.reps, quo.project)
    return Q, PiModuleMap(M, Q, quo.project(flinalg.identity(M.dim)))


def homology(C: ChainComplex, q: int) -> PiModule:
    """H_q = ker d_q / im d_{q+1} with its inherited pi-action."""
    return C.expanded().homology_data(q).module


def base_homology(X, q: int) -> int:
    """Mod-l homology dimension of the base space of the cell complex X in
    degree q, from the coinvariants complex (augmentation applied
    entrywise)."""
    G = X.group
    mods = [trivial_module(G, c) for c in X.orbit_counts]
    diffs = [b.augmentation_matrix() for b in X.boundaries]
    return ModuleComplex(G, 0, mods, diffs).homology_dim(q)


def invariant_factors(M) -> tuple:
    """The diagonal of the Smith normal form of the integer matrix M."""
    return smith_normal_form(M).diag


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
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row i += q * row j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def col_add(i, j, q):
        # col i += q * col j
        for r in A:
            r[i] += q * r[j]
        for r in V:
            r[i] += q * r[j]

    def row_negate(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

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
    return SNFResult(diag, tuple(map(tuple, U)), tuple(map(tuple, V)))


def snf_diagonal_reference(M, U, V, diag) -> bool:
    """Whether U M V = diag(d) over Z, by multiplying out the product in
    Python integers and comparing entrywise; the oracle of the checker's
    decision modulo primes (`certificates._is_claimed_diagonal`)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = mat_mul(mat_mul(U, M), V) if rows and cols else [[0] * cols for _ in range(rows)]
    return all(D[i][j] == (diag[i] if i == j and i < len(diag) else 0)
               for i in range(rows) for j in range(cols))


def int_det_reference(M) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination in Python
    integers; the oracle of the checker's determinant modulo primes
    (`certificates._abs_det_is`)."""
    A = [list(map(int, row)) for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def preimage_lattice_reference(M, tgt: FGAbelian) -> list[list[int]]:
    """Generators, as columns, of {x : M x lies in the relation lattice of
    the group tgt} over Z: the first n coordinates of the integer kernel of
    [M | -R], R the relations of tgt.
    A construction independent of tgt's Smith form, kept as the oracle for
    `abelian._preimage`."""
    n = len(M[0]) if M else 0
    big = [list(a) + [-v for v in b] for a, b in zip(M, tgt.relations)]
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


def norm_matrix(G: GroupTable) -> GroupRingMatrix:
    """The norm element, the sum of all group elements, as 1 x 1 data."""
    return GroupRingMatrix(G, np.ones((1, 1, G.order), dtype=np.int64))


def ga_mul_reference(a, b, G: GroupTable) -> np.ndarray:
    """Coefficients of a * b by the multiplication table: the coefficient
    a[g] b[h] is added at g h."""
    out = np.zeros(G.order, dtype=np.int64)
    np.add.at(out, G.ldiv[G.inv].ravel(), np.outer(a, b).ravel())
    return out % G.prime_l


def ga_compose_reference(second, first, G: GroupTable) -> np.ndarray:
    """(second o first) on (k, i, order) and (i, j, order) group-ring data,
    always gathering `second`: result[k, j, t] = sum_(i, g) first[i, j, g]
    second[k, i, g^-1 t], through G.ldiv."""
    k, i, o = second.shape
    j = first.shape[1]
    lhs = first.transpose(1, 0, 2).reshape(j, i * o)
    gathered = second[:, :, G.ldiv].reshape(k, i * o, o)    # [k, (i, g), t]
    return flinalg.matmul(lhs, gathered, G.prime_l)


def ga_inverse_series_reference(a, G: GroupTable) -> np.ndarray:
    """Coefficients of the inverse of a unit a by the terminating geometric
    series: a = alpha (1 - n) with n in the radical, and (1 - n)^-1 is
    1 + n + n^2 + ..., one product per power up to n's nilpotency index."""
    l = G.prime_l
    alpha_inv = pow(int(np.sum(a) % l), l - 2, l)
    one = np.zeros(G.order, dtype=np.int64)
    one[G.identity] = 1
    n = (one - np.asarray(a) * alpha_inv) % l
    acc, term = one, n
    for _ in range(G.order):
        if not term.any():
            return (acc * alpha_inv) % l
        acc = (acc + term) % l
        term = ga_mul_reference(term, n, G)
    raise AssertionError("radical series failed to terminate")


def ga_inverse_newton_reference(a, G: GroupTable) -> np.ndarray:
    """The inverse of square (k, k, order) data a by Newton's iteration
    with every residual I - a X recomputed from a, two products a step,
    from the lift of the augmentation's inverse."""
    l = G.prime_l
    k = a.shape[0]
    eps_inv = flinalg.solve_matrix(a.sum(axis=2) % l, flinalg.identity(k), l)
    one = GroupRingMatrix.identity(G, k).data
    X = np.zeros_like(one)
    X[..., G.identity] = eps_inv
    for _ in range(G.order.bit_length() + 1):
        residual = (one - ga_compose_reference(a, X, G)) % l
        if not residual.any():
            return X
        X = (X + ga_compose_reference(X, residual, G)) % l
    raise AssertionError("Newton's iteration failed to converge")


def expand_reference(A: GroupRingMatrix) -> np.ndarray:
    """`GroupRingMatrix.expand` by a fancy gather and a transposing copy:
    entry ((i, k), (j, s)) is data[i, j, ldiv[s, k]]."""
    o = A.group.order
    return A.data[:, :, A.group.ldiv].transpose(0, 3, 1, 2).reshape(A.rows * o, A.cols * o)


def format_matrix_lines_reference(m: GroupRingMatrix) -> list[str]:
    """The text lines of a group-ring matrix by a `str` and a join per
    coefficient: one line per row, each entry its coefficients in
    brackets."""
    return [" ".join("[" + ",".join(map(str, entry)) + "]" for entry in row)
            for row in m.data.tolist()]


def parse_matrix_reference(cur, G: GroupTable, rows: int, cols: int) -> GroupRingMatrix:
    """A rows x cols text block read entry by entry from a
    `serialize._Cursor`: each row's entry count, then each entry's
    brackets, coefficient count and Python `int`s, assigned one entry at a
    time; a coefficient past int64 is an OverflowError on assignment."""
    data = np.zeros((rows, cols, G.order), dtype=np.int64)
    for i in range(rows):
        toks = cur.next().split()
        lineno = cur.last
        if len(toks) != cols:
            raise ParseError(f"matrix row has {len(toks)} entries, expected {cols}", lineno)
        for j, tok in enumerate(toks):
            if not (tok.startswith("[") and tok.endswith("]")):
                raise ParseError(f"entry {tok!r} is not bracketed", lineno)
            body = tok[1:-1]
            parts = body.split(",") if body else []
            if len(parts) != G.order:
                raise ParseError(
                    f"entry has {len(parts)} coefficients, group order is {G.order}", lineno)
            try:
                entry = [int(p) for p in parts]
            except ValueError:
                raise ParseError(f"non-integer coefficient in {tok!r}", lineno)
            try:
                data[i, j] = entry
            except OverflowError:
                raise ParseError(f"coefficient in {tok!r} does not fit in 64 bits", lineno)
    return GroupRingMatrix(G, data)


def parse_block(cur, G: GroupTable, rows: int, cols: int) -> GroupRingMatrix:
    """One rows x cols text block by the two steps of the file readers:
    `_Blocks.read` takes its rows, each row's entry count checked as it is
    read, and `_Blocks.matrices` converts them.  As in a file, an error in
    an earlier row's entries comes before a later row's count error."""
    blocks = serialize._Blocks(cur, G.order)
    try:
        blocks.read(rows, cols)
    except ParseError:
        blocks.values()
        raise
    return blocks.matrices(G)[0]


def read_complex_reference(text: str, check: bool = True):
    """A complex file read block by block (`parse_matrix_reference`), d o d
    checked once the complex is read unless check is False."""
    cur = serialize._Cursor(text)
    G = _header_reference(cur)
    C = _complex_body_reference(cur, G, check)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}", cur.lineno())
    return C


def _header_reference(cur) -> GroupTable:
    desc = cur.expect("group")
    return build_group(desc, _int_reference(cur.expect("prime"), "prime", cur.last))


def _int_reference(text: str, what: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", lineno)


def _complex_body_reference(cur, G: GroupTable, check: bool) -> ChainComplex:
    bottom = _int_reference(cur.expect("bottom"), "bottom", cur.last)
    rank_line = cur.expect("ranks")
    ranks = [_int_reference(t, "rank", cur.last) for t in rank_line.split()]
    if any(len(str(abs(q))) > 18 for q in (bottom, bottom + max(len(ranks) - 1, 0))):
        raise ParseError("degrees from bottom to top have more than 18 digits", cur.last)
    check_ranks(G, ranks)
    boundaries = {}
    while True:
        line = cur.peek()
        if line is None or not line.startswith("boundary "):
            break
        lineno = cur.lineno()
        cur.next()
        q = _int_reference(line[len("boundary "):], "boundary degree", lineno)
        i = q - bottom
        if not (1 <= i <= len(ranks) - 1):
            raise ParseError(f"boundary degree {q} outside rank range", lineno)
        if i in boundaries:
            raise ParseError(f"repeated block {line!r}", lineno)
        boundaries[i] = parse_matrix_reference(cur, G, ranks[i - 1], ranks[i])
    mats = [boundaries[i] if i in boundaries else GroupRingMatrix.zeros(G, ranks[i - 1], ranks[i])
            for i in range(1, len(ranks))]
    C = ChainComplex(G, bottom, ranks, mats)
    return C.check_d_squared() if check else C


def read_tower_reference(text: str, check: bool = True) -> Tower:
    """A tower file read block by block (`parse_matrix_reference`), each
    level checked for d o d = 0 as it is read and each bond for commuting
    once it is read, unless check is False."""
    cur = serialize._Cursor(text)
    G = _header_reference(cur)
    n_levels = _int_reference(cur.expect("levels"), "level count", cur.last)
    levels = []
    for n in range(n_levels):
        got = _int_reference(cur.expect("level"), "level index", cur.last)
        if got != n:
            raise ParseError(f"expected level {n}, got {got}", cur.last)
        levels.append(_complex_body_reference(cur, G, check))
    bonds = []
    for n in range(n_levels - 1):
        got = _int_reference(cur.expect("bond"), "bond index", cur.last)
        if got != n:
            raise ParseError(f"expected bond {n}, got {got}", cur.last)
        src, tgt = levels[n + 1], levels[n]
        comps = {}
        while True:
            line = cur.peek()
            if line is None or not line.startswith("degree "):
                break
            lineno = cur.lineno()
            cur.next()
            q = _int_reference(line[len("degree "):], "degree", lineno)
            if q in comps:
                raise ParseError(f"repeated block {line!r}", lineno)
            comps[q] = parse_matrix_reference(cur, G, tgt.rank_at(q), src.rank_at(q))
        f = ChainMap(src, tgt, comps)
        bonds.append(f.check_commutes() if check else f)
    if cur.peek() is not None:
        raise ParseError(f"trailing content: {cur.peek()!r}", cur.lineno())
    return Tower(levels, bonds)


def _complex_lines_reference(C: ChainComplex) -> list[str]:
    lines = [f"bottom {C.bottom}", ("ranks " + " ".join(str(r) for r in C.ranks)).rstrip()]
    for i, b in enumerate(C.boundaries):
        if b.rows and b.cols:
            lines.append(f"boundary {C.bottom + i + 1}")
            lines.extend(format_matrix_lines_reference(b))
    return lines


def write_complex_reference(C: ChainComplex) -> str:
    """The text of a complex with each block rendered on its own
    (`format_matrix_lines_reference`) and the lines joined."""
    lines = [f"group {C.group.descriptor}", f"prime {C.group.prime_l}",
             *_complex_lines_reference(C)]
    return "\n".join(lines) + "\n"


def write_tower_reference(T: Tower) -> str:
    """The text of a tower with each block rendered on its own and the
    lines joined; zero bond components are not written."""
    lines = [f"group {T.group.descriptor}", f"prime {T.group.prime_l}",
             f"levels {len(T.levels)}"]
    for n, L in enumerate(T.levels):
        lines.append(f"level {n}")
        lines.extend(_complex_lines_reference(L))
    for n, bond in enumerate(T.bonds):
        lines.append(f"bond {n}")
        for q in sorted(bond.components):
            if not bond.components[q].is_zero():
                lines.append(f"degree {q}")
                lines.extend(format_matrix_lines_reference(bond.components[q]))
    return "\n".join(lines) + "\n"


def from_expanded(group: GroupTable, E, rows: int, cols: int) -> GroupRingMatrix:
    """The group-ring matrix whose expansion is E, which must be
    pi-equivariant (checked by re-expanding)."""
    o = group.order
    E = flinalg.asfield(E, group.prime_l)
    if E.shape != (rows * o, cols * o):
        raise DimensionMismatchError("expanded shape mismatch")
    # entry (i, j) is the column of basis vector (j, identity), block row i
    data = E[:, group.identity::o].reshape(rows, o, cols).transpose(0, 2, 1)
    M = GroupRingMatrix(group, data)
    if not np.array_equal(M.expand(), E):
        raise DimensionMismatchError("matrix is not pi-equivariant")
    return M


def from_expanded_reference(G: GroupTable, E, rows: int, cols: int) -> np.ndarray:
    """The group-ring data of an equivariant expanded matrix, read entry
    by entry: entry (i, j) is block row i of column (j, identity)."""
    o = G.order
    data = np.zeros((rows, cols, o), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            data[i, j] = E[i * o:(i + 1) * o, j * o + G.identity]
    return data


def dense_action(G: GroupTable, dim: int, gens) -> list[np.ndarray]:
    """The per-element action matrices of a module given by its generator
    matrices: a breadth-first walk rho(gs) = rho(g) rho(s) of the right
    Cayley graph."""
    l = G.prime_l
    out = {G.identity: np.eye(dim, dtype=np.int64)}
    queue = [G.identity]
    for g in queue:
        for s, rho in zip(G.generators, gens):
            gs = int(G.ldiv[G.inv[g], s])
            if gs not in out:
                out[gs] = (out[g] @ np.asarray(rho, dtype=np.int64).reshape(dim, dim)) % l
                queue.append(gs)
    return [out[g] for g in range(G.order)]


def module_action(M) -> list[np.ndarray]:
    """rho(g) for every element g of the PiModule M, indexed by g, by
    `dense_action` on its generator matrices."""
    return dense_action(M.group, M.dim, [M.matrix(i) for i in range(len(M.gens))])


# The perfchain-cert-v4 writers, which wrote every array over F_l as
# nested lists of integers; the renderers below give old bytes with them.


def v4_complex_to_json(C: ChainComplex) -> dict:
    return {"group": C.group.descriptor, "prime": C.group.prime_l, "bottom": C.bottom,
            "ranks": list(C.ranks), "boundaries": [b.data.tolist() for b in C.boundaries]}


def v4_module_to_json(M: PiModule) -> dict:
    return {"dim": M.dim, "gens": [M.matrix(i).tolist() for i in range(len(M.gens))]}


def v4_module_complex_to_json(MC) -> dict:
    return {"group": MC.group.descriptor, "prime": MC.group.prime_l, "bottom": MC.bottom,
            "modules": [v4_module_to_json(m) for m in MC.modules],
            "diffs": [d.tolist() for d in MC.diffs]}


def v4_module_map_to_json(f) -> dict:
    G = f.source.group
    return {str(q): m[:, G.identity::G.order].tolist() for q, m in sorted(f.components.items())}


def _v4_array(value: str, l: int, *shape: int) -> list:
    return json_field_array(value, "array", l, *shape).tolist()


def _v4_module_complex(obj: dict) -> dict:
    """A limit's v5 JSON in v4, its modules read back by `module_from_json`."""
    G = build_group(obj["group"], obj["prime"])
    mods = [module_from_json(m, G) for m in obj["modules"]]
    return {**obj, "modules": [v4_module_to_json(M) for M in mods],
            "diffs": [_v4_array(d, G.prime_l, mods[i].dim, mods[i + 1].dim)
                      for i, d in enumerate(obj["diffs"])]}


def _json_rank_at(obj: dict, q: int) -> int:
    i = q - obj["bottom"]
    return obj["ranks"][i] if 0 <= i < len(obj["ranks"]) else 0


def cert_as_v4(cert: dict) -> str:
    """The bytes the perfchain-cert-v4 writer gave for this certificate:
    every array over F_l as nested lists of integers, each v5 string
    decoded in the shape the data around it gives.  A witness map into a
    tower's limit takes its row counts from the limit, recomputed from the
    embedded tower.  Smith-form certificates differ only in the format
    name."""
    inp, out = cert["input"], dict(cert)
    if "limit" in cert:
        out["limit"] = _v4_module_complex(cert["limit"])
    if cert["kind"] in ("perfectness", "quasi-iso"):
        witness = out["witness"] = dict(cert["witness"])
        if "tower" in inp:
            T = serialize.read_tower(inp["tower"])
            G = T.group
        else:
            C = serialize.complex_from_json(inp)
            G = C.group
            out["input"] = v4_complex_to_json(C)
        l = G.prime_l
        if "cover" in witness:
            width = len(str(l - 1))
            n = len(witness["kernel_vector"]) // width
            k = n // G.order
            witness["kernel_vector"] = _v4_array(witness["kernel_vector"], l, n)
            witness["cover"] = _v4_array(witness["cover"], l,
                                         len(witness["cover"]) // (width * k), k)
        else:
            key = "minimal" if cert["kind"] == "quasi-iso" else "replacement"
            R = witness[key]
            witness[key] = v4_complex_to_json(serialize.complex_from_json(R))
            if "tower" in inp:
                lim = decided_limit(T, inp["horizon"])
                free = isinstance(lim, FreeLimit)
                rows_at = lim.complex.rank_at if free else lim.dim_at
            else:
                free, rows_at = True, C.rank_at
            entry = (G.order,) if free else ()
            witness["map"] = {q: _v4_array(m, l, rows_at(int(q)), _json_rank_at(R, int(q)), *entry)
                              for q, m in witness["map"].items()}
    return certificates.dumps({**out, "format": "perfchain-cert-v4"})


def cert_as_v1(cert: dict, G: GroupTable) -> str:
    """The bytes the perfchain-cert-v1 writer gave for this certificate:
    each module {"dim", "gens"} written as {"dim", "action"}, one matrix
    per group element."""
    def v1(obj):
        if isinstance(obj, dict) and set(obj) == {"dim", "gens"}:
            return {"dim": obj["dim"],
                    "action": [a.tolist() for a in dense_action(G, obj["dim"], obj["gens"])]}
        if isinstance(obj, dict):
            return {k: v1(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [v1(v) for v in obj]
        return obj

    return certificates.dumps({**v1(cert), "format": "perfchain-cert-v1"})


def expand_generator_columns(G: GroupTable, module: dict, columns, rank: int) -> list:
    """The full dim x rank|pi| matrix of a map F_l[pi]^rank -> M from its
    generator columns, M given as JSON {"dim", "gens"}: column t*order + g
    is rho(g) times column t, with rho(g) from the Cayley walk of
    `dense_action`."""
    dim, l = module["dim"], G.prime_l
    if dim == 0:
        return []
    V = np.array(columns, dtype=np.int64).reshape(dim, rank)
    action = dense_action(G, dim, module["gens"])
    return (np.stack([A @ V for A in action], axis=2) % l).reshape(dim, -1).tolist()


def cert_as_v2(cert: dict, G: GroupTable | None) -> str:
    """The bytes the perfchain-cert-v2 writer gave for this certificate: a
    tower-perfectness certificate records its limit, recomputed from the
    embedded tower, and the maps out of free modules in it (the witness
    map into the limit, the obstruction's cover) are written by every
    column, expanded by `expand_generator_columns`.  Other certificates
    differ only in the format name."""
    inp = cert.get("input")
    if cert.get("kind") != "perfectness" or "tower" not in inp:
        return certificates.dumps({**cert, "format": "perfchain-cert-v2"})
    limit = v4_module_complex_to_json(
        limit_complex(serialize.read_tower(inp["tower"]), inp["horizon"]))
    witness = dict(cert["witness"])
    if "map" in witness:
        R, mods = witness["replacement"], limit["modules"]
        witness["map"] = {}
        for key, cols in cert["witness"]["map"].items():
            i, j = int(key) - limit["bottom"], int(key) - R["bottom"]
            M = mods[i] if 0 <= i < len(mods) else {"dim": 0}
            rank = R["ranks"][j] if 0 <= j < len(R["ranks"]) else 0
            witness["map"][key] = expand_generator_columns(G, M, cols, rank)
    else:
        P = witness["obstruction"]
        witness["cover"] = expand_generator_columns(
            G, P, witness["cover"], len(witness["kernel_vector"]) // G.order)
    return certificates.dumps({**cert, "limit": limit, "witness": witness,
                               "format": "perfchain-cert-v2"})


def module_from_json(obj: dict, G: GroupTable) -> PiModule:
    """The module of `serialize.module_to_json`.  Its shape and entries are
    checked first (ParseError), a permutation generator also to be one;
    then its action by `check_action`."""
    d, gens = json_field(obj, "dim"), json_field(obj, "gens")
    if type(d) is not int or d < 0:
        raise ParseError("module dim is not an integer >= 0")
    if d > MAX_FREE_DIM:
        raise LimitError(f"module dim {d} exceeds {MAX_FREE_DIM}")
    if not isinstance(gens, list) or len(gens) != len(G.generators) or not all(
            isinstance(g, dict) and len(g) == 1 for g in gens):
        raise ParseError(f"module needs {len(G.generators)} generators")
    mats = []
    for g in gens:
        if "perm" in g:
            rows = json_field_array(g["perm"], "generator permutation", d, d)
            if len(set(rows.tolist())) != d:
                raise ParseError("generator permutation repeats an index")
            mats.append(rows)
        else:
            mats.append(json_field_array(json_field(g, "matrix"), "generator matrix",
                                         G.prime_l, d, d))
    return check_action(PiModule(G, d, mats))


def cert_as_v3(cert: dict) -> str:
    """The bytes the perfchain-cert-v3 writer gave for a certificate given
    in v4 (`cert_as_v4`): a tower-perfectness certificate carries the
    module-route verdict, Wall's replacement and its witness into the
    expanded limit by generator columns, recomputed from the embedded
    tower, and a negative one also the obstruction module.  Other
    certificates differ only in the format name."""
    inp = cert.get("input")
    if cert.get("kind") != "perfectness" or "tower" not in inp:
        return certificates.dumps({**cert, "format": "perfchain-cert-v3"})
    T = serialize.read_tower(inp["tower"])
    verdict = decide_perfect(limit_complex(T, inp["horizon"]))
    if verdict.perfect:
        witness = {"replacement": v4_complex_to_json(verdict.replacement),
                   "map": v4_module_map_to_json(verdict.witness)}
    else:
        witness = {**cert["witness"],
                   "obstruction": v4_module_to_json(verdict.top_obstruction)}
    return certificates.dumps({**cert, "witness": witness, "format": "perfchain-cert-v3"})


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
    the norm element and elements g - 1, so d o d = 0 (checked) and every
    entry has augmentation zero."""
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
    return ChainComplex(G, bottom, ranks, boundaries).check_d_squared()


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
            uinv = ga_inverse(u[None, None], G)[0, 0]
            E = GroupRingMatrix.identity(G, n).data.copy()
            E[i, i] = u
            Einv = GroupRingMatrix.identity(G, n).data.copy()
            Einv[i, i] = uinv
        W = grm_compose(W, GroupRingMatrix(G, E))
        Winv = grm_compose(GroupRingMatrix(G, Einv), Winv)
    return W, Winv


def conjugate_complex(C: ChainComplex, rng) -> ChainComplex:
    """A complex isomorphic to C via random basis changes in every degree,
    checked for d o d = 0."""
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
    return ChainComplex(G, C.bottom, C.ranks, boundaries).check_d_squared()


def random_perfect_instance(G: GroupTable, rng):
    """(complex, core_ranks, core_bottom): a random minimal complex padded
    by identity cones and scrambled by a basis change."""
    core = random_minimal_complex(G, rng)
    padded = pad_with_identity_cones(core, rng, rng.randint(0, 3))
    return conjugate_complex(padded, rng), core


def cone_junk_with_map(core: ChainComplex, rng, q: int | None = None,
                       r: int | None = None):
    """An acyclic junk complex J = cone(identity) of rank r in degrees q and
    q + 1 plus a chain map J -> core, checked to commute; q and r are drawn
    when not given."""
    G = core.group
    q = rng.randint(core.bottom - 1, core.top) if q is None else q
    r = rng.randint(1, 2) if r is None else r
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
    theta = ChainMap(J, core, comps).check_commutes()
    return J, theta


def minimalize_reference(C: ChainComplex):
    """`minimalize` one cancellation at a time: rescan every boundary's
    augmentation for the first unit of the lowest boundary in row-major
    order, invert it, and take the Schur complement on its row and column,
    deleting the matching row and column of the neighbouring boundaries;
    the same column operation acts on the witness of the source degree.
    Returns (complex, witness) as `minimalize` does."""
    G = C.group
    l = G.prime_l
    ranks = list(C.ranks)
    bnds = [b.data for b in C.boundaries]
    wit = [GroupRingMatrix.identity(G, r).data for r in ranks]
    while True:
        pivot = None
        for i, A in enumerate(bnds):
            nz = np.argwhere(A.sum(axis=2) % l != 0)
            if nz.size:
                pivot = (i, int(nz[0][0]), int(nz[0][1]))
                break
        if pivot is None:
            break
        i, p, j = pivot
        A = bnds[i]
        u_inv = ga_inverse(A[p, j][None, None], G)
        rows = [r for r in range(A.shape[0]) if r != p]
        cols = [c for c in range(A.shape[1]) if c != j]
        x = ga_compose(u_inv, A[p, cols][None], G)     # x_m = A[p, m] u^-1
        bnds[i] = (A[np.ix_(rows, cols)] - ga_compose(A[rows, j][:, None], x, G)) % l
        if i + 1 < len(bnds):
            bnds[i + 1] = bnds[i + 1][cols, :, :]
        if i - 1 >= 0:
            bnds[i - 1] = bnds[i - 1][:, rows, :]
        W = wit[i + 1]
        wit[i + 1] = (W[:, cols] - ga_compose(W[:, j][:, None], x, G)) % l
        wit[i] = wit[i][:, rows]
        ranks[i + 1] -= 1
        ranks[i] -= 1
    minimal = ChainComplex(G, C.bottom, ranks, [GroupRingMatrix(G, b) for b in bnds])
    comps = {C.bottom + idx: GroupRingMatrix(G, w) for idx, w in enumerate(wit)
             if minimal.rank_at(C.bottom + idx) and C.rank_at(C.bottom + idx)}
    return minimal, ChainMap(minimal, C, comps)


def expanded_map(f: ChainMap) -> ModuleComplexMap:
    """The ChainMap f as a ModuleComplexMap between the expanded complexes,
    each component its F_l matrix."""
    comps = {q: m.expand() for q, m in f.components.items()}
    return ModuleComplexMap(f.source.expanded(), f.target.expanded(), comps)


def compose_chain_maps(second: ChainMap, first: ChainMap) -> ChainMap:
    """second o first, degree by degree on the group-ring data."""
    if first.target is not second.source and first.target != second.source:
        raise DimensionMismatchError("chain maps do not compose")
    comps = {}
    lo = min(first.source.bottom, second.target.bottom)
    hi = max(first.source.top, second.target.top)
    for q in range(lo, hi + 1):
        m = grm_compose(second.component_at(q), first.component_at(q))
        if m.rows and m.cols and not m.is_zero():
            comps[q] = m
    return ChainMap(first.source, second.target, comps)


def induced_map_on_homology(f, q: int) -> PiModuleMap:
    """H_q(f) for a ChainMap or ModuleComplexMap."""
    if isinstance(f, ChainMap):
        f = expanded_map(f)
    hs = f.source.homology_data(q)
    ht = f.target.homology_data(q)
    l = f.source.group.prime_l
    images = (f.component_at(q) @ hs.reps) % l
    return PiModuleMap(hs.module, ht.module, ht.quotient.project(images))


def homology_image_dims(T: Tower, q: int, h: int) -> list[int]:
    """dim of the image of H_q(level_k) -> H_q(level_0) for k = 0..h,
    computed through induced maps on homology (the oracle for the
    exactness-of-limits property)."""
    l = T.group.prime_l
    dims = []
    composite = identity_chain_map(T.levels[0])
    dims.append(induced_map_on_homology(composite, q).source.dim)
    for k in range(h):
        composite = compose_chain_maps(composite, T.bonds[k])
        dims.append(flinalg.rank(induced_map_on_homology(composite, q).matrix, l))
    return dims


def constant_tower(C: ChainComplex, n_levels: int) -> Tower:
    """n_levels copies of C with identity bonds."""
    return Tower([C] * n_levels, [identity_chain_map(C)] * (n_levels - 1))


def kill_tower(core: ChainComplex, junk: ChainComplex, n_levels: int) -> Tower:
    """Constant levels core (+) junk whose bonds are the identity on the
    core and zero on the junk (checked to commute)."""
    G = core.group
    level = direct_sum(core, junk)
    comps = {}
    for q in range(core.bottom, core.top + 1):
        if core.rank_at(q):
            data = np.zeros((level.rank_at(q), level.rank_at(q), G.order), dtype=np.int64)
            data[:core.rank_at(q), :core.rank_at(q)] = GroupRingMatrix.identity(
                G, core.rank_at(q)).data
            comps[q] = GroupRingMatrix(G, data)
    bond = ChainMap(level, level, comps).check_commutes()
    return Tower([level] * n_levels, [bond] * (n_levels - 1))


def fold_tower(core: ChainComplex, junk: ChainComplex, theta: ChainMap,
               n_levels: int) -> Tower:
    """Constant levels core (+) junk whose bonds are the identity on the
    core and fold the junk into it by the chain map theta: junk -> core
    (checked to commute)."""
    G = core.group
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
    bond = ChainMap(level, level, comps).check_commutes()
    return Tower([level] * n_levels, [bond] * (n_levels - 1))


def random_stabilizing_tower(G: GroupTable, rng, n_levels: int = 5):
    """A tower whose stable images reproduce a core complex: levels are
    core (+) junk, bonds are identity on the core and kill the junk."""
    core = random_minimal_complex(G, rng, max_degrees=3, max_rank=2)
    style = rng.randrange(3)
    if style == 0:
        # junk with homology, killed outright
        junk = random_minimal_complex(G, rng, max_degrees=2, max_rank=2)
        junk = ChainComplex(G, core.bottom, junk.ranks, junk.boundaries).check_d_squared()
        return kill_tower(core, junk, n_levels), core
    if style == 1:
        # contractible junk folded into the core by a chain map
        return fold_tower(core, *cone_junk_with_map(core, rng), n_levels), core
    return constant_tower(core, n_levels), core


def norm_pair_tower(G: GroupTable, n_levels: int = 4):
    """Constant levels core (+) (F_l[pi] --id--> F_l[pi]), the core a
    minimal complex of ranks [1, 1, 1] in degrees 0..2 and the pair in
    degrees 1 and 2; the first bond is the identity on the core and the
    norm on the pair, the rest identities (checked to commute).  The free
    route accepts degree 0 and refuses degree 1, where the image of the
    pair is the trivial line; the limit is the core (+) (F_l --id--> F_l),
    perfect on the module route with the core's ranks.  Returns the tower
    and its core."""
    rng = random.Random(0)
    core = ChainComplex(G, 0, [1, 1, 1], [GroupRingMatrix(G, [[radical_entry(G, rng, p)]])
                                          for p in (1, 0)])
    level = direct_sum(core, ChainComplex(G, 1, [1, 1], [GroupRingMatrix.identity(G, 1)]))
    pair = GroupRingMatrix.identity(G, 2).data.copy()
    pair[1, 1] = 1      # the norm element
    comps = {0: GroupRingMatrix.identity(G, 1), 1: GroupRingMatrix(G, pair),
             2: GroupRingMatrix(G, pair)}
    bonds = [ChainMap(level, level, comps).check_commutes()]
    return Tower([level] * n_levels, bonds + [identity_chain_map(level)] * (n_levels - 2)), core
