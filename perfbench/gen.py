"""Seeded input generators for the benchmark, independent of perfchain.

Everything here is plain numpy and Python integers over explicit
multiplication tables, so the inputs do not depend on the code under
test: the same seed writes the same bytes on every commit.  Each job
carries the answer it must produce, known from the way it was built.

Group-ring matrices are int64 arrays of shape (rows, cols, order) in the
perfchain text convention: entry [i, j] is the coefficient of target
basis vector e_i in the image of e_j, and the composite `second o first`
has entries sum_k first[k, j] * second[i, k] (source-side factor on the
left, since module maps are right multiplications).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


# ----------------------------------------------------------------------
# groups


@dataclass
class Group:
    descriptor: str
    prime: int
    mult: np.ndarray       # mult[g, h] = index of g*h
    identity: int = 0
    _onehot: np.ndarray | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.mult.shape[0]

    def onehot(self) -> np.ndarray:
        """P[g, h, t] = 1 iff g*h == t; turns outer products into products."""
        if self._onehot is None:
            o = self.order
            P = np.zeros((o, o, o), dtype=np.int64)
            g, h = np.meshgrid(np.arange(o), np.arange(o), indexing="ij")
            P[g, h, self.mult] = 1
            self._onehot = P
        return self._onehot


def cyclic(n: int, l: int) -> Group:
    idx = np.arange(n)
    return Group(f"cyclic:{n}", l, (idx[:, None] + idx[None, :]) % n)


def cyclic_product(orders, l: int) -> Group:
    """C_{n1} x C_{n2} x ... with perfchain's packing a*|H| + b, folded left."""
    mult = cyclic(orders[0], l).mult
    for n in orders[1:]:
        oh = n
        size = mult.shape[0] * oh
        a = np.arange(size)
        a1, a2 = a // oh, a % oh
        mult = mult[np.ix_(a1, a1)] * oh + cyclic(n, l).mult[np.ix_(a2, a2)]
    desc = "product:" + ",".join(f"cyclic:{n}" for n in orders)
    return Group(desc, l, mult)


def heisenberg27() -> Group:
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    idx = {e: i for i, e in enumerate(elems)}
    mult = np.array([[idx[((a + d) % 3, (b + e) % 3, (c + f + a * e) % 3)]
                      for (d, e, f) in elems] for (a, b, c) in elems], dtype=np.int64)
    rows = "|".join(",".join(str(int(x)) for x in row) for row in mult)
    return Group(f"table:{{order:27;identity:0;mult:{rows}}}", 3, mult)


# ----------------------------------------------------------------------
# group-ring arithmetic


def compose(G: Group, second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Group-ring matrix of `second o first`."""
    T = np.einsum("kjg,ikh->ijgh", first, second)
    return np.tensordot(T, G.onehot(), axes=([2, 3], [0, 1])) % G.prime


def identity(G: Group, n: int) -> np.ndarray:
    data = np.zeros((n, n, G.order), dtype=np.int64)
    data[np.arange(n), np.arange(n), G.identity] = 1
    return data


def element_product(G: Group, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.tensordot(np.outer(a, b), G.onehot(), axes=([0, 1], [0, 1])) % G.prime


def element_inverse(G: Group, a: np.ndarray) -> np.ndarray:
    """Inverse of a unit by the terminating series sum n^k, a = alpha (1 - n)."""
    l = G.prime
    alpha = int(a.sum() % l)
    alpha_inv = pow(alpha, l - 2, l)
    one = np.zeros(G.order, dtype=np.int64)
    one[G.identity] = 1
    n = (one - a * alpha_inv) % l
    acc, term = one.copy(), n.copy()
    while term.any():
        acc = (acc + term) % l
        term = element_product(G, term, n)
    return (acc * alpha_inv) % l


def radical_entry(G: Group, rng: random.Random, parity: int) -> np.ndarray:
    """The norm (parity 0) or g - 1 (parity 1); cross-parity products vanish."""
    out = np.zeros(G.order, dtype=np.int64)
    if parity == 0:
        out[:] = 1
    else:
        out[rng.randrange(1, G.order)] += 1
        out[G.identity] -= 1
    return out % G.prime


# ----------------------------------------------------------------------
# levelwise-free complexes: (bottom, ranks, boundaries)


@dataclass
class Complex:
    bottom: int
    ranks: list
    bnds: list             # bnds[i] : degree bottom+i+1 -> bottom+i

    @property
    def top(self) -> int:
        return self.bottom + len(self.ranks) - 1

    def rank_at(self, q: int) -> int:
        i = q - self.bottom
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def total_rank(self) -> int:
        return sum(self.ranks)

    def euler(self) -> int:
        return sum(-r if (self.bottom + i) % 2 else r for i, r in enumerate(self.ranks))


def minimal_complex(G: Group, rng: random.Random, bottom: int, ranks) -> Complex:
    """Diagonal slots alternate between the norm and g - 1 by degree, so
    d o d = 0 and every entry has augmentation zero.  Every diagonal slot
    is filled, so the homology's shape, and with it the work, is fixed by
    the ranks; the seed picks the elements g."""
    bnds = []
    for i in range(1, len(ranks)):
        data = np.zeros((ranks[i - 1], ranks[i], G.order), dtype=np.int64)
        for s in range(min(ranks[i - 1], ranks[i])):
            data[s, s] = radical_entry(G, rng, (bottom + i) % 2)
        bnds.append(data)
    return Complex(bottom, list(ranks), bnds)


def direct_sum(G: Group, C: Complex, D: Complex) -> Complex:
    bottom, top = min(C.bottom, D.bottom), max(C.top, D.top)
    ranks = [C.rank_at(q) + D.rank_at(q) for q in range(bottom, top + 1)]
    bnds = []
    for q in range(bottom + 1, top + 1):
        data = np.zeros((ranks[q - 1 - bottom], ranks[q - bottom], G.order), dtype=np.int64)
        for X, r0, c0 in ((C, 0, 0), (D, C.rank_at(q - 1), C.rank_at(q))):
            i = q - X.bottom
            if 1 <= i < len(X.ranks):
                b = X.bnds[i - 1]
                data[r0:r0 + b.shape[0], c0:c0 + b.shape[1]] = b
        bnds.append(data)
    return Complex(bottom, ranks, bnds)


def identity_cone(G: Group, q: int, r: int) -> Complex:
    """Cone of the identity on F^r in degree q: F^r --id--> F^r in q+1, q."""
    return Complex(q, [r, r], [identity(G, r)])


def pad_to_rank(G: Group, C: Complex, target: int) -> Complex:
    """Add rank-one identity cones round-robin over the degrees from
    bottom - SPREAD to top + SPREAD - 1 of the core until the total rank is
    `target` (target - rank(C) even).  The placement is fixed, so only the
    entries vary with the seed."""
    lo, hi = C.bottom - SPREAD, C.top + SPREAD - 1
    for k in range((target - C.total_rank()) // 2):
        C = direct_sum(G, C, identity_cone(G, lo + k % (hi - lo + 1), 1))
    return C


def random_unit(G: Group, rng: random.Random) -> np.ndarray:
    out = np.zeros(G.order, dtype=np.int64)
    out[rng.randrange(G.order)] = rng.randrange(1, G.prime)
    if rng.random() < 0.5:
        out = (out + radical_entry(G, rng, rng.randint(0, 1))) % G.prime
    return out


def random_invertible(G: Group, n: int, rng: random.Random, n_ops: int):
    """(W, W^-1) from elementary transvections and unit scalings."""
    W, Winv = identity(G, n), identity(G, n)
    for _ in range(n_ops):
        E, Einv = identity(G, n), identity(G, n)
        if n > 1 and rng.random() < 0.6:
            i, j = rng.sample(range(n), 2)
            a = np.zeros(G.order, dtype=np.int64)
            a[rng.randrange(G.order)] = rng.randrange(1, G.prime)
            E[i, j] = a
            Einv[i, j] = (-a) % G.prime
        else:
            i = rng.randrange(n)
            u = random_unit(G, rng)
            E[i, i] = u
            Einv[i, i] = element_inverse(G, u)
        W = compose(G, W, E)
        Winv = compose(G, Einv, Winv)
    return W, Winv


def conjugate(G: Group, C: Complex, rng: random.Random) -> Complex:
    """An isomorphic complex: a random basis change in every degree."""
    Ws = {q: random_invertible(G, C.rank_at(q), rng, n_ops=4)
          for q in range(C.bottom, C.top + 1)}
    bnds = [compose(G, Ws[q - 1][1], compose(G, C.bnds[q - 1 - C.bottom], Ws[q][0]))
            for q in range(C.bottom + 1, C.top + 1)]
    return Complex(C.bottom, list(C.ranks), bnds)


def lens(l: int, k: int, n: int) -> tuple[Group, Complex]:
    """One orbit per dimension 0..n; boundaries alternate t - 1 and the norm."""
    G = cyclic(l ** k, l)
    t_minus_1 = np.zeros(G.order, dtype=np.int64)
    t_minus_1[1] += 1
    t_minus_1[0] -= 1
    norm = np.ones(G.order, dtype=np.int64)
    bnds = [((t_minus_1 if q % 2 else norm) % l).reshape(1, 1, G.order)
            for q in range(1, n + 1)]
    return G, Complex(0, [1] * (n + 1), bnds)


# ----------------------------------------------------------------------
# text formats read by the perfchain CLI


def _matrix_lines(m: np.ndarray) -> list[str]:
    return [" ".join("[" + ",".join(str(int(c)) for c in m[i, j]) + "]"
                     for j in range(m.shape[1])) for i in range(m.shape[0])]


def _complex_body(C: Complex) -> list[str]:
    lines = [f"bottom {C.bottom}", "ranks " + " ".join(str(r) for r in C.ranks)]
    for i, b in enumerate(C.bnds):
        if b.size and b.any():
            lines.append(f"boundary {C.bottom + i + 1}")
            lines.extend(_matrix_lines(b))
    return lines


def complex_text(G: Group, C: Complex) -> str:
    return "\n".join([f"group {G.descriptor}", f"prime {G.prime}", *_complex_body(C)]) + "\n"


def tower_text(G: Group, levels, bonds) -> str:
    """bonds[n] is a dict degree -> matrix for levels[n+1] -> levels[n]."""
    lines = [f"group {G.descriptor}", f"prime {G.prime}", f"levels {len(levels)}"]
    for n, L in enumerate(levels):
        lines.append(f"level {n}")
        lines.extend(_complex_body(L))
    for n, bond in enumerate(bonds):
        lines.append(f"bond {n}")
        for q in sorted(bond):
            if bond[q].any():
                lines.append(f"degree {q}")
                lines.extend(_matrix_lines(bond[q]))
    return "\n".join(lines) + "\n"


def int_matrix_text(M) -> str:
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M) + "\n"


# ----------------------------------------------------------------------
# towers


def stabilizing_tower(G: Group, rng: random.Random, core: Complex, style: str,
                      junk_ranks, n_levels: int):
    """Constant levels core (+) junk whose bonds fix the core and kill or
    fold away the junk, so the limit is the core's expansion."""
    if style == "kill":
        junk = minimal_complex(G, rng, core.bottom, junk_ranks)
        level = direct_sum(G, core, junk)
        bond = {}
        for q in range(core.bottom, core.top + 1):
            data = np.zeros((level.rank_at(q), level.rank_at(q), G.order), dtype=np.int64)
            data[:core.rank_at(q), :core.rank_at(q)] = identity(G, core.rank_at(q))
            bond[q] = data
    elif style == "fold":
        # junk J = cone(id) in degrees q, q+1 with a chain map theta: J -> core
        q = core.top - 1
        r = junk_ranks[0]
        junk = identity_cone(G, q, r)
        phi = np.zeros((core.rank_at(q + 1), r, G.order), dtype=np.int64)
        for i in range(phi.shape[0]):
            for j in range(r):
                phi[i, j, rng.randrange(G.order)] = rng.randrange(G.prime)
        theta = {q + 1: phi}
        if core.rank_at(q) and core.rank_at(q + 1):
            theta[q] = compose(G, core.bnds[q + 1 - core.bottom - 1], phi)
        level = direct_sum(G, core, junk)
        bond = {}
        for d in range(level.bottom, level.top + 1):
            rc, rj = core.rank_at(d), junk.rank_at(d)
            data = np.zeros((rc + rj, rc + rj, G.order), dtype=np.int64)
            data[:rc, :rc] = identity(G, rc)
            if rc and rj and d in theta:
                data[:rc, rc:] = theta[d]
            bond[d] = data
    else:
        raise ValueError(f"unknown tower style {style!r}")
    return [level] * n_levels, [bond] * (n_levels - 1)


def norm_tower(G: Group, r: int, n_levels: int):
    """F^r in degree 0; the first bond is the norm, the rest identities, so
    the limit is the trivial module of dimension r (not free)."""
    L = Complex(0, [r], [])
    N = np.zeros((r, r, G.order), dtype=np.int64)
    N[np.arange(r), np.arange(r), :] = 1
    return [L] * n_levels, [{0: N}] + [{0: identity(G, r)}] * (n_levels - 2)


# ----------------------------------------------------------------------
# integer side


def bareiss_det(M) -> int:
    A = [list(map(int, row)) for row in M]
    n = len(A)
    sign, prev = 1, 1
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
    return sign * A[n - 1][n - 1] if n else 1


def rational_rank(M) -> int:
    rows = [[Fraction(x) for x in row] for row in M]
    rank, cols = 0, len(M[0]) if M else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_unimodular(n: int, rng: random.Random, n_ops: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n_ops):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-2, -1, 1, 2])
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    return U


def int_mat_mul(A, B) -> list[list[int]]:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def l_part(d: int, l: int) -> int:
    out = 1
    while d % l == 0:
        d //= l
        out *= l
    return out


def planted_presentation(rng: random.Random, l: int, free_rank: int, n_torsion: int):
    """A scrambled presentation of Z^free (+) Z/t_1 (+) ... with each t_i an
    l-power times a cofactor prime to l; returns (matrix, rank, l-torsion)."""
    others = [p for p in (2, 3, 5, 7) if p != l]
    torsion = []
    for _ in range(n_torsion):
        t = l ** rng.randint(0, 3) * rng.choice(others) ** rng.randint(0, 1)
        torsion.append(max(t, l))
    n = free_rank + n_torsion
    D = [[0] * n_torsion for _ in range(n)]
    for k, t in enumerate(torsion):
        D[free_rank + k][k] = t
    U = random_unimodular(n, rng, 2 * n)
    V = random_unimodular(n_torsion, rng, 2 * n_torsion)
    M = int_mat_mul(int_mat_mul(U, D), V)
    expected = sorted((l_part(t, l) for t in torsion if l_part(t, l) > 1), reverse=True)
    return M, free_rank, expected


def random_ses(rng: random.Random) -> dict:
    """0 -> A -> B -> C -> 0 from a block-triangular presentation of B."""
    na, nc, ra = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)
    RA = [[rng.randint(-6, 6) for _ in range(ra)] for _ in range(na)]
    while True:
        mc = rng.randint(0, nc)
        RC = [[rng.randint(-6, 6) for _ in range(mc)] for _ in range(nc)]
        if mc == 0 or rational_rank(RC) == mc:
            break
    X = [[rng.randint(-6, 6) for _ in range(mc)] for _ in range(na)]
    RB = [RA[i] + X[i] for i in range(na)] + [[0] * ra + RC[i] for i in range(nc)]
    f = [[int(i == j) for j in range(na)] for i in range(na + nc)]
    g = [[int(j == na + i) for j in range(na + nc)] for i in range(nc)]
    return {"A": [na, RA], "B": [na + nc, RB], "C": [nc, RC], "f": f, "g": g}


# ----------------------------------------------------------------------
# workloads


HORIZON = 3
TOWER_LEVELS = 4
SPREAD = 3          # identity cones spread over 2 * SPREAD degrees around the core

# Heis27 jobs: (core bottom, core ranks, total rank after padding)
FREE_SHAPES = [(0, [1, 2], 25), (0, [2, 1, 1], 40), (-1, [1, 2, 1], 60), (0, [3, 1], 90)]
LENSES = [(2, 6, 4), (3, 4, 3)]
# order-64 towers: (core bottom, core ranks, style, junk ranks); level rank 2-5
TOWER_SHAPES = [(0, [1], "kill", [1]), (0, [1], "fold", [2]), (-1, [1, 1], "fold", [1])]
NORM_RANKS = [1, 2, 3]
SNF_SIZES = [24, 32, 40, 48]
SNF_PER_SIZE = 3
COMPLETE_PRIMES = [2, 3, 5]
EXACTNESS_BATCHES = 4
EXACTNESS_BATCH = 75


@dataclass
class Job:
    """One unit with a verified answer: a solve command and a verify step.

    `files` maps a file name to its text; `solve` holds CLI argument lists
    with file names relative to the work directory; `expect` is the
    answer the job must produce.
    """

    name: str
    kind: str
    files: dict
    solve: list
    expect: dict
    verify: bool = True


def _free_jobs(seed: int) -> list[Job]:
    G = heisenberg27()
    rng = random.Random(f"free_complexes:{seed}")
    jobs = []
    for k, (bottom, ranks, target) in enumerate(FREE_SHAPES):
        core = minimal_complex(G, rng, bottom, ranks)
        C = conjugate(G, pad_to_rank(G, core, target), rng)
        name = f"heis27_r{target}_{k}"
        jobs.append(Job(name, "perfect", {f"{name}.txt": complex_text(G, C)},
                        [["perfect", f"{name}.txt", "--cert", f"{name}.cert"]],
                        {"exit": 0, "perfect": True, "euler_class": core.euler(),
                         "ranks": list(core.ranks)}))
    for l, k, n in LENSES:
        G, C = lens(l, k, n)
        name = f"lens_{l}_{k}_{n}"
        jobs.append(Job(name, "perfect", {f"{name}.txt": complex_text(G, C)},
                        [["perfect", f"{name}.txt", "--cert", f"{name}.cert"]],
                        {"exit": 0, "perfect": True, "euler_class": C.euler(),
                         "ranks": list(C.ranks)}))
    return jobs


def _tower_jobs(seed: int) -> list[Job]:
    G = cyclic_product([4, 4, 4], 2)
    rng = random.Random(f"tower_order64:{seed}")
    jobs = []
    for k, (bottom, ranks, style, junk) in enumerate(TOWER_SHAPES):
        core = minimal_complex(G, rng, bottom, ranks)
        levels, bonds = stabilizing_tower(G, rng, core, style, junk, TOWER_LEVELS)
        name = f"tower_{style}_r{levels[0].total_rank()}_{k}"
        jobs.append(Job(name, "tower-perfect", {f"{name}.txt": tower_text(G, levels, bonds)},
                        [["tower-perfect", f"{name}.txt", "--horizon", str(HORIZON),
                          "--cert", f"{name}.cert"]],
                        {"exit": 0, "perfect": True, "euler_class": core.euler(),
                         "ranks": list(core.ranks)}))
    for r in NORM_RANKS:
        levels, bonds = norm_tower(G, r, TOWER_LEVELS)
        name = f"norm_tower_r{r}"
        jobs.append(Job(name, "tower-perfect", {f"{name}.txt": tower_text(G, levels, bonds)},
                        [["tower-perfect", f"{name}.txt", "--horizon", str(HORIZON),
                          "--cert", f"{name}.cert"]],
                        {"exit": 1, "perfect": False, "obstruction_dim": r,
                         "minimal_generators": r}))
    return jobs


def _integer_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"integer_snf:{seed}")
    jobs = []
    for n in SNF_SIZES * SNF_PER_SIZE:
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        name = f"snf_{n}_{len(jobs)}"
        jobs.append(Job(name, "snf", {f"{name}.txt": int_matrix_text(M)},
                        [["snf", f"{name}.txt", "--cert", f"{name}.cert"]],
                        {"exit": 0, "abs_det": str(abs(bareiss_det(M)))}))
    for l in COMPLETE_PRIMES:
        M, rank, torsion = planted_presentation(rng, l, rng.randint(0, 2), 8)
        name = f"complete_l{l}"
        jobs.append(Job(name, "complete", {f"{name}.txt": int_matrix_text(M)},
                        [["complete", "--presentation", f"{name}.txt", "--l", str(l),
                          "--cert", f"{name}.cert"]],
                        {"exit": 0, "rank": rank, "torsion": torsion}))
    for b in range(EXACTNESS_BATCHES):
        seqs = [dict(random_ses(rng), l=(2, 3, 5)[i % 3]) for i in range(EXACTNESS_BATCH)]
        name = f"exactness_{b}"
        jobs.append(Job(name, "exactness", {f"{name}.json": json.dumps(seqs) + "\n"},
                        [], {"exact": [True] * len(seqs)}, verify=False))
    return jobs


WORKLOADS = {
    "free_complexes": (_free_jobs, [(heisenberg27, ()), (cyclic, (64, 2)), (cyclic, (81, 3))]),
    "tower_order64": (_tower_jobs, [(cyclic_product, ([4, 4, 4], 2))]),
    "integer_snf": (_integer_jobs, []),
}


def build(workload: str, seed: int) -> tuple[list[Job], list[tuple[str, int]]]:
    """The job set of a workload and the (descriptor, prime) of its groups."""
    make_jobs, group_makers = WORKLOADS[workload]
    groups = [maker(*args) for maker, args in group_makers]
    return make_jobs(seed), [(G.descriptor, G.prime) for G in groups]
