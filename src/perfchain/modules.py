"""Finitely generated F_l[pi]-modules as F_l spaces with pi-action.

A module stores one action matrix per generator in S, and the checks,
radicals and induced actions read only those; per-element matrices are
built from them by a Cayley-graph walk when first read.

Every predicate here reduces to exact finite linear algebra.  The freeness
test uses the minimal-cover criterion, valid because F_l[pi] is local:
a module is free iff the cover by lifted minimal generators has zero
kernel.
"""

from __future__ import annotations

import numpy as np

from . import flinalg
from .errors import DimensionMismatchError, GroupMismatchError
from .groups import GroupTable


class PiModule:
    """A finite-dimensional F_l space with a left pi-action.

    `gens[i]` is the matrix of `group.generators[i]` on column vectors.
    Give either `action`, one matrix per group element (kept as given), or
    `gens`.  `action` is the read-only per-element list, built from `gens`
    when first read and cached; the package reads it only to validate, and
    everything else works from `gens`.  With `gens` and validate=False the
    matrices are kept as given (made read-only, not copied): the caller
    hands over reduced int64 arrays it no longer writes.

    Validation checks action(e) == 1 and action(g) @ action(s) == action(gs)
    for g in pi and s in the group's generators, which gives the same for
    every pair of elements (and so forces invertibility).

    Every product with a generator goes through `act`, which applies a
    permutation matrix (regular modules, their direct sums, identity
    actions) by index; which generators are permutations is found when
    `act` is first called.
    """

    __slots__ = ("group", "dim", "gens", "_action", "_perms")

    def __init__(self, group: GroupTable, dim: int, action=None, validate: bool = True, *,
                 gens=None):
        l = group.prime_l
        if action is None and not validate:
            mats = list(gens)
        else:
            mats = [flinalg.asfield(a, l) for a in (gens if action is None else action)]
        if len(mats) != (len(group.generators) if action is None else group.order):
            raise DimensionMismatchError("need one action matrix per group element")
        for a in mats:
            if a.shape != (dim, dim):
                raise DimensionMismatchError("action matrix shape mismatch")
            a.flags.writeable = False
        self.group = group
        self.dim = int(dim)
        self._action = None if action is None else mats
        self._perms = None
        self.gens = tuple(mats) if action is None else tuple(mats[s] for s in group.generators)
        if validate:
            action = self.action  # built from gens when not given
            if not np.array_equal(action[group.identity], flinalg.identity(dim, l)):
                raise DimensionMismatchError("identity must act as the identity matrix")
            # By induction on the word length of h = h's (s in S), the check gives
            # rho(g) rho(h) = rho(g) rho(h') rho(s) = rho(gh') rho(s) = rho(gh).
            stacked = np.stack(action)
            for i, s in enumerate(group.generators):
                if not np.array_equal(self.act(i, stacked, right=True),
                                      stacked[group.mult[:, s]]):
                    raise DimensionMismatchError("action is not a homomorphism")

    @property
    def action(self) -> list[np.ndarray]:
        if self._action is None:
            self._action = orbit(self, flinalg.identity(self.dim, self.group.prime_l))
            for a in self._action:
                a.flags.writeable = False
        return self._action

    def act(self, i: int, V, right: bool = False) -> np.ndarray:
        """gens[i] @ V, or V @ gens[i] with right=True, mod l, for V reduced
        mod l (a matrix, or on the right a stack of matrices).  A
        permutation generator is a row gather on the left and a column
        gather on the right."""
        if self._perms is None:
            self._perms = [_permutation(rho) for rho in self.gens]
        perm = self._perms[i]
        if perm is None:
            rho = self.gens[i]
            l = self.group.prime_l
            return flinalg.matmul(V, rho, l) if right else flinalg.matmul(rho, V, l)
        rows, cols = perm
        return V[..., cols] if right else V[rows]

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, PiModule)
            and self.group == other.group
            and self.dim == other.dim
            and all(np.array_equal(a, b) for a, b in zip(self.gens, other.gens))
        )

    def __repr__(self):
        return f"PiModule(dim={self.dim} over {self.group.descriptor})"


def _permutation(rho: np.ndarray):
    """(rows, cols) with rho @ V == V[rows] and V @ rho == V[:, cols] when
    rho is a permutation matrix, else None."""
    n = rho.shape[0]
    if np.count_nonzero(rho) != n:
        return None
    if not n:
        return np.arange(0), np.arange(0)
    rows = rho.argmax(axis=1)
    # n nonzero entries, one equal to 1 in each row, in distinct columns
    if not (rho[np.arange(n), rows] == 1).all():
        return None
    cols = np.full(n, -1)
    cols[rows] = np.arange(n)
    if (cols < 0).any():
        return None
    return rows, cols


def orbit(M: PiModule, V) -> list[np.ndarray]:
    """rho(g) V for every group element g, indexed by g, for V reduced
    mod l: a breadth-first walk of the left Cayley graph,
    rho(sg) V = rho(s) (rho(g) V)."""
    G = M.group
    out = [None] * G.order
    out[G.identity] = V
    queue = [G.identity]
    for g in queue:
        for i, s in enumerate(G.generators):
            sg = int(G.mult[s, g])
            if out[sg] is None:
                out[sg] = M.act(i, out[g])
                queue.append(sg)
    return out


def orbit_columns(M: PiModule, V) -> np.ndarray:
    """The orbit of the columns of V as one matrix: column t*order + g is
    rho(g) V[:, t], the image of basis vector (t, g) of F_l[pi]^k."""
    k = np.shape(V)[1]
    return np.stack(orbit(M, V), axis=2).reshape(M.dim, k * M.group.order)


class PiModuleMap:
    """An equivariant F_l-linear map between PiModules.  With
    validate=False the matrix is kept as given (made read-only, not
    copied): the caller hands over a reduced int64 array."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PiModule, target: PiModule, matrix, validate: bool = True):
        if source.group != target.group:
            raise GroupMismatchError("map between modules over different groups")
        if validate:
            matrix = flinalg.asfield(matrix, source.group.prime_l)
        if matrix.shape != (target.dim, source.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} != ({target.dim}, {source.dim})"
            )
        matrix.flags.writeable = False
        if validate and not is_equivariant(source, target, matrix):
            raise DimensionMismatchError("matrix does not commute with the action")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self):
        return f"PiModuleMap({self.source.dim} -> {self.target.dim})"


def is_equivariant(source: PiModule, target: PiModule, matrix) -> bool:
    """Does matrix: source -> target commute with the action?

    Checked on the generators only: commuting with rho(g) and rho(h)
    means commuting with rho(g) rho(h) = rho(gh).
    """
    return all(np.array_equal(target.act(i, matrix), source.act(i, matrix, right=True))
               for i in range(len(source.gens)))


def induced_action(M: PiModule, V, solve) -> PiModule:
    """The action of M on an invariant subspace or subquotient with basis
    the columns of V; `solve(B)` gives the unique coordinates of the
    columns of B, or None when some column has none.

    One solve over the generator blocks gives the whole action.
    """
    G = M.group
    k = V.shape[1]
    if k == 0 or not M.gens:
        return trivial_module(G, k)
    X = solve(np.hstack([M.act(i, V) for i in range(len(M.gens))]))
    if X is None:
        raise AssertionError("subspace is not action-invariant")
    # copied out, so the module does not keep the solver's work array alive
    gens = [block.copy() for block in np.hsplit(X, len(M.gens))]
    return PiModule(G, k, gens=gens, validate=False)


def zero_module(G: GroupTable) -> PiModule:
    return trivial_module(G, 0)


def trivial_module(G: GroupTable, dim: int = 1) -> PiModule:
    eye = flinalg.identity(dim, G.prime_l)
    return PiModule(G, dim, gens=[eye] * len(G.generators), validate=False)


def regular_module(G: GroupTable, rank: int) -> PiModule:
    """The free module F_l[pi]^rank with its left translation action:
    generator s sends basis vector (i, h) to (i, sh), coordinates
    (i, h) -> i*order + h."""
    n = rank * G.order
    cols = np.arange(n)
    h = cols % G.order
    gens = []
    for s in G.generators:
        rho = np.zeros((n, n), dtype=np.int64)
        rho[cols - h + G.mult[s, h], cols] = 1
        gens.append(rho)
    return PiModule(G, n, gens=gens, validate=False)


def direct_sum_modules(*mods: PiModule) -> PiModule:
    if not mods:
        raise DimensionMismatchError("empty direct sum")
    G = mods[0].group
    for m in mods[1:]:
        if m.group != G:
            raise GroupMismatchError("direct sum over different groups")
    dim = sum(m.dim for m in mods)
    gens = [np.zeros((dim, dim), dtype=np.int64) for _ in G.generators]
    off = 0
    for m in mods:
        for big, rho in zip(gens, m.gens):
            big[off:off + m.dim, off:off + m.dim] = rho
        off += m.dim
    return PiModule(G, dim, gens=gens, validate=False)


def _radical_span(M: PiModule) -> np.ndarray:
    """Columns spanning rad * M = span{(g - 1) m}: the blocks rho(s) - 1.

    The generators s suffice, since (gh - 1) m = (g - 1)(h m) + (h - 1) m.
    """
    l = M.group.prime_l
    eye = flinalg.identity(M.dim, l)
    blocks = [np.zeros((M.dim, 0), dtype=np.int64)]
    blocks += [(rho - eye) % l for rho in M.gens]
    return np.hstack(blocks)


def minimal_generators(M: PiModule) -> int:
    """Nakayama count: dim of M / rad*M."""
    return M.dim - flinalg.rank(_radical_span(M), M.group.prime_l)


def minimal_generator_lifts(M: PiModule) -> np.ndarray:
    """Columns are module elements whose classes form a basis of M/rad*M,
    chosen by one echelon completion of the span of rad*M against the
    standard basis."""
    l = M.group.prime_l
    return flinalg.complete_basis(_radical_span(M), flinalg.identity(M.dim, l), l)


def free_cover(M: PiModule) -> PiModuleMap:
    """The minimal surjection F_l[pi]^k -> M, k = minimal_generators(M)."""
    gens = minimal_generator_lifts(M)
    return PiModuleMap(regular_module(M.group, gens.shape[1]), M, orbit_columns(M, gens),
                       validate=False)


def kernel_of_map(f: PiModuleMap) -> tuple[PiModule, PiModuleMap]:
    """Kernel with its inclusion; the pi-action restricts exactly."""
    l = f.source.group.prime_l
    K = flinalg.kernel_basis(f.matrix, l)
    ker = induced_action(f.source, K, lambda B: flinalg.solve_matrix(K, B, l))
    incl = PiModuleMap(ker, f.source, K, validate=False)
    return ker, incl


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
    return flinalg.column_space_basis(np.hstack(orbit(M, V)), l)


def quotient_module(M: PiModule, sub_basis) -> tuple[PiModule, PiModuleMap]:
    """Quotient of M by an action-invariant subspace, with the projection."""
    G = M.group
    l = G.prime_l
    W = flinalg.asfield(sub_basis, l)
    if W.size:
        # col(W) lies in col([W img]), so the spans are equal iff the ranks are
        r = flinalg.rank(W, l)
        for i in range(len(M.gens)):
            if flinalg.rank(np.hstack([W, M.act(i, W)]), l) != r:
                raise DimensionMismatchError("subspace is not action-invariant")
    quo = flinalg.QuotientSpace(flinalg.identity(M.dim, l), W, l)
    Q = induced_action(M, quo.reps, quo.project)
    proj = PiModuleMap(M, Q, quo.project(flinalg.identity(M.dim, l)), validate=False)
    return Q, proj
