"""Finitely generated F_l[pi]-modules as F_l spaces with pi-action.

A module stores the action of each generator in S once, in the form
chosen when it is built: a basis permutation as its row-index array,
applied by a gather, and any other action as its reduced matrix.  Radicals,
orbits and induced actions read only those; no per-element matrix is
kept.  The package's constructions give actions and equivariant maps by
construction, so modules and maps are built with shape checks only; the
Cayley-walk and equivariance checks are test oracles.

Every computation here reduces to exact finite linear algebra.  The
free cover is minimal because F_l[pi] is local: lifts of a basis of
M / rad M generate M (Nakayama).
"""

from __future__ import annotations

import numpy as np

from . import flinalg
from .errors import DimensionMismatchError, GroupMismatchError
from .groups import GroupTable


class PiModule:
    """A finite-dimensional F_l space with a left pi-action.

    `gens[i]` is the action rho of `group.generators[i]` on column
    vectors, stored once: a basis permutation as its row-index array
    `rows`, with rho @ V == V[rows], and any other action as its dim x dim
    matrix, so a 1-D stored array is a permutation and a 2-D one a matrix.
    `gens` gives matrices or row-index arrays, and a matrix that permutes
    the basis is stored as its rows; the package's own builders give rows
    directly.  The arrays are kept as given (made read-only, not copied):
    the caller hands over reduced int64 arrays it no longer writes,
    forming an action.  Only shapes are checked.

    Every product with a generator goes through `act`, and every reader
    that needs a generator's matrix gets it from `matrix`.
    """

    __slots__ = ("group", "dim", "gens")

    def __init__(self, group: GroupTable, dim: int, gens):
        stored = []
        for rho in gens:
            if rho.shape not in ((dim,), (dim, dim)):
                raise DimensionMismatchError("action shape mismatch")
            if rho.ndim == 2 and (rows := _permutation(rho)) is not None:
                rho = rows
            rho.flags.writeable = False
            stored.append(rho)
        if len(stored) != len(group.generators):
            raise DimensionMismatchError("need one action per group generator")
        self.group = group
        self.dim = int(dim)
        self.gens = tuple(stored)

    def act(self, i: int, V) -> np.ndarray:
        """gens[i] @ V mod l, for V reduced mod l; a permutation is a row
        gather."""
        rho = self.gens[i]
        if rho.ndim == 1:
            return V[rho]
        return flinalg.matmul(rho, V, self.group.prime_l)

    def matrix(self, i: int) -> np.ndarray:
        """gens[i] as a dim x dim matrix; a permutation is built into a new
        one."""
        rho = self.gens[i]
        return flinalg.identity(self.dim)[rho] if rho.ndim == 1 else rho

    def __eq__(self, other):
        return (
            isinstance(other, PiModule)
            and self.group == other.group
            and self.dim == other.dim
            and all(np.array_equal(self.matrix(i), other.matrix(i))
                    for i in range(len(self.gens)))
        )

    def __repr__(self):
        return f"PiModule(dim={self.dim} over {self.group.descriptor})"


def _permutation(rho: np.ndarray):
    """rows with rho @ V == V[rows] when rho is a permutation matrix, else
    None."""
    n = rho.shape[0]
    if np.count_nonzero(rho) != n:
        return None
    if not n:
        return np.arange(0)
    rows = rho.argmax(axis=1)
    # n nonzero entries, one equal to 1 in each row, in distinct columns
    if (rho[np.arange(n), rows] == 1).all() and rho.any(axis=0).all():
        return rows
    return None


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
            sg = int(G.ldiv[G.inv[s], g])
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
    """An F_l-linear map between PiModules, equivariant by its caller's
    construction.  The matrix is kept as given (made read-only, not
    copied): the caller hands over a reduced int64 array."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PiModule, target: PiModule, matrix):
        if source.group != target.group:
            raise GroupMismatchError("map between modules over different groups")
        if matrix.shape != (target.dim, source.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} != ({target.dim}, {source.dim})"
            )
        matrix.flags.writeable = False
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self):
        return f"PiModuleMap({self.source.dim} -> {self.target.dim})"


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
    return PiModule(G, k, gens)


def zero_module(G: GroupTable) -> PiModule:
    return trivial_module(G, 0)


def trivial_module(G: GroupTable, dim: int = 1) -> PiModule:
    return PiModule(G, dim, [np.arange(dim)] * len(G.generators))


def regular_module(G: GroupTable, rank: int) -> PiModule:
    """The free module F_l[pi]^rank with its left translation action:
    generator s sends basis vector (i, h) to (i, sh), coordinates
    (i, h) -> i*order + h, so it gathers rows from (i, s^-1 h)."""
    base = np.repeat(np.arange(rank) * G.order, G.order)
    gens = [base + np.tile(G.ldiv[s], rank) for s in G.generators]
    return PiModule(G, rank * G.order, gens)


def direct_sum_modules(*mods: PiModule) -> PiModule:
    """The block-diagonal sum: a generator is a row-index array when it is
    one in every summand, and otherwise one block matrix."""
    if not mods:
        raise DimensionMismatchError("empty direct sum")
    G = mods[0].group
    for m in mods[1:]:
        if m.group != G:
            raise GroupMismatchError("direct sum over different groups")
    offs = np.cumsum([0] + [m.dim for m in mods])
    dim = int(offs[-1])
    gens = []
    for i in range(len(G.generators)):
        if all(m.gens[i].ndim == 1 for m in mods):
            rho = np.concatenate([m.gens[i] + off for m, off in zip(mods, offs)])
        else:
            rho = np.zeros((dim, dim), dtype=np.int64)
            for m, off in zip(mods, offs):
                rho[off:off + m.dim, off:off + m.dim] = m.matrix(i)
        gens.append(rho)
    return PiModule(G, dim, gens)


def _radical_span(M: PiModule) -> np.ndarray:
    """Columns spanning rad * M = span{(g - 1) m}: the blocks rho(s) - 1.

    The generators s suffice, since (gh - 1) m = (g - 1)(h m) + (h - 1) m.
    """
    l = M.group.prime_l
    eye = flinalg.identity(M.dim)
    blocks = [np.zeros((M.dim, 0), dtype=np.int64)]
    blocks += [(M.matrix(i) - eye) % l for i in range(len(M.gens))]
    return np.hstack(blocks)


def minimal_generators(M: PiModule) -> int:
    """Nakayama count: dim of M / rad*M."""
    return M.dim - flinalg.rank(_radical_span(M), M.group.prime_l)


def minimal_generator_lifts(M: PiModule) -> np.ndarray:
    """Columns are module elements whose classes form a basis of M/rad*M,
    chosen by one echelon completion of the span of rad*M against the
    standard basis."""
    l = M.group.prime_l
    return flinalg.complete_basis(_radical_span(M), flinalg.identity(M.dim), l)


def free_cover(M: PiModule) -> PiModuleMap:
    """The minimal surjection F_l[pi]^k -> M, k = minimal_generators(M)."""
    gens = minimal_generator_lifts(M)
    return PiModuleMap(regular_module(M.group, gens.shape[1]), M, orbit_columns(M, gens))
