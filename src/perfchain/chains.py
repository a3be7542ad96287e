"""Bounded chain complexes over F_l[pi].

Two representations cooperate here:

* `ChainComplex` -- levelwise finitely generated free, with boundary data
  as group-ring matrices.  This is the input type and the shape of every
  replacement the package constructs.
* `ModuleComplex` -- the expanded view: one PiModule per degree and plain
  F_l matrices as differentials.  Homology modules and cycle data are
  computed here; it is also the home of tower limits, which need not be
  levelwise free.

Both kinds share, through `GradedComplex`, homology dimensions and
acyclicity read from the ranks of the F_l differentials (`diff_at`), so a
free complex answers them from its expanded boundaries without building
a module.  They also share one d o d check, one chain-map check (on F_l
matrices) and one cone formula.  Free maps are equivariant by
construction, so their checks read the basis columns only; module maps
are checked for equivariance and then on every column.

Degrees are homological (d lowers degree) with an explicit bottom degree;
negative degrees are fine.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import flinalg
from .errors import (
    BoundarySquareNonzeroError,
    DimensionMismatchError,
    GroupMismatchError,
    LimitError,
)
from .groups import (
    MAX_FREE_DIM,
    GroupRingElement,
    GroupRingMatrix,
    GroupTable,
    ga_compose,
    ga_inverse,
    grm_compose,
)
from .modules import (
    PiModule,
    PiModuleMap,
    direct_sum_modules,
    induced_action,
    is_equivariant,
    regular_module,
    zero_module,
)


class GradedComplex:
    """Homology dimensions from ranks alone, for a complex with `group`,
    `bottom`, `top`, `dim_at(q)` and `diff_at(q)` over F_l and a
    `_diff_ranks` cache."""

    def _diff_rank(self, q: int) -> int:
        """Rank of d_q over F_l, computed once per degree (0 outside)."""
        if not self.bottom < q <= self.top:
            return 0
        if q not in self._diff_ranks:
            self._diff_ranks[q] = flinalg.rank(self.diff_at(q), self.group.prime_l)
        return self._diff_ranks[q]

    def homology_dim(self, q: int) -> int:
        return self.dim_at(q) - self._diff_rank(q) - self._diff_rank(q + 1)

    def homology_support(self) -> list[int]:
        return [q for q in range(self.bottom, self.top + 1) if self.homology_dim(q) > 0]

    def is_acyclic(self) -> bool:
        return not self.homology_support()


class ModuleComplex(GradedComplex):
    """A bounded complex of PiModules with exact F_l differentials.

    `diffs[i]` maps the module at index i+1 to the module at index i.
    """

    def __init__(self, group: GroupTable, bottom: int, mods, diffs, validate: bool = True):
        l = group.prime_l
        mods = list(mods)
        diffs = [flinalg.asfield(d, l) for d in diffs]
        if len(diffs) != max(len(mods) - 1, 0):
            raise DimensionMismatchError("need one differential per adjacent pair")
        for i, d in enumerate(diffs):
            if d.shape != (mods[i].dim, mods[i + 1].dim):
                raise DimensionMismatchError(f"differential {i} has shape {d.shape}")
            d.flags.writeable = False
        self.group = group
        self.bottom = bottom
        self.modules = mods
        self.diffs = diffs
        self._homology_cache: dict[int, HomologyData] = {}
        self._diff_ranks: dict[int, int] = {}
        if validate:
            for i, d in enumerate(diffs):
                if not is_equivariant(mods[i + 1], mods[i], d):
                    raise DimensionMismatchError("differential is not equivariant")
            _check_d_squared(self, slice(None))

    @property
    def top(self) -> int:
        return self.bottom + len(self.modules) - 1

    def module_at(self, q: int) -> PiModule:
        i = q - self.bottom
        if 0 <= i < len(self.modules):
            return self.modules[i]
        return zero_module(self.group)

    def dim_at(self, q: int) -> int:
        return self.module_at(q).dim

    def diff_at(self, q: int) -> np.ndarray:
        """Matrix of d_q : C_q -> C_{q-1} (a zero-shaped matrix outside)."""
        i = q - self.bottom
        if 1 <= i < len(self.modules):
            return self.diffs[i - 1]
        return np.zeros((self.dim_at(q - 1), self.dim_at(q)), dtype=np.int64)

    def homology_data(self, q: int) -> "HomologyData":
        if q not in self._homology_cache:
            self._homology_cache[q] = _homology_data(self, q)
        return self._homology_cache[q]

    def homology(self, q: int) -> PiModule:
        return self.homology_data(q).module


def _check_d_squared(C, cols) -> None:
    """d_{q-1} o d_q = 0 in every degree, compared on the columns `cols`."""
    l = C.group.prime_l
    for q in range(C.bottom + 2, C.top + 1):
        if ((C.diff_at(q - 1) @ C.diff_at(q)[:, cols]) % l).any():
            raise BoundarySquareNonzeroError(f"d_{q - 1} o d_{q} != 0")


def _degrees(*parts) -> range:
    """Degrees C.bottom + lo .. C.top + hi, lowest to highest, over the parts
    (C, lo, hi) with C nonempty (an empty complex's bottom is nominal)."""
    spans = [(C.bottom + lo, C.top + hi) for C, lo, hi in parts if C.top >= C.bottom]
    bottoms, tops = zip(*spans) if spans else ((0,), (-1,))
    return range(min(bottoms), max(tops) + 1)


def _check_commutes(f, component_at, cols) -> None:
    """d f_q = f_{q-1} d in every degree, compared on the columns `cols`;
    `component_at(q)` is f_q over F_l."""
    S, T = f.source, f.target
    l = S.group.prime_l
    for q in _degrees((S, 0, 1), (T, 0, 1)):
        lhs = (T.diff_at(q) @ component_at(q)[:, cols]) % l
        rhs = (component_at(q - 1) @ S.diff_at(q)[:, cols]) % l
        if not np.array_equal(lhs, rhs):
            raise DimensionMismatchError(f"map does not commute with d at degree {q}")


def _cone_block(d_source, f, d_target, l: int) -> np.ndarray:
    """The cone differential [[-d_S, 0], [f, d_T]] from blocks whose first
    two axes are rows and columns (F_l matrices or group-ring data)."""
    s0, s1 = d_source.shape[:2]
    t0, t1 = d_target.shape[:2]
    block = np.zeros((s0 + t0, s1 + t1, *d_target.shape[2:]), dtype=np.int64)
    block[:s0, :s1] = (-d_source) % l
    block[s0:, :s1] = f
    block[s0:, s1:] = d_target
    return block


class HomologyData(NamedTuple):
    """H_q with cycle representatives and the projection to classes."""

    module: PiModule
    reps: np.ndarray            # dim_q x h, columns are representative cycles
    quotient: flinalg.QuotientSpace

    def chain_of_class(self, coords) -> np.ndarray:
        return (self.reps @ np.asarray(coords, dtype=np.int64)) % self.module.group.prime_l

    def class_of_cycle(self, chain) -> np.ndarray:
        return self.quotient.project(chain)


def _homology_data(C: ModuleComplex, q: int) -> HomologyData:
    G = C.group
    l = G.prime_l
    M = C.module_at(q)
    if M.dim == 0:
        return HomologyData(zero_module(G), np.zeros((0, 0), dtype=np.int64),
                            flinalg.QuotientSpace(np.zeros((0, 0), dtype=np.int64),
                                                  np.zeros((0, 0), dtype=np.int64), l))
    K = flinalg.kernel_basis(C.diff_at(q), l)
    Im = flinalg.column_space_basis(C.diff_at(q + 1), l)
    quo = flinalg.QuotientSpace(K, Im, l)
    return HomologyData(induced_action(M, quo.reps, quo.project), quo.reps, quo)


class ModuleComplexMap:
    """A degreewise equivariant chain map between module complexes."""

    def __init__(self, source: ModuleComplex, target: ModuleComplex, components,
                 validate: bool = True):
        if source.group != target.group:
            raise GroupMismatchError("chain map between different groups")
        l = source.group.prime_l
        comps = {}
        for q, m in components.items():
            m = flinalg.asfield(m, l)
            if m.shape != (target.dim_at(q), source.dim_at(q)):
                raise DimensionMismatchError(f"component at degree {q} has shape {m.shape}")
            m.flags.writeable = False
            comps[q] = m
        self.source = source
        self.target = target
        self.components = comps
        if validate:
            self._validate()

    def component_at(self, q: int) -> np.ndarray:
        if q in self.components:
            return self.components[q]
        return np.zeros((self.target.dim_at(q), self.source.dim_at(q)), dtype=np.int64)

    def _validate(self):
        for q, m in self.components.items():
            if not is_equivariant(self.source.module_at(q), self.target.module_at(q), m):
                raise DimensionMismatchError("map component not equivariant")
        _check_commutes(self, self.component_at, slice(None))


def module_mapping_cone(f: ModuleComplexMap) -> ModuleComplex:
    """Cone with degree-q piece source_{q-1} (+) target_q."""
    S, T = f.source, f.target
    G = S.group
    degrees = _degrees((S, 1, 1), (T, 0, 0))
    mods = [direct_sum_modules(S.module_at(q - 1), T.module_at(q)) for q in degrees]
    diffs = [_cone_block(S.diff_at(q - 1), f.component_at(q - 1), T.diff_at(q), G.prime_l)
             for q in degrees[1:]]
    return ModuleComplex(G, degrees.start, mods, diffs, validate=False)


# ----------------------------------------------------------------------
# levelwise-free complexes over the group ring


class ChainComplex(GradedComplex):
    """Bounded complex of free modules F_l[pi]^rank with group-ring
    boundary matrices; d o d = 0 is validated at construction.

    Leading and trailing zero ranks are trimmed, so equal complexes
    compare equal regardless of padding.
    """

    def __init__(self, group: GroupTable, bottom: int, ranks, boundaries):
        ranks = [int(r) for r in ranks]
        boundaries = list(boundaries)
        if any(r < 0 for r in ranks):
            raise DimensionMismatchError("negative rank")
        if any(r * group.order > MAX_FREE_DIM for r in ranks):
            raise LimitError(f"a rank times the group order exceeds {MAX_FREE_DIM}")
        if len(boundaries) != max(len(ranks) - 1, 0):
            raise DimensionMismatchError("need one boundary matrix per adjacent pair")
        for i, b in enumerate(boundaries):
            if b.group != group:
                raise GroupMismatchError("boundary over wrong group")
            if (b.rows, b.cols) != (ranks[i], ranks[i + 1]):
                raise DimensionMismatchError(
                    f"boundary {i} is {b.rows}x{b.cols}, expected {ranks[i]}x{ranks[i+1]}"
                )
        # normalize: strip zero ranks at both ends
        while ranks and ranks[0] == 0:
            ranks.pop(0)
            if boundaries:
                boundaries.pop(0)
            bottom += 1
        while ranks and ranks[-1] == 0:
            ranks.pop()
            if boundaries:
                boundaries.pop()
        if not ranks:
            bottom = 0
        self.group = group
        self.bottom = bottom
        self.ranks = ranks
        self.boundaries = boundaries
        self._expanded = None
        self._diff_ranks: dict[int, int] = {}
        _check_d_squared(self, slice(group.identity, None, group.order))

    @property
    def top(self) -> int:
        return self.bottom + len(self.ranks) - 1

    def rank_at(self, q: int) -> int:
        i = q - self.bottom
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0

    def dim_at(self, q: int) -> int:
        return self.rank_at(q) * self.group.order

    def boundary_at(self, q: int) -> GroupRingMatrix:
        """d_q : C_q -> C_{q-1} as a group-ring matrix (zero outside)."""
        i = q - self.bottom
        if 1 <= i < len(self.ranks):
            return self.boundaries[i - 1]
        return GroupRingMatrix.zeros(self.group, self.rank_at(q - 1), self.rank_at(q))

    def diff_at(self, q: int) -> np.ndarray:
        """d_q over F_l: the expansion of `boundary_at(q)`."""
        return self.boundary_at(q).expand()

    def expanded(self) -> ModuleComplex:
        if self._expanded is None:
            mods = [regular_module(self.group, r) for r in self.ranks]
            diffs = [b.expand() for b in self.boundaries]
            self._expanded = ModuleComplex(self.group, self.bottom, mods, diffs,
                                           validate=False)
        return self._expanded

    def total_rank(self) -> int:
        return sum(self.ranks)

    def is_minimal(self) -> bool:
        """All boundary entries lie in the radical (augmentation zero)."""
        return all(not b.augmentation_matrix().any() for b in self.boundaries)

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.group == other.group
            and self.bottom == other.bottom
            and self.ranks == other.ranks
            and all(a == b for a, b in zip(self.boundaries, other.boundaries))
        )

    def __repr__(self):
        return (f"ChainComplex(bottom={self.bottom}, ranks={self.ranks} "
                f"over {self.group.descriptor})")


def zero_complex(G: GroupTable) -> ChainComplex:
    return ChainComplex(G, 0, [], [])


class ChainMap:
    """A chain map of free complexes, one group-ring matrix per degree."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components,
                 validate: bool = True):
        if source.group != target.group:
            raise GroupMismatchError("chain map between different groups")
        comps = {}
        for q, m in components.items():
            if m.group != source.group:
                raise GroupMismatchError("component over wrong group")
            if (m.rows, m.cols) != (target.rank_at(q), source.rank_at(q)):
                raise DimensionMismatchError(
                    f"component at degree {q} is {m.rows}x{m.cols}, expected "
                    f"{target.rank_at(q)}x{source.rank_at(q)}"
                )
            if m.rows and m.cols:
                comps[q] = m
        self.source = source
        self.target = target
        self.components = comps
        if validate:
            self._validate()

    def component_at(self, q: int) -> GroupRingMatrix:
        if q in self.components:
            return self.components[q]
        return GroupRingMatrix.zeros(self.source.group, self.target.rank_at(q),
                                     self.source.rank_at(q))

    def _validate(self):
        G = self.source.group
        _check_commutes(self, lambda q: self.component_at(q).expand(),
                        slice(G.identity, None, G.order))

    def expanded(self) -> ModuleComplexMap:
        comps = {q: m.expand() for q, m in self.components.items()}
        return ModuleComplexMap(self.source.expanded(), self.target.expanded(), comps,
                                validate=False)

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


def identity_chain_map(C: ChainComplex) -> ChainMap:
    comps = {C.bottom + i: GroupRingMatrix.identity(C.group, r)
             for i, r in enumerate(C.ranks) if r}
    return ChainMap(C, C, comps, validate=False)


def compose_chain_maps(second: ChainMap, first: ChainMap) -> ChainMap:
    if first.target is not second.source and first.target != second.source:
        raise DimensionMismatchError("chain maps do not compose")
    comps = {}
    lo = min(first.source.bottom, second.target.bottom)
    hi = max(first.source.top, second.target.top)
    for q in range(lo, hi + 1):
        m = grm_compose(second.component_at(q), first.component_at(q))
        if m.rows and m.cols and not m.is_zero():
            comps[q] = m
    return ChainMap(first.source, second.target, comps, validate=False)


# ----------------------------------------------------------------------
# spec-level operations


def homology(C: ChainComplex, q: int) -> PiModule:
    """H_q = ker d_q / im d_{q+1} with its inherited pi-action."""
    return C.expanded().homology(q)


def euler_characteristic(C: ChainComplex) -> int:
    """Alternating rank sum; the class of C in K_0 = Z."""
    return sum((-r if (C.bottom + i) % 2 else r) for i, r in enumerate(C.ranks))


def direct_sum(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    if C.group != D.group:
        raise GroupMismatchError("direct sum over different groups")
    if not C.ranks:
        return D
    if not D.ranks:
        return C
    G = C.group
    bottom = min(C.bottom, D.bottom)
    top = max(C.top, D.top)
    ranks = [C.rank_at(q) + D.rank_at(q) for q in range(bottom, top + 1)]
    boundaries = []
    for q in range(bottom + 1, top + 1):
        cb, db = C.boundary_at(q), D.boundary_at(q)
        data = np.zeros((C.rank_at(q - 1) + D.rank_at(q - 1),
                         C.rank_at(q) + D.rank_at(q), G.order), dtype=np.int64)
        data[:cb.rows, :cb.cols] = cb.data
        data[cb.rows:, cb.cols:] = db.data
        boundaries.append(GroupRingMatrix(G, data))
    return ChainComplex(G, bottom, ranks, boundaries)


def shift(C: ChainComplex, k: int) -> ChainComplex:
    """Reindex degrees upward by k (differentials unchanged)."""
    return ChainComplex(C.group, C.bottom + k, C.ranks, C.boundaries)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f with degree-q piece source_{q-1} (+) target_q and
    differential (s, t) -> (-d s, f(s) + d t)."""
    S, T = f.source, f.target
    G = S.group
    degrees = _degrees((S, 1, 1), (T, 0, 0))
    ranks = [S.rank_at(q - 1) + T.rank_at(q) for q in degrees]
    boundaries = [GroupRingMatrix(G, _cone_block(S.boundary_at(q - 1).data,
                                                 f.component_at(q - 1).data,
                                                 T.boundary_at(q).data, G.prime_l))
                  for q in degrees[1:]]
    return ChainComplex(G, degrees.start, ranks, boundaries)


def is_quasi_iso(f) -> bool:
    """True iff the mapping cone of f (a ChainMap or ModuleComplexMap) is
    acyclic, read from the ranks of its differentials over F_l."""
    cone = mapping_cone(f) if isinstance(f, ChainMap) else module_mapping_cone(f)
    return cone.is_acyclic()


def induced_map_on_homology(f, q: int) -> PiModuleMap:
    """H_q(f) for a ChainMap or ModuleComplexMap."""
    if isinstance(f, ChainMap):
        f = f.expanded()
    hs = f.source.homology_data(q)
    ht = f.target.homology_data(q)
    l = f.source.group.prime_l
    images = (f.component_at(q) @ hs.reps) % l
    return PiModuleMap(hs.module, ht.module, ht.class_of_cycle(images), validate=False)


class MinimalizeResult(NamedTuple):
    complex: ChainComplex
    witness: ChainMap


def minimalize(C: ChainComplex) -> MinimalizeResult:
    """Cancel unit boundary entries until none remain.

    Over the local ring F_l[pi] a unit entry splits off an acyclic
    two-term summand; repeated cancellation reaches the minimal model
    (all entries of augmentation zero), whose ranks are invariants of
    the quasi-isomorphism class.  The witness is a quasi-isomorphism
    from the minimal complex back into C.
    """
    G = C.group
    l = G.prime_l
    ranks = list(C.ranks)
    bnds = [b.data for b in C.boundaries]
    # witness[i]: (original rank_i) x (current rank_i) group-ring data
    wit = [GroupRingMatrix.identity(G, r).data for r in ranks]

    while True:
        pivot = None
        for i, A in enumerate(bnds):
            aug = A.sum(axis=2) % l
            nz = np.argwhere(aug != 0)
            if nz.size:
                pivot = (i, int(nz[0][0]), int(nz[0][1]))
                break
        if pivot is None:
            break
        i, p, j = pivot
        A = bnds[i]
        u_inv = ga_inverse(GroupRingElement(A[p, j], l), G).coeffs
        rows = [r for r in range(A.shape[0]) if r != p]
        cols = [c for c in range(A.shape[1]) if c != j]
        # x_m = A[p, m] * u^{-1}; new[r, m] = A[r, m] - x_m * A[r, j]
        x = ga_compose(u_inv[None, None], A[p, cols][None], G)
        bnds[i] = (A[np.ix_(rows, cols)] - ga_compose(A[rows, j][:, None], x, G)) % l
        if i + 1 < len(bnds):
            bnds[i + 1] = bnds[i + 1][cols, :, :]    # drop row j (source side)
        if i - 1 >= 0:
            bnds[i - 1] = bnds[i - 1][:, rows, :]    # drop column p (target side)
        # the same column operation on the witness of the source degree
        W = wit[i + 1]
        wit[i + 1] = (W[:, cols] - ga_compose(W[:, j][:, None], x, G)) % l
        wit[i] = wit[i][:, rows]
        ranks[i + 1] -= 1
        ranks[i] -= 1

    minimal = ChainComplex(G, C.bottom, ranks,
                           [GroupRingMatrix(G, b) for b in bnds])
    comps = {}
    for idx, w in enumerate(wit):
        q = C.bottom + idx
        if minimal.rank_at(q) and C.rank_at(q):
            comps[q] = GroupRingMatrix(G, w)
    witness = ChainMap(minimal, C, comps)
    return MinimalizeResult(minimal, witness)
