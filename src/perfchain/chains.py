"""Bounded chain complexes over F_l[pi].

Two representations cooperate here:

* `ChainComplex` -- levelwise finitely generated free, with boundary data
  as group-ring matrices.  This is the input type and the shape of every
  replacement the package constructs.
* `ModuleComplex` -- the expanded view: one PiModule per degree and plain
  F_l matrices as differentials.  Homology modules and cycle data are
  computed here; it is also the home of tower limits, which need not be
  levelwise free.

Both kinds share, through `GradedComplex`, homology dimensions read from
the ranks of the F_l differentials (`diff_at`).  A free complex decides
acyclicity over the residue field F_l instead (`ChainComplex.is_acyclic`),
from its augmented boundaries, which are rank x rank matrices.  Both
kinds also share one chain-map check and one cone formula: free
complexes and maps compose group-ring data (`ga_compose`) and never
expand it, and module maps compose F_l matrices.  Constructors check
shapes only.  The mathematics is checked where outside data enters: a
reader runs `ChainComplex.check_d_squared` on each free complex it reads
and `check_commutes` on each chain map, free or module.  What the package
builds itself (cones, `minimalize`, Wall's approximation, tower limits)
is correct by construction and is not checked again.

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
    GroupRingMatrix,
    GroupTable,
    ga_compose,
    ga_inverse,
)
from .modules import (
    PiModule,
    direct_sum_modules,
    induced_action,
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
    The differentials are kept as given (made read-only, not copied): the
    caller hands over reduced int64 arrays, equivariant and with
    d o d = 0.  Only shapes are checked.
    """

    def __init__(self, group: GroupTable, bottom: int, mods, diffs):
        mods = list(mods)
        diffs = list(diffs)
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
        self._diff_ranks: dict[int, int] = {}

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
        l = self.group.prime_l
        quo = flinalg.QuotientSpace(flinalg.kernel_basis(self.diff_at(q), l),
                                    self.diff_at(q + 1), l)
        return HomologyData(induced_action(self.module_at(q), quo.reps, quo.project),
                            quo.reps, quo)


def _degrees(*parts) -> range:
    """Degrees C.bottom + lo .. C.top + hi, lowest to highest, over the parts
    (C, lo, hi) with C nonempty (an empty complex's bottom is nominal)."""
    spans = [(C.bottom + lo, C.top + hi) for C, lo, hi in parts if C.top >= C.bottom]
    bottoms, tops = zip(*spans) if spans else ((0,), (-1,))
    return range(min(bottoms), max(tops) + 1)


def _check_commutes(f, component_at, diff_at, compose) -> None:
    """d f_q = f_{q-1} d in every degree, with f_q = `component_at(q)`, the
    differentials `diff_at(C, q)` and composites `compose(second, first)`;
    a degree whose composites are empty matrices is skipped."""
    S, T = f.source, f.target
    for q in _degrees((S, 0, 1), (T, 0, 1)):
        if not (T.dim_at(q - 1) and S.dim_at(q)):
            continue
        lhs = compose(diff_at(T, q), component_at(q))
        rhs = compose(component_at(q - 1), diff_at(S, q))
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
        l = self.module.group.prime_l
        return flinalg.matmul(self.reps, flinalg.asfield(coords, l), l)


class ModuleComplexMap:
    """A degreewise equivariant chain map between module complexes.  The
    components are kept as given, as in ModuleComplex: the caller hands
    over reduced int64 arrays, equivariant by construction.  Only shapes
    are checked; `check_commutes` checks a map read from outside."""

    def __init__(self, source: ModuleComplex, target: ModuleComplex, components):
        if source.group != target.group:
            raise GroupMismatchError("chain map between different groups")
        comps = {}
        for q, m in components.items():
            if m.shape != (target.dim_at(q), source.dim_at(q)):
                raise DimensionMismatchError(f"component at degree {q} has shape {m.shape}")
            m.flags.writeable = False
            comps[q] = m
        self.source = source
        self.target = target
        self.components = comps

    def component_at(self, q: int) -> np.ndarray:
        if q in self.components:
            return self.components[q]
        return np.zeros((self.target.dim_at(q), self.source.dim_at(q)), dtype=np.int64)

    def check_commutes(self) -> "ModuleComplexMap":
        """This map, after checking d f_q = f_{q-1} d in every degree
        (DimensionMismatchError)."""
        l = self.source.group.prime_l
        _check_commutes(self, self.component_at, lambda C, q: C.diff_at(q),
                        lambda second, first: flinalg.matmul(second, first, l))
        return self


def module_mapping_cone(f: ModuleComplexMap) -> ModuleComplex:
    """Cone with degree-q piece source_{q-1} (+) target_q."""
    S, T = f.source, f.target
    G = S.group
    degrees = _degrees((S, 1, 1), (T, 0, 0))
    mods = [direct_sum_modules(S.module_at(q - 1), T.module_at(q)) for q in degrees]
    diffs = [_cone_block(S.diff_at(q - 1), f.component_at(q - 1), T.diff_at(q), G.prime_l)
             for q in degrees[1:]]
    return ModuleComplex(G, degrees.start, mods, diffs)


# ----------------------------------------------------------------------
# levelwise-free complexes over the group ring


def check_ranks(group: GroupTable, ranks) -> None:
    if any(r < 0 for r in ranks):
        raise DimensionMismatchError("negative rank")
    if any(r * group.order > MAX_FREE_DIM for r in ranks):
        raise LimitError(f"a rank times the group order exceeds {MAX_FREE_DIM}")


class ChainComplex(GradedComplex):
    """Bounded complex of free modules F_l[pi]^rank with group-ring
    boundary matrices.  The constructor checks ranks, groups and shapes;
    a reader of outside data checks d o d = 0 by `check_d_squared`.

    Leading and trailing zero ranks are trimmed, so equal complexes
    compare equal regardless of padding.
    """

    def __init__(self, group: GroupTable, bottom: int, ranks, boundaries):
        ranks = [int(r) for r in ranks]
        boundaries = list(boundaries)
        check_ranks(group, ranks)
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
        self._diff_ranks: dict[int, int] = {}

    def check_d_squared(self) -> "ChainComplex":
        """This complex, after checking d_{q-1} o d_q = 0 in every degree on
        the group-ring data (BoundarySquareNonzeroError)."""
        for q in range(self.bottom + 2, self.top + 1):
            if ga_compose(self.boundary_at(q - 1).data, self.boundary_at(q).data,
                          self.group).any():
                raise BoundarySquareNonzeroError(f"d_{q - 1} o d_{q} != 0")
        return self

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

    def is_acyclic(self) -> bool:
        """Acyclicity over the residue field: True iff
        rank_q = a_q + a_{q+1} in every degree, where a_q is the F_l rank of
        the augmentation of d_q, i.e. iff C (x) F_l is exact.

        This is exact because pi is an l-group (`GroupTable` refuses any
        other order with NotAnLGroupError): F_l[pi] is then local with
        residue field F_l, and a bounded complex of finitely generated free
        modules over a local ring is acyclic iff it stays exact after
        (x) F_l.  It splits as its minimal model M plus contractible
        pieces; M (x) F_l has zero differential, so it is exact only when
        M = 0 (Nakayama).  See Benson, Representations and Cohomology I,
        on minimal resolutions, and Avramov, Infinite free resolutions
        (1998).  The matrices ranked are rank x rank, not
        (rank * |pi|)-square, and nothing is cancelled; homology dimensions
        still read the expanded ranks, because they count F_l dimensions.
        """
        l = self.group.prime_l
        a = {q: flinalg.rank(self.boundary_at(q).augmentation_matrix(), l)
             for q in range(self.bottom + 1, self.top + 1)}
        return all(r == a.get(q, 0) + a.get(q + 1, 0)
                   for q, r in enumerate(self.ranks, self.bottom))

    def expanded(self) -> ModuleComplex:
        mods = [regular_module(self.group, r) for r in self.ranks]
        diffs = [b.expand() for b in self.boundaries]
        return ModuleComplex(self.group, self.bottom, mods, diffs)

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


class ChainMap:
    """A chain map of free complexes, one group-ring matrix per degree.
    The constructor checks groups and shapes; a reader of outside data
    checks commutation by `check_commutes`."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components):
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

    def component_at(self, q: int) -> GroupRingMatrix:
        if q in self.components:
            return self.components[q]
        return GroupRingMatrix.zeros(self.source.group, self.target.rank_at(q),
                                     self.source.rank_at(q))

    def check_commutes(self) -> "ChainMap":
        """This map, after checking d f_q = f_{q-1} d in every degree on the
        group-ring data (DimensionMismatchError)."""
        G = self.source.group
        _check_commutes(self, lambda q: self.component_at(q).data,
                        lambda C, q: C.boundary_at(q).data,
                        lambda second, first: ga_compose(second, first, G))
        return self

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"


# ----------------------------------------------------------------------
# spec-level operations


def euler_characteristic(C: ChainComplex) -> int:
    """Alternating rank sum; the class of C in K_0 = Z."""
    return sum((-r if (C.bottom + i) % 2 else r) for i, r in enumerate(C.ranks))


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of f with degree-q piece source_{q-1} (+) target_q and
    differential (s, t) -> (-d s, f(s) + d t).

    Its d o d is [[d_S d_S, 0], [d_T f - f d_S, d_T d_T]], zero when S and
    T are complexes and f is a chain map, so the cone is built unchecked."""
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
    acyclic: over the residue field for a free cone, from the ranks of
    its F_l differentials for a module cone."""
    cone = mapping_cone(f) if isinstance(f, ChainMap) else module_mapping_cone(f)
    return cone.is_acyclic()


class MinimalizeResult(NamedTuple):
    complex: ChainComplex
    witness: ChainMap


def _pivot_plan(aug: np.ndarray, l: int) -> tuple[list[int], list[int]]:
    """The pivots (rows, columns) that cancelling unit entries one at a
    time takes in a boundary with augmentation `aug`: the first nonzero
    entry in row-major order, then the same in the Schur complement.

    The augmentation is a ring map, so it carries the Schur complement of
    the boundary to that of `aug`, and the plan is made over F_l.  The
    complement is kept in place: its pivot row and column become zero,
    which leaves the row-major order of the other entries as it was."""
    a = aug.copy()
    rows, cols = [], []
    while True:
        nz = np.flatnonzero(a)
        if not nz.size:
            return rows, cols
        p, j = divmod(int(nz[0]), a.shape[1])
        rows.append(p)
        cols.append(j)
        a -= a[:, j, None] * (a[p] * pow(int(a[p, j]), l - 2, l) % l)
        a %= l


def _solve_pivots(B: np.ndarray, cols: list[int], G: GroupTable) -> np.ndarray:
    """Gauss-Jordan on the pivot rows B of a boundary, row t pivoting at
    column cols[t] in that order.  Each pivot is one update product:
    with u = B[t, j] inverted by `ga_inverse` and row = u^-1 B[t],
    B -= (B[:, j] - e_t) row clears column j from every other row and,
    as u^-1 u = 1, leaves row in row t.  Returns B[:, cols]^-1 B, whose
    columns cols form the identity."""
    l = G.prime_l
    for t, j in enumerate(cols):
        row = ga_compose(ga_inverse(B[t, j][None, None], G), B[t][None], G)
        factors = B[:, [j]]
        factors[t, 0, G.identity] = (factors[t, 0, G.identity] - 1) % l
        B = (B - ga_compose(factors, row, G)) % l
    return B


def minimalize(C: ChainComplex) -> MinimalizeResult:
    """Cancel unit boundary entries until none remain.

    Over the local ring F_l[pi] a unit entry splits off an acyclic
    two-term summand; repeated cancellation reaches the minimal model
    (all entries of augmentation zero), whose ranks are invariants of
    the quasi-isomorphism class.  The witness is a quasi-isomorphism
    from the minimal complex back into C.

    Units are cancelled boundary by boundary from the bottom, each at the
    first unit in row-major order; a cancellation only deletes rows and
    columns of the neighbouring boundaries, so those to the left never
    regain a unit.  The pivots of one boundary A are planned over F_l
    (`_pivot_plan`), and their cancellations together are one Schur
    complement A[R', C'] - A[R', J] X with X = A[P, J]^-1 A[P, C'] over
    the pivot rows P and columns J (`_solve_pivots`).  The same column
    operation acts on the witness of A's source degree, which no earlier
    boundary has touched: I[:, C'] - I[:, J] X is I[:, C'] with -X in
    the rows J, so it needs no product.
    """
    G = C.group
    l = G.prime_l
    ranks = list(C.ranks)
    bnds = [b.data for b in C.boundaries]
    # wit[i]: (original rank_i) x (current rank_i) group-ring data
    wit = [GroupRingMatrix.identity(G, r).data for r in ranks]
    for i in range(len(bnds)):
        A = bnds[i]
        pivot_rows, pivot_cols = _pivot_plan(A.sum(axis=2) % l, l)
        if not pivot_rows:
            continue
        rows = np.delete(np.arange(A.shape[0]), pivot_rows)
        cols = np.delete(np.arange(A.shape[1]), pivot_cols)
        X = _solve_pivots(A[pivot_rows], pivot_cols, G)[:, cols]
        R = A[rows]
        bnds[i] = (R[:, cols] - ga_compose(R[:, pivot_cols], X, G)) % l
        wit[i + 1] = wit[i + 1][:, cols]        # still the identity
        wit[i + 1][pivot_cols] = -X % l
        if i + 1 < len(bnds):
            bnds[i + 1] = bnds[i + 1][cols]      # drop the cancelled source rows
        if i > 0:
            bnds[i - 1] = bnds[i - 1][:, rows]   # and the cancelled target columns
        wit[i] = wit[i][:, rows]
        ranks[i] -= len(pivot_rows)
        ranks[i + 1] -= len(pivot_rows)

    minimal = ChainComplex(G, C.bottom, ranks,
                           [GroupRingMatrix(G, b) for b in bnds])
    comps = {}
    for idx, w in enumerate(wit):
        q = C.bottom + idx
        if minimal.rank_at(q) and C.rank_at(q):
            comps[q] = GroupRingMatrix(G, w)
    witness = ChainMap(minimal, C, comps)
    return MinimalizeResult(minimal, witness)
