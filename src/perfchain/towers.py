"""Inverse systems of chain complexes indexed by the naturals.

Every level has finite total dimension, so images of the bonding maps
into a fixed level can only shrink and must eventually stabilize.  What
is computed is the stable image S_0 at level 0, the image of the limit
there.  It equals the inverse limit only when the bonds carry the stable
images S_(n+1) -> S_n isomorphically, and nothing here checks that.
Non-stabilization within the supplied prefix is reported as an error,
never extrapolated.

Two routes reach the limit.  Most limits are levelwise free, and
`free_limit` finds them on group-ring data: F_l[pi] is symmetric, hence
self-injective (Benson, Representations and Cohomology I, Cambridge 1991),
so a free image is a direct summand, split off at the units of its
augmentation as `minimalize` cancels them (Avramov, Infinite free
resolutions, 1998).  With M the composite bond at the horizon and
A = M[pr, pc] the block at the pivots of its augmentation, A is
invertible and im M is free on B = M[:, pc] exactly when
M = B A^-1 M[pr, :].  The limit is then a `ChainComplex`, and no array of
|pi|-fold size is built.  Any other limit is read off canonical bases of
the expanded images (`limit_complex`), not solved for or re-checked: a
canonical basis V is the identity at its pivot rows, so B in col(V) has
coordinates B at those rows, and each generator of the free level, a
permutation, is gathered at those rows; and bonds are equivariant chain
maps, so the stable images form a pi-invariant subcomplex by construction.
Both routes read the composite bonds the tower keeps (`_composites`), so
a degree the free route refused is not composed again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flinalg
from .chains import ChainComplex, ModuleComplex
from .errors import DimensionMismatchError, GroupMismatchError, HorizonExhaustedError
from .finiteness import PerfectnessVerdict, decide_perfect
from .groups import GroupRingMatrix, ga_compose, ga_inverse, grm_compose
from .modules import PiModule, regular_module


class Tower:
    """Levels with bonding chain maps bonds[n] : levels[n+1] -> levels[n].

    `composites` holds the composite bonds built so far, by (degree,
    level), as group-ring data (see `_composites`)."""

    def __init__(self, levels, bonds):
        levels = list(levels)
        bonds = list(bonds)
        if not levels:
            raise DimensionMismatchError("a tower needs at least one level")
        if len(bonds) != len(levels) - 1:
            raise DimensionMismatchError("need one bond per adjacent level pair")
        G = levels[0].group
        for L in levels:
            if L.group != G:
                raise GroupMismatchError("tower levels over different groups")
        for n, b in enumerate(bonds):
            if b.source is not levels[n + 1] and b.source != levels[n + 1]:
                raise DimensionMismatchError(f"bond {n} source is not level {n + 1}")
            if b.target is not levels[n] and b.target != levels[n]:
                raise DimensionMismatchError(f"bond {n} target is not level {n}")
        self.levels = levels
        self.bonds = bonds
        self.group = G
        self.composites = {}


@dataclass
class StableImages:
    """Images of far levels inside one level at one degree, up to a horizon h.

    `dims[k]` is the F_l dimension of the image of the level k above, and
    `value` the canonical basis of the last image (its transpose is in
    reduced echelon form: the identity at its pivot rows); `stable_at` is
    the first horizon from which all computed images agree, None when the
    image at h differs from the one at h - 1.
    """

    dims: list
    value: np.ndarray = field(repr=False)
    stable_at: int | None = None

    @property
    def stabilized(self) -> bool:
        """Whether the image was unchanged from horizon h - 1 to h."""
        return self.stable_at is not None


def _composites(T: Tower, q: int, n: int, h: int) -> list:
    """M_1, ..., M_h at degree q, with M_k the composite of the k bonds
    from level n + k into level n.  The tower keeps them under (q, n),
    and a call extends that list as far as it needs, so each composite is
    built once per tower."""
    Ms = T.composites.setdefault((q, n), [])
    while len(Ms) < h:
        bond = T.bonds[n + len(Ms)].component_at(q)
        Ms.append(grm_compose(Ms[-1], bond) if Ms else bond)
    return Ms[:h]


def stable_images(T: Tower, q: int, n: int, h: int) -> StableImages:
    """Image of level n+h in level n at degree q, for horizons 0..h.

    The images are nested: with M_k the composite of the first k bonds,
    im(M_k) = M_{k-1}(im B_{k-1}) lies in im(M_{k-1}).  So two of them are
    equal exactly when their dimensions are, and only the last one is
    put in canonical form: M_1, ..., M_{h-1} give ranks and M_h the
    canonical basis, each expanded only while it is read.
    """
    if n < 0 or h < 0 or n + h >= len(T.levels):
        raise HorizonExhaustedError(
            f"level {n} + horizon {h} outside the supplied {len(T.levels)} levels"
        )
    l = T.group.prime_l
    dim_n = T.levels[n].rank_at(q) * T.group.order
    if h == 0:
        # the canonical form of I is I
        return StableImages([dim_n], flinalg.identity(dim_n), None if dim_n else 0)
    *Ms, last = _composites(T, q, n, h)
    dims = [dim_n] + [flinalg.rank(M.expand(), l) for M in Ms]
    value = flinalg.canonical_columns(last.expand(), l)
    dims.append(value.shape[1])
    stable_at = dims.index(dims[-1])  # dims never grow, so equal ones are adjacent
    return StableImages(dims, value, stable_at if stable_at < h else None)


def limit_complex(T: Tower, horizon: int) -> ModuleComplex:
    """The stable image S_0 at level 0, the image of the limit there, as a
    subcomplex of level 0 (see the module docstring for when it is the
    inverse limit).

    Requires the images to have stabilized at every degree within the
    horizon; otherwise HorizonExhaustedError is raised.  A canonical basis
    V is I at its pivot rows `rows`.  A level is free, so each generator
    is a permutation rho of its basis and acts by V[rho[rows]]; d_q is
    d_q[rows_{q-1}] V, with d_q expanded at degree q alone.  The images, a
    pi-invariant subcomplex by construction, are not checked again;
    certificate checkers recompute them.
    """
    G = T.group
    base = T.levels[0]
    mods, diffs = [], []
    rows = None
    for q in range(base.bottom, base.top + 1):
        si = stable_images(T, q, 0, horizon)
        if not si.stabilized:
            raise HorizonExhaustedError(
                f"degree {q}: image not stabilized by horizon {horizon}"
            )
        V = si.value
        if rows is not None:
            diffs.append(flinalg.matmul(base.diff_at(q)[rows], V, G.prime_l))
        # argmax refuses a 0 x 0 basis, which has no rows to read anyway
        rows = (V != 0).argmax(axis=0) if V.size else []
        gens = regular_module(G, base.rank_at(q)).gens
        mods.append(PiModule(G, V.shape[1], [V[rho[rows]] for rho in gens]))
    return ModuleComplex(G, base.bottom, mods, diffs)


@dataclass
class FreeLimit:
    """A levelwise-free stable image at level 0 on group-ring data.

    At degree q the stable image is free on `bases[q]`, the columns
    B_q = M[:, pc_q] of the composite bond M at the horizon;
    A_q = B_q[rows[q]] is invertible with inverse `inverses[q]`; and
    `complex` has the differential X_q = A_{q-1}^-1 (d_q B_q)[rows[q-1]],
    so that B_{q-1} X_q = d_q B_q.
    """

    complex: ChainComplex
    bases: dict = field(repr=False)
    rows: dict = field(repr=False)
    inverses: dict = field(repr=False)


def _free_image(prev: GroupRingMatrix, M: GroupRingMatrix):
    """(B, pr, A^-1) when im M = im prev is free on B = M[:, pc], else None.

    pc and pr are the pivot columns and pivot rows of the augmentation
    e(M), so e(A) for A = M[pr, pc] is invertible over F_l and A over the
    local ring F_l[pi].  Then N = B A^-1 N[pr, :] says im N lies in im B,
    which is free, and A^-1 N[pr, :] gives its coordinates; checked for
    N = M and N = prev, it gives im B = im M = im prev, since im M lies in
    im prev and contains im B.
    """
    G = M.group
    l = G.prime_l
    eps = M.augmentation_matrix()
    pc, pr = flinalg.pivot_columns(eps, l), flinalg.pivot_columns(eps.T, l)
    B = M.data[:, pc]
    Ainv = ga_inverse(B[pr], G)
    BAinv = ga_compose(B, Ainv, G)
    if any(not np.array_equal(ga_compose(BAinv, N[pr], G), N) for N in (M.data, prev.data)):
        return None
    return GroupRingMatrix(G, B), pr, GroupRingMatrix(G, Ainv)


def free_limit(T: Tower, horizon: int) -> FreeLimit | None:
    """The stable image at level 0 when every degree's image at the
    horizon is free and equal to the image at horizon - 1, else None.

    Each degree is accepted by `_free_image` on the composite bonds M_h
    and M_{h-1} (the identity for h = 1), and the first degree refused
    ends the route.  A horizon outside the tower gives None, and
    `limit_complex` raises the horizon error.
    """
    G = T.group
    base = T.levels[0]
    if not 0 < horizon < len(T.levels):
        return None
    ranks, diffs, bases, rows, inverses = [], [], {}, {}, {}
    for q in range(base.bottom, base.top + 1):
        Ms = _composites(T, q, 0, horizon)
        prev = Ms[-2] if horizon > 1 else GroupRingMatrix.identity(G, base.rank_at(q))
        image = _free_image(prev, Ms[-1])
        if image is None:
            return None
        bases[q], rows[q], inverses[q] = image
        if q > base.bottom:
            dB = ga_compose(base.boundary_at(q).data[rows[q - 1]], bases[q].data, G)
            diffs.append(GroupRingMatrix(G, ga_compose(inverses[q - 1].data, dB, G)))
        ranks.append(bases[q].cols)
    return FreeLimit(ChainComplex(G, base.bottom, ranks, diffs), bases, rows, inverses)


def decided_limit(T: Tower, horizon: int):
    """The stable image `pro_decide_perfect` decides: the FreeLimit when
    `free_limit` accepts every degree, else `limit_complex`."""
    return free_limit(T, horizon) or limit_complex(T, horizon)


def pro_decide_perfect(T: Tower, horizon: int) -> PerfectnessVerdict:
    """Perfectness of the stable image at level 0 (see `limit_complex`):
    by `minimalize` when it is free, and otherwise by Wall's construction
    on the expanded one."""
    lim = decided_limit(T, horizon)
    return decide_perfect(lim.complex if isinstance(lim, FreeLimit) else lim)
