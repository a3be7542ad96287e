"""Inverse systems of chain complexes indexed by the naturals.

Every level has finite total dimension, so images of the bonding maps
into a fixed level can only shrink and must eventually stabilize; the
limit is realized as the stable-image subcomplex at the chosen level.
Non-stabilization within the supplied prefix is reported as an error,
never extrapolated.  The limit is read off, not solved for or re-checked:
a canonical basis V is the identity at its pivot rows, so B in col(V) has
coordinates B at those rows; and bonds are equivariant chain maps, so the
stable images form a pi-invariant subcomplex by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flinalg
from .chains import ModuleComplex
from .errors import DimensionMismatchError, GroupMismatchError, HorizonExhaustedError
from .finiteness import PerfectnessVerdict, decide_perfect
from .groups import grm_compose
from .modules import induced_action


class Tower:
    """Levels with bonding chain maps bonds[n] : levels[n+1] -> levels[n]."""

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

    def __len__(self):
        return len(self.levels)


@dataclass
class StableImages:
    """Images of far levels inside level `level` at one degree.

    `dims[h]` is the F_l dimension of the image of level (level+h), and
    `value` the canonical basis of the last image (its transpose is in
    reduced echelon form: the identity at its pivot rows); `stabilized`
    records whether the image was unchanged from horizon h-1 to h, and
    `stable_at` is the first horizon from which all computed images
    agree.
    """

    degree: int
    level: int
    horizon: int
    dims: list
    value: np.ndarray = field(repr=False)
    stabilized: bool = False
    stable_at: int | None = None


def stable_images(T: Tower, q: int, n: int, h: int) -> StableImages:
    """Image of level n+h in level n at degree q, for horizons 0..h.

    The images are nested: with M_k the composite of the first k bonds,
    im(M_k) = M_{k-1}(im B_{k-1}) lies in im(M_{k-1}).  So two of them are
    equal exactly when their dimensions are, and only the last one is
    put in canonical form.
    """
    if n < 0 or h < 0 or n + h >= len(T.levels):
        raise HorizonExhaustedError(
            f"level {n} + horizon {h} outside the supplied {len(T.levels)} levels"
        )
    l = T.group.prime_l
    dim_n = T.levels[n].rank_at(q) * T.group.order
    if h == 0:
        # the canonical form of I is I
        return StableImages(q, n, h, [dim_n], flinalg.identity(dim_n, l), dim_n == 0,
                            None if dim_n else 0)
    dims = [dim_n]
    M = T.bonds[n].component_at(q)
    for k in range(1, h):
        dims.append(flinalg.rank(M.expand(), l))
        M = grm_compose(M, T.bonds[n + k].component_at(q))
    value = flinalg.canonical_columns(M.expand(), l)
    dims.append(value.shape[1])
    stable_at = dims.index(dims[-1])  # dims never grow, so equal ones are adjacent
    return StableImages(q, n, h, dims, value, stable_at < h,
                        stable_at if stable_at < h else None)


def limit_complex(T: Tower, horizon: int, level: int = 0) -> ModuleComplex:
    """The levelwise inverse limit, realized as the stable-image
    subcomplex at the given level.

    Requires the images to have stabilized at every degree within the
    horizon; otherwise HorizonExhaustedError is raised.  A canonical basis
    V is I at its pivot rows `rows`, so a generator acts by (rho V)[rows]
    and d_q is d_q[rows_{q-1}] V.  The images, a pi-invariant subcomplex by
    construction, are not validated again; certificate checkers recompute them.
    """
    G = T.group
    base = T.levels[level]
    E = base.expanded()
    mods, diffs = [], []
    rows = None
    for q in range(base.bottom, base.top + 1):
        si = stable_images(T, q, level, horizon)
        if not si.stabilized:
            raise HorizonExhaustedError(
                f"degree {q}: image not stabilized by horizon {horizon}"
            )
        V = si.value
        if rows is not None:
            diffs.append(flinalg.matmul(E.diff_at(q)[rows], V, G.prime_l))
        # argmax refuses a 0 x 0 basis, which has no rows to read anyway
        rows = (V != 0).argmax(axis=0) if V.size else []
        mods.append(induced_action(E.module_at(q), V, lambda B: B[rows]))
    return ModuleComplex(G, base.bottom, mods, diffs, validate=False)


def pro_decide_perfect(T: Tower, horizon: int) -> PerfectnessVerdict:
    """Perfectness of the tower limit."""
    return decide_perfect(limit_complex(T, horizon))

