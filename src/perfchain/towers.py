"""Inverse systems of chain complexes indexed by the naturals.

Every level has finite total dimension, so images of the bonding maps
into a fixed level can only shrink and must eventually stabilize; the
limit is realized as the stable-image subcomplex at the chosen level.
Non-stabilization within the supplied prefix is reported as an error,
never extrapolated.
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

    `images[h]` is the canonical basis of the image of level (level+h);
    `stabilized` records whether the image was unchanged from horizon
    h-1 to h, and `stable_at` is the first horizon from which all
    computed images agree.
    """

    degree: int
    level: int
    horizon: int
    images: list = field(repr=False)
    stabilized: bool = False
    stable_at: int | None = None

    @property
    def value(self) -> np.ndarray:
        return self.images[-1]


def stable_images(T: Tower, q: int, n: int, h: int) -> StableImages:
    """Image of level n+h in level n at degree q, for horizons 0..h."""
    if n < 0 or h < 0 or n + h >= len(T.levels):
        raise HorizonExhaustedError(
            f"level {n} + horizon {h} outside the supplied {len(T.levels)} levels"
        )
    l = T.group.prime_l
    dim_n = T.levels[n].rank_at(q) * T.group.order
    images = [flinalg.identity(dim_n, l)]  # the canonical form of I is I
    for k in range(h):
        B = T.bonds[n + k].component_at(q)
        M = B if k == 0 else grm_compose(M, B)
        images.append(flinalg.canonical_columns(M.expand(), l))
    stable_at = None
    for h0 in range(len(images) - 1, -1, -1):
        if np.array_equal(images[h0], images[-1]):
            stable_at = h0
        else:
            break
    if stable_at == len(images) - 1 and len(images) > 1:
        stable_at = None  # the last image is new; nothing has settled yet
    stabilized = h >= 1 and np.array_equal(images[h], images[h - 1])
    if h == 0:
        stable_at = None if T.levels[n].rank_at(q) else 0
        stabilized = T.levels[n].rank_at(q) == 0
    return StableImages(q, n, h, images, stabilized, stable_at)


def limit_complex(T: Tower, horizon: int, level: int = 0) -> ModuleComplex:
    """The levelwise inverse limit, realized as the stable-image
    subcomplex at the given level.

    Requires the images to have stabilized at every degree within the
    horizon; otherwise HorizonExhaustedError is raised.
    """
    G = T.group
    l = G.prime_l
    base = T.levels[level]
    if not base.ranks:
        return ModuleComplex(G, 0, [], [], validate=False)
    E = base.expanded()
    bases = {}
    for q in range(base.bottom, base.top + 1):
        si = stable_images(T, q, level, horizon)
        if not si.stabilized:
            raise HorizonExhaustedError(
                f"degree {q}: image not stabilized by horizon {horizon}"
            )
        bases[q] = si.value
    mods = []
    diffs = []
    for q in range(base.bottom, base.top + 1):
        V = bases[q]
        mods.append(induced_action(E.module_at(q), V,
                                   lambda B: flinalg.solve_matrix(V, B, l)))
        if q > base.bottom:
            W = bases[q - 1]
            D = flinalg.solve_matrix(W, (E.diff_at(q) @ V) % l, l)
            if D is None:
                raise AssertionError("stable images do not form a subcomplex")
            diffs.append(D)
    return ModuleComplex(G, base.bottom, mods, diffs)


def pro_decide_perfect(T: Tower, horizon: int) -> PerfectnessVerdict:
    """Perfectness of the tower limit."""
    return decide_perfect(limit_complex(T, horizon))

