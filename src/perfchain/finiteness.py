"""Perfectness decision and finite free replacements.

Levelwise-free inputs (`ChainComplex`) are always perfect: cancelling unit
boundary entries (`minimalize`) reaches their minimal model, which is the
replacement, and the cancellation witness is the quasi-isomorphism.  Tower
limits whose stable images are free arrive this way too
(`towers.free_limit`).

Other bounded complexes of PiModules (`ModuleComplex`, which is how the
remaining tower limits arrive) go through Wall's construction (Wall,
Finiteness conditions for CW-complexes, Ann. of Math. 81, 1965): one
loop over the degrees q from the bottom up to the top homology degree m
builds a bounded free complex F with a map into the input.  Step q adjoins free
generators bounding lifts of minimal generators of H_q of the cone built
so far, so after step q the cone has no homology in degrees <= q, and
after step m - 1 its homology is concentrated in degree m.  The
obstruction P is H_m of the cone before the degree-m step.  The input is
perfect exactly when P is free, and the verdict is read from the
degree-m step itself: it adjoins one free generator per minimal
generator of P, k of them, so the cover F_l[pi]^k -> P is onto, and over
the local ring F_l[pi] it is injective iff P is free (Nakayama).  So P
is free iff dim P = k |pi|, and no further elimination is needed; when
the loop runs no step, P = 0 and the input is perfect.  When it is,
minimalizing F yields the canonical replacement together with a
quasi-isomorphism witness.  Only this path can give a negative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flinalg
from .chains import (
    ChainComplex,
    ModuleComplex,
    ModuleComplexMap,
    euler_characteristic,
    minimalize,
    module_mapping_cone,
)
from .errors import NotPerfectError
from .groups import GroupRingMatrix
from .modules import (
    PiModule,
    minimal_generator_lifts,
    orbit_columns,
    regular_module,
    zero_module,
)


@dataclass(frozen=True)
class PerfectnessVerdict:
    """Outcome of the perfectness decision.

    When the verdict is positive, `replacement` is a minimal bounded free
    complex and `witness` a quasi-isomorphism from it to the input (a
    ChainMap for free inputs, a ModuleComplexMap otherwise).

    `top_obstruction` is a module isomorphic to the top homology of the
    cone of the approximation (see the module docstring); it is free iff
    the input is perfect.  For free inputs it is the free module of the
    replacement's top rank, and the zero module when the replacement is
    zero.
    """

    perfect: bool
    top_obstruction: PiModule
    euler_class: int | None = None
    replacement: ChainComplex | None = None
    witness: object | None = None


class _Approximation:
    """A free complex F with a degreewise map into a module complex."""

    def __init__(self, target: ModuleComplex):
        self.target = target
        self.group = target.group
        self.ranks: list[int] = []
        self.bnds: list[GroupRingMatrix] = []
        self.blocks: dict[int, np.ndarray] = {}

    def free_complex(self) -> ChainComplex:
        return ChainComplex(self.group, self.target.bottom, self.ranks, self.bnds)

    def cone(self) -> ModuleComplex:
        F = self.free_complex().expanded()
        comps = {q: b for q, b in self.blocks.items() if b.size}
        return module_mapping_cone(ModuleComplexMap(F, self.target, comps))

    def extend(self, cycles: np.ndarray):
        """Adjoin F_q, q the next degree, with one free generator per column
        of `cycles`, which live in the cone's degree-q piece
        F_{q-1} (+) target_q and are cycles there; generators bound exactly
        these classes."""
        G = self.group
        q = self.target.bottom + len(self.ranks)
        k = cycles.shape[1]
        prev_rank = self.ranks[-1] if self.ranks else 0
        X = cycles[:prev_rank * G.order]
        Y = cycles[prev_rank * G.order:]
        if self.ranks:
            # column t of X is the coordinates (i, g) -> i*order + g of d(e_t)
            d = (-X).reshape(prev_rank, G.order, k).swapaxes(1, 2)
            self.bnds.append(GroupRingMatrix(G, d))
        self.ranks.append(k)
        self.blocks[q] = orbit_columns(self.target.module_at(q), Y)


def _approximate(target: ModuleComplex, top: int) -> tuple[_Approximation, PiModule]:
    """Build F supported in [bottom, top] so that the cone of F -> target
    has no homology in degrees <= top.  Each degree q adjoins generators
    that bound lifts of minimal generators of H_q of the cone built so
    far; that module is returned for the last degree (zero when the range
    is empty)."""
    approx = _Approximation(target)
    H = zero_module(target.group)
    for q in range(target.bottom, top + 1):
        data = approx.cone().homology_data(q)
        H = data.module
        approx.extend(data.chain_of_class(minimal_generator_lifts(H)))
    return approx, H


def decide_perfect(C) -> PerfectnessVerdict:
    """Decide perfectness and construct the minimal free replacement.

    A ChainComplex (levelwise free) is always perfect; its replacement and
    witness come from `minimalize`.  A ModuleComplex goes through the
    approximation up to its top homology degree m.  The obstruction P is
    H_m of the cone before the degree-m step, which adjoins k generators,
    one per minimal generator of P; the verdict is negative exactly when
    dim P != k |pi|, that is when P is not free (see the module docstring).
    """
    G = C.group
    if isinstance(C, ChainComplex):
        minimal, witness = minimalize(C)
        P = regular_module(G, minimal.rank_at(minimal.top))
        return PerfectnessVerdict(True, P, euler_characteristic(minimal), minimal, witness)

    approx, P = _approximate(C, max(C.homology_support(), default=C.bottom - 1))
    if P.dim != (approx.ranks[-1] if approx.ranks else 0) * G.order:
        return PerfectnessVerdict(False, P)

    minimal, incl = minimalize(approx.free_complex())
    comps = {q: flinalg.matmul(blk, incl.component_at(q).expand(), G.prime_l)
             for q, blk in approx.blocks.items() if minimal.rank_at(q)}
    witness = ModuleComplexMap(minimal.expanded(), C, comps)
    return PerfectnessVerdict(True, P, euler_characteristic(minimal), minimal, witness)


def wall_class(C) -> tuple[int, int]:
    """The K_0 class of a perfect complex and its reduced class.

    K_0 of F_l[pi] is the integers, generated by the rank-one free module,
    so the reduced class of any perfect complex is 0; the first component
    is the alternating rank sum of the replacement.
    """
    verdict = decide_perfect(C)
    if not verdict.perfect:
        raise NotPerfectError("complex is not perfect")
    return verdict.euler_class, 0
