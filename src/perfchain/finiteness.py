"""Perfectness decision and finite free replacements.

Levelwise-free inputs (`ChainComplex`) are always perfect: cancelling unit
boundary entries (`minimalize`) reaches their minimal model, which is the
replacement, and the cancellation witness is the quasi-isomorphism.

Other bounded complexes of PiModules (`ModuleComplex`, which is how tower
limits arrive) go through an approximation that builds, degree by degree,
a bounded free complex F with a map into the input whose cone is acyclic
below the top homology degree m: each step adjoins free generators
hitting minimal generators of the cone's defect homology.  The input is
perfect exactly when the cone's top homology P is free; in that case
adjoining a free basis of P in degree m makes the cone acyclic, and
minimalizing F yields the canonical replacement together with a
quasi-isomorphism witness.  Only this path can give a negative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    ChainComplex,
    ChainMap,
    ModuleComplex,
    ModuleComplexMap,
    euler_characteristic,
    minimalize,
    module_mapping_cone,
    zero_complex,
)
from .errors import MaxDegreeError, NotPerfectError, UnboundedHomologyError
from .groups import GroupRingMatrix
from .modules import (
    PiModule,
    is_free,
    minimal_generator_lifts,
    minimal_generators,
    orbit,
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

    def __init__(self, target: ModuleComplex, bottom: int):
        self.target = target
        self.group = target.group
        self.bottom = bottom
        self.ranks: list[int] = []
        self.bnds: list[GroupRingMatrix] = []
        self.blocks: dict[int, np.ndarray] = {}

    def free_complex(self) -> ChainComplex:
        return ChainComplex(self.group, self.bottom, self.ranks, self.bnds)

    def chain_map(self) -> ModuleComplexMap:
        F = self.free_complex().expanded()
        comps = {q: b for q, b in self.blocks.items() if b.size}
        return ModuleComplexMap(F, self.target, comps, validate=False)

    def cone(self) -> ModuleComplex:
        return module_mapping_cone(self.chain_map())

    def rank_at(self, q: int) -> int:
        i = q - self.bottom
        return self.ranks[i] if 0 <= i < len(self.ranks) else 0

    def extend(self, q: int, cycles: np.ndarray):
        """Adjoin one free generator per column of `cycles`, which live in
        the cone's degree-q piece F_{q-1} (+) target_q and are cycles
        there; generators bound exactly these classes."""
        G = self.group
        o = G.order
        l = G.prime_l
        k = cycles.shape[1]
        if q != self.bottom + len(self.ranks):
            raise AssertionError("approximation must grow one degree at a time")
        prev_rank = self.rank_at(q - 1)
        sdim = prev_rank * o
        X = cycles[:sdim]
        Y = cycles[sdim:]
        data = np.zeros((prev_rank, k, o), dtype=np.int64)
        for t in range(k):
            data[:, t, :] = (-X[:, t]).reshape(prev_rank, o) % l
        tmod = self.target.module_at(q)
        block = np.stack(orbit(tmod, Y), axis=2).reshape(tmod.dim, k * o)
        if self.ranks:
            self.bnds.append(GroupRingMatrix(G, data))
        self.ranks.append(k)
        self.blocks[q] = block


def _approximate(target: ModuleComplex, upto: int) -> _Approximation:
    """Build F supported in [bottom, upto] so that the cone of F -> target
    has no homology in degrees <= upto."""
    approx = _Approximation(target, target.bottom)
    for q in range(target.bottom, upto + 1):
        cone = approx.cone()
        data = cone.homology_data(q)
        k = minimal_generators(data.module)
        if k:
            gens = minimal_generator_lifts(data.module)
            cycles = data.chain_of_class(gens)
        else:
            cycles = np.zeros((cone.dim_at(q), 0), dtype=np.int64)
        approx.extend(q, cycles)
    return approx


def _homology_top(C: ModuleComplex) -> int | None:
    support = C.homology_support()
    return max(support) if support else None


def free_approximation(C: ChainComplex, m: int) -> ChainMap:
    """A map from a bounded free complex supported in [bottom, m-1] whose
    cone has homology concentrated in degree m.

    Raises UnboundedHomologyError if C has homology above m.
    """
    target = C.expanded()
    top = _homology_top(target)
    if top is not None and top > m:
        raise UnboundedHomologyError(f"homology in degree {top} exceeds m={m}")
    approx = _approximate(target, m - 1)
    G = C.group
    F = approx.free_complex()
    comps = {}
    for q, block in approx.blocks.items():
        rows, cols = C.rank_at(q), F.rank_at(q)
        if rows and cols:
            comps[q] = GroupRingMatrix.from_expanded(G, block, rows, cols, validate=False)
    return ChainMap(F, C, comps)


def decide_perfect(C, max_degree: int | None = None) -> PerfectnessVerdict:
    """Decide perfectness and construct the minimal free replacement.

    A ChainComplex (levelwise free) is always perfect; its replacement and
    witness come from `minimalize`.  A ModuleComplex goes through the
    approximation, where a non-free obstruction module makes the verdict
    negative.  MaxDegreeError is raised when the top homology degree
    exceeds `max_degree`.
    """
    G = C.group
    if isinstance(C, ChainComplex):
        minimal, witness = minimalize(C)
        if minimal.ranks and max_degree is not None and minimal.top > max_degree:
            raise MaxDegreeError(
                f"top homology degree {minimal.top} exceeds cap {max_degree}")
        P = regular_module(G, minimal.rank_at(minimal.top))
        return PerfectnessVerdict(True, P, euler_characteristic(minimal), minimal, witness)

    m = _homology_top(C)
    if m is None:
        repl = zero_complex(G)
        witness = ModuleComplexMap(repl.expanded(), C, {}, validate=False)
        return PerfectnessVerdict(True, zero_module(G), 0, repl, witness)
    if max_degree is not None and m > max_degree:
        raise MaxDegreeError(f"top homology degree {m} exceeds cap {max_degree}")

    approx = _approximate(C, m - 1)
    cone = approx.cone()
    data = cone.homology_data(m)
    P = data.module
    free, rank = is_free(P)
    if not free:
        return PerfectnessVerdict(False, P)

    if rank:
        gens = minimal_generator_lifts(P)
        approx.extend(m, data.chain_of_class(gens))
    else:
        approx.extend(m, np.zeros((cone.dim_at(m), 0), dtype=np.int64))
    final_cone = approx.cone()
    if not final_cone.is_acyclic():
        raise AssertionError("free extension failed to make the cone acyclic")

    minimal, incl = minimalize(approx.free_complex())
    l = G.prime_l
    comps = {}
    for q in range(minimal.bottom, minimal.top + 1):
        blk = approx.blocks.get(q)
        if blk is None or not minimal.rank_at(q):
            continue
        comps[q] = (blk @ incl.component_at(q).expand()) % l
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
