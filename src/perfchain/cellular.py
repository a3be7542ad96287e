"""Free equivariant cell data and the chain complexes of covers.

Cells are presented by orbit representatives: freeness of the action is
structural.  The boundary of each representative is a group-algebra
combination of lower representatives, so the cover's chain complex is
levelwise free with one basis element per representative.
"""

from __future__ import annotations

import numpy as np

from .chains import ChainComplex
from .errors import DimensionMismatchError, LimitError
from .groups import MAX_FREE_DIM, GroupRingMatrix, GroupTable, check_prime, cyclic_group


class EquivariantCellComplex:
    """Orbit counts per dimension plus boundary matrices of representatives.

    boundaries[q-1] expresses the degree-q representatives in terms of the
    degree-(q-1) ones; d o d = 0 is checked by `chains_of_cover`.
    """

    def __init__(self, group: GroupTable, orbit_counts, boundaries):
        orbit_counts = [int(c) for c in orbit_counts]
        if any(c < 0 for c in orbit_counts):
            raise DimensionMismatchError("negative orbit count")
        boundaries = list(boundaries)
        if len(boundaries) != max(len(orbit_counts) - 1, 0):
            raise DimensionMismatchError("need one boundary matrix per adjacent dimension")
        for i, b in enumerate(boundaries):
            if (b.rows, b.cols) != (orbit_counts[i], orbit_counts[i + 1]):
                raise DimensionMismatchError(
                    f"boundary {i} is {b.rows}x{b.cols}, expected "
                    f"{orbit_counts[i]}x{orbit_counts[i + 1]}"
                )
        self.group = group
        self.orbit_counts = orbit_counts
        self.boundaries = boundaries

    def __repr__(self):
        return (f"EquivariantCellComplex(orbits={self.orbit_counts} "
                f"over {self.group.descriptor})")


def chains_of_cover(X: EquivariantCellComplex) -> ChainComplex:
    """The F_l[pi]-chain complex of the cover: rank = orbit count per
    degree, boundaries as given, checked for d o d = 0."""
    return ChainComplex(X.group, 0, X.orbit_counts, X.boundaries).check_d_squared()


def lens_complex(l: int, k: int, n: int) -> EquivariantCellComplex:
    """The periodic free cell structure on a sphere for the cyclic group
    of order l^k: one orbit per dimension 0..n, boundaries alternating
    between t - 1 and the norm element.  An order l^k past MAX_FREE_DIM is
    refused before the power is computed, which at large k takes minutes,
    and then a total dimension (n + 1) l^k past it before any cell is
    built, which at large n runs without end."""
    check_prime(l)
    if k >= MAX_FREE_DIM.bit_length() or l ** k > MAX_FREE_DIM:
        raise LimitError(f"group order {l}^{k} exceeds {MAX_FREE_DIM}")
    if (n + 1) * l ** k > MAX_FREE_DIM:
        raise LimitError(f"lens complex dimension ({n} + 1) * {l}^{k} exceeds {MAX_FREE_DIM}")
    G = cyclic_group(l ** k, l)
    o = G.order
    t_minus_1 = np.zeros(o, dtype=np.int64)
    t_minus_1[1 if o > 1 else 0] += 1
    t_minus_1[0] -= 1
    norm = np.ones(o, dtype=np.int64)
    boundaries = []
    for q in range(1, n + 1):
        entry = t_minus_1 if q % 2 == 1 else norm
        boundaries.append(GroupRingMatrix(G, (entry % l).reshape(1, 1, o)))
    return EquivariantCellComplex(G, [1] * (n + 1), boundaries)
