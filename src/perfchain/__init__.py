"""Perfectness of chain complexes over modular group algebras.

Exact computation over F_l[pi] for finite l-groups pi: group-ring
matrices (an element of F_l[pi] is a 1 x 1 one) with their products and
inverses, minimal free covers of modules over this local ring,
bounded free chain complexes with minimalization, a perfectness decision
procedure producing minimal free replacements with quasi-isomorphism
witnesses, tower limits via stable images, and the integer-side toolkit
(Smith normal form, l-completion of finitely generated abelian groups).
"""

from .abelian import (
    FGAbelian,
    FGAbelianMap,
    FGZlModule,
    check_exactness,
    l_complete,
    smith_normal_form,
)
from .cellular import EquivariantCellComplex, chains_of_cover, lens_complex
from .chains import (
    ChainComplex,
    ChainMap,
    ModuleComplex,
    ModuleComplexMap,
    euler_characteristic,
    is_quasi_iso,
    mapping_cone,
    minimalize,
)
from .errors import (
    BoundarySquareNonzeroError,
    DimensionMismatchError,
    GroupMismatchError,
    HorizonExhaustedError,
    LimitError,
    NotAGroupError,
    NotAnLGroupError,
    NotAUnitError,
    NotExactIntegrallyError,
    NotPerfectError,
    ParseError,
    PerfchainError,
    UsageError,
)
from .finiteness import PerfectnessVerdict, decide_perfect, wall_class
from .groups import (
    GroupRingMatrix,
    GroupTable,
    build_group,
    cyclic_group,
    ga_inverse,
    group_from_table,
)
from .modules import (
    PiModule,
    PiModuleMap,
    free_cover,
    minimal_generators,
    regular_module,
    trivial_module,
    zero_module,
)
from .towers import Tower, limit_complex, pro_decide_perfect, stable_images

__version__ = "0.1.0"
