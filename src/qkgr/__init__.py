"""Exact-arithmetic engine for the small quantum K-theory of Grassmannians.

Schubert structure constants, Pieri rules, Seidel operators,
quantum-to-classical reductions, curve neighborhoods, and the closed-form
quantum Littlewood-Richardson rule for three-row Grassmannians.
"""

from .curve_nbhd import curve_neighborhood, gamma_special, rim_peel
from .element import QKElement
from .gr3n import nu3_zero_case, positivity_check, qlr_gr3
from .partitions import (
    GrContext,
    all_partitions,
    basis_key,
    context,
    d_count,
    dual,
    from_jump_sequence,
    outer_rim_removals,
    parse_partition,
    rook_strips_over,
    seidel_orbit,
    seidel_power,
    seidel_up,
    shift_jump,
    size,
    to_jump_sequence,
)
from .pieri import (
    classical_pieri,
    quantum_pieri,
    quantum_pieri_restated,
)
from .qk_engine import (
    MultiplicationTable,
    euler_char,
    giambelli_gr3,
    giambelli_lift_general,
    ideal_sheaf,
    pairing,
    product,
    product_basis,
    reduce_third_row,
    structure_constant,
    verify_recursion,
)
from .seidel import (
    H,
    T,
    d_min,
    duality,
    lemcom_shift,
    reduce_deg_one,
    reduce_dual_shift,
    reduce_higher,
    reduce_lemred,
    reduction_trace,
)

__all__ = [
    "GrContext",
    "H",
    "MultiplicationTable",
    "QKElement",
    "T",
    "all_partitions",
    "basis_key",
    "classical_pieri",
    "context",
    "curve_neighborhood",
    "d_count",
    "d_min",
    "dual",
    "duality",
    "euler_char",
    "from_jump_sequence",
    "gamma_special",
    "giambelli_gr3",
    "giambelli_lift_general",
    "ideal_sheaf",
    "lemcom_shift",
    "nu3_zero_case",
    "outer_rim_removals",
    "pairing",
    "parse_partition",
    "positivity_check",
    "product",
    "product_basis",
    "qlr_gr3",
    "quantum_pieri",
    "quantum_pieri_restated",
    "reduce_deg_one",
    "reduce_dual_shift",
    "reduce_higher",
    "reduce_lemred",
    "reduce_third_row",
    "reduction_trace",
    "rim_peel",
    "rook_strips_over",
    "seidel_orbit",
    "seidel_power",
    "seidel_up",
    "shift_jump",
    "size",
    "structure_constant",
    "to_jump_sequence",
    "verify_recursion",
]

__version__ = "0.1.0"
