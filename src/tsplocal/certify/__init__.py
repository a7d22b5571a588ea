from .alternating import ImprovingCycle, find_improving_alternating_cycle
from .analyzer import (
    ContractionMap,
    G2Certificate,
    LengthClassReport,
    arc_count,
    build_g2,
    contraction_map,
    cycle_witness_data,
    extract_improving_move,
    length_class_report,
)
from .exact import HELD_KARP_LIMIT, double_tree_bound, held_karp, minimum_spanning_tree
from .improv_cert import ImprovCertificate, verify_k_improv_optimal
from .kopt_cert import BudgetExceededError, OptimalityCertificate, verify_k_optimal

__all__ = [
    "BudgetExceededError",
    "ContractionMap",
    "G2Certificate",
    "HELD_KARP_LIMIT",
    "ImprovCertificate",
    "ImprovingCycle",
    "LengthClassReport",
    "OptimalityCertificate",
    "arc_count",
    "build_g2",
    "contraction_map",
    "cycle_witness_data",
    "double_tree_bound",
    "extract_improving_move",
    "find_improving_alternating_cycle",
    "held_karp",
    "length_class_report",
    "minimum_spanning_tree",
    "verify_k_improv_optimal",
    "verify_k_optimal",
]
