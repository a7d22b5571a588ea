from ..core.tour import KMove, apply_kmove
from .improv import (
    IMPROV_K_CAP,
    ImprovMove,
    TwoMatching,
    apply_improv_move,
    count_structure,
    find_improving_improv_move,
    k_improv,
    tour_to_two_matching,
    two_matching_to_tour,
)
from .lk import k_lin_kernighan_params, lin_kernighan
from .moves import find_improving_kmove, k_opt

__all__ = [
    "IMPROV_K_CAP",
    "ImprovMove",
    "KMove",
    "TwoMatching",
    "apply_improv_move",
    "apply_kmove",
    "count_structure",
    "find_improving_improv_move",
    "find_improving_kmove",
    "k_improv",
    "k_lin_kernighan_params",
    "k_opt",
    "lin_kernighan",
    "tour_to_two_matching",
    "two_matching_to_tour",
]
