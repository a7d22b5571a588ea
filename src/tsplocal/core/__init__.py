from .instance import (
    GraphInstance,
    Instance,
    MetricInstance,
    OneTwoInstance,
    validate_metric,
)
from .io import ParseError, read_instance, read_tour, write_instance, write_tour
from .tour import Tour, hamiltonian_order, tour_cost, tour_from_edge_set

__all__ = [
    "GraphInstance",
    "Instance",
    "MetricInstance",
    "OneTwoInstance",
    "ParseError",
    "Tour",
    "hamiltonian_order",
    "read_instance",
    "read_tour",
    "tour_cost",
    "tour_from_edge_set",
    "validate_metric",
    "write_instance",
    "write_tour",
]
