from .instance import (
    GraphInstance,
    Instance,
    MetricInstance,
    OneTwoInstance,
    duplicate_vertex,
    graph_metric,
    validate_metric,
)
from .io import ParseError, read_graph, read_instance, read_tour, write_graph, write_instance, write_tour
from .tour import Tour, hamiltonian_order, tour_cost, tour_from_edge_set

__all__ = [
    "GraphInstance",
    "Instance",
    "MetricInstance",
    "OneTwoInstance",
    "ParseError",
    "Tour",
    "duplicate_vertex",
    "graph_metric",
    "hamiltonian_order",
    "read_graph",
    "read_instance",
    "read_tour",
    "tour_cost",
    "tour_from_edge_set",
    "validate_metric",
    "write_graph",
    "write_instance",
    "write_tour",
]
