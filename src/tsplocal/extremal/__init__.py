from ..core.instance import SimpleGraph
from .cages import CATALOG, build_catalog_files, load_cage
from .coloring import bipartite_edge_coloring
from .euler import eulerian_walk
from .exsearch import EX_VERTEX_LIMIT, alon_upper_bound_holds, ex_bruteforce
from .generate import GirthRepairError, bipartite_double_cover, regular_high_girth
from .graph import girth, shortest_cycle

__all__ = [
    "CATALOG",
    "EX_VERTEX_LIMIT",
    "GirthRepairError",
    "SimpleGraph",
    "alon_upper_bound_holds",
    "bipartite_double_cover",
    "bipartite_edge_coloring",
    "build_catalog_files",
    "eulerian_walk",
    "ex_bruteforce",
    "girth",
    "load_cage",
    "regular_high_girth",
    "shortest_cycle",
]
