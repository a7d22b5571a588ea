"""(1,2)-TSP lower-bound construction.

A 4-regular bipartite graph of girth >= g is edge-colored with 4 colors;
every vertex becomes a copy of the 10-vertex gadget, wired to its neighbors
through the color slots. Unit edges are the gadget/wiring edges plus the
three intra-copy links that make the identity tour run over unit edges
inside every copy; the identity tour then costs exactly 11s (one cost-2 jump
between consecutive copies) while breaking one edge per wiring cycle yields a
witness tour of cost at most 10s + 10s/g.
"""

from __future__ import annotations

from ..core.instance import OneTwoInstance, SimpleGraph
from ..core.tour import Tour, tour_cost, walk
from ..extremal.coloring import bipartite_edge_coloring
from ..extremal.generate import bipartite_double_cover
from ..extremal.graph import girth
from .bundle import ConstructionBundle
from .gadget import GADGET_EDGES, gadget_S

# intra-copy links completing the unit path w0..w9 through each gadget copy
EXTRA_UNIT_LINKS = ((1, 2), (4, 5), (7, 8))


def build_12tsp_lower(k: int, g: int, base4reg: SimpleGraph) -> ConstructionBundle:
    """Build the instance, its engineered tour and the cycle-break witness.

    The base graph must be 4-regular with girth >= g >= 2k+1; a non-bipartite
    base is lifted by the bipartite double cover first (the girth never
    drops). All preconditions are re-verified here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g < 2 * k + 1:
        raise ValueError(f"need g >= 2k+1 = {2 * k + 1}, got {g}")
    if not base4reg.is_regular(4):
        raise ValueError("base graph must be 4-regular")
    if not base4reg.is_connected():
        raise ValueError("base graph must be connected")
    base_girth = girth(base4reg)
    if base_girth < g:
        raise ValueError(f"base girth {base_girth} is below g={g}")

    g1 = base4reg if base4reg.is_bipartite() else bipartite_double_cover(base4reg)
    if girth(g1) < g:
        raise AssertionError("double cover dropped the girth")
    s = g1.n

    coloring = bipartite_edge_coloring(g1)
    if set(coloring.values()) != set(range(4)):
        raise AssertionError("expected a proper 4-edge-coloring")

    gadget = gadget_S()
    slots = gadget.color_slots

    wiring: list[tuple[int, int]] = []  # edges of the degree-2 unit graph
    for h in range(s):
        off = 10 * h
        wiring.extend((off + u, off + v) for u, v in GADGET_EDGES)
    for (u, v), color in sorted(coloring.items()):
        slot = slots[color]
        wiring.append((10 * u + slot, 10 * v + slot))

    n = 10 * s
    wiring_graph = SimpleGraph(n, wiring)
    if not wiring_graph.is_regular(2):
        raise AssertionError("gadget wiring is not 2-regular")

    unit_edges = list(wiring)
    for h in range(s):
        off = 10 * h
        unit_edges.extend((off + u, off + v) for u, v in EXTRA_UNIT_LINKS)
    instance = OneTwoInstance(n, unit_edges)

    engineered = Tour(range(n))
    cost = tour_cost(instance, engineered)
    if cost != 11 * s:
        raise AssertionError(f"engineered tour costs {cost}, expected {11 * s}")

    witness, num_cycles, min_cycle = _cycle_break_witness(instance, wiring_graph)
    witness_cost = tour_cost(instance, witness)
    if min_cycle < g:
        raise AssertionError(
            f"wiring cycle of length {min_cycle} is below the girth target {g}"
        )
    if witness_cost > 10 * s + (10 * s) // g:
        raise AssertionError(
            f"witness costs {witness_cost} > 10s + 10s/g = {10 * s + (10 * s) // g}"
        )
    return ConstructionBundle(
        instance,
        engineered,
        witness,
        params={
            "k": k,
            "g": g,
            "s": s,
            "base_n": base4reg.n,
            "base_girth": base_girth,
            "num_wiring_cycles": num_cycles,
        },
        provenance=f"gadget substitution over a 4-regular bipartite girth-{girth(g1)} graph",
    )


def _cycle_break_witness(
    instance: OneTwoInstance, wiring_graph: SimpleGraph
) -> tuple[Tour, int, int]:
    """Walk each wiring cycle from its smallest vertex toward the smaller
    neighbour, dropping the edge back from the larger one, then chain the
    resulting paths in order of their smallest vertex."""
    n = wiring_graph.n
    seen = [False] * n
    order: list[int] = []
    num_cycles = 0
    min_cycle = n + 1
    for start in range(n):
        if seen[start]:
            continue
        cyc = walk(wiring_graph.adj, start)  # the wiring graph is 2-regular
        for v in cyc:
            seen[v] = True
        min_cycle = min(min_cycle, len(cyc))
        num_cycles += 1
        order.extend(cyc)
    return Tour(order), num_cycles, min_cycle
