"""Graph TSP lower-bound construction: the marked Eulerian walk.

From a 2f-regular graph of girth >= 2kf, mark every f-th vertex along an
Eulerian walk (cloning vertices that would be marked twice) and connect the
marked vertices in walk order. The tour costs exactly f*|V(base)| and is
k-optimal, while the double-tree witness costs less than 4|V(base)|.
"""

from __future__ import annotations

from ..core.instance import GraphInstance, SimpleGraph
from ..core.tour import Tour, tour_cost
from ..certify.exact import double_tree_bound
from ..extremal.euler import eulerian_walk
from ..extremal.graph import girth
from .bundle import ConstructionBundle


def build_graph_tsp_lower(f: int, k: int, base: SimpleGraph) -> ConstructionBundle:
    """Marking-walk construction on a verified base graph."""
    if f < 1 or k < 1:
        raise ValueError("need f >= 1 and k >= 1")
    if not base.is_regular(2 * f):
        raise ValueError(f"base graph must be {2 * f}-regular")
    if not base.is_connected():
        raise ValueError("base graph must be connected")
    base_girth = girth(base)
    if base_girth < 2 * k * f:
        raise ValueError(
            f"base girth {base_girth} is below the required {2 * k * f}"
        )

    walk = list(eulerian_walk(base))  # closed, one entry per edge
    m = len(walk)
    if m % f:
        raise AssertionError("walk length must be divisible by f")

    adj: list[set[int]] = [set(a) for a in base.adj]
    marked_vertex: list[bool] = [False] * base.n
    marked_pos: set[int] = set()

    def clone(v: int) -> int:
        new = len(adj)
        nbrs = set(adj[v])
        adj.append(nbrs)
        for w in nbrs:
            adj[w].add(new)
        marked_vertex.append(False)
        return new

    for p in range(0, m, f):
        v = walk[p]
        if marked_vertex[v]:
            v = clone(v)
            walk[p] = v
        marked_vertex[v] = True
        marked_pos.add(p)

    # mark the first walk occurrence of every still-unmarked original vertex
    first_occurrence: dict[int, int] = {}
    for p, v in enumerate(walk):
        if v not in first_occurrence:
            first_occurrence[v] = p
    for v in range(len(adj)):
        if not marked_vertex[v]:
            marked_vertex[v] = True
            marked_pos.add(first_occurrence[v])

    n_prime = len(adj)
    if not all(marked_vertex):
        raise AssertionError("construction left unmarked vertices")
    if n_prime >= 2 * base.n:
        raise AssertionError("clone count reached |V(base)|")

    graph_prime = SimpleGraph(n_prime, [
        (u, v) for u in range(n_prime) for v in adj[u] if u < v
    ])
    instance = GraphInstance(graph_prime)
    order = [walk[p] for p in sorted(marked_pos)]
    engineered = Tour(order)
    cost = tour_cost(instance, engineered)
    if cost != f * base.n:
        raise AssertionError(
            f"engineered tour costs {cost}, expected {f * base.n}"
        )
    witness = double_tree_bound(instance)
    return ConstructionBundle(
        instance,
        engineered,
        witness,
        params={"f": f, "k": k, "base_n": base.n, "base_girth": base_girth},
        provenance=f"marked Eulerian walk over a {2*f}-regular girth-{base_girth} graph",
    )


def extend_graph_tsp(bundle: ConstructionBundle, a: int, b: int) -> ConstructionBundle:
    """Chain `a` copies of the bundle's graph plus `b` extra path vertices.

    Copy i's anchor v_i is its vertex 0; connecting edges join consecutive
    anchors and then run through the b path vertices. The assembled tour
    costs exactly a*f*|V(base)| + 2(a+b-1) and stays k-optimal.
    """
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    if not isinstance(bundle.instance, GraphInstance):
        raise ValueError("extension expects a Graph TSP bundle")
    g_prime = bundle.instance.graph
    n_prime = g_prime.n
    total = a * n_prime + b
    edges = []
    for i in range(a):
        off = i * n_prime
        edges.extend((u + off, v + off) for u, v in g_prime.edges())
    anchors = [i * n_prime for i in range(a)] + [
        a * n_prime + j for j in range(b)
    ]
    for x, y in zip(anchors, anchors[1:]):
        edges.append((x, y))
    instance = GraphInstance(SimpleGraph(total, edges))

    # copy i's tour rotated to start at its anchor, then the path vertices
    base_tour = list(bundle.engineered_tour.order)
    at_zero = base_tour.index(0)
    rotated = base_tour[at_zero:] + base_tour[:at_zero]
    order: list[int] = []
    for i in range(a):
        off = i * n_prime
        order.extend(v + off for v in rotated)
    order.extend(a * n_prime + j for j in range(b))
    engineered = Tour(order)

    f = int(bundle.params["f"])
    base_n = int(bundle.params["base_n"])
    expected = a * f * base_n + 2 * (a + b - 1)
    cost = tour_cost(instance, engineered)
    if cost != expected:
        raise AssertionError(f"extended tour costs {cost}, expected {expected}")
    witness = double_tree_bound(instance)
    params = dict(bundle.params)
    params.update({"a": a, "b": b})
    return ConstructionBundle(
        instance, engineered, witness, params,
        provenance=bundle.provenance + f"; chained a={a}, b={b}",
    )
