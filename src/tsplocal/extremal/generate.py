"""Regular high-girth graph supply: catalog lookup, then randomized repair."""

from __future__ import annotations

import random

from ..core.instance import SimpleGraph
from .cages import CATALOG, load_cage
from .graph import shortest_cycle


class GirthRepairError(RuntimeError):
    def __init__(self, message: str, best_girth: float):
        super().__init__(f"{message} (best girth reached: {best_girth})")
        self.best_girth = best_girth


def bipartite_double_cover(graph: SimpleGraph) -> SimpleGraph:
    """Two-copies lift: {u,v} becomes {u, v'} and {u', v}.

    Keeps the regularity and never decreases the girth (every cycle of the
    cover projects to a closed walk of equal length). Vertex u maps to u and
    u + n.
    """
    if not graph.is_regular():
        raise ValueError("double cover expects a regular graph")
    n = graph.n
    edges = []
    for u, v in graph.edges():
        edges.append((u, v + n))
        edges.append((v, u + n))
    return SimpleGraph(2 * n, edges)


def _minimum_vertices(delta: int, g: int) -> int:
    """Existence bound: a delta-regular graph with girth >= g exists on 2m
    vertices whenever m >= ((delta-1)^(g-1) - 1) / (delta - 2)."""
    if delta == 2:
        return g
    m = ((delta - 1) ** (g - 1) - 1) // (delta - 2) + 1
    return 2 * m


def _random_regular(n: int, delta: int, rng: random.Random) -> SimpleGraph:
    """Configuration-model pairing, retried until simple."""
    if n * delta % 2:
        raise ValueError("n * delta must be even")
    while True:
        stubs = [v for v in range(n) for _ in range(delta)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return SimpleGraph(n, sorted(edges))


def regular_high_girth(
    delta: int,
    g: int,
    seed: int = 0,
    *,
    swap_budget: int = 200_000,
    use_catalog: bool = True,
) -> SimpleGraph:
    """A delta-regular graph with girth >= g.

    Strategy: exact catalog lookup for known cages, else randomized pairing
    with double-edge-swap repair (break the shortest cycle by swapping one of
    its edges with a random far edge) on a vertex count guided by the
    existence bound. The girth is recomputed for every candidate swap, so the
    one checked at the end is the result's own.
    """
    if delta < 2 or g < 3:
        raise ValueError("need delta >= 2 and g >= 3")
    if delta == 2:
        return SimpleGraph(g, [(i, (i + 1) % g) for i in range(g)])
    if use_catalog and (delta, g) in CATALOG:
        return load_cage(delta, g)

    rng = random.Random(seed)
    n = _minimum_vertices(delta, g)
    if n * delta % 2:
        n += 1
    graph = _random_regular(n, delta, rng)
    length, cyc = shortest_cycle(graph)
    for _ in range(swap_budget):
        if length >= g:
            break
        # swap a cycle edge {a,b} with a random edge {c,d} into {a,c},{b,d}
        a, b = cyc[0], cyc[1]
        edges = graph.edges()
        c, d = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        if graph.has_edge(a, c) or graph.has_edge(b, d):
            continue
        new_edges = set(graph.edges())
        new_edges.discard((min(a, b), max(a, b)))
        new_edges.discard((min(c, d), max(c, d)))
        new_edges.add((min(a, c), max(a, c)))
        new_edges.add((min(b, d), max(b, d)))
        candidate = SimpleGraph(n, sorted(new_edges))
        candidate_length, candidate_cyc = shortest_cycle(candidate)
        if candidate_length >= length:
            graph, length, cyc = candidate, candidate_length, candidate_cyc
    if length < g:
        raise GirthRepairError(
            f"swap budget exhausted for ({delta},{g})", length
        )
    if not graph.is_regular(delta):
        raise AssertionError("repair broke regularity")
    return graph
