"""Eulerian walks (Hierholzer): the marking walk of the Graph TSP construction."""

from __future__ import annotations

from ..core.instance import SimpleGraph


def eulerian_walk(graph: SimpleGraph) -> list[int]:
    """Closed walk using every edge exactly once (Hierholzer).

    Requires a connected graph with all degrees even (isolated vertices are
    not allowed: they would be unreachable). Deterministic: the walk starts
    at vertex 0 and always follows the smallest-id unused edge. The returned
    list has one entry per edge; the walk closes back to its first vertex.
    """
    if graph.n == 0:
        return []
    degs = graph.degrees()
    odd = [v for v, d in enumerate(degs) if d % 2]
    if odd:
        raise ValueError(f"odd-degree vertices: {odd[:4]}")
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if graph.num_edges() == 0:
        return [0] if graph.n == 1 else []
    # iterator position per vertex; edges marked used symmetrically
    pos = [0] * graph.n
    used: set[tuple[int, int]] = set()
    stack = [0]
    walk: list[int] = []
    while stack:
        v = stack[-1]
        a = graph.adj[v]
        while pos[v] < len(a) and (min(v, a[pos[v]]), max(v, a[pos[v]])) in used:
            pos[v] += 1
        if pos[v] == len(a):
            walk.append(stack.pop())
        else:
            w = a[pos[v]]
            used.add((min(v, w), max(v, w)))
            stack.append(w)
    walk.reverse()
    if len(walk) != graph.num_edges() + 1 or walk[0] != walk[-1]:
        raise AssertionError("Hierholzer produced an invalid walk")
    return walk[:-1]
