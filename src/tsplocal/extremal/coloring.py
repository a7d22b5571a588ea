"""Proper edge coloring of bipartite graphs with exactly Delta colors."""

from __future__ import annotations

from ..core.instance import Edge, SimpleGraph


def bipartite_edge_coloring(graph: SimpleGraph) -> dict[Edge, int]:
    """Delta-edge-color a bipartite graph so incident edges differ.

    Augmenting-path recoloring: for each edge (u,v), if no color is free at
    both ends, pick a free color a at u and b at v and flip the a/b
    alternating path starting at v; then a is free at both. Colors are
    0..Delta-1, keys are (min,max) vertex pairs. Deterministic.
    """
    bip = graph.bipartition()
    if bip is None:
        raise ValueError("graph is not bipartite")
    degs = graph.degrees()
    delta = max(degs, default=0)
    # color_at[v][c] = neighbor joined to v by an edge of color c
    color_at: list[dict[int, int]] = [{} for _ in range(graph.n)]
    coloring: dict[Edge, int] = {}

    def free_color(v: int) -> int:
        for c in range(delta):
            if c not in color_at[v]:
                return c
        raise AssertionError("no free color at a vertex with degree < delta")

    def set_color(u: int, v: int, c: int) -> None:
        coloring[(min(u, v), max(u, v))] = c
        color_at[u][c] = v
        color_at[v][c] = u

    def unset_color(u: int, v: int, c: int) -> None:
        del color_at[u][c]
        del color_at[v][c]

    for u, v in sorted(graph.edges()):
        a = free_color(u)
        b = free_color(v)
        if a == b:
            set_color(u, v, a)
            continue
        # flip the a/b alternating path from v; it cannot reach u since the
        # graph is bipartite and a is free at u
        x = v
        c_out = a
        path = []
        while c_out in color_at[x]:
            y = color_at[x][c_out]
            path.append((x, y, c_out))
            x = y
            c_out = b if c_out == a else a
        for x1, y1, c1 in reversed(path):
            unset_color(x1, y1, c1)
        for x1, y1, c1 in path:
            set_color(x1, y1, b if c1 == a else a)
        set_color(u, v, a)
    _check_proper(graph, coloring, delta)
    return coloring


def _check_proper(graph: SimpleGraph, coloring: dict[Edge, int], delta: int) -> None:
    for v in range(graph.n):
        seen = set()
        for w in graph.adj[v]:
            c = coloring[(min(v, w), max(v, w))]
            if c in seen or not (0 <= c < max(delta, 1)):
                raise AssertionError(f"improper coloring at vertex {v}")
            seen.add(c)
