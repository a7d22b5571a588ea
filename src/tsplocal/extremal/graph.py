"""Shortest cycles and girth of sparse undirected graphs."""

from __future__ import annotations

from collections import deque

from ..core.instance import SimpleGraph


def shortest_cycle(graph: SimpleGraph) -> tuple[float, list[int] | None]:
    """Girth and one shortest cycle as a vertex list; (inf, None) for forests.

    A BFS from every root r in ascending order, over ascending neighbour
    lists. A non-tree edge {u, w} closes a walk of dist[u] + dist[w] + 1 edges
    through r; when that is shorter than the best cycle so far and the two
    tree paths meet only at r, it is a cycle and becomes the witness. A BFS
    from a root on a shortest cycle finds one, so the minimum is the girth,
    and the witness is the first girth-length cycle in that scan order. A
    BFS stops once 2 * dist[u] reaches the best length, since any later cycle
    would be at least that long. The length is an int, or inf as a float.
    """
    best = float("inf")
    witness: list[int] | None = None
    n = graph.n
    for root in range(n):
        if len(graph.adj[root]) < 2:
            continue  # on no cycle, and its tree paths all share one edge
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            if 2 * dist[u] >= best:
                break
            for w in graph.adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w and dist[u] + dist[w] + 1 < best:
                    path_u, path_w = [u], [w]
                    while path_u[-1] != root:
                        path_u.append(parent[path_u[-1]])
                    while path_w[-1] != root:
                        path_w.append(parent[path_w[-1]])
                    length = dist[u] + dist[w] + 1
                    if len(set(path_u) | set(path_w)) == length:
                        best = length
                        witness = path_u[::-1] + path_w[:-1]
    return best, witness


def girth(graph: SimpleGraph) -> float:
    """Length of a shortest cycle (see `shortest_cycle`); inf for forests."""
    return shortest_cycle(graph)[0]
