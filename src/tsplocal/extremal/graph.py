"""Sparse undirected graphs and their shortest cycles.

SimpleGraph is the substrate for all girth constructions and for Graph TSP.
"""

from __future__ import annotations

from collections import deque

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """Undirected simple graph with sorted neighbor lists.

    Vertices are 0..n-1. No self-loops, no parallel edges; adjacency is kept
    symmetric and duplicate-free.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: "list[Edge] | set[Edge] | None" = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        if edges:
            seen: set[Edge] = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                e = _norm_edge(u, v)
                if e in seen:
                    raise ValueError(f"duplicate edge {e}")
                seen.add(e)
            for u, v in sorted(seen):
                self.adj[u].append(v)
                self.adj[v].append(u)
            for lst in self.adj:
                lst.sort()

    # -- basic accessors -------------------------------------------------

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        lo, hi = 0, len(a)
        while lo < hi:
            mid = (lo + hi) // 2
            if a[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(a) and a[lo] == v

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.num_edges()})"

    # -- structure queries -----------------------------------------------

    def is_regular(self, delta: int | None = None) -> bool:
        degs = self.degrees()
        if not degs:
            return True
        if delta is None:
            delta = degs[0]
        return all(d == delta for d in degs)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

    def bipartition(self) -> tuple[list[int], list[int]] | None:
        """Two-color the graph; returns (side0, side1) or None if odd cycle."""
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for w in self.adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        q.append(w)
                    elif color[w] == color[u]:
                        return None
        return (
            [v for v in range(self.n) if color[v] == 0],
            [v for v in range(self.n) if color[v] == 1],
        )

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from source; -1 marks unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            du = dist[u]
            for w in self.adj[u]:
                if dist[w] == -1:
                    dist[w] = du + 1
                    q.append(w)
        return dist


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
