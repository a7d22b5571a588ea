"""Instance data model: explicit metrics, graph metrics and {1,2}-cost instances.

SimpleGraph, the sparse graph behind graph metrics, is the substrate for the
girth constructions as well.

All costs are non-negative integers so that move gains and certificates can be
compared exactly. Instances are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

from collections import deque

import numpy as np

DEFAULT_DENSE_LIMIT = 20_000


class MetricInstance:
    """Complete weighted graph with integer costs and the triangle inequality.

    The matrix is stored dense (numpy int64). Symmetry, zero diagonal and
    non-negativity are enforced on construction; the triangle inequality is
    the caller's contract, checkable with :func:`validate_metric`.
    """

    __slots__ = ("n", "cost")

    def __init__(self, cost):
        mat = np.asarray(cost)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("cost matrix must be square")
        if mat.shape[0] > DEFAULT_DENSE_LIMIT:
            raise ValueError(
                f"n={mat.shape[0]} exceeds dense storage limit {DEFAULT_DENSE_LIMIT}"
            )
        if not np.issubdtype(mat.dtype, np.integer):
            if np.issubdtype(mat.dtype, np.floating) and np.all(mat == np.floor(mat)):
                mat = mat.astype(np.int64)
            else:
                raise ValueError("costs must be integers (scale rationals first)")
        mat = mat.astype(np.int64)
        if np.any(mat < 0):
            raise ValueError("costs must be non-negative")
        if np.any(np.diagonal(mat) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(mat, mat.T):
            raise ValueError("cost matrix must be symmetric")
        mat.setflags(write=False)
        self.n = int(mat.shape[0])
        self.cost = mat

    def c(self, u: int, v: int) -> int:
        return int(self.cost[u, v])

    def cost_row(self, u: int) -> np.ndarray:
        return self.cost[u]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetricInstance)
            and self.n == other.n
            and np.array_equal(self.cost, other.cost)
        )

    def __repr__(self) -> str:
        return f"MetricInstance(n={self.n})"


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


class GraphInstance:
    """Graph TSP instance: metric given by hop distances in a connected graph."""

    __slots__ = ("graph", "n", "cost")

    def __init__(self, graph: SimpleGraph):
        if not graph.is_connected():
            raise ValueError("graph must be connected")
        self.graph = graph
        self.n = graph.n
        mat = np.empty((graph.n, graph.n), dtype=np.int64)
        for s in range(graph.n):
            mat[s] = graph.bfs_distances(s)
        mat.setflags(write=False)
        self.cost = mat

    def c(self, u: int, v: int) -> int:
        return int(self.cost[u, v])

    def cost_row(self, u: int) -> np.ndarray:
        return self.cost[u]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GraphInstance) and self.graph == other.graph

    def __repr__(self) -> str:
        return f"GraphInstance(n={self.n})"


class OneTwoInstance:
    """(1,2)-TSP instance: a sparse set of unit edges, every other pair costs 2."""

    __slots__ = ("n", "unit_adj")

    def __init__(self, n: int, unit_edges):
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in unit_edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"unit edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        self.unit_adj = tuple(frozenset(s) for s in adj)

    def unit_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.unit_adj[u]) if u < v]

    def num_unit_edges(self) -> int:
        return sum(len(s) for s in self.unit_adj) // 2

    def c(self, u: int, v: int) -> int:
        if u == v:
            return 0
        return 1 if v in self.unit_adj[u] else 2

    def cost_row(self, u: int) -> np.ndarray:
        row = np.full(self.n, 2, dtype=np.int64)
        if self.unit_adj[u]:
            row[list(self.unit_adj[u])] = 1
        row[u] = 0
        return row

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OneTwoInstance)
            and self.n == other.n
            and self.unit_adj == other.unit_adj
        )

    def __repr__(self) -> str:
        return f"OneTwoInstance(n={self.n}, unit={self.num_unit_edges()})"


Instance = MetricInstance | GraphInstance | OneTwoInstance


def validate_metric(matrix) -> list[tuple[int, int, int]]:
    """Check a symmetric non-negative matrix for triangle-inequality violations.

    Returns the empty list iff the matrix is a metric, otherwise every
    violating triple (x, z, y) with c(x,z) + c(z,y) < c(x,y). Asymmetry,
    negative entries and nonzero diagonals raise ValueError instead of being
    reported as triples.
    """
    mat = np.asarray(matrix, dtype=np.int64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(mat < 0):
        raise ValueError("matrix has negative entries")
    if np.any(np.diagonal(mat) != 0):
        raise ValueError("matrix has nonzero diagonal")
    if not np.array_equal(mat, mat.T):
        raise ValueError("matrix is not symmetric")
    violations = []
    for x in range(mat.shape[0]):
        # (z, y) grid of c(x,z) + c(z,y) < c(x,y); nonzero walks it row-major.
        # The zero diagonal and non-negative entries rule out z == x, y == x
        # and y == z.
        bad_z, bad_y = np.nonzero(mat[x][:, None] + mat < mat[x])
        violations.extend((x, z, y) for z, y in zip(bad_z.tolist(), bad_y.tolist()))
    return violations
