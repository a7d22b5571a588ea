"""Exact ex(n, g): the most edges of an n-vertex graph with girth >= g.

`ex_bruteforce` is an exact branch-and-bound over vertex pairs in lexicographic
order. Deleting a vertex v from a graph with t edges and girth >= g gives
t - deg(v) <= ex(n-1, g): for a minimum-degree v (deg(v) <= 2t/n) this bounds
t <= n * ex(n-1, g) / (n-2), and for every v it gives the degree floor
deg(v) >= t - ex(n-1, g). The cycles an added edge uv closes all run through
it, the shortest of length dist(u, v) + 1, so a pair is added only if u and v
are at least g-1 apart. t walks down from the bound; the first t with a graph
meeting the floor is ex(n, g), and t = ex(n-1, g) always has one.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from ..core.instance import Edge, SimpleGraph
from .graph import girth

EX_VERTEX_LIMIT = 9


@cache
def _extremal_edges(n: int, g: int) -> tuple[Edge, ...]:
    """Edges of an n-vertex graph with girth >= g and ex(n, g) edges (memoised)."""
    pairs = tuple(combinations(range(n), 2))
    if n <= 2:
        return pairs
    smaller = _extremal_edges(n - 1, g)
    adj = [0] * n  # neighbour bitmasks

    def far_apart(u: int, v: int) -> bool:
        ball = frontier = 1 << u
        for _ in range(min(g - 2, n)):  # grow the ball around u to radius g-2
            grown = ball
            while frontier:
                w = frontier.bit_length() - 1
                frontier ^= 1 << w
                grown |= adj[w]
            frontier, ball = grown & ~ball, grown
        return not ball >> v & 1

    def extend(i: int, need: int, floor: int) -> bool:
        """Add `need` more edges from pairs[i:], all degrees reaching `floor`."""
        if need == 0 or need > len(pairs) - i:
            return need == 0 and all(a.bit_count() >= floor for a in adj)
        u, v = pairs[i]
        if far_apart(u, v):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            if extend(i + 1, need - 1, floor):
                return True
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        # without uv, u keeps pairs (u, v+1..) and v keeps (u+1..v-1, v), (v, v+1..)
        if adj[u].bit_count() + n - 1 - v < floor or adj[v].bit_count() + n - 2 - u < floor:
            return False
        return extend(i + 1, need, floor)

    prev = len(smaller)
    for t in range(n * prev // (n - 2), prev, -1):
        if extend(0, t, t - prev):
            return tuple(p for p in pairs if adj[p[0]] >> p[1] & 1)
    return smaller


def ex_bruteforce(n: int, girth_bound: int) -> tuple[int, SimpleGraph]:
    """Exact ex(n, g) and one witness graph, its girth re-verified."""
    if girth_bound < 3:
        raise ValueError("girth bound must be >= 3")
    if n > EX_VERTEX_LIMIT:
        raise ValueError(f"n={n} exceeds the exhaustion limit {EX_VERTEX_LIMIT}")
    if n <= 1:
        return 0, SimpleGraph(max(n, 0))
    edges = _extremal_edges(n, girth_bound)
    witness = SimpleGraph(n, edges)
    if girth(witness) < girth_bound:
        raise AssertionError("witness violates the girth bound")
    return len(edges), witness


def alon_upper_bound_holds(n: int, m: int, girth_value: float) -> bool:
    """Sanity inequality m < n^(1+1/(k-1)) / 2^(1+1/(k-1)) + n/2.

    Uses the largest even 2k <= girth; exact integer arithmetic via raising
    both sides to the (k-1)-th power. Graphs below the bound return True.
    """
    if girth_value == float("inf"):
        return True
    k = int(girth_value) // 2
    if k < 2:
        return True
    # m < n^(k/(k-1)) / 2^(k/(k-1)) + n/2
    lhs = 2 * m - n  # compare (2m - n)/2 < (n/2)^(k/(k-1))
    if lhs <= 0:
        return True
    return lhs ** (k - 1) * 2 < n**k
