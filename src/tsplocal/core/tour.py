"""Tours: cyclic vertex permutations with a fixed orientation, and k-moves on them."""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance

UEdge = frozenset[int]


class Tour:
    """A cyclic permutation of 0..n-1, read with a fixed orientation.

    The edge multiset is {(order[i], order[i+1 mod n])}. Tours are immutable.
    """

    __slots__ = ("order",)

    def __init__(self, order):
        seq = tuple(int(v) for v in order)
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError("tour must be a permutation of 0..n-1")
        self.order = seq

    @property
    def n(self) -> int:
        return len(self.order)

    def edges(self) -> list[tuple[int, int]]:
        """Oriented edges (tail, head) along the cycle."""
        o = self.order
        n = len(o)
        return [(o[i], o[(i + 1) % n]) for i in range(n)]

    def edge_set(self) -> frozenset[frozenset[int]]:
        o = self.order
        n = len(o)
        return frozenset(frozenset((o[i], o[(i + 1) % n])) for i in range(n))

    def successor(self) -> dict[int, int]:
        o = self.order
        n = len(o)
        return {o[i]: o[(i + 1) % n] for i in range(n)}

    def canonical(self) -> "Tour":
        """Rotate so order[0] == 0 and orient so order[1] < order[-1]."""
        o = list(self.order)
        n = len(o)
        if n == 0:
            return Tour(())
        i = o.index(0)
        o = o[i:] + o[:i]
        if n > 2 and o[1] > o[-1]:
            o = [o[0]] + o[:0:-1]
        return Tour(o)

    def same_cycle(self, other: "Tour") -> bool:
        return self.canonical().order == other.canonical().order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tour) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"Tour({list(self.order)})"


def tour_cost(instance: Instance, tour: Tour) -> int:
    """Sum of edge costs along the cycle."""
    if tour.n != instance.n:
        raise ValueError(
            f"tour has {tour.n} vertices but instance has {instance.n}"
        )
    o = tour.order
    n = len(o)
    return sum(instance.c(o[i], o[(i + 1) % n]) for i in range(n))


def walk(adj, start: int) -> list[int]:
    """Vertices met walking a max-degree-2 adjacency from `start`.

    `adj[v]` holds the neighbours of v, and `start` has at least one. The
    first step goes to the smaller neighbour of `start`; after that each
    vertex has one way on. The walk ends
    on returning to `start`, which gives the whole cycle, or at the far end of
    a path, so a path is walked whole only from one of its ends.
    """
    order = [start]
    prev, cur = start, min(adj[start])
    while cur != start:
        order.append(cur)
        nbrs = adj[cur]
        if len(nbrs) < 2:
            return order
        a, b = nbrs
        prev, cur = cur, (b if a == prev else a)
    return order


def hamiltonian_order(edges, n: int) -> list[int] | None:
    """The vertex order of an edge set that is one Hamiltonian cycle on 0..n-1.

    Edges are 2-element tuples or sets. The order starts at vertex 0 and moves
    toward its smaller neighbour. None if the edge count is not n, a vertex
    lies outside 0..n-1 or has degree other than 2, or the cycle through 0
    misses a vertex (a subtour).
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    count = 0
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            return None
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    if count != n or any(len(a) != 2 for a in adj):
        return None
    order = walk(adj, 0)
    return order if len(order) == n else None


def exchange_closes(order, pos, edges) -> bool:
    """Whether T triangle W is one Hamiltonian cycle, without rebuilding it.

    T is the tour `order` on n >= 3 vertices, `pos[v]` is v's index in it, and
    W is a set of 2-element edges on 0..n-1. The answer equals
    `hamiltonian_order(T triangle W, n) is not None` and costs
    O(|W| log |W|), the sequential-exchange test of Lin & Kernighan (1973).

    The tour edges of W are removed, the others added. Every vertex keeps
    degree 2 iff each one meets as many removed as added edges. Then the
    m removed edges cut the tour into m segments, a segment whose two cuts
    are adjacent being one vertex, and the result is one cycle iff the walk
    that runs along a segment and leaves its far end by an added edge
    passes all m segments before it returns.
    """
    n = len(order)
    cuts: list[int] = []  # p for each removed tour edge (order[p], order[p+1])
    added: dict[int, list[int]] = {}
    balance: dict[int, int] = {}
    for e in edges:
        u, v = e
        step = (pos[v] - pos[u]) % n
        if step == 1 or step == n - 1:
            cuts.append(pos[u] if step == 1 else pos[v])
            delta = -1
        else:
            added.setdefault(u, []).append(v)
            added.setdefault(v, []).append(u)
            delta = 1
        balance[u] = balance.get(u, 0) + delta
        balance[v] = balance.get(v, 0) + delta
    if any(balance.values()):
        return False
    if not cuts:
        return True
    cuts.sort()
    m = len(cuts)
    # segment j runs along the tour from order[cuts[j] + 1] to order[cuts[j + 1]]
    other_end: dict[int, int] = {}
    for j in range(m):
        head = order[(cuts[j] + 1) % n]
        tail = order[cuts[(j + 1) % m]]
        other_end[head] = tail
        other_end[tail] = head
    start = order[(cuts[0] + 1) % n]
    prev, v = -1, start
    for seen in range(1, m + 1):
        end = other_end[v]
        if end == v:  # a one-vertex segment: leave by the other added edge
            a, b = added[v]
            nxt = b if a == prev else a
        else:
            (nxt,) = added[end]
        prev, v = end, nxt
        if v == start:
            return seen == m
    return False


def tour_from_edge_set(edges, n: int) -> Tour:
    """The Tour of an n-edge set forming a single Hamiltonian cycle.

    Oriented as `hamiltonian_order`: from vertex 0 toward its smaller
    neighbour. Raises ValueError if the edges are not one Hamiltonian cycle on
    0..n-1.
    """
    order = hamiltonian_order(edges, n)
    if order is None:
        raise ValueError("edge set is not a single Hamiltonian cycle on 0..n-1")
    return Tour(order)


@dataclass(frozen=True)
class KMove:
    """Replace `removed` tour edges by `added` edges; delta is the cost change.

    Applying a move to its source tour yields a valid tour whose cost differs
    by exactly delta = cost(added) - cost(removed).
    """

    removed: frozenset[UEdge]
    added: frozenset[UEdge]
    delta: int

    def size(self) -> int:
        return len(self.removed)


def apply_kmove(instance: Instance, tour: Tour, move: KMove) -> Tour:
    """Apply the move, re-deriving and checking cost from scratch."""
    edges = set(tour.edge_set())
    if not move.removed <= edges:
        raise ValueError("move removes edges not on the tour")
    if move.added & edges:
        raise ValueError("move adds edges already on the tour")
    edges -= move.removed
    edges |= move.added
    new_tour = tour_from_edge_set(edges, tour.n)
    if tour_cost(instance, new_tour) - tour_cost(instance, tour) != move.delta:
        raise ValueError("move delta does not match re-evaluated costs")
    return new_tour
