"""The k-improv algorithm for (1,2)-TSP.

State is a 2-matching of unit-cost edges; moves add and delete at most k unit
edges in total and improve the lexicographic key (fewer components, then more
cycles, then fewer singletons).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from ..core.instance import OneTwoInstance
from ..core.tour import Tour, tour_cost, walk

UEdge = frozenset[int]

IMPROV_K_CAP = 6


@dataclass(frozen=True)
class TwoMatching:
    """Unit-cost edge set with maximum degree 2, over n vertices.

    Cached counts can always be re-derived from the edge set; components
    include isolated vertices (the singletons).
    """

    n: int
    edges: frozenset[UEdge]
    components: int
    cycles: int
    singletons: int

    @classmethod
    def from_edges(cls, n: int, edges) -> "TwoMatching":
        edge_set = frozenset(frozenset(e) for e in edges)
        counts = count_structure(n, edge_set)
        return cls(n, edge_set, *counts)

    def key(self) -> tuple[int, int, int]:
        """Lexicographic improvement key (smaller is better)."""
        return (self.components, -self.cycles, self.singletons)


def count_structure(n: int, edges: frozenset[UEdge]) -> tuple[int, int, int]:
    """(components, cycles, singletons) of a max-degree-2 edge set.

    One union-find pass over the edges, with path halving. In a graph of
    maximum degree 2 every component is a path or a cycle, and a cycle is
    exactly a component with as many edges as vertices. So each component
    has at most one edge whose ends the earlier edges already joined, and it
    has one iff it is a cycle: cycles are the edges that find both ends in
    one set. Every other edge joins two sets, so
    components = n - |E| + cycles, and singletons are the vertices of
    degree 0.
    """
    parent = list(range(n))
    degree = [0] * n
    cycles = 0
    for e in edges:
        u, v = e
        degree[u] += 1
        degree[v] += 1
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u == v:
            cycles += 1
        else:
            parent[u] = v
    if max(degree, default=0) > 2:
        raise ValueError("edge set exceeds degree 2")
    return n - len(edges) + cycles, cycles, degree.count(0)


def _validate_unit(instance: OneTwoInstance, edges) -> None:
    for e in edges:
        u, v = tuple(e)
        if instance.c(u, v) != 1:
            raise ValueError(f"edge ({u},{v}) is not a unit edge")


def tour_to_two_matching(instance: OneTwoInstance, tour: Tour) -> TwoMatching:
    """Drop the cost-2 edges of the tour."""
    if tour.n != instance.n:
        raise ValueError("tour/instance size mismatch")
    keep = [
        frozenset((u, v)) for u, v in tour.edges() if instance.c(u, v) == 1
    ]
    return TwoMatching.from_edges(instance.n, keep)


def two_matching_to_tour(
    instance: OneTwoInstance, tm: TwoMatching, seed: int = 0
) -> Tour:
    """Break each cycle at a seeded-random edge, then chain the paths.

    The result costs n plus the number of cost-2 edges it uses; given the
    seed it is deterministic.
    """
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(instance.n)]
    for e in tm.edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)

    # singletons and paths first, each walked from its smaller end; every
    # vertex left then lies on a cycle, walked from its smallest vertex and
    # cut at a random edge
    seen = [False] * instance.n
    paths: list[list[int]] = []
    for s in range(instance.n):
        if not seen[s] and len(adj[s]) < 2:
            path = walk(adj, s) if adj[s] else [s]
            for v in path:
                seen[v] = True
            paths.append(path)
    for s in range(instance.n):
        if not seen[s]:
            cycle = walk(adj, s)
            for v in cycle:
                seen[v] = True
            paths.append(_break_cycle(cycle, rng))
    order = _chain_paths(paths, rng)
    tour = Tour(order)
    cost = tour_cost(instance, tour)
    unit_used = sum(1 for u, v in tour.edges() if instance.c(u, v) == 1)
    if cost != instance.n + (instance.n - unit_used):
        raise AssertionError("tour cost bookkeeping failed")
    return tour


def _break_cycle(cycle_seq: list[int], rng: random.Random) -> list[int]:
    """Remove a seeded-random edge of the cycle, returning a path sequence."""
    k = len(cycle_seq)
    cut = rng.randrange(k)  # remove edge (seq[cut], seq[(cut+1) % k])
    return cycle_seq[cut + 1 :] + cycle_seq[: cut + 1]


def _chain_paths(paths: list[list[int]], rng: random.Random) -> list[int]:
    paths = sorted(paths, key=lambda p: p[0])
    rng.shuffle(paths)
    order: list[int] = []
    for p in paths:
        if rng.random() < 0.5:
            p = list(reversed(p))
        order.extend(p)
    return order


@dataclass(frozen=True)
class ImprovMove:
    """Delete and add at most k unit edges of a 2-matching."""

    deleted: frozenset[UEdge]
    added: frozenset[UEdge]

    def size(self) -> int:
        return len(self.deleted) + len(self.added)


def apply_improv_move(
    instance: OneTwoInstance, tm: TwoMatching, move: ImprovMove
) -> TwoMatching:
    if not move.deleted <= tm.edges:
        raise ValueError("move deletes edges not in the 2-matching")
    if move.added & tm.edges:
        raise ValueError("move adds edges already present")
    _validate_unit(instance, move.added)
    return TwoMatching.from_edges(instance.n, (tm.edges - move.deleted) | move.added)


def find_improving_improv_move(
    instance: OneTwoInstance, tm: TwoMatching, k: int
) -> ImprovMove | None:
    """Exhaustive bounded DFS over at most k total additions + deletions.

    Any improving move needs at least one addition (deleting alone never
    reduces components, never adds cycles at equal components, and never
    removes singletons), so deletions range over 0..k-1. Deterministic
    first-improvement scan, smallest moves first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > IMPROV_K_CAP:
        raise ValueError(
            f"k={k} exceeds the supported cap {IMPROV_K_CAP} "
            "(the search is exponential in k)"
        )
    base_key = tm.key()
    matching_edges = sorted(tm.edges, key=sorted)
    candidate_adds = [
        (u, v, frozenset((u, v)))
        for u in range(instance.n)
        for v in sorted(instance.unit_adj[u])
        if u < v and frozenset((u, v)) not in tm.edges
    ]
    degree = [0] * instance.n
    for e in tm.edges:
        for v in e:
            degree[v] += 1

    for total in range(1, k + 1):
        for num_add in range(1, total + 1):
            num_del = total - num_add
            if num_del > len(matching_edges) or num_add > len(candidate_adds):
                continue
            for deleted in combinations(matching_edges, num_del):
                cap = degree[:]
                for e in deleted:
                    for v in e:
                        cap[v] -= 1
                move = _dfs_additions(
                    instance, tm, deleted, candidate_adds, cap, num_add, base_key
                )
                if move is not None:
                    return move
    return None


def _dfs_additions(instance, tm, deleted, candidates, cap, num_add, base_key):
    chosen: list[UEdge] = []
    kept = tm.edges - frozenset(deleted)
    # caps only rise during the DFS, so an edge at a full vertex never fits
    live = [c for c in candidates if cap[c[0]] < 2 and cap[c[1]] < 2]

    def rec(start: int) -> ImprovMove | None:
        if len(chosen) == num_add:
            key = count_structure(instance.n, kept | frozenset(chosen))
            key = (key[0], -key[1], key[2])
            if key < base_key:
                return ImprovMove(frozenset(deleted), frozenset(chosen))
            return None
        for idx in range(start, len(live)):
            u, v, e = live[idx]
            if cap[u] >= 2 or cap[v] >= 2:
                continue
            cap[u] += 1
            cap[v] += 1
            chosen.append(e)
            found = rec(idx + 1)
            if found is not None:
                return found
            chosen.pop()
            cap[u] -= 1
            cap[v] -= 1
        return None

    return rec(0)


def k_improv(instance: OneTwoInstance, tour: Tour, k: int, seed: int = 0) -> Tour:
    """Full pipeline: tour -> 2-matching -> improv fixed point -> reconnect.

    The output never costs more than the input: improvement steps cannot
    increase the component count, and reconnection pays at most 2 per
    component.
    """
    tm = tour_to_two_matching(instance, tour)
    while True:
        move = find_improving_improv_move(instance, tm, k)
        if move is None:
            break
        new_tm = apply_improv_move(instance, tm, move)
        if not new_tm.key() < tm.key():
            raise AssertionError("improv move failed to improve the key")
        tm = new_tm
    result = two_matching_to_tour(instance, tm, seed)
    if tour_cost(instance, result) > tour_cost(instance, tour):
        raise AssertionError("k-improv increased the tour cost")
    return result
