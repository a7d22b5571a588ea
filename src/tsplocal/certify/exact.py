"""Exact baselines: Held-Karp optimum and the double-tree witness tour."""

from __future__ import annotations

import numpy as np

from ..core.instance import GraphInstance, Instance
from ..core.tour import Tour, tour_cost

HELD_KARP_LIMIT = 18


def held_karp(instance: Instance) -> tuple[Tour, int]:
    """Provably optimal tour by subset dynamic programming, n <= 18.

    The tour starts at vertex 0. Among equally cheap predecessors the DP keeps
    the one with the smallest vertex index, and the closing vertex is chosen
    the same way; this tie-break, and with it the returned order, is part of
    the contract.
    """
    n = instance.n
    if n > HELD_KARP_LIMIT:
        raise ValueError(f"n={n} exceeds the Held-Karp limit {HELD_KARP_LIMIT}")
    if n < 3:
        raise ValueError("need at least 3 vertices")
    cost = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        cost[u] = instance.cost_row(u)

    m = n - 1  # vertices 1..n-1 encoded in the mask
    size = 1 << m
    INF = np.int64(2**62)
    dp = np.full((size, m), INF, dtype=np.int64)
    for j in range(m):
        dp[1 << j, j] = cost[0, j + 1]
    masks = np.arange(size)
    popcount = np.bitwise_count(masks)
    # Layer pc reads only layer pc - 1, so each (layer, j) is one batched step.
    for pc in range(2, m + 1):
        layer = masks[popcount == pc]
        for j in range(m):
            bit = 1 << j
            mask = layer[(layer & bit) != 0]
            dp[mask, j] = (dp[mask ^ bit] + cost[1:, j + 1]).min(axis=1)
    # Walk back from the full mask. Each predecessor is the first argmin of the
    # vector the DP minimised, so ties go to the smallest index, as in the DP.
    mask = size - 1
    closing = dp[mask] + cost[1:n, 0]
    j = int(np.argmin(closing))
    best_cost = int(closing[j])
    chain = [j + 1]
    while mask != 1 << j:
        mask ^= 1 << j
        j = int(np.argmin(dp[mask] + cost[1:, j + 1]))
        chain.append(j + 1)
    order = [0] + chain[::-1]
    tour = Tour(order)
    if tour_cost(instance, tour) != best_cost:
        raise AssertionError("Held-Karp reconstruction mismatch")
    return tour, best_cost


def minimum_spanning_tree(instance: Instance) -> list[tuple[int, int]]:
    """Prim's algorithm over the full metric from vertex 0.

    Each step adds the smallest-index vertex of minimum key; a key moves to a
    new tree vertex only when that vertex is strictly closer.
    """
    n = instance.n
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    key = np.array(instance.cost_row(0), dtype=np.int64)
    key_from = np.zeros(n, dtype=np.int64)
    never = np.iinfo(np.int64).max
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        pick = int(np.argmin(np.where(in_tree, never, key)))  # first minimum
        edges.append((int(key_from[pick]), pick))
        in_tree[pick] = True
        row = instance.cost_row(pick)
        closer = (row < key) & ~in_tree
        key[closer] = row[closer]
        key_from[closer] = pick
    return edges


def double_tree_bound(instance: Instance) -> Tour:
    """MST doubled, Euler walk, shortcut: a tour of cost <= 2 * MST.

    For a GraphInstance the MST uses unit edges only, so the witness costs at
    most 2(n-1).
    """
    n = instance.n
    if n == 1:
        return Tour([0])
    mst = minimum_spanning_tree(instance)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in mst:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    # DFS preorder of the tree = shortcut Euler walk of the doubled tree
    order = []
    seen = [False] * n
    stack = [0]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        order.append(u)
        for w in reversed(adj[u]):
            if not seen[w]:
                stack.append(w)
    tour = Tour(order)
    mst_cost = sum(instance.c(u, v) for u, v in mst)
    if tour_cost(instance, tour) > 2 * mst_cost:
        raise AssertionError("double-tree shortcut exceeded twice the MST")
    if isinstance(instance, GraphInstance) and tour_cost(instance, tour) > 2 * (n - 1):
        raise AssertionError("double-tree witness exceeded 2(n-1) on a graph metric")
    return tour
