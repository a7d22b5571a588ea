"""Brute-force oracles, independent of the library code paths they check."""

from __future__ import annotations

from itertools import combinations, permutations

from tsplocal.core import Tour


def naive_tour_cost(instance, tour) -> int:
    total = 0
    o = list(tour.order)
    for i in range(len(o)):
        total += instance.c(o[i], o[(i + 1) % len(o)])
    return total


def all_tours(n: int):
    """Every distinct tour (rotation/reflection quotiented), n <= 9."""
    for perm in permutations(range(1, n)):
        if n > 2 and perm[0] > perm[-1]:
            continue
        yield Tour((0,) + perm)


def brute_optimum(instance) -> tuple[Tour, int]:
    best, best_cost = None, None
    for t in all_tours(instance.n):
        c = naive_tour_cost(instance, t)
        if best_cost is None or c < best_cost:
            best, best_cost = t, c
    return best, best_cost


def brute_has_improving_kmove(instance, tour, k: int) -> bool:
    """Any cheaper tour differing from `tour` by at most k edges?"""
    base_edges = tour.edge_set()
    base_cost = naive_tour_cost(instance, tour)
    for t in all_tours(instance.n):
        if len(base_edges - t.edge_set()) <= k and naive_tour_cost(instance, t) < base_cost:
            return True
    return False


def girth_by_edge_deletion(graph) -> float:
    """Shortest cycle through each edge: delete it, find dist(u,v) + 1."""
    from collections import deque

    best = float("inf")
    for u, v in graph.edges():
        dist = {u: 0}
        q = deque([u])
        while q:
            a = q.popleft()
            for b in graph.adj[a]:
                if a == u and b == v:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    q.append(b)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def floyd_warshall(graph):
    n = graph.n
    INF = float("inf")
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in graph.edges():
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            row_k = d[k]
            row_i = d[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return d


def brute_ex(n: int, girth_bound: int) -> int:
    """ex(n, g) by enumerating all 2^C(n,2) labeled graphs; n <= 6."""
    from tsplocal.extremal import SimpleGraph, girth

    pairs = list(combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) <= best:
            continue
        if girth(SimpleGraph(n, edges)) >= girth_bound:
            best = len(edges)
    return best


def dfs_count_structure(n: int, edges) -> tuple[int, int, int]:
    """(components, cycles, singletons) of a max-degree-2 edge set by DFS.

    A component is a cycle iff all its vertices have degree 2.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    if any(len(a) > 2 for a in adj):
        raise ValueError("edge set exceeds degree 2")
    seen = [False] * n
    components = cycles = singletons = 0
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        components += 1
        if not adj[s]:
            singletons += 1
            continue
        size = 1
        deg_sum = len(adj[s])
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    size += 1
                    deg_sum += len(adj[w])
                    stack.append(w)
        if deg_sum == 2 * size:
            cycles += 1
    return components, cycles, singletons


def prim_reference(instance) -> list[tuple[int, int]]:
    """Prim's algorithm from vertex 0 as a plain double loop.

    Each step adds the smallest-index vertex of minimum key; a key moves to a
    new tree vertex only when that vertex is strictly closer.
    """
    n = instance.n
    in_tree = [False] * n
    in_tree[0] = True
    best = [instance.c(0, v) for v in range(n)]
    best_from = [0] * n
    edges: list[tuple[int, int]] = []
    for _ in range(n - 1):
        pick, pick_cost = -1, None
        for v in range(n):
            if not in_tree[v] and (pick_cost is None or best[v] < pick_cost):
                pick, pick_cost = v, best[v]
        edges.append((best_from[pick], pick))
        in_tree[pick] = True
        for v in range(n):
            if not in_tree[v] and instance.c(pick, v) < best[v]:
                best[v] = instance.c(pick, v)
                best_from[v] = pick
    return edges


def brute_improv_move_exists(instance, tm, k: int) -> bool:
    """Dumb enumeration over all (delete, add) pairs with total size <= k."""
    base = (tm.components, -tm.cycles, tm.singletons)
    current = sorted(tm.edges, key=sorted)
    candidates = [
        frozenset((u, v))
        for u in range(instance.n)
        for v in sorted(instance.unit_adj[u])
        if u < v and frozenset((u, v)) not in tm.edges
    ]
    for d in range(0, k + 1):
        for a in range(0, k + 1 - d):
            for dels in combinations(current, d):
                for adds in combinations(candidates, a):
                    edges = (tm.edges - frozenset(dels)) | frozenset(adds)
                    degree: dict[int, int] = {}
                    ok = True
                    for e in edges:
                        for v in e:
                            degree[v] = degree.get(v, 0) + 1
                            if degree[v] > 2:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
                    c, cy, s = dfs_count_structure(instance.n, edges)
                    if (c, -cy, s) < base:
                        return True
    return False


def brute_improving_alternating_cycles(instance, tour, max_edges: int):
    """All improving alternating cycles with <= max_edges edges.

    A cycle alternates tour/non-tour edges, visits no vertex twice, and its
    augmentation (symmetric difference) must again be a tour of lower cost.
    """
    n = tour.n
    tour_edges = tour.edge_set()
    succ = tour.successor()
    pred = {v: u for u, v in succ.items()}
    results = []

    def closes_to_tour(cycle_vertices) -> bool:
        edges = set(tour_edges)
        k = len(cycle_vertices)
        for i in range(k):
            e = frozenset((cycle_vertices[i], cycle_vertices[(i + 1) % k]))
            if e in edges:
                edges.discard(e)
            else:
                edges.add(e)
        if len(edges) != n:
            return False
        adj: dict[int, list[int]] = {}
        for e in edges:
            u, v = tuple(e)
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if len(adj) != n or any(len(x) != 2 for x in adj.values()):
            return False
        prev, cur = -1, 0
        steps = 0
        while True:
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
            steps += 1
            if cur == 0:
                return steps == n

    def rec(seq, used_vertices, gain):
        depth = len(seq) - 1  # edges so far
        last = seq[-1]
        if depth % 2 == 1 and depth >= 3:
            # try to close with a non-tour edge (last, seq[0])
            e = frozenset((last, seq[0]))
            if e not in tour_edges and len(e) == 2:
                g = gain - instance.c(last, seq[0])
                if g > 0 and closes_to_tour(seq):
                    results.append((tuple(seq), g))
        if depth + 1 > max_edges - 1:
            return
        if depth % 2 == 0:
            for v in (pred[last], succ[last]):
                if v in used_vertices:
                    continue
                rec(seq + [v], used_vertices | {v}, gain + instance.c(last, v))
        else:
            for v in range(n):
                if v in used_vertices or v == last:
                    continue
                if frozenset((last, v)) in tour_edges:
                    continue
                rec(seq + [v], used_vertices | {v}, gain - instance.c(last, v))

    for start in range(n):
        rec([start], {start}, 0)
    return results
