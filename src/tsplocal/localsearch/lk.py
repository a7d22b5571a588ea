"""Parameterized Lin-Kernighan.

Depth-first search over alternating walks. Two parameters bound the search:
p1 is the deepest level the search backtracks to, and even levels above p2
only admit tour-edge extensions that keep the walk closable. Augmentation
applies the best positive-gain closed walk found (symmetric difference) and
restarts; with integer costs every augmentation strictly decreases the tour
cost, so the procedure terminates.

Setting p1 = 2k-1, p2 = 2k-4 gives the k-Lin-Kernighan algorithm; k = 3 is
the classic parameterization (5, 2).

Every closure check asks whether T triangle W is a tour for the walk's edge
set W. `core.tour.exchange_closes` answers it from the tour's position
index, built once per pass: the removed tour edges cut T into segments, and
the walk along the added edges must pass them all. That costs
O(|W| log |W|) per check instead of O(n) for rebuilding T triangle W.
Candidate non-tour edges come from one numpy pass over the cost row of the
walk's end.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.tour import Tour, exchange_closes, tour_cost, tour_from_edge_set

UEdge = frozenset[int]


def k_lin_kernighan_params(k: int) -> tuple[int, int]:
    """(p1, p2) of the k-Lin-Kernighan algorithm."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return 2 * k - 1, 2 * k - 4


class _Search:
    """One improvement pass: DFS for the best positive-gain closed walk."""

    def __init__(self, instance: Instance, tour: Tour, p1: int, p2: int):
        self.instance = instance
        self.n = tour.n
        self.tour = tour
        self.tour_edges = set(tour.edge_set())
        self.succ = tour.successor()
        self.pred = {v: u for u, v in self.succ.items()}
        self.pos = [0] * self.n
        for idx, v in enumerate(tour.order):
            self.pos[v] = idx
        self.p1 = p1
        self.p2 = p2

    def run(self) -> tuple[set[UEdge], int] | None:
        """Returns (edge set of P*, g*) or None if no improving walk found."""
        inst = self.instance
        n = self.n
        x: list[int] = [0] * (n * 2 + 4)  # walk vertices by depth
        gains: list[int] = [0] * (n * 2 + 4)  # prefix gain after edge i
        walk_edges: list[UEdge] = []  # edges of P, index t-1 holds edge t
        candidates: dict[int, list[int]] = {0: sorted(range(n), reverse=True)}
        g_star = 0
        best: set[UEdge] | None = None
        i = 0
        while i >= 0:
            if not candidates.get(i):
                if g_star > 0:
                    return best, g_star
                i = min(i - 1, self.p1)
                del walk_edges[max(i, 0):]
                continue
            xi = candidates[i].pop()
            x[i] = xi
            del walk_edges[max(i - 1, 0):]
            if i > 0:
                walk_edges.append(frozenset((x[i - 1], xi)))
            if i % 2 == 1:
                gains[i] = gains[i - 1] + inst.c(x[i - 1], xi)
                # try closing the walk with the non-tour edge (x_i, x_0)
                if i >= 3 and xi != x[0]:
                    close = frozenset((xi, x[0]))
                    gain_closed = gains[i] - inst.c(xi, x[0])
                    if gain_closed > g_star:
                        closed = self._sym_diff_ok(walk_edges + [close])
                        if closed is not None:
                            g_star = gain_closed
                            best = closed
                candidates[i + 1] = self._extend_nontour(x, i, gains[i], g_star)
            else:
                if i > 0:
                    gains[i] = gains[i - 1] - inst.c(x[i - 1], xi)
                candidates[i + 1] = self._extend_tour(x, i, walk_edges)
            i += 1
        return None

    # -- candidate sets ----------------------------------------------------

    def _extend_nontour(
        self, x: list[int], i: int, gain_i: int, g_star: int
    ) -> list[int]:
        """Odd depth: fresh non-tour edges (x_i, v) with gain above g*."""
        xi = x[i]
        row = self.instance.cost_row(xi)
        fresh = row < gain_i - g_star
        fresh[[xi, x[0], self.pred[xi], self.succ[xi]]] = False
        for t in range(1, i + 1):  # edges of the walk so far
            if x[t - 1] == xi:
                fresh[x[t]] = False
            if x[t] == xi:
                fresh[x[t - 1]] = False
        out = np.flatnonzero(fresh)
        # pop() takes the last entry: order ascending by (gain, -id)
        return out[np.lexsort((-out, gain_i - row[out]))].tolist()

    def _extend_tour(self, x: list[int], i: int, walk_edges: list[UEdge]) -> list[int]:
        """Even depth: tour neighbors; above p2 the walk must stay closable."""
        inst = self.instance
        xi = x[i]
        x0 = x[0]
        walk_set = set(walk_edges)
        out = []
        for v in (self.pred[xi], self.succ[xi]):
            e = frozenset((xi, v))
            if e in walk_set:
                continue
            if i > self.p2:
                close = frozenset((v, x0))
                if close in self.tour_edges or close in walk_set or v == x0:
                    continue
                if self._sym_diff_ok(walk_edges + [e, close]) is None:
                    continue
            out.append(v)
        out.sort(key=lambda v: (inst.c(xi, v), -v))
        return out

    def _sym_diff_ok(self, closed_walk_edges: list[UEdge]) -> set[UEdge] | None:
        """Edge set of the closed walk if T triangle it is a tour, else None."""
        walk = set(closed_walk_edges)
        if exchange_closes(self.tour.order, self.pos, walk):
            return walk
        return None


def lin_kernighan(instance: Instance, tour: Tour, p1: int, p2: int) -> Tour:
    """Run Lin-Kernighan improvement passes to a fixed point."""
    if p1 < 1 or p2 < 0:
        raise ValueError("need p1 >= 1 and p2 >= 0")
    current = tour
    cost = tour_cost(instance, current)
    while True:
        found = _Search(instance, current, p1, p2).run()
        if found is None:
            return current
        walk, g_star = found
        edge_set = set(current.edge_set())
        for e in walk:
            if e in edge_set:
                edge_set.discard(e)
            else:
                edge_set.add(e)
        current = tour_from_edge_set(edge_set, current.n)
        new_cost = tour_cost(instance, current)
        if new_cost != cost - g_star:
            raise AssertionError("augmentation gain mismatch")
        if new_cost >= cost:
            raise AssertionError("augmentation failed to improve")
        cost = new_cost

