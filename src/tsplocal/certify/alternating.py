"""Exhaustive search for short improving alternating cycles."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import Instance
from ..core.tour import Tour, hamiltonian_order
from .kopt_cert import BudgetExceededError


@dataclass(frozen=True)
class ImprovingCycle:
    vertices: tuple[int, ...]  # closing edge runs last -> first
    gain: int


def find_improving_alternating_cycle(
    instance: Instance,
    tour: Tour,
    max_edges: int,
    budget: int | None = 20_000_000,
) -> ImprovingCycle | None:
    """An alternating cycle with positive gain, at most max_edges edges, and a
    tour as its augmentation; None if none exists.

    DFS over vertex-disjoint alternating sequences: tour-edge steps at odd
    positions, arbitrary fresh non-tour steps at even positions, closing with
    a non-tour edge back to the start. Deterministic scan order.
    """
    if max_edges < 4:
        return None
    n = tour.n
    tour_edges = tour.edge_set()
    succ = tour.successor()
    pred = {v: u for u, v in succ.items()}
    counter = [0]

    def closes_to_tour(cycle_vertices) -> bool:
        edges = set(tour_edges)
        k = len(cycle_vertices)
        for i in range(k):
            e = frozenset((cycle_vertices[i], cycle_vertices[(i + 1) % k]))
            if e in edges:
                edges.discard(e)
            else:
                edges.add(e)
        return hamiltonian_order(edges, n) is not None

    def rec(seq: list[int], used: set[int], gain: int) -> ImprovingCycle | None:
        counter[0] += 1
        if budget is not None and counter[0] > budget:
            raise BudgetExceededError("alternating-cycle budget exceeded")
        depth = len(seq) - 1
        last = seq[-1]
        if depth % 2 == 1 and depth >= 3:
            closing = frozenset((last, seq[0]))
            if len(closing) == 2 and closing not in tour_edges:
                g = gain - instance.c(last, seq[0])
                if g > 0 and closes_to_tour(seq):
                    return ImprovingCycle(tuple(seq), g)
        if depth + 1 > max_edges - 1:
            return None
        if depth % 2 == 0:
            for v in sorted((pred[last], succ[last])):
                if v in used:
                    continue
                found = rec(seq + [v], used | {v}, gain + instance.c(last, v))
                if found is not None:
                    return found
        else:
            for v in range(n):
                if v in used or frozenset((last, v)) in tour_edges:
                    continue
                found = rec(seq + [v], used | {v}, gain - instance.c(last, v))
                if found is not None:
                    return found
        return None

    for start in range(n):
        found = rec([start], {start}, 0)
        if found is not None:
            return found
    return None
