"""Independent k-optimality certification by exhaustive neighborhood scan.

This deliberately does not share code with the move search in localsearch:
moves are enumerated here by reassembling the tour paths from permutations
and orientations (localsearch matches endpoint ports with union-find), and
the 2-move scan is vectorized. A certificate reports the searched-space
size; a counterexample is returned as a strictly improving KMove.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from ..core.instance import Instance
from ..core.tour import KMove, Tour, apply_kmove, tour_cost


class BudgetExceededError(RuntimeError):
    """The exhaustive search ran out of budget before certifying."""


@dataclass(frozen=True)
class OptimalityCertificate:
    certified: bool
    k: int
    searched: int
    counterexample: KMove | None = None

    def __post_init__(self):
        if self.certified == (self.counterexample is not None):
            raise ValueError("certificate and counterexample are exclusive")


def _improving_2move(instance: Instance, tour: Tour) -> tuple[KMove | None, int]:
    """Vectorized scan over all non-adjacent tour-edge pairs.

    Removing oriented edges (a,b), (c,d) and adding {a,c}, {b,d} is the only
    nontrivial 2-reconnection. Returns (move or None, pairs examined).
    """
    o = np.asarray(tour.order, dtype=np.int64)
    n = len(o)
    nxt = np.roll(o, -1)
    edge_cost = np.empty(n, dtype=np.int64)
    for i in range(n):
        edge_cost[i] = instance.c(int(o[i]), int(nxt[i]))
    searched = 0
    for i in range(n - 2):
        j_start = i + 2
        j_end = n if i > 0 else n - 1  # skip tour-adjacent pairs
        if j_start >= j_end:
            continue
        a, b = int(o[i]), int(nxt[i])
        js = np.arange(j_start, j_end)
        row_a = instance.cost_row(a)
        row_b = instance.cost_row(b)
        delta = (
            row_a[o[js]]
            + row_b[nxt[js]]
            - edge_cost[i]
            - edge_cost[js]
        )
        searched += len(js)
        hits = np.nonzero(delta < 0)[0]
        if len(hits):
            j = int(js[hits[0]])
            c, d = int(o[j]), int(nxt[j])
            move = KMove(
                removed=frozenset(
                    {frozenset((a, b)), frozenset((c, d))}
                ),
                added=frozenset(
                    {frozenset((a, c)), frozenset((b, d))}
                ),
                delta=int(delta[hits[0]]),
            )
            return move, searched
    return None, searched


def _iter_reassemblies(num_paths: int):
    """Orders and orientations of paths 2..j against fixed forward path 1."""
    rest = list(range(1, num_paths))
    for perm in permutations(rest):
        for flips in product((False, True), repeat=num_paths - 1):
            yield perm, (False,) + flips


def _improving_jmove(
    instance: Instance, tour: Tour, j: int, budget: int | None
) -> tuple[KMove | None, int]:
    """Exhaustive scan over exact-j removals via path reassembly."""
    o = tour.order
    n = len(o)
    edge_cost = [instance.c(o[i], o[(i + 1) % n]) for i in range(n)]
    searched = 0
    for removed_idx in combinations(range(n), j):
        removed_cost = sum(edge_cost[i] for i in removed_idx)
        # paths between removed edges, as index ranges (start.. end inclusive)
        spans = []
        for a, b in zip(removed_idx, removed_idx[1:] + (removed_idx[0] + n,)):
            spans.append(((a + 1) % n, b % n))
        ends = [(o[s], o[e]) for s, e in spans]
        for perm, flips in _iter_reassemblies(j):
            searched += 1
            if budget is not None and searched > budget:
                raise BudgetExceededError(
                    f"budget {budget} exceeded at {j}-move enumeration"
                )
            seq = [0] + list(perm)
            added_cost = 0
            added = []
            ok = True
            for t in range(j):
                p_cur, p_nxt = seq[t], seq[(t + 1) % j]
                end_cur = ends[p_cur][0 if flips[p_cur] else 1]
                start_nxt = ends[p_nxt][1 if flips[p_nxt] else 0]
                if end_cur == start_nxt:
                    ok = False
                    break
                added.append(frozenset((end_cur, start_nxt)))
                added_cost += instance.c(end_cur, start_nxt)
            if not ok or added_cost >= removed_cost:
                continue
            if len(set(added)) != j:
                continue
            removed = frozenset(
                frozenset((o[i], o[(i + 1) % n])) for i in removed_idx
            )
            added_set = frozenset(added)
            overlap = removed & added_set
            move = KMove(
                removed=removed - overlap,
                added=added_set - overlap,
                delta=added_cost - removed_cost,
            )
            if not move.removed:
                continue
            return move, searched
    return None, searched


def verify_k_optimal(
    instance: Instance, tour: Tour, k: int, budget: int | None = None
) -> OptimalityCertificate:
    """Certify that no improving move replaces at most k edges.

    Returns a certificate with the searched-space size, or the first
    improving move found (validated by applying it and re-evaluating the
    cost). Raises BudgetExceededError when the budget runs out, which is
    distinct from a certification.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    searched_total = 0
    move, searched = _improving_2move(instance, tour)
    searched_total += searched
    if move is None:
        for j in range(3, min(k, tour.n) + 1):
            move, searched = _improving_jmove(instance, tour, j, budget)
            searched_total += searched
            if move is not None:
                break
    if move is None:
        return OptimalityCertificate(True, k, searched_total)
    improved = apply_kmove(instance, tour, move)  # re-evaluates the delta
    if tour_cost(instance, improved) >= tour_cost(instance, tour):
        raise AssertionError("counterexample move failed re-evaluation")
    return OptimalityCertificate(False, k, searched_total, move)
