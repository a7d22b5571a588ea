"""k-moves: exhaustive improving-move search and the local search loop."""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations

import numpy as np

from ..core.instance import Instance, OneTwoInstance
from ..core.tour import KMove, Tour, apply_kmove

# (tuple, template, pair) entries costed in one numpy step. Each temporary then
# stays at 64 KiB, so large k or n run in small memory and the arrays come from
# the heap rather than fresh mappings; a step always takes at least one tuple.
_CHUNK_ENTRIES = 1 << 13


def _matchings(free: list[int]):
    """Perfect matchings of the ports in `free`, in a fixed recursive order."""
    if not free:
        yield []
        return
    first = free[0]
    for idx in range(1, len(free)):
        rest = free[1:idx] + free[idx + 1 :]
        for tail in _matchings(rest):
            yield [(first, free[idx])] + tail


@cache
def _templates(j: int) -> np.ndarray:
    """Port matchings that reconnect j tour paths into a single cycle.

    Port 2p is the start and port 2p + 1 the end of path p. Whether a matching
    closes a single cycle is decided by union-find over the path ids alone,
    so the templates depend only on j. Returned as an array of shape
    (templates, j, 2) of port indices, in matching enumeration order.
    """
    found = []
    for pairing in _matchings(list(range(2 * j))):
        ufparent = list(range(j))

        def find(x: int) -> int:
            while ufparent[x] != x:
                ufparent[x] = ufparent[ufparent[x]]
                x = ufparent[x]
            return x

        merges = 0
        for pa, pb in pairing:
            ra, rb = find(pa // 2), find(pb // 2)
            if ra != rb:
                ufparent[ra] = rb
                merges += 1
        if merges == j - 1:
            found.append(pairing)
    out = np.array(found, dtype=np.intp).reshape(-1, j, 2)
    out.setflags(write=False)
    return out


def _cost_matrix(instance: Instance) -> np.ndarray:
    if isinstance(instance, OneTwoInstance):
        return np.array([instance.cost_row(u) for u in range(instance.n)])
    return instance.cost


def _kmove(
    order: tuple[int, ...], removed_idx: np.ndarray, pairs: np.ndarray, delta: int
) -> KMove:
    """The move of one improving (tuple, template) candidate, unfiltered.

    On a valid tour with n >= 4, scanned by ascending size, the first hit is
    always an exact exchange of j tour edges for j new ones:
      - a single-cycle template for j >= 2 never joins the two ports of one
        path, so no added edge is a self-loop, and never closes two paths into
        a 2-cycle, so no two added edges are parallel;
      - tour neighbours in different paths are joined by a removed edge, so an
        added edge can only be a surviving tour edge by repeating a removed
        one;
      - a hit that repeats m removed edges is an improving single-cycle
        reconnection of j - m edges with the same delta, which the scan at
        size j - m would have returned first (j - m >= 2: an exchange of at
        most one edge that leaves a tour changes nothing and costs nothing).
    `apply_kmove` re-checks every move that k-Opt applies.
    """
    n = len(order)
    return KMove(
        removed=frozenset(
            frozenset((order[i], order[(i + 1) % n])) for i in removed_idx.tolist()
        ),
        added=frozenset(frozenset(pair) for pair in pairs.tolist()),
        delta=delta,
    )


def find_improving_kmove(instance: Instance, tour: Tour, k: int) -> KMove | None:
    """First improving move replacing at most k tour edges, or None.

    Deterministic scan, and part of the contract: move size ascending, then
    removed-edge index tuples in lexicographic order, then reconnection
    templates in enumeration order. The first candidate in that order that
    strictly decreases the tour cost is returned, so the k-Opt trajectory is
    fixed by the instance and the start tour. That candidate is always a valid
    tour (see `_kmove`).

    All tuples with the same first removed index are costed in one numpy step
    (split into chunks when large); the first improving candidate in scan
    order is the answer.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = tour.n
    if n < 4:
        return None
    o = np.asarray(tour.order, dtype=np.intp)
    cost = _cost_matrix(instance)
    edge_cost = cost[o, np.roll(o, -1)]
    for j in range(2, min(k, n) + 1):
        templates = _templates(j)
        first, second = templates[:, :, 0], templates[:, :, 1]
        rows = max(1, _CHUNK_ENTRIES // first.size)
        # tuples starting at i0 are i0 followed by the (j-1)-combinations of
        # range(n) whose first element exceeds i0: a suffix of `rest`
        rest = np.fromiter(
            chain.from_iterable(combinations(range(n), j - 1)), dtype=np.intp
        ).reshape(-1, j - 1)
        for i0 in range(n - j + 1):
            tail = rest[np.searchsorted(rest[:, 0], i0 + 1) :]
            for lo in range(0, len(tail), rows):
                part = tail[lo : lo + rows]
                idx = np.empty((len(part), j), dtype=np.intp)
                idx[:, 0] = i0
                idx[:, 1:] = part
                # path p runs from position idx[p] + 1 to idx[p + 1]
                ports = np.empty((len(idx), 2 * j), dtype=np.intp)
                ports[:, 0::2] = o[(idx + 1) % n]
                ports[:, 1::2] = o[np.roll(idx, -1, axis=1)]
                removed_cost = edge_cost[idx].sum(axis=1)
                added_cost = cost[ports[:, first], ports[:, second]].sum(axis=2)
                rows_hit, templates_hit = np.nonzero(added_cost < removed_cost[:, None])
                if len(rows_hit):
                    r, t = rows_hit[0], templates_hit[0]
                    return _kmove(
                        tour.order,
                        idx[r],
                        ports[r][templates[t]],
                        int(added_cost[r, t] - removed_cost[r]),
                    )
    return None


def k_opt(instance: Instance, tour: Tour, k: int) -> Tour:
    """Iterate improving k-moves to a fixed point.

    Every applied move strictly decreases the (integer) cost, which
    `apply_kmove` re-derives, so the loop terminates.
    """
    current = tour
    while True:
        move = find_improving_kmove(instance, current, k)
        if move is None:
            return current
        current = apply_kmove(instance, current, move)
        if move.delta >= 0:
            raise AssertionError("k-move failed to decrease cost")
