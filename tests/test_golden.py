"""Golden outputs of the exact DP and the k-move scan.

The literals were recorded from the per-(mask, vertex) Held-Karp loop and the
per-tuple k-move scan that the batched versions replaced. The batched code
must reproduce them exactly: the same optimal tour (ties broken towards the
smallest predecessor index), the same first improving move and therefore the
same k-Opt trajectory.
"""

from __future__ import annotations

import pytest

from tsplocal.certify import held_karp
from tsplocal.core.rand import (
    line_metric,
    random_graph_instance,
    random_metric_instance,
    random_one_two_instance,
    random_tour,
)
from tsplocal.localsearch import find_improving_kmove, k_opt

# (n, seed) -> (order, cost) of held_karp(random_metric_instance(n, seed))
HK = {
    (3, 0): ((0, 2, 1), 101),
    (3, 1): ((0, 2, 1), 92),
    (3, 2): ((0, 2, 1), 16),
    (4, 0): ((0, 3, 2, 1), 75),
    (4, 1): ((0, 3, 2, 1), 44),
    (4, 2): ((0, 3, 2, 1), 32),
    (5, 0): ((0, 4, 2, 1, 3), 100),
    (5, 1): ((0, 4, 2, 3, 1), 76),
    (5, 2): ((0, 3, 4, 2, 1), 66),
    (6, 0): ((0, 4, 5, 1, 2, 3), 113),
    (6, 1): ((0, 4, 3, 5, 2, 1), 68),
    (6, 2): ((0, 5, 3, 4, 2, 1), 59),
    (7, 0): ((0, 4, 5, 3, 1, 6, 2), 94),
    (7, 1): ((0, 6, 5, 2, 4, 3, 1), 81),
    (7, 2): ((0, 5, 3, 4, 2, 6, 1), 84),
    (8, 0): ((0, 4, 3, 1, 7, 5, 6, 2), 92),
    (8, 1): ((0, 6, 4, 5, 2, 3, 7, 1), 76),
    (8, 2): ((0, 4, 3, 2, 5, 7, 6, 1), 87),
    (9, 0): ((0, 5, 4, 7, 3, 8, 1, 6, 2), 94),
    (9, 1): ((0, 4, 3, 2, 7, 8, 6, 5, 1), 43),
    (9, 2): ((0, 2, 3, 8, 7, 5, 4, 6, 1), 108),
    (10, 0): ((0, 5, 9, 1, 7, 6, 3, 8, 4, 2), 108),
    (10, 1): ((0, 4, 7, 2, 5, 9, 6, 3, 8, 1), 51),
    (10, 2): ((0, 2, 4, 9, 7, 3, 6, 8, 5, 1), 90),
    (11, 0): ((0, 5, 3, 10, 9, 7, 6, 2, 8, 1, 4), 84),
    (11, 1): ((0, 4, 6, 10, 2, 5, 7, 9, 8, 3, 1), 62),
    (11, 2): ((0, 2, 10, 4, 3, 8, 6, 5, 9, 7, 1), 103),
    (12, 0): ((0, 4, 6, 10, 2, 11, 8, 5, 9, 1, 7, 3), 95),
    (12, 1): ((0, 8, 7, 4, 9, 3, 5, 11, 10, 2, 6, 1), 63),
    (12, 2): ((0, 9, 2, 8, 10, 6, 4, 7, 5, 11, 3, 1), 108),
    (13, 0): ((0, 9, 10, 5, 4, 3, 11, 7, 12, 6, 2, 8, 1), 126),
    (13, 1): ((0, 4, 6, 3, 12, 9, 7, 10, 8, 2, 11, 5, 1), 93),
    (13, 2): ((0, 9, 3, 10, 8, 12, 5, 4, 11, 6, 7, 2, 1), 149),
    (14, 0): ((0, 4, 10, 6, 2, 11, 8, 9, 7, 1, 5, 13, 12, 3), 130),
    (14, 1): ((0, 6, 9, 3, 11, 5, 7, 12, 13, 8, 2, 10, 1, 4), 84),
    (14, 2): ((0, 13, 6, 11, 10, 7, 3, 8, 12, 5, 2, 4, 9, 1), 168),
    (15, 0): ((0, 4, 9, 6, 8, 5, 13, 11, 7, 12, 3, 10, 14, 1, 2), 102),
    (15, 1): ((0, 14, 12, 6, 3, 9, 1, 5, 10, 13, 7, 8, 2, 11, 4), 90),
    (15, 2): ((0, 13, 11, 10, 9, 6, 7, 5, 4, 3, 8, 12, 2, 14, 1), 166),
    (16, 0): ((0, 15, 1, 13, 11, 9, 3, 10, 12, 6, 7, 2, 14, 8, 5, 4), 101),
    (16, 1): ((0, 14, 6, 15, 10, 3, 12, 9, 5, 2, 8, 1, 7, 4, 11, 13), 94),
    (16, 2): ((0, 15, 13, 12, 4, 3, 5, 10, 2, 8, 9, 6, 11, 7, 14, 1), 208),
    (17, 0): ((0, 15, 8, 14, 16, 6, 13, 3, 7, 5, 2, 11, 9, 12, 1, 10, 4), 120),
    (18, 0): ((0, 14, 11, 17, 2, 15, 13, 12, 8, 1, 9, 16, 7, 10, 3, 6, 5, 4), 113),
}

# line metrics with many zero and tied distances: (points, order, cost)
HK_LINE = [
    ([0, 0, 1, 1, 2, 2, 3, 3, 5, 5, 5, 8], (0, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 16),
    (
        [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3],
        (0, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1),
        6,
    ),
]

# (k, n, seed) -> final order of k_opt from random_tour(n, seed + 10000) on
# random_metric_instance(n, seed)
KOPT = {
    (2, 100, 0): (
        0, 55, 77, 41, 59, 66, 52, 80, 81, 3, 43, 88, 5, 61, 57, 97, 94, 15, 2, 84, 72,
        47, 1, 82, 51, 38, 46, 60, 87, 67, 86, 74, 34, 65, 29, 22, 83, 73, 24, 91, 58,
        6, 31, 85, 19, 37, 21, 99, 96, 70, 54, 12, 32, 18, 64, 25, 23, 63, 17, 30, 78,
        75, 68, 26, 50, 28, 40, 71, 7, 76, 9, 42, 11, 53, 62, 69, 98, 90, 10, 79, 49,
        35, 13, 48, 92, 8, 4, 14, 44, 39, 45, 16, 33, 89, 20, 36, 56, 93, 27, 95
    ),
    (2, 100, 1): (
        0, 33, 50, 14, 11, 28, 96, 58, 38, 90, 35, 56, 70, 63, 32, 34, 57, 29, 49, 64,
        42, 21, 71, 6, 16, 66, 73, 1, 12, 89, 54, 47, 68, 77, 62, 59, 93, 53, 31, 55,
        18, 8, 10, 88, 60, 75, 37, 36, 80, 74, 45, 39, 2, 20, 3, 72, 76, 61, 95, 94, 13,
        19, 69, 67, 85, 24, 51, 30, 78, 65, 9, 82, 52, 48, 23, 87, 27, 98, 79, 41, 4, 5,
        86, 91, 84, 15, 22, 46, 26, 43, 97, 44, 83, 17, 81, 7, 40, 92, 25, 99
    ),
    (3, 14, 0): (0, 4, 6, 10, 2, 11, 8, 9, 7, 1, 5, 3, 13, 12),
    (3, 15, 1): (0, 4, 11, 8, 2, 7, 13, 10, 5, 6, 3, 1, 9, 12, 14),
    (3, 16, 2): (0, 1, 14, 7, 11, 6, 9, 8, 2, 10, 5, 3, 4, 12, 13, 15),
    (3, 40, 0): (
        0, 4, 21, 16, 25, 1, 17, 31, 13, 36, 15, 32, 20, 3, 34, 7, 24, 22, 6, 12, 38,
        26, 2, 33, 28, 9, 23, 10, 5, 27, 30, 14, 19, 11, 37, 18, 35, 39, 8, 29
    ),
}

# (family, seed, stage, k) -> first improving move as (removed, added, delta),
# edges as sorted pairs. Instances have n = 12; stage "random" is
# random_tour(12, seed + 100), "2opt" is k_opt of it with k=2 and "3opt" is
# k_opt of that with k=3. Scans of the 2- and 3-optimal tours pass through
# many tuples of adjacent removed positions (singleton paths) before their
# first hit, and their hits run the self-loop, parallel-edge, overlap and
# re-add checks.
MOVES = {
    ("graph", 14, "2opt", 2): None,
    ("graph", 14, "2opt", 3): (
        [(0, 7), (0, 10), (2, 6)],
        [(0, 2), (0, 6), (7, 10)],
        -1,
    ),
    ("graph", 14, "2opt", 4): (
        [(0, 7), (0, 10), (2, 6)],
        [(0, 2), (0, 6), (7, 10)],
        -1,
    ),
    ("graph", 14, "3opt", 3): None,
    ("graph", 14, "3opt", 4): None,
    ("graph", 14, "random", 2): ([(2, 10), (6, 7)], [(2, 6), (7, 10)], -1),
    ("graph", 33, "2opt", 2): None,
    ("graph", 33, "2opt", 3): (
        [(1, 5), (6, 9), (10, 11)],
        [(1, 11), (5, 9), (6, 10)],
        -1,
    ),
    ("graph", 33, "2opt", 4): (
        [(1, 5), (6, 9), (10, 11)],
        [(1, 11), (5, 9), (6, 10)],
        -1,
    ),
    ("graph", 33, "3opt", 3): None,
    ("graph", 33, "3opt", 4): (
        [(1, 3), (2, 4), (6, 10), (7, 11)],
        [(1, 4), (2, 3), (6, 11), (7, 10)],
        -1,
    ),
    ("graph", 33, "random", 2): ([(0, 2), (1, 3)], [(0, 3), (1, 2)], -1),
    ("metric", 7, "2opt", 2): None,
    ("metric", 7, "2opt", 3): (
        [(0, 11), (2, 7), (6, 11)],
        [(0, 6), (2, 11), (7, 11)],
        -8,
    ),
    ("metric", 7, "2opt", 4): (
        [(0, 11), (2, 7), (6, 11)],
        [(0, 6), (2, 11), (7, 11)],
        -8,
    ),
    ("metric", 7, "3opt", 3): None,
    ("metric", 7, "3opt", 4): None,
    ("metric", 7, "random", 2): ([(0, 4), (5, 11)], [(0, 11), (4, 5)], -7),
    ("metric", 19, "2opt", 2): None,
    ("metric", 19, "2opt", 3): (
        [(0, 9), (2, 7), (10, 11)],
        [(0, 2), (7, 10), (9, 11)],
        -1,
    ),
    ("metric", 19, "2opt", 4): (
        [(0, 9), (2, 7), (10, 11)],
        [(0, 2), (7, 10), (9, 11)],
        -1,
    ),
    ("metric", 19, "3opt", 3): None,
    ("metric", 19, "3opt", 4): (
        [(0, 6), (1, 10), (2, 4), (9, 11)],
        [(0, 4), (1, 6), (2, 9), (10, 11)],
        -1,
    ),
    ("metric", 19, "random", 2): ([(1, 3), (10, 11)], [(1, 10), (3, 11)], -14),
    ("metric", 29, "2opt", 2): None,
    ("metric", 29, "2opt", 3): (
        [(0, 2), (8, 9), (9, 11)],
        [(0, 9), (2, 9), (8, 11)],
        -4,
    ),
    ("metric", 29, "2opt", 4): (
        [(0, 2), (8, 9), (9, 11)],
        [(0, 9), (2, 9), (8, 11)],
        -4,
    ),
    ("metric", 29, "3opt", 3): None,
    ("metric", 29, "3opt", 4): (
        [(0, 2), (1, 9), (4, 10), (6, 7)],
        [(0, 7), (1, 2), (4, 6), (9, 10)],
        -1,
    ),
    ("metric", 29, "random", 2): ([(3, 11), (7, 10)], [(3, 10), (7, 11)], -18),
    ("onetwo", 3, "2opt", 2): None,
    ("onetwo", 3, "2opt", 3): ([(0, 9), (5, 8), (7, 9)], [(0, 7), (5, 9), (8, 9)], -1),
    ("onetwo", 3, "2opt", 4): ([(0, 9), (5, 8), (7, 9)], [(0, 7), (5, 9), (8, 9)], -1),
    ("onetwo", 3, "3opt", 3): None,
    ("onetwo", 3, "3opt", 4): None,
    ("onetwo", 3, "random", 2): ([(0, 10), (1, 8)], [(0, 1), (8, 10)], -1),
    ("onetwo", 18, "2opt", 2): None,
    ("onetwo", 18, "2opt", 3): (
        [(2, 10), (3, 11), (7, 8)],
        [(2, 8), (3, 10), (7, 11)],
        -1,
    ),
    ("onetwo", 18, "2opt", 4): (
        [(2, 10), (3, 11), (7, 8)],
        [(2, 8), (3, 10), (7, 11)],
        -1,
    ),
    ("onetwo", 18, "3opt", 3): None,
    ("onetwo", 18, "3opt", 4): (
        [(0, 9), (1, 11), (2, 8), (7, 10)],
        [(0, 1), (2, 10), (7, 9), (8, 11)],
        -1,
    ),
    ("onetwo", 18, "random", 2): ([(1, 5), (3, 8)], [(1, 8), (3, 5)], -1),
}


def _instance(family: str, seed: int):
    if family == "metric":
        return random_metric_instance(12, seed=seed)
    if family == "graph":
        return random_graph_instance(12, 5, seed=seed)
    return random_one_two_instance(12, seed=seed, unit_prob=0.25)


def _edges(es) -> list[tuple[int, int]]:
    return sorted(tuple(sorted(e)) for e in es)


@pytest.mark.parametrize("key", sorted(HK))
def test_held_karp_random_metric(key):
    n, seed = key
    tour, cost = held_karp(random_metric_instance(n, seed=seed))
    assert (tour.order, cost) == HK[key]


@pytest.mark.parametrize("points, order, cost", HK_LINE)
def test_held_karp_tied_line_metric(points, order, cost):
    tour, best = held_karp(line_metric(points))
    assert (tour.order, best) == (order, cost)


@pytest.mark.parametrize("key", sorted(KOPT))
def test_k_opt_final_order(key):
    k, n, seed = key
    inst = random_metric_instance(n, seed=seed)
    out = k_opt(inst, random_tour(n, seed=seed + 10_000), k)
    assert out.order == KOPT[key]


@pytest.mark.parametrize("family, seed", sorted({key[:2] for key in MOVES}))
def test_first_improving_kmove(family, seed):
    inst = _instance(family, seed)
    start = random_tour(12, seed=seed + 100)
    two = k_opt(inst, start, 2)
    tours = {"random": start, "2opt": two, "3opt": k_opt(inst, two, 3)}
    for (fam, s, stage, k), expected in MOVES.items():
        if (fam, s) != (family, seed):
            continue
        move = find_improving_kmove(inst, tours[stage], k)
        got = None
        if move is not None:
            got = (_edges(move.removed), _edges(move.added), move.delta)
        assert got == expected, (stage, k)
