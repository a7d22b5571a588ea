"""Seeded instance generators for harnesses and tests.

All randomness flows from the explicit seed argument.
"""

from __future__ import annotations

import random

import numpy as np

from .instance import GraphInstance, MetricInstance, OneTwoInstance, SimpleGraph
from .tour import Tour


def random_metric_instance(n: int, seed: int, max_cost: int = 50) -> MetricInstance:
    """Metric closure of a random symmetric integer matrix.

    Taking all-pairs shortest paths of an arbitrary non-negative matrix
    always yields a metric, and integer inputs stay integers.
    """
    rng = random.Random(seed)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = rng.randint(1, max_cost)
    # Floyd-Warshall closure
    for k in range(n):
        mat = np.minimum(mat, mat[:, k : k + 1] + mat[k : k + 1, :])
    return MetricInstance(mat)


def random_one_two_instance(n: int, seed: int, unit_prob: float = 0.3) -> OneTwoInstance:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < unit_prob
    ]
    return OneTwoInstance(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> SimpleGraph:
    """Random spanning tree plus `extra_edges` distinct chords."""
    rng = random.Random(seed)
    edges = set()
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        u = verts[i]
        v = verts[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return SimpleGraph(n, sorted(edges))


def random_graph_instance(n: int, extra_edges: int, seed: int) -> GraphInstance:
    return GraphInstance(random_connected_graph(n, extra_edges, seed))


def random_tour(n: int, seed: int) -> Tour:
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    return Tour(order)


def line_metric(points) -> MetricInstance:
    """Metric of collinear integer points (distances |x_i - x_j|)."""
    xs = [int(x) for x in points]
    n = len(xs)
    mat = [[abs(xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    return MetricInstance(mat)
