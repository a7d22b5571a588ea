"""Timing statistics, output fingerprints and the reference comparison.

Pure functions of plain data, so the benchmark's own tests can exercise them
without running a workload.
"""

from __future__ import annotations

import hashlib
import json


def tail_percentile(times) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail job time.

    The tail is the highest percentile that has at least ten jobs beyond it:
    in the ascending order x[0..n-1], the value x[n-11], which is percentile
    100*(n-11)/(n-1) under linear interpolation between order statistics.
    With fewer than 11 jobs no percentile qualifies and the maximum is given
    as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n == 0:
        raise ValueError("no job times")
    if n < 11:
        return ordered[-1], 100.0, n
    idx = n - 11
    pct = 100.0 * idx / (n - 1)
    return ordered[idx], pct, n


def digest(data) -> str:
    """Short stable hash of JSON-serialisable data."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def tour_fingerprint(order, cost: int) -> dict:
    """A tour by the hash of its exact vertex order, and its cost."""
    return {"order": digest(list(order)), "cost": int(cost)}


def edge_list(edges) -> list[list[int]]:
    """Canonical form of a set of undirected edges."""
    return sorted(sorted(int(v) for v in e) for e in edges)


def compare_round(
    observed: dict[str, str], expected: dict[str, str] | None
) -> list[str]:
    """Names of the jobs whose fingerprint differs from the reference."""
    if expected is None:
        return []
    names = sorted(set(observed) | set(expected))
    return [name for name in names if observed.get(name) != expected.get(name)]
