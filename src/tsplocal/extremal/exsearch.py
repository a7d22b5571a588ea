"""Exact computation of the maximum edge count under a girth constraint."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .graph import SimpleGraph, girth

EX_VERTEX_LIMIT = 9


def _short_cycles(n: int, max_len: int) -> list[list[tuple[int, int]]]:
    """All vertex cycles of length 3..max_len on n labeled vertices."""
    cycles = []
    for length in range(3, max_len + 1):
        for verts in combinations(range(n), length):
            anchor = verts[0]
            rest = verts[1:]
            for perm in permutations(rest):
                # quotient reflections: fix the orientation by perm[0] < perm[-1]
                if perm[0] > perm[-1]:
                    continue
                cyc = (anchor,) + perm
                cycles.append(
                    [
                        (min(cyc[i], cyc[(i + 1) % length]), max(cyc[i], cyc[(i + 1) % length]))
                        for i in range(length)
                    ]
                )
    return cycles


def ex_bruteforce(n: int, girth_bound: int) -> tuple[int, SimpleGraph]:
    """Exact ex(n, g): the maximum edges of an n-vertex graph with girth >= g.

    Branch-and-bound over all labeled graphs: every cycle shorter than the
    bound becomes a linear constraint over edge indicators and HiGHS proves
    the optimum. Returns the value and one witness graph (girth re-verified).
    Needs scipy (the `test` extra), imported here so the package loads
    without it.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    if girth_bound < 3:
        raise ValueError("girth bound must be >= 3")
    if n > EX_VERTEX_LIMIT:
        raise ValueError(f"n={n} exceeds the exhaustion limit {EX_VERTEX_LIMIT}")
    if n <= 1:
        return 0, SimpleGraph(max(n, 0))
    pairs = list(combinations(range(n), 2))
    index = {e: i for i, e in enumerate(pairs)}
    m = len(pairs)
    forbidden = _short_cycles(n, min(girth_bound - 1, n))
    if forbidden:
        rows = []
        for cyc in forbidden:
            row = np.zeros(m)
            for e in cyc:
                row[index[e]] = 1
            rows.append(row)
        constraints = LinearConstraint(
            np.array(rows), -np.inf, np.array([len(c) - 1 for c in forbidden])
        )
        res = milp(
            c=-np.ones(m),
            integrality=np.ones(m),
            bounds=Bounds(0, 1),
            constraints=constraints,
        )
    else:
        res = milp(c=-np.ones(m), integrality=np.ones(m), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = [pairs[i] for i in range(m) if res.x[i] > 0.5]
    witness = SimpleGraph(n, chosen)
    value = len(chosen)
    if girth(witness) < girth_bound:
        raise AssertionError("witness violates the girth bound")
    if value != round(-res.fun):
        raise AssertionError("witness edge count disagrees with the optimum")
    return value, witness


def alon_upper_bound_holds(n: int, m: int, girth_value: float) -> bool:
    """Sanity inequality m < n^(1+1/(k-1)) / 2^(1+1/(k-1)) + n/2.

    Uses the largest even 2k <= girth; exact integer arithmetic via raising
    both sides to the (k-1)-th power. Graphs below the bound return True.
    """
    if girth_value == float("inf"):
        return True
    k = int(girth_value) // 2
    if k < 2:
        return True
    # m < n^(k/(k-1)) / 2^(k/(k-1)) + n/2
    lhs = 2 * m - n  # compare (2m - n)/2 < (n/2)^(k/(k-1))
    if lhs <= 0:
        return True
    return lhs ** (k - 1) * 2 < n**k
