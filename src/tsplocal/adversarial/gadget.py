"""The 10-vertex attachment gadget of the (1,2)-TSP construction."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import SimpleGraph

# two 5-vertex paths: (w1, w0, w4, w3, w2) and (w7, w6, w5, w9, w8)
GADGET_EDGES = (
    (0, 1),
    (0, 4),
    (2, 3),
    (3, 4),
    (5, 9),
    (5, 6),
    (6, 7),
    (8, 9),
)

# degree-1 vertices, one per color class; any fixed bijection works
COLOR_SLOTS = (1, 2, 7, 8)


@dataclass(frozen=True)
class Gadget:
    graph: SimpleGraph
    color_slots: tuple[int, int, int, int]


def gadget_S() -> Gadget:
    """The fixed 10-vertex, 8-edge acyclic gadget with its color slots.

    Vertices w1, w2, w7, w8 have degree one and receive the four edge-color
    classes (color c attaches at COLOR_SLOTS[c]).
    """
    return Gadget(SimpleGraph(10, list(GADGET_EDGES)), COLOR_SLOTS)
