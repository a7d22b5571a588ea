"""Catalog of small cages: minimal regular graphs of prescribed girth.

Every entry is generated from an incidence geometry over a prime field:

  (3,5)  Petersen graph
  (4,6)  incidence graph of the projective plane PG(2,3)
  (3,8)  incidence graph of the symplectic quadrangle W(2)
  (4,8)  incidence graph of W(3)
  (6,8)  incidence graph of W(5)
  (4,12) incidence graph of the split Cayley hexagon over GF(3)

`load_cage` has one source: the entry's edge-list file shipped in the
package, ``cages/cage_{delta}_{g}.edges``. It re-verifies regularity,
connectivity and girth of every file it reads. The generators are the files'
provenance: `build_catalog_files` regenerates and verifies them, and the
shipped files must match its output byte for byte.
"""

from __future__ import annotations

import os
from functools import cache
from importlib import resources
from itertools import product

from ..core.instance import SimpleGraph
from ..core.io import read_edge_list_text, write_edge_list_text
from .graph import girth


def petersen() -> SimpleGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return SimpleGraph(10, edges)


# -- projective geometry helpers --------------------------------------------


def _proj_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """Normalized representatives of PG(dim-1, p): first nonzero coord is 1."""
    pts = []
    for vec in product(range(p), repeat=dim):
        if all(x == 0 for x in vec):
            continue
        lead = next(x for x in vec if x != 0)
        if lead == 1:
            pts.append(vec)
    return pts


def _normalize(vec: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    if all(x == 0 for x in vec):
        return None
    lead = next(x for x in vec if x != 0)
    inv = pow(lead, p - 2, p)
    return tuple((x * inv) % p for x in vec)


def projective_plane_incidence(p: int) -> SimpleGraph:
    """Incidence graph of PG(2,p): (p+1)-regular, girth 6."""
    pts = _proj_points(3, p)
    index = {x: i for i, x in enumerate(pts)}
    npts = len(pts)
    edges = []
    for li, line in enumerate(pts):  # lines are dual points
        for x in pts:
            if sum(a * b for a, b in zip(line, x)) % p == 0:
                edges.append((index[x], npts + li))
    return SimpleGraph(2 * npts, edges)


def _line_incidence(pts, p: int, collinear) -> SimpleGraph:
    """Incidence graph of the points `pts` of PG(d-1, p) and the lines they span.

    Each pair x, y of points with collinear(x, y) spans the line x + <y>: the
    p + 1 points x and y + lam*x. Lines are numbered after the points, in the
    order of their sorted point indices.
    """
    index = {x: i for i, x in enumerate(pts)}
    dim = len(pts[0])
    lines: set[frozenset[int]] = set()
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if not collinear(x, y):
                continue
            members = {index[x]}
            for lam in range(p):
                z = _normalize(tuple((y[t] + lam * x[t]) % p for t in range(dim)), p)
                members.add(index[z])
            lines.add(frozenset(members))
    npts = len(pts)
    line_list = sorted(lines, key=sorted)
    edges = [(v, npts + li) for li, line in enumerate(line_list) for v in line]
    return SimpleGraph(npts + len(line_list), edges)


def symplectic_quadrangle_incidence(p: int) -> SimpleGraph:
    """Incidence graph of the symplectic quadrangle W(p): girth 8.

    Points are all of PG(3,p); lines are the totally isotropic lines of the
    form B(x,y) = x0*y1 - x1*y0 + x2*y3 - x3*y2.
    """

    def isotropic(x, y) -> bool:
        return (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % p == 0

    return _line_incidence(_proj_points(4, p), p, isotropic)


# Grassmann relations carving the split Cayley hexagon's lines out of the
# quadric x0*x4 + x1*x5 + x2*x6 = x3^2 (Van Maldeghem's coordinatization,
# "Generalized Polygons", 1998):
# p12=p34, p56=p03, p45=p23, p01=p36, p20=p35, p64=p13.
_HEXAGON_RELATIONS = (
    ((1, 2), (3, 4)),
    ((5, 6), (0, 3)),
    ((4, 5), (2, 3)),
    ((0, 1), (3, 6)),
    ((2, 0), (3, 5)),
    ((6, 4), (1, 3)),
)


def split_cayley_hexagon_incidence(p: int = 3) -> SimpleGraph:
    """Incidence graph of the split Cayley hexagon over GF(p): girth 12.

    For p = 3 this is the unique (4,12)-cage on 728 vertices. Points are the
    points of the quadric Q(x) = 0; lines are spanned by pairs x, y with
    B(x,y) = 0 (B the polar form of Q) that satisfy the Grassmann relations.
    Such a line lies on the quadric, since Q(y + lam*x) = Q(y) + lam*B(x,y) +
    lam^2*Q(x) = 0 for every lam.
    """

    def quad(x) -> int:
        return (x[0] * x[4] + x[1] * x[5] + x[2] * x[6] - x[3] * x[3]) % p

    def polar(x, y) -> int:
        return (
            x[0] * y[4] + x[4] * y[0]
            + x[1] * y[5] + x[5] * y[1]
            + x[2] * y[6] + x[6] * y[2]
            - 2 * x[3] * y[3]
        ) % p

    def collinear(x, y) -> bool:
        if polar(x, y) != 0:
            return False
        for (a, b), (c, d) in _HEXAGON_RELATIONS:
            lhs = (x[a] * y[b] - x[b] * y[a]) % p
            rhs = (x[c] * y[d] - x[d] * y[c]) % p
            if lhs != rhs:
                return False
        return True

    pts = [x for x in _proj_points(7, p) if quad(x) == 0]
    return _line_incidence(pts, p, collinear)


CATALOG = {
    (3, 5): petersen,
    (4, 6): lambda: projective_plane_incidence(3),
    (3, 8): lambda: symplectic_quadrangle_incidence(2),
    (4, 8): lambda: symplectic_quadrangle_incidence(3),
    (6, 8): lambda: symplectic_quadrangle_incidence(5),
    (4, 12): lambda: split_cayley_hexagon_incidence(3),
}


def _file_name(delta: int, g: int) -> str:
    return f"cage_{delta}_{g}.edges"


@cache
def load_cage(delta: int, g: int) -> SimpleGraph:
    """The catalog cage (delta, g), read from its package file and verified.

    Memoised, so every caller shares one graph.
    """
    if (delta, g) not in CATALOG:
        raise KeyError(f"({delta},{g}) is not in the cage catalog")
    res = resources.files(__package__).joinpath("cages", _file_name(delta, g))
    n, edges = read_edge_list_text(res.read_text(encoding="ascii"))
    graph = SimpleGraph(n, edges)
    _verify(graph, delta, g)
    return graph


def build_catalog_files(directory: str) -> list[str]:
    """Regenerate and verify every catalog entry into edge-list files."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for delta, g in sorted(CATALOG):
        graph = CATALOG[delta, g]()
        _verify(graph, delta, g)
        path = os.path.join(directory, _file_name(delta, g))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(write_edge_list_text(graph.n, graph.edges()))
        written.append(path)
    return written


def _verify(graph: SimpleGraph, delta: int, g: int) -> None:
    if not graph.is_regular(delta):
        raise AssertionError(f"catalog graph is not {delta}-regular")
    if not graph.is_connected():
        raise AssertionError("catalog graph is not connected")
    got = girth(graph)
    if got < g:
        raise AssertionError(f"catalog graph has girth {got} < {g}")
