"""Instance and tour file IO.

Formats:
  * ``full-matrix``    TSPLIB-compatible subset (TYPE TSP, EDGE_WEIGHT_TYPE
                       EXPLICIT, EDGE_WEIGHT_FORMAT FULL_MATRIX), integers.
  * ``edge-list``      first line "n m", then m lines "u v" (0-indexed);
                       parses to a GraphInstance.
  * ``unit-edge-list`` same layout, edges are the unit-cost pairs of a
                       OneTwoInstance.
  * tours              TSPLIB .tour style: TOUR_SECTION, one (1-indexed)
                       vertex per line, -1 terminator.

Round trip: read(write(x)) == x with tours in canonical form.
"""

from __future__ import annotations

import numpy as np

from .instance import GraphInstance, Instance, MetricInstance, OneTwoInstance, SimpleGraph
from .tour import Tour

FORMATS = ("full-matrix", "edge-list", "unit-edge-list")


class ParseError(ValueError):
    """Malformed input text, located by 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        return data.decode("ascii")
    return data


def _tokens_with_columns(raw: str):
    i = 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        j = i
        while j < len(raw) and not raw[j].isspace():
            j += 1
        yield i + 1, raw[i:j]
        i = j


# -- edge lists -------------------------------------------------------------


def write_edge_list_text(n: int, edges) -> str:
    lines = [f"{n} {len(edges)}"]
    for u, v in sorted(tuple(e) for e in edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def read_edge_list_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty edge list", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError('expected header "n m"', 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError('expected integer header "n m"', 1) from None
    edges = []
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        toks = list(_tokens_with_columns(raw))
        if len(toks) != 2:
            raise ParseError('expected edge line "u v"', lineno)
        try:
            u = int(toks[0][1])
            v = int(toks[1][1])
        except ValueError:
            raise ParseError("bad vertex id", lineno, toks[0][0]) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in edge ({u},{v})", lineno)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, got {len(edges)}", lineno)
    return n, edges


# -- full matrix (TSPLIB subset) ------------------------------------------


def _write_full_matrix(instance: MetricInstance) -> bytes:
    lines = [
        "NAME : instance",
        "TYPE : TSP",
        f"DIMENSION : {instance.n}",
        "EDGE_WEIGHT_TYPE : EXPLICIT",
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
    ]
    for row in instance.cost:
        lines.append(" ".join(str(int(x)) for x in row))
    lines.append("EOF")
    return ("\n".join(lines) + "\n").encode("ascii")


def _read_full_matrix(text: str) -> MetricInstance:
    dimension = None
    weights: list[int] = []
    rows: list[tuple[int, int, str]] = []  # (index of first weight, lineno, raw)
    in_section = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if in_section:
            rows.append((len(weights), lineno, raw))
            for col, tok in _tokens_with_columns(raw):
                try:
                    weights.append(int(tok))
                except ValueError:
                    raise ParseError(f"bad weight {tok!r}", lineno, col) from None
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError:
                    raise ParseError(f"bad DIMENSION {value!r}", lineno) from None
                if dimension < 0:
                    raise ParseError(f"negative DIMENSION {dimension}", lineno)
            elif key == "TYPE" and value.upper() != "TSP":
                raise ParseError(f"unsupported TYPE {value!r}", lineno)
            elif key == "EDGE_WEIGHT_TYPE" and value.upper() != "EXPLICIT":
                raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {value!r}", lineno)
            elif key == "EDGE_WEIGHT_FORMAT" and value.upper() != "FULL_MATRIX":
                raise ParseError(f"unsupported EDGE_WEIGHT_FORMAT {value!r}", lineno)
        elif line == "EDGE_WEIGHT_SECTION":
            if dimension is None:
                raise ParseError("EDGE_WEIGHT_SECTION before DIMENSION", lineno)
            in_section = True
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if dimension is None:
        raise ParseError("missing DIMENSION", 1)
    if len(weights) != dimension * dimension:
        raise ParseError(
            f"expected {dimension * dimension} weights, got {len(weights)}", len(lines)
        )
    mat = np.array(weights, dtype=np.int64).reshape(dimension, dimension)
    asymmetric = np.flatnonzero(np.tril(mat != mat.T))  # later-read weight of each pair
    if len(asymmetric):
        first, lineno, raw = next(r for r in reversed(rows) if r[0] <= asymmetric[0])
        col = list(_tokens_with_columns(raw))[asymmetric[0] - first][0]
        raise ParseError("matrix is not symmetric", lineno, col)
    return MetricInstance(mat)


# -- public instance API ----------------------------------------------------


def write_instance(instance: Instance, format: str) -> bytes:
    if format == "full-matrix":
        if not isinstance(instance, MetricInstance):
            raise ValueError("full-matrix format requires a MetricInstance")
        return _write_full_matrix(instance)
    if format == "edge-list":
        if not isinstance(instance, GraphInstance):
            raise ValueError("edge-list format requires a GraphInstance")
        return write_edge_list_text(instance.graph.n, instance.graph.edges()).encode("ascii")
    if format == "unit-edge-list":
        if not isinstance(instance, OneTwoInstance):
            raise ValueError("unit-edge-list format requires a OneTwoInstance")
        return write_edge_list_text(instance.n, instance.unit_edges()).encode("ascii")
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


def read_instance(data: bytes | str, format: str) -> Instance:
    text = _decode(data)
    if format == "full-matrix":
        return _read_full_matrix(text)
    if format == "edge-list":
        n, edges = read_edge_list_text(text)
        return GraphInstance(SimpleGraph(n, edges))
    if format == "unit-edge-list":
        n, edges = read_edge_list_text(text)
        return OneTwoInstance(n, edges)
    raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")


# -- tours ------------------------------------------------------------------


def write_tour(tour: Tour) -> bytes:
    """Serialize in canonical form, TSPLIB style (1-indexed, -1 terminator)."""
    canon = tour.canonical()
    lines = [
        "NAME : tour",
        "TYPE : TOUR",
        f"DIMENSION : {canon.n}",
        "TOUR_SECTION",
    ]
    lines.extend(str(v + 1) for v in canon.order)
    lines.append("-1")
    lines.append("EOF")
    return ("\n".join(lines) + "\n").encode("ascii")


def read_tour(data: bytes | str) -> Tour:
    order = []
    in_section = False
    done = False
    lines = _decode(data).splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line == "EOF":
            continue
        if line == "TOUR_SECTION":
            in_section = True
            continue
        if not in_section:
            continue
        if done:
            raise ParseError("content after -1 terminator", lineno)
        for col, tok in _tokens_with_columns(raw):
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad vertex {tok!r}", lineno, col) from None
            if v == -1:
                done = True
                break
            order.append(v - 1)
    if not done:
        raise ParseError("missing -1 terminator", max(len(lines), 1))
    return Tour(order)
