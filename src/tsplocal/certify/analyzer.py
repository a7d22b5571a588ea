"""Length-class analyzer for locally optimal tours.

Tour edges are binned into geometric length classes against a reference
tour. For one class, vertices are contracted along equal arcs of the
reference circle into a labeled multidigraph, a derandomized red/blue
coloring retains at least a quarter of the class edges running red-to-blue,
and the girth of the result is certified. A short cycle is a witness that
the tour is not locally optimal: the move extractor turns it into an
explicit improving reconnection.

All arc and class arithmetic is exact (integer cross-multiplication); no
floats are involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.instance import Instance, SimpleGraph
from ..core.tour import KMove, Tour, apply_kmove, hamiltonian_order, tour_cost
from ..extremal.graph import shortest_cycle


# -- length classes ----------------------------------------------------------


@dataclass(frozen=True)
class LengthClassReport:
    k: int
    reference_length: int
    counts: dict[int, int]  # l -> q_l
    class_edges: dict[int, list[int]]  # l -> tour positions, ascending

    def nonempty_classes(self) -> list[int]:
        return sorted(self.class_edges)


def _length_class(cost: int, L: int, k: int) -> int:
    """The unique l with (r)^{l+1} < cost/L <= (r)^l for r = (4k-5)/(4k-4).

    r^l is decreasing, so this is the largest l whose upper bound still
    holds; the loop advances while the next class would also satisfy it.
    """
    lo_base = 4 * k - 5
    hi_base = 4 * k - 4
    if cost > L:
        raise AssertionError("edge longer than the reference circle")
    l = 0
    lo_pow, hi_pow = lo_base, hi_base  # lo_base**(l+1), hi_base**(l+1)
    while cost * hi_pow <= L * lo_pow:
        l += 1
        lo_pow *= lo_base
        hi_pow *= hi_base
    if not (cost * hi_base**l <= L * lo_base**l):
        raise AssertionError("length class upper boundary violated")
    return l


def length_class_report(
    instance: Instance, tour: Tour, reference_tour: Tour, k: int
) -> LengthClassReport:
    """Exact class assignment of every positive tour edge.

    Requires 2*c(e) <= L for every tour edge, which the triangle inequality
    guarantees against any reference circle.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    L = tour_cost(instance, reference_tour)
    if L <= 0:
        raise ValueError("reference tour must have positive length")
    counts: dict[int, int] = {}
    class_edges: dict[int, list[int]] = {}
    o = tour.order
    n = len(o)
    for i in range(n):
        c = instance.c(o[i], o[(i + 1) % n])
        if c == 0:
            continue
        if 2 * c > L:
            raise AssertionError(
                f"tour edge of cost {c} exceeds half the reference length {L}"
            )
        l = _length_class(c, L, k)
        counts[l] = counts.get(l, 0) + 1
        class_edges.setdefault(l, []).append(i)
    if sum(counts.values()) > n:
        raise AssertionError("class counts exceed the edge count")
    return LengthClassReport(k, L, counts, class_edges)


# -- contraction -------------------------------------------------------------


@dataclass(frozen=True)
class ContractionMap:
    """Vertices to arc indices on the reference circle.

    The circle of circumference L is cut into M = 4(k-1)*ceil(((4k-4)/(4k-5))^l)
    half-open arcs [j*L/M, (j+1)*L/M); two vertices are near iff they share
    an arc. Boundaries are exact rationals via cross-multiplication.
    """

    arc_count: int
    arc_of: tuple[int, ...]

    def near(self, u: int, v: int) -> bool:
        return self.arc_of[u] == self.arc_of[v]


def arc_count(k: int, l: int) -> int:
    num = (4 * k - 4) ** l
    den = (4 * k - 5) ** l
    return 4 * (k - 1) * ((num + den - 1) // den)


def contraction_map(
    instance: Instance, reference_tour: Tour, k: int, l: int
) -> ContractionMap:
    n = reference_tour.n
    L = tour_cost(instance, reference_tour)
    pos = [0] * n
    o = reference_tour.order
    run = 0
    for i in range(n):
        # a trailing run of zero-cost edges wraps to circle position 0
        pos[o[i]] = run % L
        run += instance.c(o[i], o[(i + 1) % n])
    if run != L:
        raise AssertionError("prefix sums disagree with the tour length")
    M = arc_count(k, l)
    # vertex at position p lies on arc floor(p*M/L)
    arc_of = tuple((p * M) // L for p in pos)
    return ContractionMap(M, arc_of)


# -- the contracted multigraphs ---------------------------------------------


@dataclass(frozen=True)
class G2Certificate:
    """Contraction, coloring and girth finding for one length class."""

    k: int
    l: int
    q_l: int
    contraction: ContractionMap
    g1: tuple[tuple[int, int, int], ...]  # (tail arc, head arc, tour position)
    coloring: tuple[int, ...]  # arc -> RED or BLUE
    g2: tuple[tuple[int, int, int], ...]  # the retained red-to-blue class arcs
    retained: int
    girth_value: float
    violating_cycle: tuple[tuple[int, int, int], ...] | None = None
    violating_cycle_arcs: tuple[int, ...] | None = None  # arc w_j between edges j-1, j

    def has_violation(self) -> bool:
        return self.violating_cycle is not None


RED, BLUE = 0, 1


def _derandomized_coloring(
    num_arcs: int, class_arcs: list[tuple[int, int]]
) -> tuple[int, ...]:
    """Red/blue arc coloring keeping >= 1/4 of the class edges red->blue.

    Conditional expectations in quarters (exact integers), fixed arc order:
    an edge (a -> b) contributes 4 quarters when a is red and b is blue, 2
    when one endpoint is decided favorably, 1 when both are open, 0 once a
    decision kills it.
    """
    UNSET = -1
    color = [UNSET] * num_arcs
    by_arc: dict[int, list[tuple[int, int]]] = {}
    for a, b in class_arcs:
        if a == b:
            raise AssertionError("class edge contracted to a self-loop")
        by_arc.setdefault(a, []).append((a, b))
        by_arc.setdefault(b, []).append((a, b))

    def quarters(a: int, b: int) -> int:
        ca, cb = color[a], color[b]
        if ca == BLUE or cb == RED:
            return 0
        if ca == RED and cb == BLUE:
            return 4
        if ca == RED or cb == BLUE:
            return 2
        return 1

    for x in sorted(by_arc):
        gain_red = 0
        gain_blue = 0
        for a, b in by_arc[x]:
            before = quarters(a, b)
            color[x] = RED
            gain_red += quarters(a, b) - before
            color[x] = BLUE
            gain_blue += quarters(a, b) - before
            color[x] = UNSET
        color[x] = RED if gain_red >= gain_blue else BLUE
    for x in range(num_arcs):
        if color[x] == UNSET:
            color[x] = RED
    return tuple(color)


def _multigraph_girth_with_cycle(
    arcs: list[tuple[int, int, int]],
) -> tuple[float, list[tuple[int, int, int]] | None, list[int] | None]:
    """Girth of the underlying multigraph plus one shortest cycle.

    A parallel pair is a 2-cycle, else the distinct pairs form a simple graph
    and `shortest_cycle` gives the girth. That graph spans only the vertices
    the arcs meet, relabelled 0..m-1 in increasing order, which keeps
    `shortest_cycle`'s root and neighbour order. The cycle comes back as its
    arc triples in cyclic order together with its vertex sequence
    w_0..w_{r-1}, where edge j joins w_j and w_{j+1 mod r}.
    """
    by_pair: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for t, h, lab in arcs:
        if t == h:
            raise AssertionError("self-loop survived contraction")
        by_pair.setdefault((min(t, h), max(t, h)), []).append((t, h, lab))
    for pair in sorted(by_pair):
        if len(by_pair[pair]) >= 2:
            a, b = pair
            return 2, by_pair[pair][:2], [a, b]
    met = sorted({v for pair in by_pair for v in pair})
    label = {v: i for i, v in enumerate(met)}
    best, cycle = shortest_cycle(
        SimpleGraph(len(met), [(label[a], label[b]) for a, b in by_pair])
    )
    if cycle is None:
        return best, None, None
    cycle_vertices = [met[i] for i in cycle]
    L = len(cycle_vertices)
    cycle_arcs = []
    for i in range(L):
        u = cycle_vertices[i]
        v = cycle_vertices[(i + 1) % L]
        cycle_arcs.append(by_pair[(min(u, v), max(u, v))][0])
    return best, cycle_arcs, cycle_vertices


def build_g2(
    instance: Instance, tour: Tour, reference_tour: Tour, k: int, l: int
) -> G2Certificate:
    """Contract, color, retain and certify one length class.

    The certificate reports the girth of the underlying undirected multigraph
    of the retained red-to-blue class edges (parallel edges count as
    2-cycles) and, when the girth is below 2k, one violating cycle with its
    tour-edge provenance.
    """
    report = length_class_report(instance, tour, reference_tour, k)
    if l not in report.class_edges:
        raise ValueError(f"length class {l} is empty")
    cmap = contraction_map(instance, reference_tour, k, l)
    o = tour.order
    n = len(o)
    g1: list[tuple[int, int, int]] = []
    class_positions = set(report.class_edges[l])
    class_arc_pairs: list[tuple[int, int]] = []
    for i in range(n):
        u, v = o[i], o[(i + 1) % n]
        a, b = cmap.arc_of[u], cmap.arc_of[v]
        if i in class_positions and a == b:
            raise AssertionError("an l-long edge contracted to a self-loop")
        if a != b:
            g1.append((a, b, i))
        if i in class_positions:
            class_arc_pairs.append((a, b))

    coloring = _derandomized_coloring(cmap.arc_count, class_arc_pairs)
    g2 = [
        (t, h, lab)
        for t, h, lab in g1
        if lab in class_positions and coloring[t] == RED and coloring[h] == BLUE
    ]
    q_l = report.counts[l]
    retained = len(g2)
    if 4 * retained < q_l:
        raise AssertionError(
            f"coloring retained {retained} < ceil({q_l}/4) class edges"
        )
    girth_value, cycle, cycle_arcs = _multigraph_girth_with_cycle(g2)
    violation = cycle is not None and girth_value < 2 * k
    return G2Certificate(
        k=k,
        l=l,
        q_l=q_l,
        contraction=cmap,
        g1=tuple(g1),
        coloring=coloring,
        g2=tuple(g2),
        retained=retained,
        girth_value=girth_value,
        violating_cycle=tuple(cycle) if violation else None,
        violating_cycle_arcs=tuple(cycle_arcs) if violation else None,
    )


# -- witness extraction -------------------------------------------------------

PATH, FIXED_C, COPY, SHORT = "path", "fixedC", "copy", "short"
_FIXED_KINDS = (PATH, FIXED_C)


class _EdgeMultigraph:
    """Mutable multigraph with classed edge instances for the shortcutting."""

    def __init__(self, n: int):
        self.n = n
        self.edges: list[list] = []  # [u, v, kind, alive]
        self.incident: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, kind: str) -> int:
        idx = len(self.edges)
        self.edges.append([u, v, kind, True])
        self.incident[u].append(idx)
        self.incident[v].append(idx)
        return idx

    def kill(self, idx: int) -> None:
        self.edges[idx][3] = False

    def alive_at(self, v: int) -> list[int]:
        return [i for i in self.incident[v] if self.edges[i][3]]

    def degree(self, v: int) -> int:
        return len(self.alive_at(v))

    def other_end(self, idx: int, v: int) -> int:
        u, w, _, _ = self.edges[idx]
        return w if u == v else u


def extract_improving_move(
    instance: Instance, tour: Tour, certificate: G2Certificate
) -> KMove:
    """Turn a violating cycle into an explicit improving move.

    Connecting paths and short edges form disjoint cycles; fixed class edges
    plus doubled copies make the union connected and Eulerian; shortcutting
    at degree-4 vertices yields a tour T'; ambivalent 2-moves then re-insert
    class edges until T' differs from the tour in at most h+1 edges. The
    returned move is re-validated by applying it: it strictly decreases the
    tour cost.
    """
    cycle = list(certificate.violating_cycle or ())
    h = len(cycle) // 2
    if h + 1 > certificate.k:
        raise ValueError("cycle is not shorter than 2k; nothing to extract")
    o = tour.order
    n = len(o)
    c_labels, c_edge, shorts, paths = cycle_witness_data(tour, certificate)

    graph = _EdgeMultigraph(n)
    for path in paths:
        for x, y in zip(path, path[1:]):
            graph.add(x, y, PATH)
    for p1, p2 in shorts:
        graph.add(p1, p2, SHORT)

    comp_of = _components(graph, n)
    u_comp = len(set(comp_of.values()))
    if u_comp > h:
        raise AssertionError("more than h components in the paths+shorts graph")
    _check_components_have_two_paths(paths, comp_of)

    # fixed C-edges joining the components, plus duplicated copies
    ufparent: dict[int, int] = {c: c for c in set(comp_of.values())}

    def find(c: int) -> int:
        while ufparent[c] != c:
            ufparent[c] = ufparent[ufparent[c]]
            c = ufparent[c]
        return c

    fixed_labels: list[int] = []
    for lab in sorted(c_labels):
        x, y = c_edge[lab]
        cx, cy = find(comp_of[x]), find(comp_of[y])
        if cx != cy:
            ufparent[cx] = cy
            fixed_labels.append(lab)
    if len(fixed_labels) != u_comp - 1:
        raise AssertionError("fixed C-edges failed to connect the components")
    for lab in fixed_labels:
        x, y = c_edge[lab]
        graph.add(x, y, FIXED_C)
        graph.add(x, y, COPY)

    _shortcut_to_tour(graph, n)
    t_prime_edges = {
        frozenset((e[0], e[1])) for e in graph.edges if e[3]
    }
    tour_edges = tour.edge_set()
    c_edge_sets = {lab: frozenset(c_edge[lab]) for lab in c_labels}

    # ambivalent 2-moves until T' contains h-1 C-edges
    target = h - 1
    guard = 0
    while sum(1 for e in c_edge_sets.values() if e in t_prime_edges) < target:
        guard += 1
        if guard > 2 * h + 2:
            raise AssertionError("ambivalent 2-move loop failed to converge")
        t_prime_edges = _ambivalent_2move(
            instance, t_prime_edges, paths, c_labels, c_edge, n
        )

    removed = frozenset(tour_edges - t_prime_edges)
    added = frozenset(t_prime_edges - tour_edges)
    if len(removed) > h + 1:
        raise AssertionError(
            f"extracted move replaces {len(removed)} > h+1 = {h + 1} edges"
        )
    delta = sum(instance.c(*sorted(e)) for e in added) - sum(
        instance.c(*sorted(e)) for e in removed
    )
    move = KMove(removed=removed, added=added, delta=delta)
    improved = apply_kmove(instance, tour, move)  # validates tour + delta
    if tour_cost(instance, improved) >= tour_cost(instance, tour):
        raise AssertionError("extracted move does not improve the tour")
    return move


def cycle_witness_data(
    tour: Tour, certificate: G2Certificate
) -> tuple[list[int], dict[int, tuple[int, int]], list[tuple[int, int]], list[list[int]]]:
    """Unpack a violating cycle: C-edge labels, oriented C-edges, the short
    edges joining near endpoints, and the connecting paths (vertex sequences
    in tour orientation)."""
    if certificate.violating_cycle is None:
        raise ValueError("certificate carries no violating cycle")
    cycle = list(certificate.violating_cycle)
    if len(cycle) % 2:
        raise AssertionError("violating cycle has odd length in a bipartite graph")
    o = tour.order
    n = len(o)
    arc_of = certificate.contraction.arc_of

    c_labels = [lab for _, _, lab in cycle]
    if len(set(c_labels)) != len(c_labels):
        raise AssertionError("cycle reuses a tour edge")
    c_edge = {lab: (o[lab], o[(lab + 1) % n]) for lab in c_labels}

    # shared arcs between consecutive cycle edges -> short edges
    L = len(cycle)
    cycle_arcs = list(certificate.violating_cycle_arcs or ())
    if len(cycle_arcs) != L:
        raise AssertionError("cycle vertex sequence missing from certificate")
    shorts: list[tuple[int, int]] = []
    for j in range(L):
        _, _, lab1 = cycle[j]
        _, _, lab2 = cycle[(j + 1) % L]
        shared = cycle_arcs[(j + 1) % L]
        p1 = _endpoint_on_arc(c_edge[lab1], arc_of, shared)
        p2 = _endpoint_on_arc(c_edge[lab2], arc_of, shared)
        if p1 == p2:
            raise AssertionError("adjacent C-edges share a tour vertex")
        shorts.append((p1, p2))
    if len({frozenset(s) for s in shorts}) != L:
        raise AssertionError("short edges do not form a perfect matching")

    # connecting paths: tour arcs between consecutive C-edge positions
    sorted_labels = sorted(c_labels)
    paths: list[list[int]] = []
    for a, b in zip(sorted_labels, sorted_labels[1:] + [sorted_labels[0] + n]):
        verts = [o[(p + 1) % n] for p in range(a, b)]
        if len(verts) < 2:
            raise AssertionError("a connecting path has no edge")
        paths.append(verts)
    return c_labels, c_edge, shorts, paths


def _endpoint_on_arc(edge: tuple[int, int], arc_of, arc: int) -> int:
    t, head = edge
    on = [v for v in (t, head) if arc_of[v] == arc]
    if len(on) != 1:
        raise AssertionError("C-edge endpoint/arc correspondence broken")
    return on[0]


def _components(graph: _EdgeMultigraph, n: int) -> dict[int, int]:
    comp_of: dict[int, int] = {}
    comp = 0
    for s in range(n):
        if s in comp_of or not graph.alive_at(s):
            continue
        stack = [s]
        comp_of[s] = comp
        while stack:
            v = stack.pop()
            for idx in graph.alive_at(v):
                w = graph.other_end(idx, v)
                if w not in comp_of:
                    comp_of[w] = comp
                    stack.append(w)
        comp += 1
    return comp_of


def _check_components_have_two_paths(paths, comp_of) -> None:
    per_comp: dict[int, int] = {}
    for path in paths:
        c = comp_of[path[0]]
        if comp_of[path[-1]] != c:
            raise AssertionError("path endpoints in different components")
        per_comp[c] = per_comp.get(c, 0) + 1
    if any(v < 2 for v in per_comp.values()):
        raise AssertionError("a component contains fewer than 2 connecting paths")


def _shortcut_to_tour(graph: _EdgeMultigraph, n: int) -> None:
    """Merge cycles at degree-4 vertices by shortcutting non-fixed edges.

    At each degree-4 vertex there must be exactly two fixed edges (a
    connecting-path edge and a fixed C-edge); the two non-fixed edges
    {a,b},{b,c} become {a,c}. The transverse property is re-checked at every
    step instead of being assumed.
    """
    while True:
        deg4 = [v for v in range(n) if graph.degree(v) == 4]
        if not deg4:
            break
        b = min(deg4)
        alive = graph.alive_at(b)
        fixed = [i for i in alive if graph.edges[i][2] in _FIXED_KINDS]
        loose = [i for i in alive if graph.edges[i][2] not in _FIXED_KINDS]
        if len(fixed) != 2 or len(loose) != 2:
            raise AssertionError(
                f"transverse property violated at vertex {b}: "
                f"{len(fixed)} fixed, {len(loose)} non-fixed edges"
            )
        a = graph.other_end(loose[0], b)
        c = graph.other_end(loose[1], b)
        graph.kill(loose[0])
        graph.kill(loose[1])
        if a != c:
            graph.add(a, c, SHORT)
    degrees = [graph.degree(v) for v in range(n)]
    if any(d != 2 for d in degrees):
        raise AssertionError("shortcutting left a vertex of degree != 2")
    alive = [(u, v) for u, v, _, is_alive in graph.edges if is_alive]
    if hamiltonian_order(alive, n) is None:
        raise AssertionError("shortcutting produced a disconnected 2-factor")


def _orient(edge_set: frozenset | set, n: int) -> tuple[dict[int, int], dict[int, int]]:
    order = hamiltonian_order(edge_set, n)
    if order is None:
        raise AssertionError("T' is not a Hamiltonian cycle")
    succ = {order[i - 1]: order[i] for i in range(n)}
    pred = {v: u for u, v in succ.items()}
    return succ, pred


def _ambivalent_2move(
    instance, t_prime_edges, paths, c_labels, c_edge, n
) -> set[frozenset[int]]:
    """One not-necessarily-improving 2-move adding a C-edge to T'.

    A missing C-edge joining two oppositely oriented connecting paths always
    exists while T' contains a short edge; its two incident non-path edges of
    T' leave (or enter) its endpoints together, so swapping them for the
    C-edge and the edge across their far endpoints keeps T' a tour.
    """
    succ, pred = _orient(t_prime_edges, n)

    def path_forward(path: list[int]) -> bool:
        if succ[path[0]] == path[1]:
            return True
        if pred[path[0]] == path[1]:
            return False
        raise AssertionError("connecting path missing from T'")

    tail_of_path = {path[0]: idx for idx, path in enumerate(paths)}
    head_of_path = {path[-1]: idx for idx, path in enumerate(paths)}
    for lab in sorted(c_labels):
        x, y = c_edge[lab]  # oriented tour edge: x = tail, y = head
        e1 = frozenset((x, y))
        if e1 in t_prime_edges:
            continue
        p_left = paths[head_of_path[x]]
        p_right = paths[tail_of_path[y]]
        if path_forward(p_left) == path_forward(p_right):
            continue
        # the non-path T' edge at x (p_left ends at x)
        if pred[x] == p_left[-2]:
            a1, f1_out = succ[x], True
        elif succ[x] == p_left[-2]:
            a1, f1_out = pred[x], False
        else:
            raise AssertionError("p_left's last edge missing from T'")
        # the non-path T' edge at y (p_right starts at y)
        if succ[y] == p_right[1]:
            a2, f2_out = pred[y], False
        elif pred[y] == p_right[1]:
            a2, f2_out = succ[y], True
        else:
            raise AssertionError("p_right's first edge missing from T'")
        if f1_out != f2_out:
            raise AssertionError(
                "non-path edges at a C-edge between oppositely oriented "
                "paths do not share their orientation"
            )
        if a1 == a2:
            raise AssertionError("degenerate ambivalent 2-move")
        f1 = frozenset((x, a1))
        f2 = frozenset((y, a2))
        e2 = frozenset((a1, a2))
        if e2 in t_prime_edges:
            raise AssertionError("replacement edge already on T'")
        new_edges = (set(t_prime_edges) - {f1, f2}) | {e1, e2}
        _orient(new_edges, n)  # validates the result is a tour
        return new_edges
    raise AssertionError("no ambivalent 2-move available")
