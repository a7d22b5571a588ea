import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsplocal.core import (
    GraphInstance,
    MetricInstance,
    OneTwoInstance,
    ParseError,
    Tour,
    hamiltonian_order,
    read_instance,
    read_tour,
    tour_cost,
    tour_from_edge_set,
    validate_metric,
    write_instance,
    write_tour,
)
from tsplocal.core.rand import line_metric, random_metric_instance, random_tour
from tsplocal.core.tour import exchange_closes
from tsplocal.extremal import SimpleGraph
from tsplocal.extremal.cages import petersen, symplectic_quadrangle_incidence

from oracles import floyd_warshall, naive_tour_cost


class TestTourCost:
    def test_symmetric_triangle(self):
        inst = MetricInstance([[0, 5, 5], [5, 0, 5], [5, 5, 0]])
        assert tour_cost(inst, Tour([0, 1, 2])) == 15
        assert tour_cost(inst, Tour([0, 2, 1])) == 15

    def test_all_unit_tour(self):
        n = 7
        unit = [(i, (i + 1) % n) for i in range(n)]
        inst = OneTwoInstance(n, unit)
        assert tour_cost(inst, Tour(range(n))) == n

    def test_matches_naive_resummation(self):
        inst = random_metric_instance(8, seed=11)
        t = random_tour(8, seed=3)
        assert tour_cost(inst, t) == naive_tour_cost(inst, t)

    def test_dimension_mismatch(self):
        inst = random_metric_instance(5, seed=1)
        with pytest.raises(ValueError):
            tour_cost(inst, Tour([0, 1, 2]))

    @given(st.integers(0, 10**6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rotation_reversal_invariance(self, shift, flip):
        inst = random_metric_instance(9, seed=5)
        base = list(random_tour(9, seed=7).order)
        rotated = base[shift % 9 :] + base[: shift % 9]
        if flip:
            rotated = rotated[::-1]
        assert tour_cost(inst, Tour(rotated)) == tour_cost(inst, Tour(base))


class TestHamiltonianOrder:
    def test_starts_at_zero_toward_smaller_neighbour(self):
        edges = Tour([0, 4, 2, 1, 3]).edges()
        assert hamiltonian_order(edges, 5) == [0, 3, 1, 2, 4]
        assert tour_from_edge_set(edges, 5) == Tour([0, 3, 1, 2, 4])

    def test_two_subtours(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        assert hamiltonian_order(edges, 6) is None
        with pytest.raises(ValueError):
            tour_from_edge_set(edges, 6)

    def test_degree_three_vertex(self):
        # five edges on five vertices, but vertex 0 has degree 3
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]
        assert hamiltonian_order(edges, 5) is None

    def test_one_edge_short(self):
        assert hamiltonian_order(Tour(range(6)).edges()[:-1], 6) is None

    def test_vertex_out_of_range(self):
        assert hamiltonian_order([(0, 1), (1, 2), (2, 3), (3, 0)], 3) is None
        assert hamiltonian_order([(0, 1), (1, 5), (5, 0)], 3) is None

    def test_tuple_and_frozenset_edges_agree(self):
        tour = random_tour(9, seed=2)
        as_sets = tour.edge_set()
        assert hamiltonian_order(tour.edges(), 9) == hamiltonian_order(as_sets, 9)
        assert tour_from_edge_set(as_sets, 9).same_cycle(tour)


def _exchange(rng: random.Random, tour: Tour, k: int, adjacent: bool) -> frozenset:
    """W = T triangle T' for a tour T' that reconnects k cut segments of T."""
    n = tour.n
    cuts = set(rng.sample(range(n), k - 1 if adjacent else k))
    if adjacent:
        p = rng.choice(sorted(cuts))
        cuts.add((p + 1) % n)
        while len(cuts) < k:
            cuts.add(rng.randrange(n))
    cuts = sorted(cuts)
    o = tour.order
    segments = [
        [o[(c + 1 + t) % n] for t in range((cuts[(j + 1) % k] - c - 1) % n + 1)]
        for j, c in enumerate(cuts)
    ]
    rng.shuffle(segments)
    order = [v for seg in segments for v in (seg[::-1] if rng.random() < 0.5 else seg)]
    return tour.edge_set() ^ Tour(order).edge_set()


def _lk_walk(rng: random.Random, tour: Tour, length: int) -> frozenset:
    """Edges of a closed walk that alternates tour and other edges, as LK builds.

    The closing edge back to x_0 is arbitrary: it may be a tour edge or an
    edge already on the walk.
    """
    succ = tour.successor()
    pred = {v: u for u, v in succ.items()}
    x = [rng.randrange(tour.n)]
    for t in range(length - 1):
        if t % 2 == 0:
            x.append(rng.choice((succ[x[-1]], pred[x[-1]])))
        else:
            x.append(rng.choice([v for v in range(tour.n) if v != x[-1]]))
    return frozenset(frozenset(e) for e in zip(x, x[1:] + x[:1]) if e[0] != e[1])


class TestExchangeCloses:
    """The position-based closure test agrees with rebuilding T triangle W."""

    @staticmethod
    def _agree(tour: Tour, w: frozenset) -> bool:
        pos = [0] * tour.n
        for i, v in enumerate(tour.order):
            pos[v] = i
        expected = hamiltonian_order(tour.edge_set() ^ w, tour.n) is not None
        got = exchange_closes(tour.order, pos, w)
        assert got == expected, (tour, sorted(map(sorted, w)))
        return expected

    def test_matches_hamiltonian_order(self):
        rng = random.Random(11)
        verdicts = Counter()
        for trial in range(1500):
            n = rng.randint(3, 30)
            tour = random_tour(n, seed=trial)
            tour_edges = sorted(map(sorted, tour.edge_set()))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            mixed = rng.sample(tour_edges, rng.randint(0, min(4, n))) + rng.sample(
                pairs, rng.randint(0, min(4, n))
            )
            verdicts["mixed", self._agree(tour, frozenset(map(frozenset, mixed)))] += 1
            for k in (2, 3, 4):
                if k <= n:
                    w = _exchange(rng, tour, k, adjacent=rng.random() < 0.5)
                    assert self._agree(tour, w)
                    # toggling one tour edge in W unbalances it
                    extra = frozenset(rng.choice(tour_edges))
                    verdicts["perturbed", self._agree(tour, w ^ {extra})] += 1
            w = _lk_walk(rng, tour, 2 * rng.randint(1, 4))
            verdicts["walk", self._agree(tour, w)] += 1
        assert verdicts["walk", True] > 100 and verdicts["mixed", True] > 10
        assert verdicts["walk", False] > 100 and verdicts["perturbed", False] > 1000

    def test_adjacent_cuts_and_tour_closing_edge(self):
        tour = Tour(range(8))
        e = lambda *pairs: frozenset(frozenset(p) for p in pairs)  # noqa: E731
        # cuts (1,2) and (2,3) leave vertex 2 alone, and 1-3, 2-5, 2-6 with
        # cut (5,6) rejoin everything: 0 1 3 4 5 2 6 7
        assert self._agree(tour, e((1, 2), (2, 3), (5, 6), (1, 3), (2, 5), (2, 6)))
        # cuts (1,2), (2,3), (4,5), (6,7): one reconnection gives 0 1 5 6 3 4 2 7,
        # a balanced other one the subtours 2 5 6 and 0 1 3 4 7
        cuts = ((1, 2), (2, 3), (4, 5), (6, 7))
        assert self._agree(tour, e(*cuts, (2, 4), (2, 7), (3, 6), (1, 5)))
        assert not self._agree(tour, e(*cuts, (2, 5), (2, 6), (1, 3), (4, 7)))
        # an LK walk 0-1 (tour), 1-6, 6-7 (tour) closed by 7-0, a tour edge
        assert not self._agree(tour, e((0, 1), (1, 6), (6, 7), (7, 0)))
        # a 2-exchange that reverses 2..5, and the subtour-making reconnection
        assert self._agree(tour, e((1, 2), (5, 6), (1, 5), (2, 6)))
        assert not self._agree(tour, e((1, 2), (5, 6), (1, 6), (2, 5)))


class TestValidateMetric:
    def test_collinear_points_ok(self):
        inst = line_metric([0, 2, 5, 9])
        assert validate_metric(inst.cost) == []

    def test_forced_violation(self):
        mat = [[0, 10, 1], [10, 0, 1], [1, 1, 0]]
        violations = validate_metric(mat)
        assert (0, 2, 1) in violations

    def test_matches_triple_loop_in_order(self):
        rng = np.random.default_rng(5)
        for n in (3, 5, 8, 11):
            upper = np.triu(rng.integers(1, 20, size=(n, n)), 1)
            mat = upper + upper.T
            expected = [
                (x, z, y)
                for x in range(n)
                for z in range(n)
                for y in range(n)
                if len({x, y, z}) == 3 and mat[x, z] + mat[z, y] < mat[x, y]
            ]
            assert expected
            assert validate_metric(mat) == expected

    def test_petersen_bfs_metric_ok(self):
        inst = GraphInstance(petersen())
        # exhaustive recheck
        n = inst.n
        for x in range(n):
            for z in range(n):
                for y in range(n):
                    assert inst.c(x, z) + inst.c(z, y) >= inst.c(x, y)
        assert validate_metric(inst.cost) == []

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError, match="symmetric"):
            validate_metric([[0, 1], [2, 0]])

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            validate_metric([[0, -1], [-1, 0]])


class TestGraphMetric:
    def test_path_graph(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        assert GraphInstance(g).c(0, 2) == 2

    def test_cycle_antipodal(self):
        g = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
        inst = GraphInstance(g)
        assert int(inst.cost.max()) == 3

    def test_cage_against_floyd_warshall(self):
        g = symplectic_quadrangle_incidence(3)  # the (4,8) cage
        inst = GraphInstance(g)
        fw = floyd_warshall(g)
        for u in range(g.n):
            assert [int(x) for x in inst.cost[u]] == fw[u]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            GraphInstance(SimpleGraph(4, [(0, 1), (2, 3)]))


class TestIO:
    def test_full_matrix_roundtrip_small(self):
        inst = MetricInstance([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        data = write_instance(inst, "full-matrix")
        back = read_instance(data, "full-matrix")
        assert back == inst and back.n == 3

    def test_edge_list_c5(self):
        g = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        inst = GraphInstance(g)
        back = read_instance(write_instance(inst, "edge-list"), "edge-list")
        assert back.graph.n == 5 and back.graph.num_edges() == 5
        assert back == inst

    def test_roundtrip_random_20_byte_identical(self):
        inst = random_metric_instance(20, seed=42)
        data = write_instance(inst, "full-matrix")
        again = write_instance(read_instance(data, "full-matrix"), "full-matrix")
        assert data == again

    def test_unit_edge_list_roundtrip(self):
        inst = OneTwoInstance(6, [(0, 1), (2, 5), (3, 4)])
        back = read_instance(write_instance(inst, "unit-edge-list"), "unit-edge-list")
        assert back == inst

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as err:
            read_instance(b"3 1\n0 nope\n", "edge-list")
        assert err.value.line == 2

    def test_asymmetric_matrix_rejected(self):
        text = (
            "DIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\n2 0\nEOF\n"
        )
        with pytest.raises(ParseError, match="symmetric") as err:
            read_instance(text, "full-matrix")
        assert (err.value.line, err.value.column) == (6, 1)
        # Pairs {0,3} and {1,2} both differ. (2,1) is read before (3,0), so the
        # error names (2,1) although (0,3) comes first above the diagonal.
        text = (
            "DIMENSION : 4\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
            "0 1 1 9\n1 0 1 1\n1  7 0 1\n1 1 1 0\nEOF\n"
        )
        with pytest.raises(ParseError, match="symmetric") as err:
            read_instance(text, "full-matrix")
        assert (err.value.line, err.value.column) == (7, 4)

    def test_truncated_input_names_last_line(self):
        matrix = (
            "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0\nEOF\n"
        )
        with pytest.raises(ParseError, match="expected 9 weights, got 5") as err:
            read_instance(matrix, "full-matrix")
        assert err.value.line == 7
        with pytest.raises(ParseError, match="terminator") as err:
            read_tour("TOUR_SECTION\n1\n2\n3\n")
        assert err.value.line == 4

    def test_negative_dimension_names_its_line(self):
        header = "NAME : neg\nDIMENSION : -2\nEDGE_WEIGHT_SECTION\n"
        for weights in ("", "0 1\n1 0\n"):
            with pytest.raises(ParseError, match="negative DIMENSION -2") as err:
                read_instance(header + weights + "EOF\n", "full-matrix")
            assert err.value.line == 2

    def test_tour_roundtrip_canonical(self):
        t = Tour([3, 1, 0, 2, 4])
        back = read_tour(write_tour(t))
        assert back.same_cycle(t)
        assert back.order[0] == 0 and back.order[1] < back.order[-1]

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_tour_canonical_stable_under_rotation(self, shift):
        base = random_tour(8, seed=13)
        o = list(base.order)
        rotated = Tour(o[shift % 8 :] + o[: shift % 8])
        assert rotated.canonical().order == base.canonical().order


class TestRationalIngestion:
    def test_non_integer_rejected_directly(self):
        with pytest.raises(ValueError, match="integers"):
            MetricInstance(np.array([[0.0, 0.5], [0.5, 0.0]]))
