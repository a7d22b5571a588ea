import random
from fractions import Fraction

import numpy as np
import pytest

from tsplocal.core import (
    GraphInstance,
    MetricInstance,
    Tour,
    tour_cost,
)
from tsplocal.core.rand import (
    line_metric,
    random_graph_instance,
    random_metric_instance,
    random_one_two_instance,
    random_tour,
)
from tsplocal.certify import (
    HELD_KARP_LIMIT,
    arc_count,
    build_g2,
    contraction_map,
    cycle_witness_data,
    double_tree_bound,
    extract_improving_move,
    find_improving_alternating_cycle,
    held_karp,
    length_class_report,
    minimum_spanning_tree,
    verify_k_improv_optimal,
    verify_k_optimal,
)
from tsplocal.extremal import SimpleGraph
from tsplocal.localsearch import (
    apply_kmove,
    find_improving_kmove,
    k_opt,
    tour_to_two_matching,
)

from oracles import (
    brute_has_improving_kmove,
    brute_optimum,
    naive_tour_cost,
    prim_reference,
)


class TestHeldKarp:
    def test_three_vertices(self):
        inst = MetricInstance([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        _, cost = held_karp(inst)
        assert cost == 2 + 3 + 4

    def test_matches_permutation_oracle(self):
        for seed in range(6):
            inst = random_metric_instance(8, seed=seed)
            tour, cost = held_karp(inst)
            _, brute_cost = brute_optimum(inst)
            assert cost == brute_cost
            assert naive_tour_cost(inst, tour) == cost

    def test_collinear_points(self):
        inst = line_metric(range(6))
        _, cost = held_karp(inst)
        assert cost == 2 * 5

    def test_limit(self):
        with pytest.raises(ValueError):
            held_karp(random_metric_instance(HELD_KARP_LIMIT + 1, seed=0))


class TestDoubleTree:
    def test_path_graph_bound(self):
        g = SimpleGraph(6, [(i, i + 1) for i in range(5)])
        inst = GraphInstance(g)
        tour = double_tree_bound(inst)
        assert tour_cost(inst, tour) <= 2 * (6 - 1)

    def test_at_least_optimum(self):
        for seed in range(6):
            inst = random_graph_instance(8, 5, seed=seed)
            witness = double_tree_bound(inst)
            _, opt = held_karp(inst)
            assert tour_cost(inst, witness) >= opt


class TestMinimumSpanningTree:
    def test_matches_reference_prim(self):
        # small costs, hop distances and {1,2} costs all make many ties, so
        # the edge lists pin the tie-break as well as the tree
        for n in range(1, 62, 4):
            for seed in range(4):
                for inst in (
                    random_metric_instance(n, seed=seed, max_cost=3),
                    random_graph_instance(n, n // 2, seed=seed),
                    random_one_two_instance(n, seed=seed, unit_prob=0.2),
                ):
                    assert minimum_spanning_tree(inst) == prim_reference(inst), (inst, seed)


class TestVerifyKOptimal:
    def test_crossing_tour_counterexample(self):
        inst = line_metric([0, 1, 2, 3])
        cert = verify_k_optimal(inst, Tour([0, 2, 1, 3]), 2)
        assert not cert.certified
        assert cert.counterexample.delta < 0

    def test_completeness_against_factorial_oracle(self):
        rng = random.Random(7)
        for trial in range(60):
            n = rng.randint(6, 9)
            inst = random_metric_instance(n, seed=trial)
            tour = random_tour(n, seed=trial + 313)
            for k in (2, 3):
                cert = verify_k_optimal(inst, tour, k)
                brute = brute_has_improving_kmove(inst, tour, k)
                assert cert.certified == (not brute), (trial, k)

    def test_counterexamples_strictly_improve(self):
        for seed in range(20):
            inst = random_metric_instance(9, seed=seed)
            tour = random_tour(9, seed=seed + 41)
            cert = verify_k_optimal(inst, tour, 3)
            if not cert.certified:
                improved = apply_kmove(inst, tour, cert.counterexample)
                assert tour_cost(inst, improved) < tour_cost(inst, tour)

    def test_searched_space_size_2opt(self):
        inst = random_metric_instance(10, seed=1)
        opt, _ = held_karp(inst)
        cert = verify_k_optimal(inst, opt, 2)
        assert cert.certified
        assert cert.searched == 10 * 9 // 2 - 10

    def test_budget_exceeded_distinct(self):
        from tsplocal.certify import BudgetExceededError

        inst = random_metric_instance(12, seed=5)
        opt, _ = held_karp(inst)
        with pytest.raises(BudgetExceededError):
            verify_k_optimal(inst, opt, 3, budget=10)


class TestVerifyKImprovOptimal:
    def test_hamiltonian_unit_cycle_certified(self):
        from tsplocal.core import OneTwoInstance

        n = 8
        inst = OneTwoInstance(n, [(i, (i + 1) % n) for i in range(n)])
        tm = tour_to_two_matching(inst, Tour(range(n)))
        assert verify_k_improv_optimal(inst, tm, 3).certified

    def test_deleted_edge_counterexample(self):
        from tsplocal.core import OneTwoInstance
        from tsplocal.localsearch import TwoMatching

        n = 6
        unit = [(i, (i + 1) % n) for i in range(n)]
        inst = OneTwoInstance(n, unit)
        tm = TwoMatching.from_edges(n, unit[:-1])  # drop one edge
        cert = verify_k_improv_optimal(inst, tm, 2)
        assert not cert.certified
        assert frozenset(unit[-1]) in cert.counterexample.added

    def test_agreement_with_localsearch_route(self):
        from tsplocal.core.rand import random_one_two_instance
        from tsplocal.localsearch import find_improving_improv_move

        for seed in range(15):
            inst = random_one_two_instance(10, seed=seed, unit_prob=0.35)
            tm = tour_to_two_matching(inst, random_tour(10, seed=seed + 3))
            for k in (2, 3):
                ours = find_improving_improv_move(inst, tm, k) is not None
                cert = verify_k_improv_optimal(inst, tm, k)
                assert cert.certified == (not ours), (seed, k)


class TestAlternatingCycleSearch:
    def test_crossing_2move_found_as_4cycle(self):
        inst = line_metric([0, 1, 2, 3])
        found = find_improving_alternating_cycle(inst, Tour([0, 2, 1, 3]), 4)
        assert found is not None and found.gain > 0
        assert len(found.vertices) == 4

    def test_agreement_with_kmove_existence(self):
        for seed in range(20):
            inst = random_metric_instance(8, seed=seed)
            tour = random_tour(8, seed=seed + 11)
            move = find_improving_kmove(inst, tour, 2)
            cyc = find_improving_alternating_cycle(inst, tour, 4)
            assert (move is None) == (cyc is None), seed

    def test_none_at_optimum(self):
        inst = random_metric_instance(9, seed=3)
        opt, _ = held_karp(inst)
        assert find_improving_alternating_cycle(inst, opt, 6) is None


def cluster_instance(seed: int, n: int) -> MetricInstance:
    rng = random.Random(seed)
    half = n // 2
    pts = sorted(rng.randrange(0, 4) for _ in range(half))
    pts += sorted(50 + rng.randrange(0, 4) for _ in range(n - half))
    return line_metric(pts)


def four_cluster_instance() -> MetricInstance:
    """Eight points on a circle with four shortcut pairs in one length class.

    Designed so the analyzed tours below put exactly four class-11 edges on
    four distinct arc pairs forming a 4-cycle (h = 2) in the contracted
    graph.
    """
    pos = [0, 10, 200, 210, 400, 410, 600, 610]
    L = 800
    n = 8
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            d = abs(pos[i] - pos[j])
            mat[i, j] = min(d, L - d)
    for a, b in [(0, 2), (5, 3), (4, 6), (1, 7)]:
        mat[a, b] = mat[b, a] = 180
    for k in range(n):
        mat = np.minimum(mat, mat[:, k : k + 1] + mat[k : k + 1, :])
    return MetricInstance(mat)


class TestLengthClasses:
    def test_boundary_edge_inclusive(self):
        # cost exactly L * ((4k-5)/(4k-4))^l joins class l (upper bound closed)
        k = 3
        L = 8**3  # so L * (7/8)^3 is integral
        cost = L * 7**3 // 8**3
        from tsplocal.certify.analyzer import _length_class

        assert _length_class(cost, L, k) == 3

    def test_zero_cost_edges_unclassified(self):
        inst = MetricInstance([[0, 0, 2, 2], [0, 0, 2, 2], [2, 2, 0, 0], [2, 2, 0, 0]])
        rep = length_class_report(inst, Tour([0, 1, 2, 3]), Tour([0, 1, 2, 3]), 3)
        assert sum(rep.counts.values()) == 2  # only the two cost-2 edges

    def test_counts_bounded_by_n(self):
        for seed in range(30):
            n = 8 + seed % 6
            inst = random_metric_instance(n, seed=seed)
            ref, _ = held_karp(inst)
            tour = random_tour(n, seed=seed + 1)
            rep = length_class_report(inst, tour, ref, 3)
            assert sum(rep.counts.values()) <= n

    def test_arc_count_formula(self):
        assert arc_count(3, 0) == 8
        assert arc_count(3, 5) == 8 * 2  # ceil((8/7)^5) = 2
        assert arc_count(2, 1) == 4 * ((4 + 2) // 3)  # ceil(4/3) = 2 -> 8

    def test_near_relation_shares_arcs(self):
        inst = cluster_instance(0, 12)
        ref, _ = held_karp(inst)
        cmap = contraction_map(inst, ref, 3, 5)
        assert cmap.arc_count == 16
        for u in range(12):
            assert cmap.near(u, u)


class TestBuildG2:
    def test_three_optimal_tours_have_high_girth(self):
        for seed in range(25):
            n = 10 + seed % 5
            inst = random_metric_instance(n, seed=seed)
            ref, _ = held_karp(inst)
            out = k_opt(inst, random_tour(n, seed=seed + 900), 3)
            rep = length_class_report(inst, out, ref, 3)
            for l in rep.nonempty_classes():
                cert = build_g2(inst, out, ref, 3, l)
                assert 4 * cert.retained >= cert.q_l
                assert cert.girth_value >= 6, (seed, l)

    def test_parallel_pair_reported_as_2cycle(self):
        inst = cluster_instance(3, 12)
        ref, _ = held_karp(inst)
        rng = random.Random(5)
        while True:
            order = list(range(12))
            rng.shuffle(order)
            bad = Tour(order)
            rep = length_class_report(inst, bad, ref, 3)
            certs = [
                build_g2(inst, bad, ref, 3, l) for l in rep.nonempty_classes()
            ]
            twos = [c for c in certs if c.girth_value == 2]
            if twos:
                assert len(twos[0].violating_cycle) == 2
                break

    def test_empty_class_rejected(self):
        inst = random_metric_instance(8, seed=2)
        ref, _ = held_karp(inst)
        with pytest.raises(ValueError, match="empty"):
            build_g2(inst, ref, ref, 3, 0)  # class 0 needs cost > 7L/8 > L/2

    def test_extract_requires_violation(self):
        inst = random_metric_instance(10, seed=4)
        ref, _ = held_karp(inst)
        out = k_opt(inst, random_tour(10, seed=44), 3)
        rep = length_class_report(inst, out, ref, 3)
        l = rep.nonempty_classes()[0]
        cert = build_g2(inst, out, ref, 3, l)
        assert not cert.has_violation()
        with pytest.raises(ValueError, match="no violating cycle"):
            extract_improving_move(inst, out, cert)


class TestExtractImprovingMove:
    def test_clustered_trials_extract_and_improve(self):
        triggered = 0
        for seed in range(40):
            n = 12 + seed % 3
            inst = cluster_instance(seed, n)
            ref, _ = held_karp(inst)
            rng = random.Random(seed + 10000)
            for _ in range(4):
                order = list(range(n))
                rng.shuffle(order)
                bad = Tour(order)
                rep = length_class_report(inst, bad, ref, 3)
                done = False
                for l in rep.nonempty_classes():
                    cert = build_g2(inst, bad, ref, 3, l)
                    if cert.has_violation():
                        h = len(cert.violating_cycle) // 2
                        move = extract_improving_move(inst, bad, cert)
                        assert len(move.removed) <= h + 1
                        improved = apply_kmove(inst, bad, move)
                        assert tour_cost(inst, improved) < tour_cost(inst, bad)
                        triggered += 1
                        done = True
                        break
                if done:
                    break
        assert triggered >= 30

    def test_h2_distinct_components(self):
        inst = four_cluster_instance()
        analyzed = Tour([0, 2, 5, 3, 4, 6, 1, 7])
        cert = build_g2(inst, analyzed, Tour(range(8)), 3, 11)
        assert cert.q_l == 4
        assert cert.contraction.arc_count == 40
        assert cert.retained == 4
        assert cert.girth_value == 4 and len(cert.violating_cycle) == 4
        move = extract_improving_move(inst, analyzed, cert)
        assert len(move.removed) <= 3
        improved = apply_kmove(inst, analyzed, move)
        assert tour_cost(inst, improved) < tour_cost(inst, analyzed)

    def test_h2_single_component_uses_ambivalent_moves(self):
        inst = four_cluster_instance()
        analyzed = Tour([0, 2, 5, 3, 1, 7, 4, 6])
        cert = build_g2(inst, analyzed, Tour(range(8)), 3, 11)
        assert cert.girth_value == 4
        move = extract_improving_move(inst, analyzed, cert)
        assert len(move.removed) <= 3
        improved = apply_kmove(inst, analyzed, move)
        assert tour_cost(inst, improved) < tour_cost(inst, analyzed)

    def test_short_edge_budget_bound(self):
        # total short-edge cost <= L/2 * ((4k-5)/(4k-4))^l, exactly in rationals
        inst = four_cluster_instance()
        for order in ([0, 2, 5, 3, 4, 6, 1, 7], [0, 2, 5, 3, 1, 7, 4, 6]):
            analyzed = Tour(order)
            cert = build_g2(inst, analyzed, Tour(range(8)), 3, 11)
            _, _, shorts, paths = cycle_witness_data(analyzed, cert)
            total = sum(inst.c(u, v) for u, v in shorts)
            k, l = cert.k, cert.l
            L = 800
            assert Fraction(total) <= Fraction(L) * (4 * k - 5) ** l / (
                2 * (4 * k - 4) ** l
            )
            # G3 structure: <= h disjoint cycles, every path has an edge
            assert all(len(p) >= 2 for p in paths)
