import random
from collections import Counter

import pytest

from tsplocal.core import OneTwoInstance, Tour, tour_cost
from tsplocal.core.rand import (
    line_metric,
    random_graph_instance,
    random_metric_instance,
    random_one_two_instance,
    random_tour,
)
from tsplocal.certify import held_karp
from tsplocal.localsearch import (
    apply_improv_move,
    apply_kmove,
    find_improving_improv_move,
    find_improving_kmove,
    k_improv,
    k_lin_kernighan_params,
    k_opt,
    lin_kernighan,
    tour_to_two_matching,
    two_matching_to_tour,
)

from oracles import (
    brute_has_improving_kmove,
    brute_improv_move_exists,
    brute_improving_alternating_cycles,
    brute_optimum,
    dfs_count_structure,
    naive_tour_cost,
)


class TestIsProper:
    def test_every_improving_closed_walk_has_proper_rotation(self):
        # textbook fact behind the Lin-Kernighan gain criterion: an improving
        # closed alternating walk has a rotation whose every even prefix gains
        for seed in range(8):
            inst = random_metric_instance(8, seed=seed)
            tour = random_tour(8, seed=seed + 100)
            cycles = brute_improving_alternating_cycles(inst, tour, 6)
            for seq, _ in cycles[:40]:
                closed = list(seq) + [seq[0]]
                rotations = []
                m = len(seq)
                for r in range(0, m, 2):
                    rot = closed[r:-1] + closed[: r + 1]
                    rotations.append(rot)
                    rotations.append(rot[::-1])
                ok = any(
                    _alternates(tour, rot) and _gains_stay_positive(inst, rot)
                    for rot in rotations
                )
                assert ok, f"no proper rotation for {seq}"


def _alternates(tour, seq) -> bool:
    """Edge t (1-based) of the walk lies on the tour exactly for odd t."""
    edges = tour.edge_set()
    return all(
        (frozenset((seq[t - 1], seq[t])) in edges) == (t % 2 == 1)
        for t in range(1, len(seq))
    )


def _gains_stay_positive(inst, seq) -> bool:
    """Tour-edge minus non-tour-edge cost is > 0 after every even prefix."""
    total = 0
    for t in range(1, len(seq)):
        c = inst.c(seq[t - 1], seq[t])
        total += c if t % 2 == 1 else -c
        if t % 2 == 0 and total <= 0:
            return False
    return True


class TestFindImprovingKMove:
    def test_crossing_line_tour(self):
        inst = line_metric([0, 1, 2, 3])
        crossing = Tour([0, 2, 1, 3])
        move = find_improving_kmove(inst, crossing, 2)
        assert move is not None and move.delta < 0
        improved = apply_kmove(inst, crossing, move)
        assert tour_cost(inst, improved) < tour_cost(inst, crossing)

    def test_none_at_optimum_with_k_equal_n(self):
        for seed in (0, 3, 8):
            inst = random_metric_instance(7, seed=seed)
            opt, _ = brute_optimum(inst)
            assert find_improving_kmove(inst, opt, 7) is None

    def test_agrees_with_brute_force_oracle(self):
        for seed in range(25):
            n = 6 + seed % 4
            inst = random_metric_instance(n, seed=seed)
            tour = random_tour(n, seed=seed + 17)
            for k in (2, 3):
                ours = find_improving_kmove(inst, tour, k) is not None
                brute = brute_has_improving_kmove(inst, tour, k)
                assert ours == brute, (seed, k)

    @pytest.mark.parametrize("family", ["metric", "graph", "one-two"])
    def test_every_returned_move_is_a_proper_reconnection(self, family):
        # the scan keeps no filter on its hits: each move it returns along a
        # k-Opt trajectory must already be a disjoint, tour-closing exchange
        for n in range(4, 15):
            if family == "metric":
                inst = random_metric_instance(n, seed=n, max_cost=8)
            elif family == "graph":
                inst = random_graph_instance(n, 5, seed=n)
            else:
                inst = random_one_two_instance(n, seed=n, unit_prob=0.3)
            start = random_tour(n, seed=n + 50)
            starts = [start, k_opt(inst, start, 2), k_opt(inst, start, 3)]
            for tour0 in starts:
                for k in (2, 3, 4):
                    tour = tour0
                    while (move := find_improving_kmove(inst, tour, k)) is not None:
                        edges = tour.edge_set()
                        assert move.removed and move.removed <= edges
                        assert len(move.added) == len(move.removed)
                        assert all(len(e) == 2 for e in move.added)
                        assert not move.added & edges
                        tour = apply_kmove(inst, tour, move)


class TestKOpt:
    def test_fixed_point_at_optimum(self):
        inst = random_metric_instance(8, seed=2)
        opt, _ = brute_optimum(inst)
        assert k_opt(inst, opt, 3).order == opt.order

    def test_line_instance_reaches_optimum(self):
        inst = line_metric([0, 1, 2, 3])
        out = k_opt(inst, Tour([0, 2, 1, 3]), 2)
        assert tour_cost(inst, out) == 6

    def test_outputs_are_k_optimal(self):
        from tsplocal.certify import verify_k_optimal

        for seed in range(20):
            n = 7 + seed % 4
            inst = random_metric_instance(n, seed=seed)
            out = k_opt(inst, random_tour(n, seed=seed + 55), 2)
            assert verify_k_optimal(inst, out, 2).certified

    def test_outputs_are_3_optimal(self):
        from tsplocal.certify import verify_k_optimal

        for seed in range(8):
            inst = random_metric_instance(9, seed=seed)
            out = k_opt(inst, random_tour(9, seed=seed + 66), 3)
            assert verify_k_optimal(inst, out, 3).certified

    def test_monotone_cost_ledger(self):
        inst = random_metric_instance(9, seed=33)
        tour = random_tour(9, seed=44)
        costs = [tour_cost(inst, tour)]
        cur = tour
        while True:
            move = find_improving_kmove(inst, cur, 3)
            if move is None:
                break
            cur = apply_kmove(inst, cur, move)
            costs.append(tour_cost(inst, cur))
        assert all(b < a for a, b in zip(costs, costs[1:]))


class TestTwoMatching:
    def test_all_unit_tour_is_one_cycle(self):
        n = 6
        inst = OneTwoInstance(n, [(i, (i + 1) % n) for i in range(n)])
        tm = tour_to_two_matching(inst, Tour(range(n)))
        assert (tm.components, tm.cycles, tm.singletons) == (1, 1, 0)

    def test_alternating_tour_gives_matching(self):
        n = 6
        unit = [(0, 1), (2, 3), (4, 5)]
        inst = OneTwoInstance(n, unit)
        tm = tour_to_two_matching(inst, Tour(range(n)))
        assert tm.edges == frozenset(frozenset(e) for e in unit)
        assert (tm.components, tm.cycles, tm.singletons) == (3, 0, 0)

    def test_counts_match_recount(self):
        for seed in range(10):
            inst = random_one_two_instance(10, seed=seed, unit_prob=0.4)
            tm = tour_to_two_matching(inst, random_tour(10, seed=seed + 5))
            assert (tm.components, tm.cycles, tm.singletons) == dfs_count_structure(
                10, tm.edges
            )

    def test_count_structure_matches_dfs_reference(self):
        from tsplocal.localsearch import count_structure

        rng = random.Random(7)
        shapes = Counter()
        for _ in range(400):
            n = rng.randint(0, 60)
            verts = list(range(n))
            rng.shuffle(verts)
            edges = set()
            while verts:
                piece = [verts.pop() for _ in range(min(len(verts), rng.randint(1, 8)))]
                edges.update(frozenset(p) for p in zip(piece, piece[1:]))
                if len(piece) >= 3 and rng.random() < 0.5:
                    edges.add(frozenset((piece[0], piece[-1])))
                    shapes["cycle"] += 1
                else:
                    shapes["path" if len(piece) > 1 else "singleton"] += 1
            edges = frozenset(edges)
            assert count_structure(n, edges) == dfs_count_structure(n, edges)
        assert min(shapes.values()) > 100
        claw = frozenset(frozenset(e) for e in [(0, 1), (0, 2), (0, 3), (4, 5)])
        for count in (count_structure, dfs_count_structure):
            with pytest.raises(ValueError, match="degree 2"):
                count(6, claw)

    def test_two_matching_to_tour_costs(self):
        # single Hamiltonian unit cycle reconnects at cost n
        n = 7
        inst = OneTwoInstance(n, [(i, (i + 1) % n) for i in range(n)])
        tm = tour_to_two_matching(inst, Tour(range(n)))
        for seed in range(5):
            assert tour_cost(inst, two_matching_to_tour(inst, tm, seed)) == n

    def test_two_unit_paths_forced_two_heavy_edges(self):
        inst = OneTwoInstance(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        tm = tour_to_two_matching(inst, Tour([0, 1, 2, 3, 4, 5]))
        tour = two_matching_to_tour(inst, tm, seed=1)
        heavy = sum(1 for u, v in tour.edges() if inst.c(u, v) == 2)
        assert heavy == 2 and tour_cost(inst, tour) == 8

    def test_paths_cycles_cost_formula(self):
        # one 4-path and one 3-cycle, no singletons, no helpful unit edges
        inst = OneTwoInstance(
            7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]
        )
        tm = tour_to_two_matching(inst, Tour([0, 1, 2, 3, 4, 5, 6]))
        # the tour keeps (4,5),(5,6) but not (4,6): build tm directly instead
        from tsplocal.localsearch import TwoMatching

        tm = TwoMatching.from_edges(
            7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]
        )
        assert (tm.components, tm.cycles, tm.singletons) == (2, 1, 0)
        tour = two_matching_to_tour(inst, tm, seed=0)
        # p paths + c cycles with no shortcuts: cost n + p + c = 7 + 1 + 1
        assert tour_cost(inst, tour) == 9

    def test_roundtrip_never_increases_cost(self):
        for seed in range(15):
            inst = random_one_two_instance(9, seed=seed, unit_prob=0.5)
            t = random_tour(9, seed=seed + 9)
            tm = tour_to_two_matching(inst, t)
            back = two_matching_to_tour(inst, tm, seed=seed)
            assert tour_cost(inst, back) <= tour_cost(inst, t)


class TestFindImprovingImprovMove:
    def test_joining_edge_found(self):
        inst = OneTwoInstance(4, [(0, 1), (2, 3), (1, 2)])
        from tsplocal.localsearch import TwoMatching

        tm = TwoMatching.from_edges(4, [(0, 1), (2, 3)])
        move = find_improving_improv_move(inst, tm, 1)
        assert move is not None
        assert move.added == frozenset({frozenset((1, 2))})
        after = apply_improv_move(inst, tm, move)
        assert after.components < tm.components

    def test_agrees_with_dumb_enumeration(self):
        for seed in range(12):
            inst = random_one_two_instance(9, seed=seed, unit_prob=0.35)
            tm = tour_to_two_matching(inst, random_tour(9, seed=seed + 31))
            for k in (1, 2, 3):
                ours = find_improving_improv_move(inst, tm, k) is not None
                brute = brute_improv_move_exists(inst, tm, k)
                assert ours == brute, (seed, k)

    def test_k_cap(self):
        inst = random_one_two_instance(6, seed=0)
        tm = tour_to_two_matching(inst, Tour(range(6)))
        with pytest.raises(ValueError, match="cap"):
            find_improving_improv_move(inst, tm, 7)


class TestKImprov:
    def test_unit_hamiltonian_cycle_stays_optimal(self):
        n = 8
        inst = OneTwoInstance(n, [(i, (i + 1) % n) for i in range(n)])
        out = k_improv(inst, Tour(range(n)), 3)
        assert tour_cost(inst, out) == n

    def test_never_increases_cost(self):
        for seed in range(10):
            inst = random_one_two_instance(10, seed=seed, unit_prob=0.4)
            t = random_tour(10, seed=seed + 77)
            out = k_improv(inst, t, 3, seed=seed)
            assert tour_cost(inst, out) <= tour_cost(inst, t)

    def test_head_to_head_against_2opt(self):
        """Recorded comparison (informational only): k-improv vs 2-opt."""
        wins = 0
        trials = 40
        for seed in range(trials):
            inst = random_one_two_instance(10, seed=seed, unit_prob=0.35)
            t = random_tour(10, seed=seed + 1000)
            improv_cost = tour_cost(inst, k_improv(inst, t, 4, seed=seed))
            kopt_cost = tour_cost(inst, k_opt(inst, t, 2))
            if improv_cost <= kopt_cost:
                wins += 1
        print(f"k-improv <= 2-opt in {wins}/{trials} trials")
        assert wins >= trials * 3 // 4


class TestLinKernighan:
    def test_parameterization(self):
        assert k_lin_kernighan_params(3) == (5, 2)
        assert k_lin_kernighan_params(2) == (3, 0)

    def test_fixed_point_at_optimum(self):
        inst = random_metric_instance(8, seed=6)
        opt, _ = brute_optimum(inst)
        out = lin_kernighan(inst, opt, 5, 2)
        assert naive_tour_cost(inst, out) == naive_tour_cost(inst, opt)

    def test_subsumes_2opt(self):
        from tsplocal.certify import verify_k_optimal

        for seed in range(10):
            inst = random_metric_instance(9, seed=seed)
            out = lin_kernighan(inst, random_tour(9, seed=seed + 3), 5, 2)
            assert verify_k_optimal(inst, out, 2).certified

    def test_no_short_improving_alternating_cycle(self):
        for k in (2, 3):
            p1, p2 = k_lin_kernighan_params(k)
            for seed in range(10):
                n = 8 + seed % 3
                inst = random_metric_instance(n, seed=seed)
                out = lin_kernighan(inst, random_tour(n, seed=seed + 5), p1, p2)
                found = brute_improving_alternating_cycles(inst, out, 2 * k)
                assert found == [], (k, seed)

    def test_on_one_two_instances(self):
        from tsplocal.core.rand import random_one_two_instance

        for seed in range(6):
            inst = random_one_two_instance(10, seed=seed, unit_prob=0.4)
            start = random_tour(10, seed=seed + 8)
            out = lin_kernighan(inst, start, 5, 2)
            assert tour_cost(inst, out) <= tour_cost(inst, start)

    def test_tiny_instances(self):
        inst = line_metric([0, 3, 5, 9])
        for order in ([0, 1, 2, 3], [0, 2, 1, 3], [1, 3, 0, 2]):
            out = lin_kernighan(inst, Tour(order), 5, 2)
            assert tour_cost(inst, out) == 18
            out2 = k_opt(inst, Tour(order), 2)
            assert tour_cost(inst, out2) == 18
