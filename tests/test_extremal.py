import os

import pytest

from tsplocal.extremal import (
    CATALOG,
    SimpleGraph,
    alon_upper_bound_holds,
    bipartite_double_cover,
    bipartite_edge_coloring,
    eulerian_walk,
    ex_bruteforce,
    girth,
    load_cage,
    regular_high_girth,
    shortest_cycle,
)
from tsplocal.extremal.cages import petersen
from tsplocal.core.rand import random_connected_graph

from oracles import brute_ex, girth_by_edge_deletion


def cycle_graph(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGirth:
    def test_c5(self):
        assert girth(cycle_graph(5)) == 5

    def test_tree_is_infinite(self):
        assert girth(SimpleGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])) == float("inf")

    def test_petersen_against_deletion_oracle(self):
        p = petersen()
        assert girth(p) == 5 == girth_by_edge_deletion(p)

    def test_random_graphs_match_oracle(self):
        for seed in range(12):
            g = random_connected_graph(10, 6, seed=seed)
            assert girth(g) == girth_by_edge_deletion(g)

    def test_multigraph_parallel_pair(self):
        # the contracted multigraphs of the analyzer: arcs (tail, head, label)
        from tsplocal.certify.analyzer import _multigraph_girth_with_cycle

        assert _multigraph_girth_with_cycle([(0, 1, 0), (1, 0, 1)])[0] == 2
        value, arcs, cycle = _multigraph_girth_with_cycle(
            [(0, 1, 0), (1, 2, 1), (0, 2, 2)]
        )
        assert value == 3 and cycle == [0, 1, 2]
        assert arcs == [(0, 1, 0), (1, 2, 1), (0, 2, 2)]

    def test_multigraph_sparse_arc_ids(self):
        # only the arcs that carry edges enter the girth graph; the cycle
        # comes back in the original arc ids, in the same scan order
        from tsplocal.certify.analyzer import _multigraph_girth_with_cycle

        arcs = [(900, 5, 0), (5, 40, 1), (40, 900, 2), (40, 1119, 3)]
        value, cycle_arcs, cycle = _multigraph_girth_with_cycle(arcs)
        assert value == 3 and cycle == [5, 40, 900]
        assert cycle_arcs == [(5, 40, 1), (40, 900, 2), (900, 5, 0)]
        assert _multigraph_girth_with_cycle(arcs[1:]) == (float("inf"), None, None)


class TestShortestCycle:
    def test_forest(self):
        forest = SimpleGraph(6, [(0, 1), (1, 2), (1, 3), (4, 5)])
        assert shortest_cycle(forest) == (float("inf"), None)

    def test_petersen_five_cycle(self):
        p = petersen()
        length, cyc = shortest_cycle(p)
        assert length == 5 and len(set(cyc)) == 5
        assert all(p.has_edge(cyc[i], cyc[(i + 1) % 5]) for i in range(5))

    def test_random_graphs_agree_with_girth_and_oracle(self):
        for seed in range(12):
            g = random_connected_graph(10, 6, seed=seed)
            length, cyc = shortest_cycle(g)
            assert length == girth(g) == girth_by_edge_deletion(g)
            assert len(cyc) == len(set(cyc)) == length
            assert all(g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length))


class TestExBruteforce:
    def test_three_vertices(self):
        value, witness = ex_bruteforce(3, 4)
        assert value == 2 and girth(witness) >= 4

    def test_five_vertices_triangle_free(self):
        value, _ = ex_bruteforce(5, 4)
        assert value == 6

    def test_six_vertices_girth_six(self):
        value, witness = ex_bruteforce(6, 6)
        assert value == 6
        assert girth(witness) >= 6

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("g", [4, 6])
    def test_against_dumb_enumeration(self, n, g):
        assert ex_bruteforce(n, g)[0] == brute_ex(n, g)

    def test_mantel_turan_for_all_n(self):
        for n in range(3, 10):
            assert ex_bruteforce(n, 4)[0] == n * n // 4

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            ex_bruteforce(10, 4)


# ex(n, g) for n = 3..8, recorded from the earlier float MILP implementation
# (scipy.optimize.milp). The g=5 row, with ex(9, 5) = 12, is the table of
# Garnick, Kwong & Lazebnik, "Extremal graphs without three-cycles or
# four-cycles", J. Graph Theory 1993.
EX_TABLE = {
    4: [2, 4, 6, 9, 12, 16],
    5: [2, 3, 5, 6, 8, 10],
    6: [2, 3, 4, 6, 7, 9],
    7: [2, 3, 4, 5, 7, 8],
    8: [2, 3, 4, 5, 6, 8],
}


class TestExTable:
    @pytest.mark.parametrize("g", sorted(EX_TABLE))
    def test_recorded_values(self, g):
        for n, expected in enumerate(EX_TABLE[g], start=3):
            value, witness = ex_bruteforce(n, g)
            assert value == expected == witness.num_edges()
            assert witness.n == n and girth(witness) >= g

    def test_nine_vertices_girth_five(self):
        value, witness = ex_bruteforce(9, 5)
        assert value == 12 and girth(witness) >= 5


class TestRegularHighGirth:
    def test_two_regular_is_cycle(self):
        g = regular_high_girth(2, 5, seed=0)
        assert g.is_regular(2) and girth(g) >= 5

    def test_petersen_from_catalog(self):
        g = regular_high_girth(3, 5, seed=0)
        assert g.n == 10 and girth(g) == 5

    def test_4_6_from_catalog_bipartite(self):
        g = regular_high_girth(4, 6, seed=0)
        assert g.n == 26 and girth(g) == 6
        assert g.is_bipartite()

    def test_random_repair_without_catalog(self):
        g = regular_high_girth(3, 5, seed=7, use_catalog=False)
        assert g.is_regular(3) and girth(g) >= 5

    def test_alon_bound_sanity(self):
        for (delta, gg) in CATALOG:
            graph = load_cage(delta, gg)
            assert alon_upper_bound_holds(graph.n, graph.num_edges(), girth(graph))


class TestCatalog:
    @pytest.mark.parametrize("delta,g", sorted(CATALOG))
    def test_catalog_entries_verified(self, delta, g):
        graph = load_cage(delta, g)
        assert graph.is_regular(delta)
        assert graph.is_connected()
        assert girth(graph) >= g

    def test_files_match_generator(self, tmp_path):
        from tsplocal.extremal import build_catalog_files

        build_catalog_files(str(tmp_path))
        shipped = os.path.join(
            os.path.dirname(os.path.dirname(__file__)),
            "src", "tsplocal", "extremal", "cages",
        )
        for name in sorted(os.listdir(str(tmp_path))):
            with open(os.path.join(str(tmp_path), name)) as fh:
                fresh = fh.read()
            with open(os.path.join(shipped, name)) as fh:
                assert fh.read() == fresh

    def test_load_verifies_the_file(self, tmp_path, monkeypatch):
        from types import SimpleNamespace

        from tsplocal.core.io import write_edge_list_text
        from tsplocal.extremal import cages as cages_mod

        (tmp_path / "cages").mkdir()
        (tmp_path / "cages" / "cage_3_5.edges").write_text(
            write_edge_list_text(5, cycle_graph(5).edges())
        )
        monkeypatch.setattr(cages_mod, "resources", SimpleNamespace(files=lambda _: tmp_path))
        # the file is not 3-regular: the load must fail, not return it.
        # __wrapped__ bypasses the memo, so no other test sees this load.
        with pytest.raises(AssertionError, match="not 3-regular"):
            cages_mod.load_cage.__wrapped__(3, 5)

    def test_4_12_cage_size(self):
        g = load_cage(4, 12)
        assert g.n == 728 and g.num_edges() == 1456


class TestDoubleCover:
    def test_k2(self):
        g = SimpleGraph(2, [(0, 1)])
        cover = bipartite_double_cover(g)
        assert cover.n == 4 and cover.num_edges() == 2
        assert cover.degrees() == [1, 1, 1, 1]

    def test_c3_becomes_c6(self):
        cover = bipartite_double_cover(cycle_graph(3))
        assert cover.n == 6 and girth(cover) == 6 and cover.is_bipartite()

    def test_petersen_cover(self):
        cover = bipartite_double_cover(petersen())
        assert cover.n == 20 and cover.is_regular(3) and cover.is_bipartite()
        assert girth(cover) >= 5  # Desargues graph: actually 6
        assert girth(cover) == 6

    def test_cycles_project_to_closed_walks(self):
        base = petersen()
        cover = bipartite_double_cover(base)
        length, cyc = shortest_cycle(cover)
        assert length == len(cyc) == 6
        proj = [v % base.n for v in cyc]
        for i in range(len(proj)):
            u, w = proj[i], proj[(i + 1) % len(proj)]
            assert base.has_edge(u, w)


class TestEuler:
    def test_c4_walk(self):
        walk = eulerian_walk(cycle_graph(4))
        assert len(walk) == 4

    def test_cage_walk_uses_every_edge_once(self):
        g = load_cage(4, 6)
        walk = eulerian_walk(g)
        assert len(walk) == g.num_edges() == 52
        used = set()
        for i in range(len(walk)):
            u, v = walk[i], walk[(i + 1) % len(walk)]
            e = (min(u, v), max(u, v))
            assert e not in used
            used.add(e)
        assert len(used) == g.num_edges()

    def test_two_triangles_sharing_vertex(self):
        g = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        walk = eulerian_walk(g)
        assert len(walk) == 6
        used = {frozenset((walk[i], walk[(i + 1) % 6])) for i in range(6)}
        assert len(used) == 6

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            eulerian_walk(SimpleGraph(2, [(0, 1)]))

    def test_disconnected_rejected(self):
        g = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(ValueError, match="connected"):
            eulerian_walk(g)


class TestEdgeColoring:
    def test_perfect_matching_one_color(self):
        g = SimpleGraph(4, [(0, 2), (1, 3)])
        coloring = bipartite_edge_coloring(g)
        assert set(coloring.values()) == {0}

    def test_c6_two_colors(self):
        coloring = bipartite_edge_coloring(cycle_graph(6))
        assert set(coloring.values()) == {0, 1}

    def test_double_cover_of_random_4_regular(self):
        base = regular_high_girth(4, 5, seed=3, use_catalog=False)
        cover = bipartite_double_cover(base)
        coloring = bipartite_edge_coloring(cover)
        assert set(coloring.values()) == {0, 1, 2, 3}
        # properness oracle: incidence scan
        for v in range(cover.n):
            incident = [coloring[(min(v, w), max(v, w))] for w in cover.adj[v]]
            assert len(incident) == len(set(incident))

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            bipartite_edge_coloring(cycle_graph(5))
