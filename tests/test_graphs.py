import pytest

import spherig as sp
from spherig.graphs import Graph, complete_graph, cone_graph, graph_of, union


def path_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


class TestGraph:
    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph({1, 2}, [(1, 1)])

    def test_isolated_vertices_allowed(self):
        g = Graph({1, 2, 3}, [(1, 2)])
        assert 3 in g.vertices
        assert not any(3 in e for e in g.edges)

    def test_edge_endpoints_must_be_vertices(self):
        with pytest.raises(ValueError):
            Graph({1, 2}, [(1, 3)])

    def test_degree_and_has_edge(self):
        g = complete_graph(range(1, 5))
        assert sum(1 in e for e in g.edges) == 3
        assert frozenset((1, 2)) in g.edges
        assert frozenset((1, 5)) not in g.edges

    def test_sorted_edges(self):
        g = Graph({1, 2, 3}, [(3, 1), (1, 2)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]

    def test_add_edges_and_remove_edge(self):
        g = path_graph(4)
        grown = Graph(g.vertices, [*g.edges, (1, 4)])
        assert frozenset((1, 4)) in grown.edges
        assert grown.remove_edge(1, 4) == g

    def test_remove_missing_edge_rejected(self):
        with pytest.raises(ValueError):
            path_graph(3).remove_edge(1, 3)

    def test_remove_keeps_endpoints(self):
        g = path_graph(3).remove_edge(1, 2)
        assert 1 in g.vertices
        assert not any(1 in e for e in g.edges)

    def test_contract_edge_merges_common_neighbours(self):
        # 3 neighbours both 1 and 2, and keeps one edge to the merged 9
        g = Graph(range(1, 5), [(1, 2), (1, 3), (2, 3), (2, 4)])
        assert g.contract_edge(1, 2, 9) == Graph({3, 4, 9}, [(3, 9), (4, 9)])

    def test_equality_and_hash(self):
        a = path_graph(3)
        b = Graph({1, 2, 3}, [(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)


class TestBuilders:
    def test_graph_of_octahedron(self):
        g = graph_of(sp.cross_polytope(3))
        assert len(g.vertices) == 6
        assert len(g.edges) == 12
        assert frozenset((1, 2)) not in g.edges

    def test_graph_of_cyclic_polytope_is_complete(self):
        g = graph_of(sp.cyclic_polytope_boundary(7, 4))
        assert g == complete_graph(range(1, 8))

    def test_complete_graph_edge_count(self):
        assert len(complete_graph(range(10)).edges) == 45

    def test_cone_graph(self):
        g = cone_graph(path_graph(3), 9)
        assert sum(9 in e for e in g.edges) == 3
        assert frozenset((9, 2)) in g.edges

    def test_cone_graph_over_two_apexes_joins_them_too(self):
        g = cone_graph(path_graph(3), 8, 9)
        assert frozenset((8, 9)) in g.edges
        assert len(g.edges) == 2 + 1 + 2 * 3
        assert g == cone_graph(cone_graph(path_graph(3), 8), 9)

    def test_cone_graph_apex_collision_rejected(self):
        with pytest.raises(ValueError):
            cone_graph(path_graph(3), 2)

    def test_union(self):
        u = union(complete_graph(range(1, 4)), complete_graph(range(3, 6)))
        assert len(u.vertices) == 5
        assert len(u.edges) == 6

    def test_builders_match_the_validated_constructor(self):
        # the builders skip per-edge validation; their output must be a graph
        # the public constructor accepts and reproduces
        g = graph_of(sp.cross_polytope(4))
        built = [
            g,
            g.remove_edge(1, 3),
            g.contract_edge(1, 3, 9),
            complete_graph(range(1, 7)),
            cone_graph(g, 9),
            union(g, complete_graph((1, 2, 11))),
            sp.cross_polytope(4).link_star_graphs((1, 3))[0],
            sp.cross_polytope(4).link_star_graphs((1, 3))[1],
        ]
        for graph in built:
            assert graph == Graph(graph.vertices, graph.edges)
            assert all(len(e) == 2 and e <= graph.vertices for e in graph.edges)

    def test_builders_still_reject_bad_input(self):
        with pytest.raises(ValueError, match="not an edge"):
            complete_graph(range(1, 4)).remove_edge(1, 5)
        with pytest.raises(ValueError, match="already a vertex"):
            cone_graph(complete_graph(range(1, 4)), 3)
        with pytest.raises(ValueError, match="not an edge"):
            path_graph(3).contract_edge(1, 3, 9)
        with pytest.raises(ValueError, match="already a vertex"):
            path_graph(3).contract_edge(1, 2, 3)
        with pytest.raises(ValueError, match="two distinct endpoints"):
            Graph({1, 2}, [(1, 2, 3)])
