"""Tests for structural graph statistics."""

import pytest

from repro.errors import ParameterError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import complete_graph, power_law_graph
from repro.graphs.properties import (
    bfs_distances,
    connected_components,
    degeneracy_order,
    degree_summary,
    density,
    eccentricity,
    is_connected,
    largest_component,
)


class TestDegreeSummary:
    def test_star(self, star4):
        s = degree_summary(star4)
        assert s.minimum == 1
        assert s.maximum == 4
        assert s.mean == pytest.approx(8 / 5)
        assert s.median == 1

    def test_regular_graph(self, ring6):
        s = degree_summary(ring6)
        assert s.minimum == s.maximum == 2
        assert s.std == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ParameterError):
            degree_summary(Graph.from_edges([], num_nodes=0))


class TestComponents:
    def test_single_component(self, ring6):
        labels = connected_components(ring6)
        assert set(labels.tolist()) == {0}
        assert is_connected(ring6)

    def test_two_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert not is_connected(g)

    def test_isolated_nodes_are_components(self):
        g = Graph.from_edges([(0, 1)], num_nodes=4)
        assert len(set(connected_components(g).tolist())) == 3

    def test_largest_component(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        assert largest_component(g).tolist() == [0, 1, 2]

    def test_empty_graph_connected(self):
        assert is_connected(Graph.from_edges([], num_nodes=0))


class TestDistances:
    def test_path_distances(self, path5):
        assert bfs_distances(path5, 0).tolist() == [0, 1, 2, 3, 4]

    def test_unreachable_is_minus_one(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        assert bfs_distances(g, 0)[2] == -1

    def test_eccentricity_path_end(self, path5):
        assert eccentricity(path5, 0) == 4
        assert eccentricity(path5, 2) == 2

    def test_source_validated(self, path5):
        with pytest.raises(ParameterError):
            bfs_distances(path5, 9)

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        g = power_law_graph(80, 200, seed=11)
        nx_graph = networkx.Graph(list(g.edges()))
        ours = bfs_distances(g, 0)
        theirs = networkx.single_source_shortest_path_length(nx_graph, 0)
        for node, dist in theirs.items():
            assert ours[node] == dist


class TestDensity:
    def test_complete(self):
        assert density(complete_graph(5)) == pytest.approx(1.0)

    def test_empty(self):
        assert density(Graph.from_edges([], num_nodes=5)) == 0.0

    def test_single_node(self):
        assert density(Graph.from_edges([], num_nodes=1)) == 0.0


class TestDegeneracy:
    def test_is_permutation(self, small_power_law):
        order = degeneracy_order(small_power_law)
        assert sorted(order.tolist()) == list(range(small_power_law.num_nodes))

    def test_path_removes_ends_first(self, path5):
        order = degeneracy_order(path5)
        # first removed node must have degree 1 (an endpoint)
        assert path5.degree(int(order[0])) == 1

    def test_star_removes_leaves_first(self, star4):
        order = degeneracy_order(star4)
        assert int(order[-1]) == 0 or star4.degree(int(order[-1])) <= 1

    def test_core_number_complete(self):
        # In K5 every removal sees degree 4, 3, 2, 1, 0 in turn.
        order = degeneracy_order(complete_graph(5))
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]
