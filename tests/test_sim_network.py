"""Unit tests for topology construction."""

import pytest

from repro.sim.network import Network


def adjacency(network):
    """node -> set of neighbours, from the links' endpoints."""
    graph = {name: set() for name in network.nodes}
    for link in network.links.values():
        a, b = network.endpoints_of(link)
        graph[a].add(b)
        graph[b].add(a)
    return graph


class TestNodesAndLinks:
    def test_add_and_lookup_node(self):
        network = Network()
        network.add_node("a")
        assert network.node("a").name == "a"

    def test_duplicate_node_rejected(self):
        network = Network()
        network.add_node("a")
        with pytest.raises(ValueError):
            network.add_node("a")

    def test_connect_plugs_both_interfaces(self):
        network = Network()
        network.add_node("a")
        network.add_node("b")
        link = network.connect("a", "b")
        assert network.node("a").interface_count() == 1
        assert network.node("b").interface_count() == 1
        assert network.node("a").interface("if0").link is link

    def test_duplicate_link_name_rejected(self):
        network = Network()
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b", name="l")
        with pytest.raises(ValueError):
            network.connect("a", "b", name="l")

    def test_link_between_finds_either_order(self):
        network = Network()
        network.add_node("a")
        network.add_node("b")
        link = network.connect("a", "b")
        assert network.link_between("a", "b") is link
        assert network.link_between("b", "a") is link

    def test_link_between_missing_raises(self):
        network = Network()
        network.add_node("a")
        network.add_node("b")
        with pytest.raises(KeyError):
            network.link_between("a", "b")

    def test_run_delegates_to_engine(self):
        network = Network()
        seen = []
        network.engine.call_at(1.0, lambda: seen.append(True))
        network.run(until=2.0)
        assert seen == [True]


class TestBuilders:
    def test_chain(self):
        network = Network()
        names = network.build_chain(4)
        assert names == ["n0", "n1", "n2", "n3"]
        assert len(network.links) == 3

    def test_chain_single_node(self):
        network = Network()
        assert network.build_chain(1) == ["n0"]
        assert len(network.links) == 0

    def test_chain_validates_count(self):
        with pytest.raises(ValueError):
            Network().build_chain(0)

    def test_star(self):
        network = Network()
        hub, leaves = network.build_star(5)
        assert hub == "hub"
        assert len(leaves) == 5
        assert len(network.links) == 5
        assert network.node("hub").interface_count() == 5

    def test_tree_node_count(self):
        network = Network()
        names = network.build_tree(depth=2, arity=2)
        assert len(names) == 1 + 2 + 4
        assert len(network.links) == 6

    def test_tree_names_encode_paths(self):
        network = Network()
        names = network.build_tree(depth=1, arity=3, prefix="x")
        assert "x" in names and "x.0" in names and "x.2" in names

    def test_tree_validates(self):
        with pytest.raises(ValueError):
            Network().build_tree(depth=-1, arity=2)

    def test_grid_dimensions_and_edges(self):
        network = Network()
        matrix = network.build_grid(3, 4)
        assert len(matrix) == 3 and len(matrix[0]) == 4
        # 3*3 horizontal + 2*4 vertical = 17
        assert len(network.links) == 3 * 3 + 2 * 4

    def test_grid_validates(self):
        with pytest.raises(ValueError):
            Network().build_grid(0, 3)

    def test_random_graph_connected(self):
        network = Network(seed=11)
        names = network.build_random(20, edge_factor=1.5)
        graph = adjacency(network)
        reached, frontier = {names[0]}, [names[0]]
        while frontier:
            fresh = [peer for node in frontier for peer in graph[node]
                     if peer not in reached]
            reached.update(fresh)
            frontier = fresh
        assert reached == set(names) == set(graph)

    def test_random_graph_deterministic_per_seed(self):
        first = Network(seed=3)
        first.build_random(10)
        second = Network(seed=3)
        second.build_random(10)
        assert sorted(first.links) == sorted(second.links)


class TestGraphView:
    def test_graph_mirrors_topology(self):
        network = Network()
        network.build_chain(3)
        graph = adjacency(network)
        assert graph == {"n0": {"n1"}, "n1": {"n0", "n2"}, "n2": {"n1"}}
        link = network.link_between("n0", "n1")
        assert network.endpoints_of(link) == ("n0", "n1")
