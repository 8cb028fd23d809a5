"""Unit/integration tests for the IP baseline network layer."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines.ipnet import (IpPacket, IpRoutingDaemon, IpStack, ip,
                                   ip_str, prefix_of, shortest_paths)
from repro.baselines.sockets import IpFabric
from repro.sim.network import Network, chain
from repro.sim.plant import LinkSpec, build_plant


class TestAddressing:
    def test_parse_and_render(self):
        assert ip("10.0.0.1") == 0x0A000001
        assert ip_str(0x0A000001) == "10.0.0.1"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_roundtrip(self, value):
        assert ip(ip_str(value)) == value

    def test_bad_literals_rejected(self):
        for bad in ("10.0.0", "256.1.1.1", "a.b.c.d"):
            with pytest.raises(ValueError):
                ip(bad)

    def test_prefix_of(self):
        assert prefix_of(ip("10.1.2.3"), 8) == ip("10.0.0.0")
        assert prefix_of(ip("10.1.2.3"), 32) == ip("10.1.2.3")
        assert prefix_of(ip("10.1.2.3"), 0) == 0


class TestForwarding:
    def _stack_pair(self):
        network = Network(seed=1)
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b")
        a = IpStack(network.node("a"))
        b = IpStack(network.node("b"))
        a.add_interface("if0", ip("10.0.0.1"), 30)
        b.add_interface("if0", ip("10.0.0.2"), 30)
        a.add_route(ip("10.0.0.0"), 30, None, "if0")
        b.add_route(ip("10.0.0.0"), 30, None, "if0")
        return network, a, b

    def test_local_delivery_to_protocol(self):
        network, a, b = self._stack_pair()
        got = []
        b.register_protocol(200, lambda packet, stack: got.append(packet))
        a.send(IpPacket(ip("10.0.0.1"), ip("10.0.0.2"), 200, "hi", 10))
        network.run(until=1.0)
        assert len(got) == 1 and got[0].payload == "hi"

    def test_no_route_drops(self):
        network, a, _b = self._stack_pair()
        ok = a.send(IpPacket(ip("10.0.0.1"), ip("99.0.0.1"), 200, "x", 1))
        assert not ok
        assert a.packets_dropped == 1

    def test_unknown_protocol_dropped(self):
        network, a, b = self._stack_pair()
        a.send(IpPacket(ip("10.0.0.1"), ip("10.0.0.2"), 250, "x", 1))
        network.run(until=1.0)
        assert b.packets_dropped == 1

    def test_longest_prefix_match_wins(self):
        network, a, _b = self._stack_pair()
        a.add_route(ip("10.0.0.2"), 32, None, "if0")
        route = a._lookup(ip("10.0.0.2"))
        assert route.plen == 32

    def test_host_does_not_forward(self):
        network = Network(seed=1)
        for name in ("a", "b", "c"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("b", "c")
        fabric = IpFabric(network, routers=[])   # b is NOT a router
        a, b, c = (fabric.host(n) for n in ("a", "b", "c"))
        got = []
        c.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        a.ip.send(IpPacket(a.addr(), c.addr(), 200, "x", 1))
        network.run(until=1.0)
        assert got == []
        assert b.ip.packets_dropped >= 1

    def test_ttl_expiry(self):
        network = Network(seed=1)
        for name in ("a", "b", "c"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("b", "c")
        fabric = IpFabric(network, routers=["b"])
        a, b, c = (fabric.host(n) for n in ("a", "b", "c"))
        got = []
        c.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        a.ip.send(IpPacket(a.addr(), c.addr(), 200, "x", 1, ttl=1))
        network.run(until=1.0)
        assert got == []


class TestRoutingDaemon:
    def test_multihop_connectivity(self):
        network = Network(seed=1)
        names, edges = chain(4)
        build_plant(network, names, [LinkSpec(a, b) for a, b in edges])
        fabric = IpFabric(network, routers=names[1:-1])
        first, last = fabric.host(names[0]), fabric.host(names[-1])
        got = []
        last.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        first.ip.send(IpPacket(first.addr(), last.addr(), 200, "far", 4))
        network.run(until=1.0)
        assert len(got) == 1

    def test_interface_goes_down_with_link(self):
        network = Network(seed=1)
        network.add_node("a")
        network.add_node("b")
        link = network.connect("a", "b")
        fabric = IpFabric(network)
        a = fabric.host("a")
        assert a.ip.interfaces["if0"].up
        link.fail()
        assert not a.ip.interfaces["if0"].up
        link.repair()
        assert a.ip.interfaces["if0"].up

    def test_reconvergence_after_failure(self):
        network = Network(seed=1)
        for name in ("a", "b", "c", "d"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("b", "d")
        network.connect("a", "c")
        network.connect("c", "d")
        fabric = IpFabric(network, routers=["b", "c"])
        a, d = fabric.host("a"), fabric.host("d")
        got = []
        d.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        a.ip.send(IpPacket(a.addr("if0"), d.addr("if0"), 200, "one", 4))
        network.run(until=1.0)
        count_before = len(got)
        network.link_between("a", "b").fail()
        fabric.reconverge()
        network.run(until=2.0)
        # after reconvergence the other path carries traffic (note: the
        # destination address on the dead subnet is gone; send to d's
        # other interface)
        a.ip.send(IpPacket(a.addr("if1"), d.addr("if1"), 200, "two", 4))
        network.run(until=3.0)
        assert len(got) == count_before + 1

    def test_subnet_routes_not_host_routes(self):
        network = Network(seed=1)
        names, edges = chain(3)
        build_plant(network, names, [LinkSpec(a, b) for a, b in edges])
        fabric = IpFabric(network, routers=[names[1]])
        first = fabric.host(names[0])
        # one default-ish entry per remote subnet + connected: small table
        assert first.ip.table_size() <= 3

    def test_paths_avoid_non_forwarding_hosts(self):
        # diamond where one branch transits a host: traffic must take the
        # router branch even if longer
        network = Network(seed=1)
        for name in ("src", "host", "r1", "r2", "dst"):
            network.add_node(name)
        network.connect("src", "host")
        network.connect("host", "dst")      # short path via host
        network.connect("src", "r1")
        network.connect("r1", "r2")
        network.connect("r2", "dst")        # longer path via routers
        fabric = IpFabric(network, routers=["r1", "r2"])
        src, dst = fabric.host("src"), fabric.host("dst")
        got = []
        dst.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        target = dst.addr("if1")  # dst's address on the r2--dst subnet
        src.ip.send(IpPacket(src.addr("if1"), target, 200, "x", 1))
        network.run(until=1.0)
        assert len(got) == 1
        assert fabric.host("host").ip.packets_forwarded == 0


def random_ip_plant(seed):
    """A small random plant built to stress route tie-breaks: nodes
    added in shuffled order, parallel links, isolated nodes, hosts with
    forwarding off, failed links, and a routing daemon whose stack order
    is shuffled apart from the node order (sometimes missing a node)."""
    rng = random.Random(seed)
    network = Network(seed=seed)
    names = [f"n{i}" for i in range(rng.randint(1, 9))]
    rng.shuffle(names)
    for name in names:
        network.add_node(name)
    links = []
    for _ in range(rng.randint(0, 2 * len(names)) if len(names) > 1 else 0):
        a, b = rng.sample(names, 2)
        links.append(network.connect(a, b))
        if rng.random() < 0.15:                     # a parallel link
            links.append(network.connect(b, a))
    routers = [name for name in names if rng.random() < 0.6]
    fabric = IpFabric(network, routers=routers)
    for link in links:
        if rng.random() < 0.15:
            link.fail()
    order = list(names)
    rng.shuffle(order)
    if len(order) > 2 and rng.random() < 0.2:
        order.pop()
    stacks = {name: fabric.host(name).ip for name in order}
    return IpRoutingDaemon(network, stacks)


def reference_graph(daemon, nx):
    """The usable graph as the baseline built it with networkx."""
    def owner(end):
        for name in daemon._stacks:
            for interface in daemon._network.node(name).interfaces():
                if interface.end is end:
                    return name
        return None

    graph = nx.Graph()
    graph.add_nodes_from(daemon._stacks)
    for link in daemon._network.links.values():
        if not link.up:
            continue
        a, b = owner(link.ends[0]), owner(link.ends[1])
        if a in daemon._stacks and b in daemon._stacks:
            a_if = daemon._ifname_for_end(a, link.ends[0])
            b_if = daemon._ifname_for_end(b, link.ends[1])
            if a_if and b_if:
                graph.add_edge(a, b, ends={a: a_if, b: b_if})
    return graph


def reference_paths(graph, source, stacks, nx):
    """``networkx.single_source_dijkstra`` over the view in which only
    routers and the source have outgoing edges."""
    directed = nx.DiGraph()
    directed.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        if u == source or stacks[u].forwarding:
            directed.add_edge(u, v)
        if v == source or stacks[v].forwarding:
            directed.add_edge(v, u)
    return nx.single_source_dijkstra(directed, source)


class TestShortestPathsMatchNetworkx:
    """The in-repo breadth-first search replaced a networkx Dijkstra;
    routes (first hops) depend on which of several equal-length paths
    wins, so lengths *and* full paths must match, on plants built to
    produce many ties."""

    def test_random_plants(self):
        nx = pytest.importorskip("networkx")
        sources = 0
        for seed in range(2000):
            daemon = random_ip_plant(seed)
            graph = daemon._usable_graph()
            reference = reference_graph(daemon, nx)
            assert list(graph) == list(reference.nodes), seed
            for u, peers in graph.items():
                assert set(peers) == set(reference[u]), (seed, u)
                for v, ends in peers.items():
                    assert ends == reference.edges[u, v]["ends"], (seed, u, v)
            routers = {name for name, stack in daemon._stacks.items()
                       if stack.forwarding}
            for source in daemon._stacks:
                paths = shortest_paths(graph, source, routers)
                lengths, expected = reference_paths(
                    reference, source, daemon._stacks, nx)
                assert paths == expected, (seed, source)
                assert {node: len(path) - 1 for node, path in
                        paths.items()} == lengths, (seed, source)
                sources += 1
        assert sources > 8000

    def test_tie_breaks_are_not_link_order(self):
        # s's neighbours: b (linked first), then a; a comes before s in
        # stack order, so a is searched first and d is reached via a
        network = Network(seed=1)
        for name in ("a", "s", "b", "d"):
            network.add_node(name)
        network.connect("s", "b")
        network.connect("s", "a")
        network.connect("b", "d")
        network.connect("a", "d")
        fabric = IpFabric(network, routers=["a", "b"])
        graph = fabric.daemon._usable_graph()
        assert list(graph["s"]) == ["a", "b"]
        assert shortest_paths(graph, "s", {"a", "b"})["d"] == ["s", "a", "d"]
