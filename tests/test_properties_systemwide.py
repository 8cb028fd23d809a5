"""System-wide property tests: routing correctness against ground truth,
directory convergence, and random-network soak tests."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (Dif, DifPolicies, MessageFlow, Orchestrator,
                        add_shims, build_dif_over, make_systems, run_until)
from repro.core.flow import PENDING
from repro.core.names import Address, ApplicationName
from repro.core.qos import RELIABLE
from repro.sim.network import Network


def random_connected_edges(n, extra, rng_seed):
    """A connected random graph as an edge list over range(n)."""
    import random
    rng = random.Random(rng_seed)
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    attempts = 0
    while len(edges) < n - 1 + extra and attempts < 10 * n:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def build_dif_network(edges, n, seed=1, policies=None):
    network = Network(seed=seed)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        network.add_node(name)
    link_names = {}
    for index, (a, b) in enumerate(edges):
        link = network.connect(names[a], names[b], name=f"e{index}")
        link_names[(a, b)] = f"shim:e{index}"
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", policies or DifPolicies(keepalive_interval=2.0,
                                           refresh_interval=None))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        (names[a], names[b], link_names[(a, b)]) for a, b in edges],
        settle=1.0)
    orchestrator.run(timeout=600)
    network.run(until=network.engine.now + 2.0)
    return network, systems, dif, names


class TestRoutingMatchesGroundTruth:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=3, max_value=9),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=1000))
    def test_property_hop_distances_equal_networkx(self, n, extra, seed):
        edges = random_connected_edges(n, extra, seed)
        network, systems, dif, names = build_dif_network(edges, n, seed=1)
        graph = nx.Graph(edges)
        address_of = {index: systems[names[index]].ipcp("d").address
                      for index in range(n)}
        index_of = {address: index for index, address in address_of.items()}
        for source in range(n):
            ipcp = systems[names[source]].ipcp("d")
            table = ipcp.routing.table()
            # every other member reachable
            assert set(table) == {address_of[i] for i in range(n)
                                  if i != source}
            # next hops realize shortest-path distances
            lengths = nx.single_source_shortest_path_length(graph, source)
            for destination, next_hop in table.items():
                d_index = index_of[destination]
                h_index = index_of[next_hop]
                assert graph.has_edge(source, h_index) or source == h_index
                assert lengths[h_index] + 1 <= lengths[d_index] + 1
                # moving to the next hop strictly approaches the destination
                d_from_hop = nx.shortest_path_length(graph, h_index, d_index)
                assert d_from_hop == lengths[d_index] - 1


class TestRandomNetworkSoak:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=3, max_value=7),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=500))
    def test_property_any_pair_can_talk(self, n, extra, seed):
        edges = random_connected_edges(n, extra, seed)
        network, systems, dif, names = build_dif_network(edges, n, seed=2)
        import random
        rng = random.Random(seed)
        server_index = rng.randrange(n)
        client_index = (server_index + 1 + rng.randrange(n - 1)) % n
        received = []

        def on_flow(flow):
            mf = MessageFlow(flow)
            mf.set_message_receiver(received.append)
            on_flow.keep = mf
        systems[names[server_index]].register_app(ApplicationName("svc"),
                                                  on_flow)
        network.run(until=network.engine.now + 1.0)
        flow = systems[names[client_index]].allocate_flow(
            ApplicationName("cli"), ApplicationName("svc"), qos=RELIABLE)
        assert run_until(network, lambda: flow.state != PENDING, timeout=30)
        assert flow.allocated, flow.failure_reason
        sender = MessageFlow(flow)
        sender.send_message(b"soak")
        assert run_until(network, lambda: received, timeout=30)
        assert received == [b"soak"]


class TestDirectoryConvergence:
    def test_registrations_visible_everywhere_in_a_ring(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        network, systems, dif, names = build_dif_network(edges, 4)
        for index, name in enumerate(names):
            systems[name].register_app(ApplicationName(f"app-{index}"),
                                       lambda f: None)
        network.run(until=network.engine.now + 3.0)
        expected = {ApplicationName(f"app-{i}") for i in range(4)}
        for name in names:
            known = systems[name].ipcp("d").directory.known_names()
            assert expected <= known

    def test_unregistration_propagates(self):
        edges = [(0, 1), (1, 2)]
        network, systems, dif, names = build_dif_network(edges, 3)
        app = ApplicationName("ephemeral")
        systems[names[2]].register_app(app, lambda f: None)
        network.run(until=network.engine.now + 2.0)
        far = systems[names[0]].ipcp("d").directory
        assert far.lookup(app) is not None
        systems[names[2]].unregister_app(app)
        network.run(until=network.engine.now + 2.0)
        assert far.lookup(app) is None
