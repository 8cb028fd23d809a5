"""Tests for the RIP-style distance-vector baseline IGP."""

from repro.baselines import IpFabric
from repro.baselines.ipnet import IpPacket
from repro.baselines.rip import INFINITY_METRIC, RipDaemon, run_rip_network
from repro.sim.network import Network, chain
from repro.sim.plant import LinkSpec, build_plant


def rip_chain(n=4, update_interval=0.5, seed=1):
    network = Network(seed=seed)
    names, edges = chain(n)
    build_plant(network, names, [LinkSpec(a, b) for a, b in edges])
    fabric = IpFabric(network, routers=names[1:-1])
    # discard the omniscient routes: RIP must build them itself
    for host in fabric.hosts.values():
        host.ip.clear_routes()
    daemons = run_rip_network(fabric, update_interval=update_interval)
    return network, fabric, daemons, names


class TestConvergence:
    def test_full_connectivity_after_convergence(self):
        network, fabric, daemons, names = rip_chain(4)
        network.run(until=8.0)
        first, last = fabric.host(names[0]), fabric.host(names[-1])
        got = []
        last.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        first.ip.send(IpPacket(first.addr(), last.addr(), 200, "x", 4))
        network.run(until=9.0)
        assert len(got) == 1

    def test_metrics_reflect_hop_count(self):
        network, fabric, daemons, names = rip_chain(4)
        network.run(until=8.0)
        first = daemons[names[0]]
        last_host = fabric.host(names[-1])
        route = first.route_to(last_host.addr())
        assert route is not None
        assert route.metric == 2   # two routers between the end subnets

    def test_update_messages_flow_periodically(self):
        network, _fabric, daemons, names = rip_chain(3, update_interval=0.5)
        network.run(until=5.0)
        for daemon in daemons.values():
            assert daemon.updates_sent >= 5
            assert daemon.updates_received >= 5

    def test_connected_routes_survive_without_neighbors(self):
        network = Network(seed=1)
        network.add_node("solo")
        network.add_node("peer")
        network.connect("solo", "peer")
        fabric = IpFabric(network)
        fabric.host("solo").ip.clear_routes()
        daemon = RipDaemon(fabric.host("solo").ip, fabric.host("solo").udp,
                           update_interval=0.5)
        network.run(until=3.0)
        assert daemon.table_size() >= 1


class TestFailureHandling:
    def test_route_expires_after_silence(self):
        network, fabric, daemons, names = rip_chain(4, update_interval=0.5)
        network.run(until=8.0)
        first = daemons[names[0]]
        last_host = fabric.host(names[-1])
        assert first.route_to(last_host.addr()) is not None
        # cut the chain in the middle
        network.link_between(names[1], names[2]).fail()
        network.run(until=20.0)
        route = first.route_to(last_host.addr())
        assert route is None or route.metric >= INFINITY_METRIC

    def test_reconvergence_after_repair(self):
        network, fabric, daemons, names = rip_chain(4, update_interval=0.5)
        network.run(until=8.0)
        link = network.link_between(names[1], names[2])
        link.fail()
        network.run(until=20.0)
        link.repair()
        network.run(until=35.0)
        first, last = fabric.host(names[0]), fabric.host(names[-1])
        got = []
        last.ip.register_protocol(200, lambda packet, stack: got.append(packet))
        first.ip.send(IpPacket(first.addr(), last.addr(), 200, "back", 4))
        network.run(until=36.0)
        assert len(got) == 1

    def test_update_cost_grows_with_network_size(self):
        """The E6 contrast from the baseline side: a flat IGP's periodic
        update traffic scales with the whole network."""
        costs = {}
        for n in (3, 6):
            network, _fabric, daemons, _names = rip_chain(
                n, update_interval=0.5)
            network.run(until=6.0)
            costs[n] = sum(d.updates_sent for d in daemons.values())
        assert costs[6] > costs[3] * 1.5
