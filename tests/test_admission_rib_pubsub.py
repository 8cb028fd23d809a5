"""Tests for admission control, remote RIB reads, and the pub/sub app."""

import pytest

from repro.apps.pubsub import Broker, PubSubClient
from repro.core import (Dif, DifPolicies, Orchestrator, QosCube,
                        add_shims, build_dif_over, make_systems, run_until,
                        shim_between)
from repro.core.flow import FAILED, PENDING
from repro.core.names import ApplicationName
from repro.sim.network import Network

VOICE = QosCube("guaranteed-voice", reliable=False, avg_bandwidth=3e6,
                priority=0)


def build_pair(policies, seed=1):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b")
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", policies)
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("a", "b", shim_between(network, "a", "b"))])
    orchestrator.run(timeout=30)
    return network, systems, dif


def guaranteed_policies(capacity=1e7):
    cubes = dict(DifPolicies().qos_cubes)
    cubes[VOICE.name] = VOICE
    return DifPolicies(qos_cubes=cubes, admission_capacity_bps=capacity)


class TestAdmissionControl:
    def _allocate(self, network, systems, count):
        flows = [systems["a"].allocate_flow(
            ApplicationName(f"caller-{index}"), ApplicationName("svc"),
            qos=VOICE, dif_name="d") for index in range(count)]
        run_until(network, lambda: PENDING not in [f.state for f in flows],
                  timeout=30)
        return flows

    def test_flows_admitted_within_budget(self):
        network, systems, _dif = build_pair(guaranteed_policies(1e7))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flows = self._allocate(network, systems, 3)   # 9 of 10 Mb/s
        assert all(f.allocated for f in flows)

    def test_flow_beyond_budget_denied(self):
        network, systems, dif = build_pair(guaranteed_policies(1e7))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flows = self._allocate(network, systems, 4)   # 12 of 10 Mb/s
        outcomes = sorted(f.allocated for f in flows)
        assert outcomes == [False, True, True, True]
        denied = [f for f in flows if f.state == FAILED][0]
        assert denied.failure_reason == "admission-denied"
        allocator = systems["a"].ipcp("d").flow_allocator
        assert allocator.allocations_denied_admission == 1
        assert allocator.committed_bandwidth_bps() == pytest.approx(9e6)

    def test_deallocation_frees_budget(self):
        network, systems, _dif = build_pair(guaranteed_policies(1e7))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flows = self._allocate(network, systems, 3)
        assert all(f.allocated for f in flows)
        flows[0].deallocate()
        network.run(until=network.engine.now + 1.0)
        late = self._allocate(network, systems, 1)
        assert late[0].allocated

    @pytest.mark.parametrize("request_out", [False, True])
    def test_withdrawing_a_pending_flow_releases_both_ends(self,
                                                           request_out):
        """``deallocate()`` at once (the directory has not yet resolved
        the name, so a retry waits) or once the request is out: a waiting
        retry does nothing, a late ok reply is answered with an
        ``M_DELETE`` for the far end's flow, and both ends give their
        admitted bandwidth back."""
        network, systems, _dif = build_pair(guaranteed_policies(1e7))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flow = systems["a"].allocate_flow(
            ApplicationName("caller"), ApplicationName("svc"), qos=VOICE,
            dif_name="d")
        if request_out:
            allocator = systems["a"].ipcp("d").flow_allocator
            run_until(network, lambda: allocator.committed_bandwidth_bps(),
                      timeout=10, step=1e-4)
            assert flow.state == PENDING
        flow.deallocate()
        network.run(until=network.engine.now + 10.0)
        assert flow.state == FAILED and flow.failure_reason == "deallocated"
        for name in ("a", "b"):
            allocator = systems[name].ipcp("d").flow_allocator
            assert allocator.active_flow_count() == 0, name
            assert allocator.committed_bandwidth_bps() == 0.0, name

    def test_best_effort_flows_unconstrained(self):
        network, systems, _dif = build_pair(guaranteed_policies(1e6))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flows = [systems["a"].allocate_flow(
            ApplicationName(f"be-{index}"), ApplicationName("svc"),
            dif_name="d") for index in range(10)]
        run_until(network, lambda: PENDING not in [f.state for f in flows],
                  timeout=30)
        assert all(f.allocated for f in flows)

    def test_no_capacity_means_no_admission_control(self):
        network, systems, _dif = build_pair(
            guaranteed_policies(capacity=None))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        flows = self._allocate(network, systems, 6)
        assert all(f.allocated for f in flows)


class TestRemoteRibRead:
    def _pair(self):
        return build_pair(DifPolicies(keepalive_interval=5.0))

    def _read(self, network, systems, obj):
        a = systems["a"].ipcp("d")
        b = systems["b"].ipcp("d")
        replies = []
        a.remote_read(b.address, obj, replies.append)
        run_until(network, lambda: replies, timeout=10)
        return replies[0]

    def test_read_peer_address_object(self):
        network, systems, _dif = self._pair()
        reply = self._read(network, systems, "/ipcp/name")
        assert reply is not None and reply.ok
        assert reply.value == "d.ipcp.b"

    def test_read_peer_routing_table(self):
        network, systems, _dif = self._pair()
        reply = self._read(network, systems, "/routing/table-size")
        assert reply.ok and reply.value == 1

    def test_read_peer_directory_names(self):
        network, systems, _dif = self._pair()
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        reply = self._read(network, systems, "/directory/names")
        assert reply.ok and "svc" in reply.value

    def test_read_peer_rmt_stats(self):
        network, systems, _dif = self._pair()
        reply = self._read(network, systems, "/stats/rmt")
        assert reply.ok
        assert set(reply.value) == {"relayed", "delivered", "dropped"}

    def test_read_unknown_object_not_found(self):
        network, systems, _dif = self._pair()
        reply = self._read(network, systems, "/no/such/thing")
        assert reply is not None and not reply.ok

    def test_read_neighbors(self):
        network, systems, _dif = self._pair()
        a_addr = systems["a"].ipcp("d").address
        reply = self._read(network, systems, "/neighbors")
        assert reply.ok and reply.value == [str(a_addr)]


class TestPubSub:
    def _world(self):
        network = Network(seed=5)
        for name in ("broker-host", "pub", "sub1", "sub2"):
            network.add_node(name)
        for name in ("pub", "sub1", "sub2"):
            network.connect("broker-host", name)
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("d", DifPolicies(keepalive_interval=5.0))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("broker-host", name, shim_between(network, "broker-host", name))
            for name in ("pub", "sub1", "sub2")])
        orchestrator.run(timeout=60)
        broker = Broker(systems["broker-host"])
        network.run(until=network.engine.now + 0.5)
        return network, systems, broker

    def test_publication_fans_out_to_subscribers(self):
        network, systems, broker = self._world()
        sub1 = PubSubClient(systems["sub1"], "sub-one")
        sub2 = PubSubClient(systems["sub2"], "sub-two")
        publisher = PubSubClient(systems["pub"], "pub-one")
        run_until(network, lambda: sub1.ready and sub2.ready and
                  publisher.ready, timeout=15)
        sub1.subscribe("alerts")
        sub2.subscribe("alerts")
        network.run(until=network.engine.now + 1.0)
        assert broker.subscriber_count("alerts") == 2
        publisher.publish("alerts", "fire drill")
        run_until(network, lambda: sub1.events and sub2.events, timeout=15)
        assert sub1.events[0]["data"] == "fire drill"
        assert sub2.events[0]["data"] == "fire drill"
        assert publisher.events == []   # publishers don't hear themselves

    def test_topics_are_isolated(self):
        network, systems, broker = self._world()
        sub1 = PubSubClient(systems["sub1"], "sub-one")
        publisher = PubSubClient(systems["pub"], "pub-one")
        run_until(network, lambda: sub1.ready and publisher.ready, timeout=15)
        sub1.subscribe("sports")
        network.run(until=network.engine.now + 1.0)
        publisher.publish("politics", "nope")
        network.run(until=network.engine.now + 2.0)
        assert sub1.events == []

    def test_unsubscribe_stops_events(self):
        network, systems, broker = self._world()
        sub1 = PubSubClient(systems["sub1"], "sub-one")
        publisher = PubSubClient(systems["pub"], "pub-one")
        run_until(network, lambda: sub1.ready and publisher.ready, timeout=15)
        sub1.subscribe("t")
        network.run(until=network.engine.now + 1.0)
        sub1.unsubscribe("t")
        network.run(until=network.engine.now + 1.0)
        publisher.publish("t", "x")
        network.run(until=network.engine.now + 2.0)
        assert sub1.events == []
