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


#: every path ``Ipcp.rib_snapshot_value`` serves, and what B answers
SERVED = [
    ("/ipcp/address", (2,)),            # B's address parts
    ("/ipcp/name", "d.ipcp.b"),
    ("/routing/table-size", 1),
    ("/routing/table", {"1": "1"}),
    ("/routing/lsdb-size", 2),
    ("/directory/size", 1),
    ("/directory/names", ["svc"]),
    ("/flows/count", 0),
    ("/flows/committed-bandwidth", 0.0),
    ("/stats/rmt", {"relayed": 0, "delivered": 6, "dropped": 0}),
    ("/neighbors", ["1"]),
]


class TestRemoteRibRead:
    """A reads B's RIB with ``M_READ``: every path
    ``Ipcp.rib_snapshot_value`` serves, with the exact value on the pair
    (``svc`` registered at B), and the paths it does not serve."""

    def _read(self, obj):
        network, systems, _dif = build_pair(DifPolicies(keepalive_interval=5.0))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        a = systems["a"].ipcp("d")
        b = systems["b"].ipcp("d")
        assert (a.address.parts, b.address.parts) == ((1,), (2,))
        replies = []
        a.remote_read(b.address, obj, replies.append)
        run_until(network, lambda: replies, timeout=10)
        return replies[0]

    @pytest.mark.parametrize("obj, value", SERVED,
                             ids=[obj for obj, _value in SERVED])
    def test_read_peer_object(self, obj, value):
        reply = self._read(obj)
        assert reply is not None and reply.ok
        assert reply.value == value

    @pytest.mark.parametrize("obj", ["/no/such/thing", ""],
                             ids=["unknown", "empty"])
    def test_read_unserved_object_not_found(self, obj):
        reply = self._read(obj)
        assert reply is not None and not reply.ok
        assert reply.value is None


class TestLocalRibRead:
    """``Ipcp.rib_snapshot_value`` reads the component that owns each
    path, so a read follows the live state with no write in between, and
    only the exact name of a served path is answered."""

    def _pair(self, policies=None):
        network, systems, dif = build_pair(
            policies or DifPolicies(keepalive_interval=5.0))
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        return network, systems, dif

    @pytest.mark.parametrize("obj", ["/ipcp/address/", "ipcp/address",
                                     "//ipcp/address", "/ipcp", "/",
                                     "/IPCP/ADDRESS"],
                             ids=["trailing-slash", "relative", "double-slash",
                                  "parent", "root", "upper-case"])
    def test_only_the_exact_name_is_served(self, obj):
        # no path is normalised: a trailing or doubled slash is another
        # name, not found (the literal store that split paths is gone)
        _network, systems, _dif = self._pair()
        b = systems["b"].ipcp("d")
        assert b.rib_snapshot_value("/ipcp/address") == (2,)
        assert b.rib_snapshot_value(obj) is None

    def test_directory_reads_follow_registration(self):
        network, systems, _dif = self._pair()
        b = systems["b"].ipcp("d")
        assert b.rib_snapshot_value("/directory/names") == ["svc"]
        systems["b"].register_app(ApplicationName("echo"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        assert b.rib_snapshot_value("/directory/names") == ["echo", "svc"]
        assert b.rib_snapshot_value("/directory/size") == 2

    def test_flow_reads_follow_allocation(self):
        network, systems, _dif = self._pair(guaranteed_policies(1e7))
        a = systems["a"].ipcp("d")
        assert a.rib_snapshot_value("/flows/count") == 0
        assert a.rib_snapshot_value("/flows/committed-bandwidth") == 0.0
        flow = systems["a"].allocate_flow(
            ApplicationName("caller"), ApplicationName("svc"),
            qos=VOICE, dif_name="d")
        run_until(network, lambda: flow.state != PENDING, timeout=30)
        assert flow.allocated
        assert a.rib_snapshot_value("/flows/count") == 1
        assert a.rib_snapshot_value(
            "/flows/committed-bandwidth") == pytest.approx(3e6)

    def test_crashed_member_serves_no_address_or_neighbours(self):
        _network, systems, _dif = self._pair()
        b = systems["b"].ipcp("d")
        b.crash()
        assert b.rib_snapshot_value("/ipcp/address") is None
        assert b.rib_snapshot_value("/ipcp/name") == "d.ipcp.b"
        assert b.rib_snapshot_value("/neighbors") == []
        assert b.rib_snapshot_value("/routing/table-size") == 0


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
