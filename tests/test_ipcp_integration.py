"""Integration tests for IPCP behaviours: relaying, liveness, security gate,
reliable flooding, recursion."""

import pytest

from repro.core import (Dif, DifPolicies, MessageFlow, Orchestrator,
                        add_shims, build_dif_over, make_systems, run_until,
                        shim_between, shim_name_for)
from repro.core.flow import PENDING
from repro.core.names import Address, ApplicationName
from repro.core.pdu import DataPdu
from repro.core.qos import RELIABLE
from repro.sim.link import UniformLoss
from repro.sim.network import Network


def chain(n=3, seed=1, policies=None, loss=None):
    network = Network(seed=seed)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        network.add_node(name)
    for left, right in zip(names, names[1:]):
        network.connect(left, right, loss=loss)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", policies or DifPolicies(keepalive_interval=0.2))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        (a, b, shim_between(network, a, b))
        for a, b in zip(names, names[1:])])
    orchestrator.run(timeout=60)
    return network, systems, dif, names


class TestRelaying:
    def test_middle_system_relays_without_flow_state(self):
        network, systems, _dif, names = chain(3)
        inbound = []
        systems["s2"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        flow = systems["s0"].allocate_flow(ApplicationName("cli"),
                                           ApplicationName("svc"),
                                           qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=15)
        assert flow.allocated
        mf = MessageFlow(flow)
        mf.send_message(b"through the middle")
        got = []
        inbound_mf = MessageFlow(inbound[0])
        inbound_mf.set_message_receiver(got.append)
        run_until(network, lambda: got, timeout=15)
        middle = systems["s1"].ipcp("d")
        assert middle.rmt.pdus_relayed > 0
        assert middle.flow_allocator.active_flow_count() == 0

    def test_five_hop_chain_delivers(self):
        network, systems, _dif, names = chain(5)
        inbound = []
        systems[names[-1]].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 1.0)
        flow = systems[names[0]].allocate_flow(ApplicationName("cli"),
                                               ApplicationName("svc"),
                                               qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=20)
        assert flow.allocated


class TestNeighborLiveness:
    def test_dead_link_detected_and_routed_around(self):
        # square: s0-s1-s2 and s0-s3-s2
        network = Network(seed=2)
        for name in ("s0", "s1", "s2", "s3"):
            network.add_node(name)
        network.connect("s0", "s1")
        network.connect("s1", "s2")
        network.connect("s0", "s3")
        network.connect("s3", "s2")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("d", DifPolicies(keepalive_interval=0.1, dead_factor=3))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("s0", "s1", shim_between(network, "s0", "s1")),
            ("s1", "s2", shim_between(network, "s1", "s2")),
            ("s0", "s3", shim_between(network, "s0", "s3")),
            ("s3", "s2", shim_between(network, "s3", "s2"))])
        orchestrator.run(timeout=60)
        s0 = systems["s0"].ipcp("d")
        s2_addr = systems["s2"].ipcp("d").address
        s1_addr = systems["s1"].ipcp("d").address
        run_until(network, lambda: s0.routing.next_hop(s2_addr) is not None,
                  timeout=10)
        network.link_between("s0", "s1").fail()
        s3_addr = systems["s3"].ipcp("d").address
        ok = run_until(network,
                       lambda: s0.routing.next_hop(s2_addr) == s3_addr,
                       timeout=10)
        assert ok

    def test_repaired_link_revives_neighbor(self):
        network, systems, _dif, names = chain(2)
        link = network.link_between("s0", "s1")
        s0 = systems["s0"].ipcp("d")
        s1_addr = systems["s1"].ipcp("d").address
        link.fail()
        run_until(network, lambda: s0.routing.next_hop(s1_addr) is None,
                  timeout=10)
        link.repair()
        ok = run_until(network,
                       lambda: s0.routing.next_hop(s1_addr) == s1_addr,
                       timeout=10)
        assert ok


class TestSecurityGate:
    def test_unauthenticated_port_cannot_inject_data(self):
        network, systems, dif, _names = chain(2)
        # a raw shim flow to s1's IPCP, never enrolled
        from repro.core.names import DifName
        shim = systems["s0"].provider(shim_between(network, "s0", "s1"))
        rogue_flow = shim.allocate_flow(ApplicationName("rogue"),
                                        systems["s1"].ipcp("d").name)
        run_until(network, lambda: rogue_flow.allocated, timeout=10)
        before = network.tracer.counter_value("security.unauthenticated-pdu")
        pdu = DataPdu(Address(66), systems["s1"].ipcp("d").address,
                      1, 1, 0, b"inject", 6)
        rogue_flow.send(pdu, pdu.wire_size())
        network.run(until=network.engine.now + 1.0)
        after = network.tracer.counter_value("security.unauthenticated-pdu")
        assert after == before + 1

    def test_enrollment_messages_pass_the_gate(self):
        # the gate must not break enrollment itself: covered by any chain
        network, systems, dif, _names = chain(2)
        assert dif.member_count() == 2


class TestReliableFlooding:
    def test_directory_converges_under_heavy_loss(self):
        network, systems, _dif, names = chain(
            2, loss=UniformLoss(0.3),
            policies=DifPolicies(keepalive_interval=0.5, dead_factor=10,
                                 flood_attempts=8, flood_ack_timeout=0.2,
                                 mgmt_timeout=1.0, enroll_attempts=10))
        app = ApplicationName("svc")
        systems["s1"].register_app(app, lambda f: None)
        s0 = systems["s0"].ipcp("d")
        ok = run_until(network, lambda: s0.directory.lookup(app) is not None,
                       timeout=30)
        assert ok

    def test_flood_retransmissions_recorded(self):
        network, systems, _dif, names = chain(
            2, loss=UniformLoss(0.4),
            policies=DifPolicies(flood_attempts=6, flood_ack_timeout=0.2,
                                 keepalive_interval=0.5, dead_factor=10,
                                 enroll_attempts=10, mgmt_timeout=1.0))
        systems["s1"].register_app(ApplicationName("x"), lambda f: None)
        network.run(until=network.engine.now + 5.0)
        assert network.tracer.counter_value("mgmt.flood-retx") > 0


class TestRecursion:
    def test_three_level_stack_carries_data(self):
        network = Network(seed=3)
        for name in ("h1", "r", "h2"):
            network.add_node(name)
        network.connect("h1", "r")
        network.connect("r", "h2")
        systems = make_systems(network)
        add_shims(systems, network)
        orchestrator = Orchestrator(network)
        level1 = Dif("level1", DifPolicies(keepalive_interval=1.0))
        build_dif_over(orchestrator, level1, systems, adjacencies=[
            ("h1", "r", shim_between(network, "h1", "r")),
            ("r", "h2", shim_between(network, "r", "h2"))])
        level2 = Dif("level2", DifPolicies(keepalive_interval=1.0))
        build_dif_over(orchestrator, level2, systems, adjacencies=[
            ("h1", "h2", "level1")])
        level3 = Dif("level3", DifPolicies(keepalive_interval=1.0))
        build_dif_over(orchestrator, level3, systems, adjacencies=[
            ("h1", "h2", "level2")])
        orchestrator.run(timeout=120)
        assert level3.member_count() == 2
        inbound = []
        systems["h2"].register_app(ApplicationName("svc"), inbound.append,
                                   dif_names=["level3"])
        network.run(until=network.engine.now + 1.0)
        flow = systems["h1"].allocate_flow(ApplicationName("cli"),
                                           ApplicationName("svc"),
                                           qos=RELIABLE, dif_name="level3")
        run_until(network, lambda: flow.state != PENDING, timeout=20)
        assert flow.allocated
        got = []
        mf = MessageFlow(flow)
        inbound_mf = MessageFlow(inbound[0])
        inbound_mf.set_message_receiver(got.append)
        mf.send_message(b"three layers deep")
        run_until(network, lambda: got, timeout=20)
        assert got == [b"three layers deep"]
        # every layer's PDUs really crossed the level-1 relay
        assert systems["r"].ipcp("level1").rmt.pdus_relayed > 0
