"""Integration tests for flow allocation (IAP) and end-to-end data (§5.3)."""

from repro.core import (AllowList, Dif, DifPolicies, MessageFlow,
                        Orchestrator, add_shims, build_dif_over, make_systems,
                        run_until, shim_between)
from repro.core.flow import DEALLOCATED, FAILED, PENDING
from repro.core.names import ApplicationName
from repro.core.qos import RELIABLE, QosCube
from repro.sim.network import Network


def build_pair(policies=None, seed=1):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b")
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", policies or DifPolicies(keepalive_interval=5.0))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("a", "b", shim_between(network, "a", "b"))])
    orchestrator.run(timeout=30)
    return network, systems, dif


class TestAllocation:
    def test_allocate_by_name_returns_port_ids(self):
        network, systems, _dif = build_pair()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"))
        assert run_until(network, lambda: flow.state != PENDING, timeout=10)
        assert flow.allocated
        assert len(inbound) == 1 and inbound[0].allocated
        # neither side's flow ever exposes an address
        assert not hasattr(flow, "address")

    def test_port_ids_are_local_handles(self):
        # §3.1: a port id is a local handle with no application meaning.
        # Two flows from one client get distinct local port ids, and the
        # server's ids are not one well-known constant
        network, systems, _dif = build_pair()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        flows = [systems["a"].allocate_flow(ApplicationName(client),
                                            ApplicationName("svc"))
                 for client in ("c1", "c2")]
        assert run_until(network, lambda: all(flow.allocated
                                              for flow in flows), timeout=10)
        assert flows[0].port_id != flows[1].port_id
        assert len(inbound) == 2
        assert inbound[0].port_id != inbound[1].port_id

    def test_unknown_destination_fails_after_retries(self):
        network, systems, _dif = build_pair(
            DifPolicies(allocate_retries=2, allocate_retry_delay=0.1))
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("nobody"),
                                          dif_name="d")
        run_until(network, lambda: flow.state != PENDING, timeout=20)
        assert flow.state == FAILED
        assert flow.failure_reason == "destination-unknown"

    def test_registration_race_covered_by_retries(self):
        network, systems, _dif = build_pair(
            DifPolicies(allocate_retries=8, allocate_retry_delay=0.2))
        # allocate BEFORE the app registers; registration happens shortly
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("late-svc"),
                                          dif_name="d")
        network.engine.call_later(0.5, lambda: systems["b"].register_app(
            ApplicationName("late-svc"), lambda f: None))
        run_until(network, lambda: flow.state != PENDING, timeout=20)
        assert flow.allocated

    def test_access_control_denies_unlisted_source(self):
        policies = DifPolicies(access=AllowList([ApplicationName("friend")]))
        network, systems, _dif = build_pair(policies)
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        denied = systems["a"].allocate_flow(ApplicationName("stranger"),
                                            ApplicationName("svc"))
        allowed = systems["a"].allocate_flow(ApplicationName("friend"),
                                             ApplicationName("svc"))
        run_until(network, lambda: PENDING not in (denied.state, allowed.state),
                  timeout=20)
        assert denied.state == FAILED
        assert denied.failure_reason == "access-denied"
        assert allowed.allocated

    def test_impossible_qos_fails_fast(self):
        network, systems, _dif = build_pair()
        systems["b"].register_app(ApplicationName("svc"), lambda f: None)
        network.run(until=network.engine.now + 0.5)
        impossible = QosCube("impossible", max_delay=1e-12)
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"),
                                          qos=impossible)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        assert flow.state == FAILED

    def test_not_enrolled_system_cannot_allocate(self):
        network = Network(seed=1)
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("d")
        systems["a"].create_ipcp(dif)  # never enrolled/bootstrapped
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"),
                                          dif_name="d")
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        assert flow.state == FAILED and flow.failure_reason == "not-enrolled"


class TestDataAndDeallocation:
    def _allocated(self):
        network, systems, dif = build_pair()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"), qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        assert flow.allocated
        return network, systems, dif, flow, inbound[0]

    def test_reliable_bidirectional_messages(self):
        network, systems, _dif, out_flow, in_flow = self._allocated()
        out_mf = MessageFlow(out_flow)
        in_mf = MessageFlow(in_flow)
        got_b, got_a = [], []
        in_mf.set_message_receiver(got_b.append)
        out_mf.set_message_receiver(got_a.append)
        out_mf.send_message(b"hello" * 1000)   # multi-fragment
        run_until(network, lambda: got_b, timeout=10)
        in_mf.send_message(b"world")
        run_until(network, lambda: got_a, timeout=10)
        assert got_b == [b"hello" * 1000]
        assert got_a == [b"world"]

    def test_deallocate_releases_both_ends(self):
        network, systems, _dif, out_flow, in_flow = self._allocated()
        released = []
        in_flow.when(DEALLOCATED, lambda f: released.append(1))
        out_flow.deallocate()
        network.run(until=network.engine.now + 2.0)
        assert released
        assert systems["a"].ipcp("d").flow_allocator.active_flow_count() == 0
        assert systems["b"].ipcp("d").flow_allocator.active_flow_count() == 0

    def test_multiple_concurrent_flows_demuxed_by_cep(self):
        network, systems, _dif = build_pair()
        sinks = {}

        def on_flow(flow):
            mf = MessageFlow(flow)
            box = []
            mf.set_message_receiver(box.append)
            sinks[str(flow.remote_app)] = (mf, box)
        systems["b"].register_app(ApplicationName("svc"), on_flow)
        network.run(until=network.engine.now + 0.5)
        flows = {}
        for client in ("c1", "c2", "c3"):
            flow = systems["a"].allocate_flow(ApplicationName(client),
                                              ApplicationName("svc"),
                                              qos=RELIABLE)
            flows[client] = MessageFlow(flow)
        run_until(network, lambda: all(mf.flow.state != PENDING
                                       for mf in flows.values()), timeout=15)
        for client, mf in flows.items():
            assert mf.flow.allocated
            mf.send_message(client.encode())
        run_until(network, lambda: all(box for _mf, box in sinks.values()),
                  timeout=15)
        for client in ("c1", "c2", "c3"):
            assert sinks[client][1] == [client.encode()]

    def test_stray_pdus_counted_not_crashing(self):
        network, systems, _dif, out_flow, in_flow = self._allocated()
        from repro.core.pdu import DataPdu
        b_ipcp = systems["b"].ipcp("d")
        a_addr = systems["a"].ipcp("d").address
        stray = DataPdu(a_addr, b_ipcp.address, 77, 999, 0, b"x", 1)
        b_ipcp.flow_allocator.handle_data(stray)
        assert b_ipcp.flow_allocator.stray_pdus == 1
