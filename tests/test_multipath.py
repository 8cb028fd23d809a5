"""Multipath behaviour of two-step routing (Fig 4's second dividend).

Step two of routing — PoA selection among several (N-1) flows to the same
next hop — gives failover (experiment E4) *and* load balancing.  These
tests drive traffic over parallel links under each path-selection policy.
"""

import pytest

from repro.core import (Dif, DifPolicies, MessageFlow, Orchestrator,
                        add_shims, build_dif_over, make_systems, run_until,
                        shim_name_for)
from repro.core.flow import PENDING
from repro.core.names import ApplicationName
from repro.core.qos import BEST_EFFORT, RELIABLE
from repro.sim.network import Network


def parallel_pair(path_selector, links=2, capacity=2e6, seed=1,
                  keepalive=0.5):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    for index in range(links):
        network.connect("a", "b", name=f"trunk#{index}",
                        capacity_bps=capacity, delay=0.002)
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", DifPolicies(path_selector=path_selector,
                               keepalive_interval=keepalive))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems, adjacencies=[
        ("a", "b", shim_name_for(f"trunk#{index}")) for index in range(links)])
    orchestrator.run(timeout=30)
    return network, systems, dif


def drive_cbr(network, systems, rate_bps, duration=3.0, message=1000):
    """Paced unreliable traffic a→b; returns messages delivered."""
    received = []

    def on_flow(flow):
        mf = MessageFlow(flow)
        mf.set_message_receiver(lambda data: received.append(network.engine.now))
        drive_cbr._keep = mf
    systems["b"].register_app(ApplicationName("sink"), on_flow)
    network.run(until=network.engine.now + 0.5)
    flow = systems["a"].allocate_flow(ApplicationName("src"),
                                      ApplicationName("sink"),
                                      qos=BEST_EFFORT)
    run_until(network, lambda: flow.state != PENDING, timeout=10)
    assert flow.allocated
    sender = MessageFlow(flow)
    period = message * 8 / rate_bps
    sent = [0]
    stop_at = network.engine.now + duration

    def pump():
        if network.engine.now < stop_at:
            sender.send_message(b"x" * message)
            sent[0] += 1
            network.engine.call_later(period, pump)
    pump()
    network.run(until=stop_at + 1.0)
    return sent[0], len(received)


class TestLoadBalancing:
    def test_round_robin_uses_both_links(self):
        network, systems, _dif = parallel_pair("round-robin")
        drive_cbr(network, systems, rate_bps=1e6)
        trunk0 = network.links["trunk#0"]
        trunk1 = network.links["trunk#1"]
        # both directions of a->b saw traffic on both trunks
        assert trunk0.frames_delivered[0] > 10
        assert trunk1.frames_delivered[0] > 10

    def test_first_alive_pins_to_primary(self):
        network, systems, _dif = parallel_pair("first-alive")
        drive_cbr(network, systems, rate_bps=1e6)
        trunk0 = network.links["trunk#0"]
        trunk1 = network.links["trunk#1"]
        data_frames = [trunk0.frames_delivered[0], trunk1.frames_delivered[0]]
        # one trunk carries the data; the other only keepalives
        assert max(data_frames) > 10 * min(data_frames)

    def test_round_robin_carries_load_beyond_one_link(self):
        # offered 3 Mb/s over 2x2 Mb/s trunks: RR succeeds, first-alive
        # saturates its single choice and drops
        _n1, s1, _d1 = (None, None, None)
        network_rr, systems_rr, _ = parallel_pair("round-robin")
        sent_rr, got_rr = drive_cbr(network_rr, systems_rr, rate_bps=3e6)
        network_fa, systems_fa, _ = parallel_pair("first-alive")
        sent_fa, got_fa = drive_cbr(network_fa, systems_fa, rate_bps=3e6)
        assert got_rr / sent_rr > 0.95
        assert got_fa / sent_fa < 0.92    # single link saturated: tail dropped
        assert got_rr > got_fa

    def test_hashed_keeps_one_flow_on_one_path(self):
        network, systems, _dif = parallel_pair("hashed")
        drive_cbr(network, systems, rate_bps=1e6)
        trunk0 = network.links["trunk#0"]
        trunk1 = network.links["trunk#1"]
        data_frames = sorted([trunk0.frames_delivered[0],
                              trunk1.frames_delivered[0]])
        # a single flow hashes to a single path
        assert data_frames[1] > 10 * max(1, data_frames[0])


class TestMultipathFailover:
    def test_round_robin_survives_one_trunk_loss(self):
        network, systems, _dif = parallel_pair("round-robin", keepalive=0.1)
        received = []

        def on_flow(flow):
            mf = MessageFlow(flow)
            mf.set_message_receiver(lambda data: received.append(
                network.engine.now))
            on_flow._keep = mf
        systems["b"].register_app(ApplicationName("sink"), on_flow)
        network.run(until=network.engine.now + 0.5)
        flow = systems["a"].allocate_flow(ApplicationName("src"),
                                          ApplicationName("sink"),
                                          qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        sender = MessageFlow(flow)
        sent = [0]

        def pump():
            if sent[0] < 80:
                sender.send_message(b"m")
                sent[0] += 1
                network.engine.call_later(0.05, pump)
        pump()
        network.engine.call_later(1.0, network.links["trunk#0"].fail)
        run_until(network, lambda: len(received) >= 80, timeout=60)
        assert len(received) >= 80

    def test_three_parallel_links_all_carry(self):
        network, systems, _dif = parallel_pair("round-robin", links=3)
        drive_cbr(network, systems, rate_bps=1.5e6)
        for index in range(3):
            assert network.links[f"trunk#{index}"].frames_delivered[0] > 5
