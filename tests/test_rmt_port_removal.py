"""Removing a paced RMT port while PDUs still wait in its scheduler.

A paced port (here one with a priority scheduler) that must wait
schedules one ``rmt.serve`` event and keeps the PDUs in its scheduler.  When the port goes away first (the IPCP
leaves or crashes, a neighbour's ports are dropped, or the peer releases
the flow), those PDUs are dropped as ``port-removed`` and the pending
serve event sends nothing: before, it raised ``FlowError`` out of
``Engine.run`` on a deallocated flow, and after a crash it kept putting
the dead IPCP's queue on the wire.
"""

from repro.core import (Dif, DifPolicies, Orchestrator, add_shims,
                        build_dif_over, make_systems, shim_between)
from repro.core.pdu import ManagementPdu
from repro.core.riep import M_WRITE, RiepMessage
from repro.sim.network import Network

#: PDUs queued on the port; each is ≈ 4 kB, ≈ 0.33 ms at the link's
#: 100 Mb/s, so the queue outlasts the 1 ms the peer's release needs
QUEUED = 20


def build_pair(scheduler="priority"):
    network = Network(seed=1)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b")
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("d", DifPolicies(keepalive_interval=5.0, scheduler=scheduler))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("a", "b", shim_between(network, "a", "b"))])
    orchestrator.run(timeout=30)
    return network, systems["a"].ipcp("d"), systems["b"].ipcp("d")


def queue_on_port(ipcp, peer):
    """Fill ``ipcp``'s port toward ``peer`` and return the port and the
    list of PDUs it sent while no longer registered."""
    port = ipcp.rmt.ports_to(peer.address)[0]
    assert port.nominal_bps is not None   # paced: a burst must wait
    late = []
    send = port.send_fn

    def watched(pdu, size):
        if ipcp.rmt._ports.get(port.port_id) is not port:
            late.append(pdu)
        return send(pdu, size)
    port.send_fn = watched
    for _ in range(QUEUED):
        message = RiepMessage(M_WRITE, obj="/test/blob", value="x" * 4000)
        assert ipcp.rmt.send_on_port(port.port_id,
                                     ManagementPdu(ipcp.address, None, message))
    assert port.queue_depth() == QUEUED - 1   # the first went at once
    return port, late


def settle(network, ipcp, port, late):
    network.run(until=network.engine.now + 1.0)
    assert late == []
    assert port.queue_depth() == 0
    assert ipcp.tracer.counter_value("rmt.drop.port-removed") >= 1


def test_leave():
    network, a, b = build_pair()
    port, late = queue_on_port(a, b)
    a.leave()
    settle(network, a, port, late)


def test_drop_ports_to():
    network, a, b = build_pair()
    port, late = queue_on_port(a, b)
    a.drop_ports_to(b.address)
    settle(network, a, port, late)
    # exactly the PDUs still waiting were dropped
    assert a.tracer.counter_value("rmt.drop.port-removed") == QUEUED - 1


def test_crash():
    network, a, b = build_pair()
    port, late = queue_on_port(a, b)
    a.crash()
    settle(network, a, port, late)
    assert a.tracer.counter_value("rmt.drop.port-removed") == QUEUED - 1


def test_peer_initiated_release():
    network, a, b = build_pair()
    port, late = queue_on_port(a, b)
    # b drops its side; its shim's dealloc frame reaches a while a's
    # queue is still draining, and a's flow sees provider_released()
    b.drop_ports_to(a.address)
    network.run(until=network.engine.now + 0.002)
    assert port.port_id not in a.rmt._ports
    settle(network, a, port, late)
    assert a.tracer.counter_value("rmt.drop.port-removed") < QUEUED - 1


def test_fifo_port_hands_its_burst_down_before_a_crash():
    # a FIFO port is not paced: the whole burst is on the medium at once,
    # and what was handed down stays there after the crash, as a link's
    # own queue always did; nothing is sent on the removed port
    network, a, b = build_pair("fifo")
    port = a.rmt.ports_to(b.address)[0]
    sent = []
    send = port.send_fn

    def watched(pdu, size):
        sent.append(a.rmt._ports.get(port.port_id) is port)
        return send(pdu, size)
    port.send_fn = watched
    for _ in range(QUEUED):
        message = RiepMessage(M_WRITE, obj="/test/blob", value="x" * 4000)
        assert a.rmt.send_on_port(port.port_id,
                                  ManagementPdu(a.address, None, message))
    assert sent == [True] * QUEUED and port.queue_depth() == 0
    a.crash()
    network.run(until=network.engine.now + 1.0)
    assert sent == [True] * QUEUED
    assert a.tracer.counter_value("rmt.drop.port-removed") == 0
