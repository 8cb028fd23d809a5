"""Tests for the baseline transports: TCP, UDP, SCTP."""

import pytest

from repro.baselines import IpFabric
from repro.sim.link import UniformLoss
from repro.sim.network import Network


def host_pair(seed=1, loss=None):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b", loss=loss)
    fabric = IpFabric(network)
    return network, fabric.host("a"), fabric.host("b")


class TestTcp:
    def test_handshake_establishes_both_ends(self):
        network, a, b = host_pair()
        accepted = []
        b.tcp.listen(80, accepted.append)
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        connected = []
        conn.on_connected = lambda: connected.append(1)
        network.run(until=1.0)
        assert connected and accepted
        assert conn.established and accepted[0].established

    def test_data_transfer_byte_counts(self):
        network, a, b = host_pair()
        got = []
        b.tcp.listen(80, lambda c: setattr(c, "on_data", got.append))
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        conn.on_connected = lambda: conn.send(10_000)
        network.run(until=5.0)
        assert sum(got) == 10_000

    def test_transfer_survives_loss(self):
        network, a, b = host_pair(loss=UniformLoss(0.1))
        got = []
        b.tcp.listen(80, lambda c: setattr(c, "on_data", got.append))
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        conn.on_connected = lambda: conn.send(20_000)
        network.run(until=60.0)
        assert sum(got) == 20_000
        assert conn.retransmissions > 0

    def test_syn_to_closed_port_gets_rst(self):
        network, a, b = host_pair()
        conn = a.tcp.connect(a.addr(), b.addr(), 9999)
        aborted = []
        conn.on_aborted = lambda: aborted.append(1)
        network.run(until=5.0)
        assert aborted and conn.state == "aborted"

    def test_connection_bound_to_dead_interface_aborts(self):
        network, a, b = host_pair()
        b.tcp.listen(80, lambda c: None)
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        network.run(until=1.0)
        assert conn.established
        aborted = []
        conn.on_aborted = lambda: aborted.append(network.engine.now)
        network.link_between("a", "b").fail()
        conn.send(1000)
        network.run(until=200.0)
        assert aborted  # retries exhausted -> the §6.3 failure mode

    def test_syn_retry_gives_up_when_unreachable(self):
        network, a, b = host_pair()
        network.link_between("a", "b").fail()
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        network.run(until=600.0)
        assert conn.state == "aborted"

    def test_congestion_window_grows(self):
        network, a, b = host_pair()
        b.tcp.listen(80, lambda c: None)
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        initial = conn.cwnd
        conn.on_connected = lambda: conn.send(100_000)
        network.run(until=10.0)
        assert conn.cwnd > initial

    def test_fin_closes_gracefully(self):
        network, a, b = host_pair()
        accepted = []
        b.tcp.listen(80, accepted.append)
        conn = a.tcp.connect(a.addr(), b.addr(), 80)
        network.run(until=1.0)
        conn.close()
        network.run(until=2.0)
        assert conn.state == "fin-wait"
        assert accepted[0].state == "close-wait"


class TestUdpAndDns:
    def test_udp_datagram_roundtrip(self):
        network, a, b = host_pair()
        got = []
        b.udp.bind(5000, lambda payload, size, src, sport:
                   got.append((payload, src, sport)))
        a.udp.sendto(a.addr(), 1234, b.addr(), 5000, "hello", 5)
        network.run(until=1.0)
        assert got == [("hello", a.addr(), 1234)]

    def test_udp_unbound_port_drops(self):
        network, a, b = host_pair()
        a.udp.sendto(a.addr(), 1, b.addr(), 7777, "x", 1)
        network.run(until=1.0)
        assert b.udp.datagrams_dropped == 1

    def test_udp_duplicate_bind_rejected(self):
        network, a, _b = host_pair()
        a.udp.bind(5000, lambda *args: None)
        with pytest.raises(ValueError):
            a.udp.bind(5000, lambda *args: None)


class TestSctp:
    def _multihomed(self, seed=1):
        network = Network(seed=seed)
        network.add_node("m")
        network.add_node("s")
        network.connect("m", "s", name="p#a")
        network.connect("m", "s", name="p#b")
        fabric = IpFabric(network)
        return network, fabric.host("m"), fabric.host("s")

    def test_association_establishes_with_all_paths(self):
        network, m, s = self._multihomed()
        accepted = []
        s.sctp.listen(7, s.ip.addresses(), accepted.append)
        association = m.sctp.associate(m.ip.addresses(), s.addr("if0"), 7)
        network.run(until=2.0)
        assert association.established
        assert len(association.paths) == 2

    def test_messages_delivered(self):
        network, m, s = self._multihomed()
        accepted = []
        s.sctp.listen(7, s.ip.addresses(), accepted.append)
        association = m.sctp.associate(m.ip.addresses(), s.addr("if0"), 7)
        association.on_established = lambda: [association.send_message(100)
                                              for _ in range(5)]
        network.run(until=5.0)
        assert accepted[0].messages_delivered == 5

    def test_primary_failure_triggers_failover(self):
        network, m, s = self._multihomed()
        accepted = []
        s.sctp.listen(7, s.ip.addresses(), accepted.append)
        association = m.sctp.associate(m.ip.addresses(), s.addr("if0"), 7)
        network.run(until=2.0)
        network.links["p#a"].fail()
        sent = [0]

        def pump():
            if sent[0] < 30:
                association.send_message(100)
                sent[0] += 1
                network.engine.call_later(0.2, pump)
        pump()
        network.run(until=30.0)
        assert association.failover_events
        assert accepted[0].messages_delivered == 30

    def test_heartbeats_detect_silent_path(self):
        network, m, s = self._multihomed()
        s.sctp.listen(7, s.ip.addresses(), lambda a: None)
        association = m.sctp.associate(m.ip.addresses(), s.addr("if0"), 7)
        network.run(until=2.0)
        network.links["p#a"].fail()
        network.run(until=15.0)  # no data at all: heartbeats must notice
        assert not association.paths[0].active
        assert association.primary_index == 1
