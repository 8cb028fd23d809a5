"""Unit tests for the relaying-and-multiplexing task."""

import pytest

from repro.core.names import Address
from repro.core.pdu import DataPdu, ManagementPdu
from repro.core.riep import RiepMessage
from repro.core.rmt import (DrrScheduler, FifoScheduler, HashedPaths,
                            PreferFirstAlive, PriorityScheduler, Rmt, RmtPort,
                            RoundRobinPaths)
from repro.sim.engine import Engine


def data(dst, seq=0, priority=8, size=100, src_cep=1, dst_cep=2):
    return DataPdu(Address(99), dst, src_cep, dst_cep, seq, b"x", size,
                   priority=priority)


class TestFifoScheduler:
    def test_fifo_order(self):
        scheduler = FifoScheduler()
        for index in range(3):
            assert scheduler.push(data(Address(1), seq=index)) is None
        assert [scheduler.pop().seq for _ in range(3)] == [0, 1, 2]

    def test_tail_drop_when_full(self):
        scheduler = FifoScheduler(limit=2)
        scheduler.push(data(Address(1), seq=0))
        scheduler.push(data(Address(1), seq=1))
        displaced = scheduler.push(data(Address(1), seq=2))
        assert displaced is not None and displaced.seq == 2

    def test_pop_empty_returns_none(self):
        assert FifoScheduler().pop() is None


class TestPriorityScheduler:
    def test_lower_priority_value_served_first(self):
        scheduler = PriorityScheduler()
        scheduler.push(data(Address(1), seq=0, priority=8))
        scheduler.push(data(Address(1), seq=1, priority=0))
        scheduler.push(data(Address(1), seq=2, priority=15))
        assert [scheduler.pop().seq for _ in range(3)] == [1, 0, 2]

    def test_fifo_within_class(self):
        scheduler = PriorityScheduler()
        scheduler.push(data(Address(1), seq=0, priority=5))
        scheduler.push(data(Address(1), seq=1, priority=5))
        assert [scheduler.pop().seq for _ in range(2)] == [0, 1]

    def test_high_priority_displaces_low_when_full(self):
        scheduler = PriorityScheduler(limit=2)
        scheduler.push(data(Address(1), seq=0, priority=10))
        scheduler.push(data(Address(1), seq=1, priority=10))
        displaced = scheduler.push(data(Address(1), seq=2, priority=0))
        assert displaced is not None and displaced.priority == 10
        assert scheduler.pop().seq == 2

    def test_low_priority_rejected_when_full_of_high(self):
        scheduler = PriorityScheduler(limit=2)
        scheduler.push(data(Address(1), seq=0, priority=0))
        scheduler.push(data(Address(1), seq=1, priority=0))
        displaced = scheduler.push(data(Address(1), seq=2, priority=9))
        assert displaced is not None and displaced.seq == 2


class TestDrrScheduler:
    def test_shares_service_between_classes(self):
        scheduler = DrrScheduler(quantum=200)
        for index in range(10):
            scheduler.push(data(Address(1), seq=index, priority=0, size=100))
            scheduler.push(data(Address(1), seq=100 + index, priority=8,
                                size=100))
        served = [scheduler.pop().priority for _ in range(10)]
        assert served.count(0) >= 3
        assert served.count(8) >= 3

    def test_weights_bias_service(self):
        scheduler = DrrScheduler(quantum=120, weights={0: 3.0, 8: 1.0})
        for index in range(30):
            scheduler.push(data(Address(1), seq=index, priority=0, size=100))
            scheduler.push(data(Address(1), seq=100 + index, priority=8,
                                size=100))
        served = [scheduler.pop().priority for _ in range(20)]
        assert served.count(0) > served.count(8)

    def test_drains_completely(self):
        scheduler = DrrScheduler()
        for index in range(5):
            scheduler.push(data(Address(1), seq=index, priority=index % 2))
        popped = 0
        while scheduler.pop() is not None:
            popped += 1
        assert popped == 5
        assert len(scheduler) == 0

    def test_limit_respected(self):
        scheduler = DrrScheduler(limit=3)
        rejects = [scheduler.push(data(Address(1), seq=i)) for i in range(5)]
        assert sum(1 for r in rejects if r is not None) == 2


class TestPathSelectors:
    def _ports(self, n):
        ports = []
        for index in range(n):
            port = RmtPort(index, lambda p, s: True, FifoScheduler(),
                           peer_addr=Address(5))
            ports.append(port)
        return ports

    def test_first_alive_prefers_earlier(self):
        ports = self._ports(3)
        assert PreferFirstAlive().select(ports, data(Address(1))) is ports[0]
        ports[0].alive = False
        assert PreferFirstAlive().select(ports, data(Address(1))) is ports[1]

    def test_first_alive_none_when_all_dead(self):
        ports = self._ports(2)
        for port in ports:
            port.alive = False
        assert PreferFirstAlive().select(ports, data(Address(1))) is None

    def test_round_robin_rotates(self):
        ports = self._ports(2)
        selector = RoundRobinPaths()
        chosen = [selector.select(ports, data(Address(1))) for _ in range(4)]
        assert chosen == [ports[0], ports[1], ports[0], ports[1]]

    def test_round_robin_skips_dead(self):
        ports = self._ports(2)
        ports[0].alive = False
        selector = RoundRobinPaths()
        assert all(selector.select(ports, data(Address(1))) is ports[1]
                   for _ in range(3))

    def test_hashed_pins_flow_to_path(self):
        ports = self._ports(4)
        selector = HashedPaths()
        pdu = data(Address(1), src_cep=7, dst_cep=9)
        first = selector.select(ports, pdu)
        assert all(selector.select(ports, pdu) is first for _ in range(5))


class TestRmtForwarding:
    def _rmt(self, local=Address(1)):
        engine = Engine()
        delivered = []
        dropped = []
        rmt = Rmt(engine, lambda pdu, port: delivered.append(pdu),
                  on_drop=lambda pdu, reason: dropped.append(reason))
        rmt.local_addr = local
        return engine, rmt, delivered, dropped

    def test_local_destination_delivered(self):
        engine, rmt, delivered, _d = self._rmt()
        rmt.submit(data(Address(1)))
        assert len(delivered) == 1

    def test_hop_scoped_pdu_delivered(self):
        engine, rmt, delivered, _d = self._rmt()
        rmt.receive(ManagementPdu(None, None, RiepMessage("M_READ")), 1)
        assert len(delivered) == 1

    def test_relay_forwards_via_next_hop_port(self):
        engine, rmt, _del, _d = self._rmt()
        sent = []
        rmt.add_port(5, lambda p, s: sent.append(p) or True,
                     peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2) if addr == Address(3) else None)
        rmt.receive(data(Address(3)), 9)
        assert len(sent) == 1
        assert rmt.pdus_relayed == 1

    def test_no_route_dropped(self):
        engine, rmt, _del, dropped = self._rmt()
        rmt.submit(data(Address(9)))
        assert dropped == ["no-route"]

    def test_no_port_to_next_hop_dropped(self):
        engine, rmt, _del, dropped = self._rmt()
        rmt.set_forwarding(lambda addr: Address(2))
        rmt.submit(data(Address(9)))
        assert dropped == ["no-port"]

    def test_all_paths_dead_dropped(self):
        engine, rmt, _del, dropped = self._rmt()
        rmt.add_port(5, lambda p, s: True, peer_addr=Address(2))
        rmt.set_alive(5, False)
        rmt.set_forwarding(lambda addr: Address(2))
        rmt.submit(data(Address(9)))
        assert dropped == ["all-paths-dead"]

    def test_ttl_expiry_on_relay(self):
        engine, rmt, _del, dropped = self._rmt()
        rmt.add_port(5, lambda p, s: True, peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2))
        pdu = data(Address(9))
        pdu.ttl = 1
        rmt.receive(pdu, 3)
        assert dropped == ["ttl-expired"]

    def test_ttl_not_charged_on_local_submit(self):
        engine, rmt, _del, _dropped = self._rmt()
        sent = []
        rmt.add_port(5, lambda p, s: sent.append(p) or True,
                     peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2))
        pdu = data(Address(9))
        pdu.ttl = 1
        rmt.submit(pdu)
        assert sent  # locally originated: no ttl decrement

    def test_send_on_port_bypasses_forwarding(self):
        engine, rmt, _del, _d = self._rmt()
        sent = []
        rmt.add_port(5, lambda p, s: sent.append(p) or True)
        assert rmt.send_on_port(5, data(Address(42)))
        assert len(sent) == 1

    def test_send_on_missing_port_false(self):
        engine, rmt, _del, _d = self._rmt()
        assert not rmt.send_on_port(99, data(Address(1)))

    def test_duplicate_port_rejected(self):
        engine, rmt, _del, _d = self._rmt()
        rmt.add_port(5, lambda p, s: True)
        with pytest.raises(ValueError):
            rmt.add_port(5, lambda p, s: True)

    def test_set_peer_rebinds_neighbor_lists(self):
        engine, rmt, _del, _d = self._rmt()
        rmt.add_port(5, lambda p, s: True, peer_addr=Address(2))
        rmt.set_peer(5, Address(3))
        assert rmt.ports_to(Address(2)) == []
        assert [p.port_id for p in rmt.ports_to(Address(3))] == [5]
        assert rmt.neighbors() == [Address(3)]

    def test_remove_port_cleans_neighbor(self):
        engine, rmt, _del, _d = self._rmt()
        rmt.add_port(5, lambda p, s: True, peer_addr=Address(2))
        rmt.remove_port(5)
        assert rmt.neighbors() == []

    def test_multiple_ports_to_same_neighbor(self):
        engine, rmt, _del, _d = self._rmt()
        rmt.add_port(5, lambda p, s: True, peer_addr=Address(2))
        rmt.add_port(6, lambda p, s: True, peer_addr=Address(2))
        assert len(rmt.ports_to(Address(2))) == 2

    def test_neighbors_follow_every_change_of_the_neighbour_set(self):
        engine, rmt, _del, _d = self._rmt()
        send = lambda p, s: True    # noqa: E731
        steps = [
            lambda: rmt.add_port(5, send, peer_addr=Address(4)),
            lambda: rmt.add_port(6, send, peer_addr=Address(2)),
            lambda: rmt.add_port(7, send),               # no peer yet
            lambda: rmt.add_port(8, send, peer_addr=Address(4)),
            lambda: rmt.set_peer(7, Address(3)),
            lambda: rmt.set_peer(6, Address(3)),         # 2 loses its port
            lambda: rmt.remove_port(5),                  # 4 keeps port 8
            lambda: rmt.remove_port(8),                  # 4's last port
        ]
        seen = []
        for step in steps:
            step()
            expected = sorted({port.peer_addr for port in rmt._ports.values()
                               if port.peer_addr is not None})
            neighbors = rmt.neighbors()
            assert neighbors == expected
            seen.append((neighbors, list(neighbors)))
        assert seen[-1][0] == [Address(3)]
        # a list handed out earlier is not changed by a later step
        for neighbors, copy in seen:
            assert neighbors == copy


class TestRmtPacing:
    """Ports with a nominal rate and a priority scheduler are paced; the
    default FIFO scheduler's ports are not (see the FIFO case below)."""

    def test_paced_port_spaces_transmissions(self):
        engine = Engine()
        rmt = Rmt(engine, lambda pdu, port: None,
                  scheduler_factory=PriorityScheduler)
        rmt.local_addr = Address(1)
        sent = []
        rmt.add_port(5, lambda p, s: sent.append(engine.now) or True,
                     nominal_bps=8000.0, peer_addr=Address(2))  # 1000 B/s
        rmt.set_forwarding(lambda addr: Address(2))
        for index in range(3):
            rmt.submit(data(Address(9), seq=index, size=80))  # 100 B wire
        engine.run()
        assert sent == pytest.approx([0.0, 0.1, 0.2])

    def test_fifo_port_hands_a_burst_down_at_once(self):
        # a FIFO port with a nominal rate is not paced: the medium's own
        # queue does the waiting
        engine = Engine()
        rmt = Rmt(engine, lambda pdu, port: None)
        rmt.local_addr = Address(1)
        sent = []
        port = rmt.add_port(5, lambda p, s: sent.append(engine.now) or True,
                            nominal_bps=8000.0, peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2))
        for index in range(3):
            rmt.submit(data(Address(9), seq=index, size=80))
        assert sent == [0.0, 0.0, 0.0]
        assert port.nominal_bps is None and port.queue_depth() == 0
        assert len(engine._heap) == 0   # no serve event

    def test_unpaced_port_sends_immediately(self):
        engine = Engine()
        rmt = Rmt(engine, lambda pdu, port: None)
        rmt.local_addr = Address(1)
        sent = []
        rmt.add_port(5, lambda p, s: sent.append(engine.now) or True,
                     peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2))
        for index in range(3):
            rmt.submit(data(Address(9), seq=index))
        assert sent == [0.0, 0.0, 0.0]

    def test_queue_depths_reported(self):
        engine = Engine()
        rmt = Rmt(engine, lambda pdu, port: None,
                  scheduler_factory=PriorityScheduler)
        rmt.local_addr = Address(1)
        rmt.add_port(5, lambda p, s: True, nominal_bps=80.0,
                     peer_addr=Address(2))
        rmt.set_forwarding(lambda addr: Address(2))
        for index in range(4):
            rmt.submit(data(Address(9), seq=index, size=80))
        assert rmt.queue_depths()[5] >= 2
