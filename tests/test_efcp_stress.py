"""EFCP stress and property tests: bidirectional traffic, random loss,
reordering, and AIMD fairness on a shared bottleneck."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.efcp import CONGESTION_AIMD, EfcpConnection, EfcpPolicy
from repro.core.names import Address
from repro.core.pdu import DataPdu
from repro.sim.engine import Engine
from repro.sim.link import (CorruptedFrame, CorruptionModel, Link,
                            LinkConditions, ReorderModel)


class LossyWire:
    """Random-loss bidirectional pipe with optional reordering jitter."""

    def __init__(self, engine, loss=0.0, delay=0.005, jitter=0.0, seed=0):
        self.engine = engine
        self.loss = loss
        self.delay = delay
        self.jitter = jitter
        self.rng = random.Random(seed)
        self.a = None
        self.b = None

    def output_from(self, side):
        def output(pdu):
            if self.rng.random() < self.loss:
                return
            peer = self.b if side == "a" else self.a
            delay = self.delay + self.rng.random() * self.jitter
            self.engine.call_later(delay, self._deliver, peer, pdu)
        return output

    @staticmethod
    def _deliver(conn, pdu):
        if conn.closed:
            return
        if isinstance(pdu, DataPdu):
            conn.handle_data(pdu)
        else:
            conn.handle_control(pdu)


def lossy_pair(loss=0.0, jitter=0.0, seed=0, policy=None):
    engine = Engine()
    wire = LossyWire(engine, loss=loss, jitter=jitter, seed=seed)
    policy = policy or EfcpPolicy(rto_initial=0.1, rto_min=0.02, rto_max=1.0)
    got_a, got_b = [], []
    a = EfcpConnection(engine, Address(1), Address(2), 1, 2, policy,
                       output=wire.output_from("a"),
                       deliver=lambda p, s: got_a.append(p))
    b = EfcpConnection(engine, Address(2), Address(1), 2, 1, policy,
                       output=wire.output_from("b"),
                       deliver=lambda p, s: got_b.append(p))
    wire.a, wire.b = a, b
    return engine, a, b, got_a, got_b


class TestBidirectionalStress:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=0.3))
    def test_property_bidirectional_random_loss(self, seed, loss):
        engine, a, b, got_a, got_b = lossy_pair(loss=loss, seed=seed)
        for index in range(40):
            a.send(("a", index), 50)
            b.send(("b", index), 50)
        engine.run(until=120.0)
        assert got_b == [("a", index) for index in range(40)]
        assert got_a == [("b", index) for index in range(40)]
        assert a.all_acknowledged() and b.all_acknowledged()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_reordering_jitter_preserves_order(self, seed):
        engine, a, _b, _ga, got_b = lossy_pair(jitter=0.02, seed=seed)
        for index in range(60):
            a.send(index, 20)
        engine.run(until=60.0)
        assert got_b == list(range(60))

    def test_interleaved_send_receive_over_long_run(self):
        engine, a, b, got_a, got_b = lossy_pair(loss=0.1, seed=7)
        counter = [0]

        def chatter():
            if counter[0] < 150:
                a.send(("ping", counter[0]), 30)
                b.send(("pong", counter[0]), 30)
                counter[0] += 1
                engine.call_later(0.03, chatter)
        chatter()
        engine.run(until=120.0)
        assert len(got_b) == 150 and len(got_a) == 150

    def test_total_blackout_then_heal(self):
        engine, a, _b, _ga, got_b = lossy_pair(loss=0.0, seed=1)
        wire = a._output.__closure__  # not used; we rely on policy behaviour
        # emulate blackout by 100% loss for a window
        engine2 = Engine()
        wire2 = LossyWire(engine2, loss=1.0, seed=3)
        policy = EfcpPolicy(rto_initial=0.05, rto_max=0.5)
        got = []
        a2 = EfcpConnection(engine2, Address(1), Address(2), 1, 2, policy,
                            output=wire2.output_from("a"),
                            deliver=lambda p, s: None)
        b2 = EfcpConnection(engine2, Address(2), Address(1), 2, 1, policy,
                            output=wire2.output_from("b"),
                            deliver=lambda p, s: got.append(p))
        wire2.a, wire2.b = a2, b2
        for index in range(10):
            a2.send(index, 20)
        engine2.run(until=3.0)
        assert got == []
        wire2.loss = 0.0           # the medium heals
        engine2.run(until=30.0)
        assert got == list(range(10))


class TestSendQueueOrderUnderMixedOps:
    """Regression for the deque refactor of ``_send_queue``: SDUs
    submitted while earlier ones drain (mixed enqueue/dequeue at the
    window edge) must still arrive in submission order."""

    def test_trickled_submissions_interleave_with_drain(self):
        engine, a, _b, _ga, got_b = lossy_pair(
            policy=EfcpPolicy(initial_credit=4, rto_initial=0.1))
        counter = [0]

        def trickle():
            # submit in small bursts so the queue repeatedly straddles
            # the 4-PDU window: some SDUs transmit instantly, some queue
            if counter[0] < 90:
                for _ in range(3):
                    a.send(counter[0], 20)
                    counter[0] += 1
                engine.call_later(0.004, trickle)
        trickle()
        engine.run(until=30.0)
        assert got_b == list(range(90))
        assert a.all_acknowledged()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=6))
    def test_property_order_survives_any_window(self, seed, credit):
        engine, a, _b, _ga, got_b = lossy_pair(
            seed=seed, policy=EfcpPolicy(initial_credit=credit,
                                         rto_initial=0.1))
        for index in range(40):
            a.send(index, 20)
        engine.run(until=60.0)
        assert got_b == list(range(40))


class TestReceiverWindowEnforcement:
    """The receiver must not buffer sequence numbers beyond the credit it
    granted — an out-of-window PDU is dropped and counted, never stored
    (the unbounded ``_rcv_buffer`` bug)."""

    def _receiver(self, window=8):
        engine = Engine()
        got = []
        policy = EfcpPolicy(initial_credit=window)
        conn = EfcpConnection(engine, Address(2), Address(1), 2, 1, policy,
                              output=lambda pdu: None,
                              deliver=lambda p, s: got.append(p))
        return engine, conn, got

    def _data(self, seq):
        return DataPdu(Address(1), Address(2), 1, 2, seq, ("x", seq), 20)

    def test_out_of_window_pdu_dropped_and_counted(self):
        _engine, conn, got = self._receiver(window=8)
        conn.handle_data(self._data(8))     # seq 8 >= 0 + 8: outside
        assert conn.stats.window_drops == 1
        assert len(conn._rcv_buffer) == 0
        assert got == []
        conn.handle_data(self._data(7))     # last in-window seq: buffered
        assert conn.stats.window_drops == 1
        assert len(conn._rcv_buffer) == 1

    def test_window_slides_with_delivery(self):
        _engine, conn, got = self._receiver(window=4)
        for seq in range(4):
            conn.handle_data(self._data(seq))
        assert [p[1] for p in got] == [0, 1, 2, 3]
        # window slid to [4, 8): seq 7 fits now, seq 8 still does not
        conn.handle_data(self._data(7))
        assert conn.stats.window_drops == 0
        conn.handle_data(self._data(8))
        assert conn.stats.window_drops == 1

    def test_flood_of_wild_seqs_cannot_grow_the_buffer(self):
        _engine, conn, _got = self._receiver(window=8)
        for seq in range(100, 200):
            conn.handle_data(self._data(seq))
        assert len(conn._rcv_buffer) == 0
        assert conn.stats.window_drops == 100
        # the connection still works for in-window traffic afterwards
        conn.handle_data(self._data(0))
        assert conn.stats.sdus_delivered == 1


def conditioned_link_pair(conditions, seed=0, policy=None, name="efcp-wire"):
    """An EFCP connection pair talking over a *real* simulated link
    carrying a :class:`LinkConditions` bundle — the integration seam the
    LossyWire tests above deliberately bypass."""
    engine = Engine()
    link = Link(engine, f"{name}{seed}", capacity_bps=1e8, delay=0.002,
                queue_limit=2048, conditions=conditions)
    policy = policy or EfcpPolicy(rto_initial=0.1, rto_min=0.02, rto_max=1.0)
    got_a, got_b = [], []
    a = EfcpConnection(engine, Address(1), Address(2), 1, 2, policy,
                       output=lambda pdu: link.ends[0].send(
                           pdu, pdu.wire_size()),
                       deliver=lambda p, s: got_a.append(p))
    b = EfcpConnection(engine, Address(2), Address(1), 2, 1, policy,
                       output=lambda pdu: link.ends[1].send(
                           pdu, pdu.wire_size()),
                       deliver=lambda p, s: got_b.append(p))

    def into(conn):
        def on_receive(pdu, size):
            if isinstance(pdu, CorruptedFrame):
                return conn.handle_data(pdu)   # stats gate counts + drops
            if isinstance(pdu, DataPdu):
                return conn.handle_data(pdu)
            return conn.handle_control(pdu)
        return on_receive
    link.ends[1].attach(into(b))
    link.ends[0].attach(into(a))
    return engine, link, a, b, got_a, got_b


class TestConditionedLinkStress:
    """EFCP riding links with the network-condition models installed:
    bounded reordering must be fully masked by sequencing, and corrupted
    PDUs must surface only in the stats counters — never as payload."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=5))
    def test_property_bounded_reorder_fully_masked(self, seed, depth):
        conditions = LinkConditions(
            reorder=ReorderModel(0.3, depth=depth, max_hold=0.05))
        engine, _link, a, _b, _ga, got_b = conditioned_link_pair(
            conditions, seed=seed)
        for index in range(60):
            a.send(index, 20)
        engine.run(until=60.0)
        assert got_b == list(range(60))
        assert a.all_acknowledged()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_corruption_counted_never_delivered(self, seed):
        conditions = LinkConditions(corruption=CorruptionModel(0.15))
        engine, link, a, b, got_a, got_b = conditioned_link_pair(
            conditions, seed=seed,
            policy=EfcpPolicy(rto_initial=0.05, rto_min=0.02, rto_max=0.5))
        for index in range(40):
            a.send(("a", index), 50)
            b.send(("b", index), 50)
        engine.run(until=120.0)
        # retransmission masks the damage end-to-end...
        assert got_b == [("a", index) for index in range(40)]
        assert got_a == [("b", index) for index in range(40)]
        # ...and every wire-corrupted frame is visible in the stats, on
        # the side that received it, never as a delivered payload
        wire_corrupted = sum(link.frames_corrupted)
        assert a.stats.corrupted + b.stats.corrupted == wire_corrupted
        assert not any(isinstance(p, CorruptedFrame) for p in got_a + got_b)

    def test_corruption_storm_forces_retransmissions(self):
        conditions = LinkConditions(corruption=CorruptionModel(0.25))
        engine, link, a, _b, _ga, got_b = conditioned_link_pair(
            conditions, seed=3,
            policy=EfcpPolicy(rto_initial=0.05, rto_min=0.02, rto_max=0.5))
        for index in range(50):
            a.send(index, 40)
        engine.run(until=120.0)
        assert got_b == list(range(50))
        assert sum(link.frames_corrupted) > 0
        assert a.stats.retransmissions > 0


class TestAimdFairness:
    def test_two_aimd_flows_share_a_paced_bottleneck(self):
        """Two AIMD senders through one paced queue converge to similar
        throughput (Jain fairness > 0.9)."""
        engine = Engine()
        rng = random.Random(5)
        # a 2 Mb/s bottleneck queue shared by both connections
        QUEUE_LIMIT = 40
        queue = []
        busy = [False]
        delivered = {1: 0, 2: 0}
        receivers = {}

        def serve():
            if not queue:
                busy[0] = False
                return
            busy[0] = True
            pdu = queue.pop(0)
            service = pdu.wire_size() * 8 / 2e6
            engine.call_later(service, lambda: (deliver(pdu), serve()))

        def deliver(pdu):
            engine.call_later(0.01, receivers[pdu.dst_cep].handle_data, pdu) \
                if isinstance(pdu, DataPdu) else \
                engine.call_later(0.01, receivers[pdu.dst_cep].handle_control,
                                  pdu)

        def bottleneck_output(pdu):
            if isinstance(pdu, DataPdu):
                if len(queue) >= QUEUE_LIMIT:
                    return  # drop: the congestion signal
                queue.append(pdu)
                if not busy[0]:
                    serve()
            else:
                deliver(pdu)   # acks on the (uncongested) reverse path

        policy = EfcpPolicy(congestion=CONGESTION_AIMD, initial_cwnd=2,
                            initial_credit=10_000, send_buffer_limit=50_000,
                            rto_initial=0.2, rto_min=0.05, rto_max=2.0)
        connections = {}
        for flow_id in (1, 2):
            sender_cep, receiver_cep = flow_id * 10, flow_id * 10 + 1

            def make_deliver(fid):
                def on_deliver(payload, size):
                    delivered[fid] += size
                return on_deliver
            sender = EfcpConnection(engine, Address(1), Address(2),
                                    sender_cep, receiver_cep, policy,
                                    output=bottleneck_output,
                                    deliver=lambda p, s: None)
            receiver = EfcpConnection(engine, Address(2), Address(1),
                                      receiver_cep, sender_cep, policy,
                                      output=bottleneck_output,
                                      deliver=make_deliver(flow_id))
            receivers[receiver_cep] = receiver
            receivers[sender_cep] = sender
            connections[flow_id] = sender

        # saturate both senders
        def pump():
            for sender in connections.values():
                while sender.queued_count() < 50:
                    if not sender.send(b"x", 1000):
                        break
            engine.call_later(0.05, pump)
        pump()
        engine.run(until=20.0)
        x, y = delivered[1], delivered[2]
        assert x > 0 and y > 0
        jain = (x + y) ** 2 / (2 * (x * x + y * y))
        assert jain > 0.9, (x, y, jain)
        # and the bottleneck was actually used well
        total_bps = (x + y) * 8 / 20.0
        assert total_bps > 0.5 * 2e6
