"""Unit tests for EFCP: sequencing, retransmission, flow control, policies.

Two connections are wired through a controllable in-memory "wire" that can
drop selected PDUs, so every recovery path is exercised deterministically.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.efcp import (CONGESTION_AIMD, RETX_GOBACKN, RETX_NONE,
                             RETX_SELECTIVE, EfcpConnection, EfcpPolicy)
from repro.core.names import Address
from repro.core.pdu import ControlPdu, DataPdu
from repro.core.qos import BEST_EFFORT, RELIABLE, QosCube
from repro.sim.engine import Engine


class Wire:
    """Bidirectional lossy pipe between two EFCP endpoints."""

    def __init__(self, engine, delay=0.005):
        self.engine = engine
        self.delay = delay
        self.a = None
        self.b = None
        self.drop_filter = None   # (side, pdu) -> bool
        self.sent = []

    def output_from(self, side):
        def output(pdu):
            self.sent.append((side, pdu))
            if self.drop_filter is not None and self.drop_filter(side, pdu):
                return
            peer = self.b if side == "a" else self.a
            self.engine.call_later(self.delay, self._deliver, peer, pdu)
        return output

    @staticmethod
    def _deliver(conn, pdu):
        if conn.closed:
            return
        if isinstance(pdu, DataPdu):
            conn.handle_data(pdu)
        else:
            conn.handle_control(pdu)

    def data_sent(self, side):
        return [p for s, p in self.sent if s == side and isinstance(p, DataPdu)]


def drop_first_copies(seq, count):
    """A drop filter losing the first ``count`` copies a sends of ``seq``."""
    drops = []

    def drop(side, pdu):
        if side == "a" and isinstance(pdu, DataPdu) and pdu.seq == seq \
                and len(drops) < count:
            drops.append(pdu)
            return True
        return False
    return drop


def make_pair(policy=None, peer_policy=None, delay=0.005):
    engine = Engine()
    wire = Wire(engine, delay=delay)
    policy = policy or EfcpPolicy()
    peer_policy = peer_policy or policy
    delivered_a, delivered_b = [], []
    conn_a = EfcpConnection(engine, Address(1), Address(2), 10, 20, policy,
                            output=wire.output_from("a"),
                            deliver=lambda p, s: delivered_a.append((p, s)))
    conn_b = EfcpConnection(engine, Address(2), Address(1), 20, 10, peer_policy,
                            output=wire.output_from("b"),
                            deliver=lambda p, s: delivered_b.append((p, s)))
    wire.a, wire.b = conn_a, conn_b
    return engine, wire, conn_a, conn_b, delivered_a, delivered_b


class TestReliableDelivery:
    def test_in_order_delivery_without_loss(self):
        engine, _w, a, _b, _da, db = make_pair()
        for index in range(20):
            assert a.send(f"m{index}", 100)
        engine.run(until=5.0)
        assert [payload for payload, _s in db] == [f"m{i}" for i in range(20)]
        assert a.all_acknowledged()

    def test_single_loss_recovered_by_retransmission(self):
        engine, wire, a, _b, _da, db = make_pair()
        dropped = []

        def drop_seq_3_once(side, pdu):
            if (side == "a" and isinstance(pdu, DataPdu) and pdu.seq == 3
                    and not dropped):
                dropped.append(pdu)
                return True
            return False
        wire.drop_filter = drop_seq_3_once
        for index in range(10):
            a.send(index, 100)
        engine.run(until=10.0)
        assert [payload for payload, _s in db] == list(range(10))
        assert a.stats.retransmissions >= 1

    def test_burst_loss_recovered(self):
        engine, wire, a, _b, _da, db = make_pair()
        to_drop = {2, 3, 4, 5}

        def drop_once(side, pdu):
            if side == "a" and isinstance(pdu, DataPdu) and pdu.seq in to_drop:
                to_drop.discard(pdu.seq)
                return True
            return False
        wire.drop_filter = drop_once
        for index in range(12):
            a.send(index, 100)
        engine.run(until=10.0)
        assert [payload for payload, _s in db] == list(range(12))

    def test_lost_ack_recovered(self):
        engine, wire, a, _b, _da, db = make_pair()
        dropped = []

        def drop_first_ack(side, pdu):
            if side == "b" and isinstance(pdu, ControlPdu) and not dropped:
                dropped.append(pdu)
                return True
            return False
        wire.drop_filter = drop_first_ack
        a.send("only", 100)
        engine.run(until=10.0)
        assert db and a.all_acknowledged()

    def test_duplicate_data_not_delivered_twice(self):
        engine, wire, a, b, _da, db = make_pair()
        a.send("x", 100)
        engine.run(until=1.0)
        # replay the same PDU at the receiver
        pdu = wire.data_sent("a")[0]
        b.handle_data(pdu)
        engine.run(until=2.0)
        assert len(db) == 1
        assert b.stats.duplicates >= 1

    def test_out_of_order_buffered_then_delivered_in_order(self):
        engine, wire, a, _b, _da, db = make_pair()
        held = []

        def hold_seq_0(side, pdu):
            if side == "a" and isinstance(pdu, DataPdu) and pdu.seq == 0 \
                    and not held:
                held.append(pdu)
                return True
            return False
        wire.drop_filter = hold_seq_0
        for index in range(5):
            a.send(index, 100)
        engine.run(until=10.0)
        assert [payload for payload, _s in db] == [0, 1, 2, 3, 4]

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=29), max_size=12))
    def test_property_any_single_round_loss_pattern_recovers(self, lost_seqs):
        engine, wire, a, _b, _da, db = make_pair()
        remaining = set(lost_seqs)

        def drop_once(side, pdu):
            if side == "a" and isinstance(pdu, DataPdu) and pdu.seq in remaining:
                remaining.discard(pdu.seq)
                return True
            return False
        wire.drop_filter = drop_once
        for index in range(30):
            a.send(index, 50)
        engine.run(until=60.0)
        assert [payload for payload, _s in db] == list(range(30))
        assert a.all_acknowledged()


class TestWindowAndBackpressure:
    def test_send_buffer_limit_gives_backpressure(self):
        policy = EfcpPolicy(send_buffer_limit=5)
        engine, _w, a, _b, _da, _db = make_pair(policy)
        results = [a.send(i, 10) for i in range(10)]
        assert results[:5] == [True] * 5
        assert results[5:] == [False] * 5
        assert a.stats.send_rejected == 5

    def test_credit_window_blocks_transmission(self):
        policy = EfcpPolicy(initial_credit=4)
        engine, wire, a, _b, _da, db = make_pair(policy)
        # block acks so the window cannot slide
        wire.drop_filter = lambda side, pdu: side == "b"
        for index in range(10):
            a.send(index, 10)
        engine.run(until=0.1)
        assert len(wire.data_sent("a")) == 4
        assert a.queued_count() == 6

    def test_window_slides_on_credit(self):
        policy = EfcpPolicy(initial_credit=4)
        engine, _w, a, _b, _da, db = make_pair(policy)
        for index in range(20):
            a.send(index, 10)
        engine.run(until=10.0)
        assert len(db) == 20

    def test_outstanding_count_tracks_unacked(self):
        engine, wire, a, _b, _da, _db = make_pair()
        wire.drop_filter = lambda side, pdu: side == "b"
        a.send("x", 10)
        engine.run(until=0.05)
        assert a.outstanding_count() == 1


class TestRtoEstimation:
    def test_srtt_converges_to_path_rtt(self):
        engine, _w, a, _b, _da, _db = make_pair(delay=0.02)
        for index in range(30):
            a.send(index, 10)
        engine.run(until=5.0)
        assert a.srtt == pytest.approx(0.04, rel=0.3)

    def test_rto_backs_off_exponentially(self):
        policy = EfcpPolicy(rto_initial=0.1, rto_max=10.0)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        wire.drop_filter = lambda side, pdu: True  # total blackout
        a.send("x", 10)
        engine.run(until=1.0)
        assert a.stats.timeouts >= 2
        assert a.rto > 0.1

    def test_rto_respects_bounds(self):
        policy = EfcpPolicy(rto_initial=0.1, rto_min=0.05, rto_max=0.4)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        wire.drop_filter = lambda side, pdu: True
        a.send("x", 10)
        engine.run(until=5.0)
        assert a.rto <= 0.4
        # it keeps retrying at the capped RTO, and never closes itself
        assert a.stats.timeouts > 10 and not a.closed

    def test_rto_is_a_float_whatever_the_policy_was_written_with(self):
        # int policy scalars reach the RTO through min()/max(); a timeout
        # that is sometimes 4 and sometimes 4.0 would render two ways
        policy = EfcpPolicy(rto_initial=1, rto_min=1, rto_max=4)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        assert repr(a.rto) == "1.0"
        a.send("x", 10)
        engine.run(until=0.5)                      # one clean sample
        assert a.srtt is not None and repr(a.rto) == "1.0"   # rto_min wins
        wire.drop_filter = lambda side, pdu: True  # then a blackout
        a.send("y", 10)
        engine.run(until=30.0)
        assert repr(a.rto) == "4.0"                # rto_max wins


class TestFastRetransmit:
    def test_sack_passes_trigger_retransmit_before_rto(self):
        policy = EfcpPolicy(rto_initial=5.0, rto_min=5.0, rto_max=10.0)
        engine, wire, a, b, _da, db = make_pair(policy)
        dropped = []

        def drop_seq_0_once(side, pdu):
            if side == "a" and isinstance(pdu, DataPdu) and pdu.seq == 0 \
                    and not dropped:
                dropped.append(pdu)
                return True
            return False
        wire.drop_filter = drop_seq_0_once
        for index in range(8):
            a.send(index, 10)
        engine.run(until=2.0)  # far below the 5 s RTO
        assert [payload for payload, _s in db] == list(range(8))
        # one loss, one resend: ACKs for PDUs sent before the resend
        # cannot have seen it and must not fire it again
        assert a.stats.retransmissions == 1
        assert b.stats.duplicates == 0
        assert a.stats.timeouts == 0

    def test_a_lost_resend_is_resent_once_more(self):
        policy = EfcpPolicy(rto_initial=5.0, rto_min=5.0, rto_max=10.0)
        engine, wire, a, b, _da, db = make_pair(policy)
        wire.drop_filter = drop_first_copies(0, 2)
        for index in range(32):
            a.send(index, 10)
        engine.run(until=12.0)
        assert [payload for payload, _s in db] == list(range(32))
        # the fast resend is lost too; the 28 SACKs still in flight
        # behind it say nothing about it, so the RTO sends the last copy
        # (two resends are the least two losses of one PDU can cost)
        assert a.stats.retransmissions == 2
        assert a.stats.timeouts == 1
        assert b.stats.duplicates == 0

    def test_sack_names_the_newest_buffered_pdus(self):
        policy = EfcpPolicy(rto_initial=5.0, rto_min=5.0, rto_max=10.0,
                            sack_limit=4)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        wire.drop_filter = (lambda side, pdu: side == "a"
                            and isinstance(pdu, DataPdu) and pdu.seq == 0)
        for index in range(10):
            a.send(index, 10)
        engine.run(until=1.0)
        acks = [pdu for side, pdu in wire.sent
                if side == "b" and isinstance(pdu, ControlPdu)]
        assert acks[-1].ack_seq == 0
        # nine PDUs wait behind the hole; the ACK names the four newest
        assert acks[-1].sack == (6, 7, 8, 9)
        assert a.outstanding_count() == 1      # every SACKed PDU released

    def test_sack_limit_zero_sends_no_sack(self):
        policy = EfcpPolicy(rto_initial=0.5, rto_min=0.5, sack_limit=0)
        engine, wire, a, _b, _da, db = make_pair(policy)
        wire.drop_filter = drop_first_copies(0, 1)
        for index in range(6):
            a.send(index, 10)
        engine.run(until=2.0)
        acks = [pdu for side, pdu in wire.sent
                if side == "b" and isinstance(pdu, ControlPdu)]
        assert acks and all(ack.sack == () for ack in acks)
        # no SACK, no fast retransmit: the timer recovers the hole
        assert [payload for payload, _s in db] == list(range(6))
        assert a.stats.timeouts == 1


class TestGoBackN:
    def test_gobackn_recovers(self):
        policy = EfcpPolicy(retx=RETX_GOBACKN, rto_initial=0.05)
        engine, wire, a, _b, _da, db = make_pair(policy)
        dropped = []

        def drop_seq_1_once(side, pdu):
            if side == "a" and isinstance(pdu, DataPdu) and pdu.seq == 1 \
                    and not dropped:
                dropped.append(pdu)
                return True
            return False
        wire.drop_filter = drop_seq_1_once
        for index in range(6):
            a.send(index, 10)
        engine.run(until=5.0)
        assert [payload for payload, _s in db] == list(range(6))

    def test_gobackn_retransmits_whole_window(self):
        policy = EfcpPolicy(retx=RETX_GOBACKN, rto_initial=0.05)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        blackout = [True]
        wire.drop_filter = lambda side, pdu: blackout[0]
        for index in range(5):
            a.send(index, 10)
        engine.run(until=0.2)
        retx_selective_would = 5  # selective sends aged pdus once each too
        assert a.stats.retransmissions >= 5


class TestUnreliableModes:
    def test_unreliable_delivers_what_arrives(self):
        policy = EfcpPolicy(reliable=False, in_order=False)
        engine, wire, a, _b, _da, db = make_pair(policy)
        wire.drop_filter = (lambda side, pdu:
                            side == "a" and isinstance(pdu, DataPdu)
                            and pdu.seq % 2 == 0)
        for index in range(10):
            a.send(index, 10)
        engine.run(until=2.0)
        assert [payload for payload, _s in db] == [1, 3, 5, 7, 9]
        assert a.stats.retransmissions == 0

    def test_unreliable_sends_no_acks(self):
        policy = EfcpPolicy(reliable=False, in_order=False)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        for index in range(5):
            a.send(index, 10)
        engine.run(until=1.0)
        assert not [p for s, p in wire.sent
                    if s == "b" and isinstance(p, ControlPdu)]

    def test_unreliable_in_order_drops_late_arrivals(self):
        policy = EfcpPolicy(reliable=False, in_order=True)
        engine, wire, a, b, _da, db = make_pair(policy)
        for index in range(3):
            a.send(index, 10)
        engine.run(until=1.0)
        # inject an old sequence number
        late = DataPdu(Address(1), Address(2), 10, 20, 0, "late", 10)
        b.handle_data(late)
        assert [payload for payload, _s in db] == [0, 1, 2]

    def test_reliable_without_retx_policy_rejected(self):
        with pytest.raises(ValueError):
            EfcpPolicy(reliable=True, retx=RETX_NONE)


class TestAimdCongestion:
    def test_slow_start_grows_window(self):
        policy = EfcpPolicy(congestion=CONGESTION_AIMD, initial_cwnd=2,
                            initial_credit=1000, send_buffer_limit=2000)
        engine, _w, a, _b, _da, db = make_pair(policy)
        start_cwnd = a.cwnd
        for index in range(200):
            a.send(index, 10)
        engine.run(until=20.0)
        assert len(db) == 200
        assert a.cwnd > start_cwnd

    def test_timeout_collapses_window(self):
        policy = EfcpPolicy(congestion=CONGESTION_AIMD, initial_cwnd=8,
                            rto_initial=0.05, initial_credit=1000)
        engine, wire, a, _b, _da, _db = make_pair(policy)
        wire.drop_filter = lambda side, pdu: True
        for index in range(8):
            a.send(index, 10)
        engine.run(until=0.5)
        assert a.cwnd == 1.0


class TestPolicyDerivation:
    def test_policy_from_cube(self):
        policy = EfcpPolicy.for_cube(RELIABLE)
        assert policy.reliable and policy.in_order
        assert policy.retx == RETX_SELECTIVE

    def test_policy_from_best_effort_cube(self):
        policy = EfcpPolicy.for_cube(BEST_EFFORT)
        assert not policy.reliable
        assert policy.retx == RETX_NONE

    def test_overrides_win(self):
        policy = EfcpPolicy.for_cube(RELIABLE, rto_initial=9.0)
        assert policy.rto_initial == 9.0

    def test_unknown_retx_policy_rejected(self):
        with pytest.raises(ValueError):
            EfcpPolicy(retx="bogus")

    def test_unknown_congestion_policy_rejected(self):
        with pytest.raises(ValueError):
            EfcpPolicy(congestion="bogus")

    def test_credit_window_must_be_positive(self):
        with pytest.raises(ValueError):
            EfcpPolicy(initial_credit=0)

    def test_congestion_window_must_be_positive(self):
        # under AIMD a window of int(0) never sends and never arms a
        # timer: the connection would stall silently
        with pytest.raises(ValueError):
            EfcpPolicy(congestion=CONGESTION_AIMD, initial_cwnd=0)
        assert EfcpPolicy(initial_cwnd=1).initial_cwnd == 1

    def test_send_buffer_must_hold_one_sdu(self):
        # a limit of 0 refuses every send, and no ACK ever comes to
        # raise WRITABLE
        with pytest.raises(ValueError):
            EfcpPolicy(send_buffer_limit=0)
        assert EfcpPolicy(send_buffer_limit=1).send_buffer_limit == 1

    def test_sack_limit_must_not_be_negative(self):
        with pytest.raises(ValueError):
            EfcpPolicy(sack_limit=-1)
        assert EfcpPolicy(sack_limit=0).sack_limit == 0


class TestClose:
    def test_close_discards_state_and_stops_sending(self):
        engine, _w, a, _b, _da, _db = make_pair()
        a.send("x", 10)
        a.close()
        assert a.closed
        assert not a.send("y", 10)
        engine.run(until=1.0)

    def test_close_idempotent(self):
        _engine, _w, a, _b, _da, _db = make_pair()
        a.close()
        a.close()


class TestOutstandingOrder:
    def test_outstanding_stays_in_send_order_under_loss(self, monkeypatch):
        # ACK handling, fast retransmit and the timeout walk
        # ``_outstanding`` in insertion order and stop at the first seq
        # out of range: that order must be ascending seq after every
        # ACK, SACKed or not, and after every timeout's resends
        from test_event_census import _data_lossy
        seen = {"acks": 0, "sacks": 0, "timeouts": 0}
        handle_control = EfcpConnection.handle_control
        on_timeout = EfcpConnection._on_retx_timeout

        def in_order(conn):
            assert list(conn._outstanding) == sorted(conn._outstanding)

        def checked_control(self, pdu):
            handle_control(self, pdu)
            seen["acks"] += 1
            seen["sacks"] += bool(getattr(pdu, "sack", ()))
            in_order(self)

        def checked_timeout(self):
            on_timeout(self)
            seen["timeouts"] += 1
            in_order(self)
        monkeypatch.setattr(EfcpConnection, "handle_control",
                            checked_control)
        monkeypatch.setattr(EfcpConnection, "_on_retx_timeout",
                            checked_timeout)
        _data_lossy()
        assert seen["sacks"] > 0 and seen["timeouts"] > 0
        assert seen["acks"] > 100
