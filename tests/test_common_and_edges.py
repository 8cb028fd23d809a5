"""Coverage for experiment utilities and assorted behaviour edges."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.experiments.common import (delivery_gap, format_table, goodput_bps,
                                      mean, percentile)


class TestFormatTable:
    def test_renders_aligned_columns(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "22" in lines[3]

    def test_title_and_empty(self):
        assert format_table([], title="T").startswith("T")

    def test_missing_cells_dashed(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}],
                            columns=["a", "b"])
        assert "-" in text.splitlines()[2]

    def test_value_formats(self):
        text = format_table([{"big": 123456.0, "small": 0.00123,
                              "bool": True, "nan": float("nan"),
                              "zero": 0.0}])
        row = text.splitlines()[2]
        assert "123,456" in row
        assert "yes" in row
        assert "nan" in row

    def test_explicit_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_heterogeneous_row_keys_follow_first_row(self):
        # merged sweep rows need not share a schema (E6 ip+rip rows carry
        # updates_per_s, DIF rows don't): the first row picks the columns,
        # later-only keys are dropped, holes render as dashes
        rows = [{"config": "flat", "mean_table": 55.0},
                {"config": "ip+rip", "mean_table": 7.4, "updates_per_s": 12.0},
                {"config": "recursive"}]
        text = format_table(rows)
        header, _rule, first, second, third = text.splitlines()
        assert "updates_per_s" not in header
        assert "12" not in second
        assert third.split()[-1] == "-"

    def test_heterogeneous_rows_with_explicit_column_union(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows, columns=["a", "b"])
        _header, _rule, first, second = text.splitlines()
        assert first.split() == ["1", "-"]
        assert second.split() == ["-", "2"]


class TestMetricsHelpers:
    def test_goodput(self):
        assert goodput_bps(1000, 2.0) == 4000.0
        assert math.isnan(goodput_bps(1000, 0.0))

    def test_mean(self):
        assert mean([1.0, 3.0]) == 2.0
        assert math.isnan(mean([]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_percentile_bounds(self, values):
        assert min(values) <= percentile(values, 50) <= max(values)

    def test_percentile_empty_nan(self):
        assert math.isnan(percentile([], 50))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_percentile_extremes_are_min_and_max(self, values):
        # nearest-rank at the endpoints: pct=0 clamps to the first
        # order statistic, pct=100 is exactly the last
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
           st.floats(min_value=0, max_value=100))
    def test_property_single_element_percentile_is_that_element(self, value,
                                                                pct):
        assert percentile([value], pct) == value


class TestDeliveryGap:
    def test_simple_outage(self):
        times = [0.1, 0.2, 0.3, 1.5, 1.6]
        assert delivery_gap(times, 0.35) == pytest.approx(1.2)

    def test_no_deliveries_after_is_infinite(self):
        assert math.isinf(delivery_gap([0.1, 0.2], 0.5))

    def test_empty_deliveries_is_infinite(self):
        # a workload that never delivered anything is an unbounded
        # outage, not a crash (and not zero)
        assert math.isinf(delivery_gap([], 0.0))
        assert math.isinf(delivery_gap([], 123.4))

    def test_in_flight_delivery_does_not_mask_outage(self):
        # one delivery right after the failure, then a long silence
        times = [0.1, 0.2, 0.21, 1.9, 2.0]
        assert delivery_gap(times, 0.2) == pytest.approx(1.69)

    def test_steady_traffic_small_gap(self):
        times = [i * 0.05 for i in range(100)]
        assert delivery_gap(times, 2.0) == pytest.approx(0.05)

    def test_at_before_first_delivery_measures_from_at(self):
        # regression: when ``at`` precedes the first delivery, the wait
        # from ``at`` until delivery starts is itself an outage and sets
        # a floor on the result
        assert delivery_gap([3.0, 3.05, 3.1], 1.0) == pytest.approx(2.0)
        # ...without discarding larger gaps later in the run
        assert delivery_gap([3.0, 3.05, 9.0], 2.5) == pytest.approx(5.95)
        assert delivery_gap([3.0, 3.05, 4.0], 2.5) == pytest.approx(0.95)

    def test_at_before_first_delivery_unsorted_input(self):
        assert delivery_gap([3.1, 3.0, 3.05], 1.0) == pytest.approx(2.0)

    def test_delivery_exactly_at_at_anchors_at_at(self):
        assert delivery_gap([2.0, 2.05], 2.0) == pytest.approx(0.05)


class TestEfcpDelayedAcks:
    """A reliable receiver acks every second in-order PDU, and holds a
    lone one's ACK for ``rto_min / 8`` only if the sender marked it
    ``followed``; anything else is acked at once."""

    @staticmethod
    def _receiver(policy=None):
        from repro.core.efcp import EfcpConnection, EfcpPolicy
        from repro.core.names import Address
        from repro.core.pdu import ControlPdu
        from repro.sim.engine import Engine
        engine = Engine()
        acks = []

        def output(pdu):
            if isinstance(pdu, ControlPdu):
                acks.append((engine.now, pdu.ack_seq, pdu.sack))
        conn = EfcpConnection(engine, Address(2), Address(1), 2, 1,
                              policy or EfcpPolicy(), output=output,
                              deliver=lambda p, s: None)
        return engine, conn, acks

    @staticmethod
    def _data(seq, followed=True):
        from repro.core.names import Address
        from repro.core.pdu import DataPdu
        return DataPdu(Address(1), Address(2), 1, 2, seq, b"x", 1,
                       followed=followed)

    def test_two_followed_pdus_draw_one_ack(self):
        engine, conn, acks = self._receiver()
        conn.handle_data(self._data(0))
        assert acks == []
        conn.handle_data(self._data(1))
        assert acks == [(0.0, 2, ())]
        engine.run(until=1.0)           # the hold's timer finds it acked
        assert acks == [(0.0, 2, ())]

    def test_an_unflagged_pdu_is_acked_at_once(self):
        _engine, conn, acks = self._receiver()
        conn.handle_data(self._data(0, followed=False))
        assert acks == [(0.0, 1, ())]

    def test_loss_and_repair_are_acked_at_once_with_their_sack(self):
        engine, conn, acks = self._receiver()
        conn.handle_data(self._data(0))     # held
        conn.handle_data(self._data(2))     # out of order
        conn.handle_data(self._data(2))     # duplicate
        conn.handle_data(self._data(1))     # fills the gap
        assert acks == [(0.0, 1, (2,)), (0.0, 1, (2,)), (0.0, 3, ())]
        engine.run(until=1.0)
        assert len(acks) == 3
        assert conn.stats.duplicates == 1

    def test_a_lone_followed_pdu_is_acked_after_an_eighth_of_rto_min(self):
        from repro.core.efcp import EfcpPolicy
        engine, conn, acks = self._receiver(EfcpPolicy(rto_min=0.04))
        conn.handle_data(self._data(0))
        engine.run(until=1.0)
        assert acks == [(pytest.approx(0.005), 1, ())]

    @staticmethod
    def _bulk(strip_followed):
        """200 PDUs of 1,000 B over one 10 Mb/s hop with an 8-PDU credit
        window, so nearly every PDU leaves with more queued behind it:
        ``(ACKs sent, instant of the last delivery, payloads)``."""
        from repro.core.efcp import EfcpConnection, EfcpPolicy
        from repro.core.names import Address
        from repro.core.pdu import ControlPdu
        from repro.sim.engine import Engine
        from repro.sim.link import Link
        engine = Engine()
        link = Link(engine, "bulk", capacity_bps=1e7, delay=0.001,
                    queue_limit=64)
        policy = EfcpPolicy(initial_credit=8)
        got, acks, last = [], [], []

        def receive(payload, _size):
            got.append(payload)
            last[:] = [engine.now]

        def ack_out(pdu):
            acks.append(pdu)
            link.ends[1].send(pdu, pdu.wire_size())
        a = EfcpConnection(engine, Address(1), Address(2), 1, 2, policy,
                           output=lambda pdu: link.ends[0].send(
                               pdu, pdu.wire_size()),
                           deliver=lambda p, s: None)
        b = EfcpConnection(engine, Address(2), Address(1), 2, 1, policy,
                           output=ack_out, deliver=receive)

        def into_b(pdu, _size):
            if strip_followed:
                pdu.followed = False    # every PDU acked on arrival
            b.handle_data(pdu)
        link.ends[1].attach(into_b)
        link.ends[0].attach(lambda pdu, _size: a.handle_control(pdu))
        for index in range(200):
            assert a.send(index, 1000)
        engine.run(until=10.0)
        assert a.all_acknowledged()
        assert all(isinstance(pdu, ControlPdu) for pdu in acks)
        return len(acks), last[0], got

    def test_bulk_transfer_halves_its_acks_and_ends_as_early(self):
        acks, end, got = self._bulk(strip_followed=False)
        per_pdu_acks, per_pdu_end, per_pdu_got = self._bulk(
            strip_followed=True)
        assert got == per_pdu_got == list(range(200))
        assert per_pdu_acks == 200
        assert acks <= 110
        assert end == per_pdu_end

    def test_immediate_acks_by_default(self):
        from repro.core.efcp import EfcpConnection, EfcpPolicy
        from repro.core.names import Address
        from repro.core.pdu import ControlPdu, DataPdu
        from repro.sim.engine import Engine
        engine = Engine()
        acks = []

        def output(pdu):
            if isinstance(pdu, ControlPdu):
                acks.append(pdu)
        conn = EfcpConnection(engine, Address(2), Address(1), 2, 1,
                              EfcpPolicy(), output=output,
                              deliver=lambda p, s: None)
        for seq in range(3):
            conn.handle_data(DataPdu(Address(1), Address(2), 1, 2, seq,
                                     b"x", 1))
        assert len(acks) == 3


class TestAppEdges:
    def _pair(self):
        from repro.core import (Dif, DifPolicies, Orchestrator, add_shims,
                                build_dif_over, make_systems, shim_between)
        from repro.sim.network import Network
        network = Network(seed=9)
        network.add_node("a")
        network.add_node("b")
        network.connect("a", "b")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("net", DifPolicies(keepalive_interval=5.0))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems,
                       adjacencies=[("a", "b",
                                     shim_between(network, "a", "b"))])
        orchestrator.run(timeout=30)
        return network, systems

    def test_echo_server_counts_active_flows(self):
        from repro.apps import EchoClient, EchoServer
        from repro.core import run_until
        network, systems = self._pair()
        server = EchoServer(systems["b"])
        network.run(until=network.engine.now + 0.5)
        clients = [EchoClient(systems["a"], client_name=f"c{i}")
                   for i in range(3)]
        run_until(network, lambda: all(c.ready for c in clients), timeout=15)
        assert server.active_flows() == 3
        clients[0].flow.deallocate()
        network.run(until=network.engine.now + 1.0)
        assert server.active_flows() == 2

    def test_file_sender_honours_chunk_size(self):
        from repro.apps import FileSender, FileSink
        from repro.core import run_until
        network, systems = self._pair()
        sink = FileSink(systems["b"])
        network.run(until=network.engine.now + 0.5)
        sender = FileSender(systems["a"], total_bytes=10_000, chunk_size=3000)
        run_until(network, lambda: sink.transfers_completed >= 1, timeout=60)
        assert sink.bytes_received == 10_000

    def test_streaming_sink_tracks_sources_separately(self):
        from repro.apps.streaming import CbrSource, LatencySink
        from repro.core import run_until
        from repro.core.flow import PENDING
        from repro.core.qos import BEST_EFFORT
        network, systems = self._pair()
        sink = LatencySink(systems["b"], "sink")
        network.run(until=network.engine.now + 0.5)
        one = CbrSource(systems["a"], "src-one", "sink", BEST_EFFORT, 200, 0.05)
        two = CbrSource(systems["a"], "src-two", "sink", BEST_EFFORT, 200, 0.05)
        run_until(network, lambda: PENDING not in (one.flow.state,
                                                   two.flow.state), timeout=15)
        one.start()
        two.start()
        network.run(until=network.engine.now + 1.0)
        one.stop()
        two.stop()
        network.run(until=network.engine.now + 0.5)
        assert len(sink.delays_for("src-one")) > 5
        assert len(sink.delays_for("src-two")) > 5
        assert all(d >= 0 for d in sink.delays_for("src-one"))


class TestRibLiteralReads:
    def test_remote_read_of_literal_rib_object(self):
        from repro.core import run_until
        network, systems = TestAppEdges()._pair()
        b_ipcp = systems["b"].ipcp("net")
        b_ipcp.rib.write("/custom/note", {"owner": "ops"})
        a_ipcp = systems["a"].ipcp("net")
        replies = []
        a_ipcp.remote_read(b_ipcp.address, "/custom/note", replies.append)
        run_until(network, lambda: replies, timeout=10)
        assert replies[0].ok
        assert replies[0].value == {"owner": "ops"}
