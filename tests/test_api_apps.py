"""Tests for the application API helpers and the bundled applications."""

from repro.apps import (EchoClient, EchoServer, FileSender, FileSink, Mailbox,
                        MailRelay, RpcClient, RpcServer, send_mail)
from repro.core import (Dif, DifPolicies, MessageFlow, Orchestrator,
                        add_shims, build_dif_over, make_systems, run_until,
                        shim_between)
from repro.core.flow import ALLOCATED, FAILED, MAX_SDU_BYTES, PENDING
from repro.core.names import ApplicationName, DifName
from repro.core.shim import ShimIpcp
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.network import Network


def two_hosts(seed=1, **policies):
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    network.connect("a", "b")
    systems = make_systems(network)
    add_shims(systems, network)
    dif = Dif("net", DifPolicies(keepalive_interval=5.0, **policies))
    orchestrator = Orchestrator(network)
    build_dif_over(orchestrator, dif, systems,
                   adjacencies=[("a", "b", shim_between(network, "a", "b"))])
    orchestrator.run(timeout=30)
    return network, systems


class TestMessageFlow:
    def test_packet_media_state_the_constant_sdu_size(self):
        """A simulated shim's flows and an EFCP flow carry 1,400 B of
        message data per SDU, and say so to the user."""
        engine = Engine()
        link = Link(engine, "wire", capacity_bps=1e8, delay=0.001)
        left = ShimIpcp(engine, DifName("shim:wire"), "left", link.ends[0])
        right = ShimIpcp(engine, DifName("shim:wire"), "right",
                         link.ends[1])
        accepted = []
        right.register_app(ApplicationName("svc"), accepted.append)
        shim_flow = left.allocate_flow(ApplicationName("cli"),
                                       ApplicationName("svc"))
        engine.run(until=1.0)
        assert shim_flow.allocated and accepted

        network, systems = two_hosts()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        from repro.core.qos import RELIABLE
        efcp_flow = systems["a"].allocate_flow(
            ApplicationName("cli"), ApplicationName("svc"), qos=RELIABLE)
        run_until(network, lambda: efcp_flow.state != PENDING, timeout=10)
        assert efcp_flow.allocated and inbound
        assert efcp_flow.provider_name == DifName("net")

        for flow in (shim_flow, accepted[0], efcp_flow, inbound[0]):
            assert flow.max_sdu == MAX_SDU_BYTES == 1400

    def test_large_message_fragments_and_reassembles(self):
        network, systems = two_hosts()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        from repro.core.qos import RELIABLE
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"), qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        sender = MessageFlow(flow)
        receiver = MessageFlow(inbound[0])
        got = []
        receiver.set_message_receiver(got.append)
        big = bytes(range(256)) * 40   # 10240 bytes -> 8 fragments
        sender.send_message(big)
        run_until(network, lambda: got, timeout=20)
        assert got == [big]
        assert flow.sdus_sent == -(-len(big) // MAX_SDU_BYTES) == 8
        assert sender.messages_sent == 1
        assert receiver.messages_received == 1

    def test_backlog_drains_under_backpressure(self):
        network, systems = two_hosts()
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        from repro.core.qos import RELIABLE
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"), qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        sender = MessageFlow(flow)
        receiver = MessageFlow(inbound[0])
        got = []
        receiver.set_message_receiver(got.append)
        for index in range(50):
            sender.send_message(b"m%03d" % index + b"x" * 2000)
        run_until(network, lambda: len(got) == 50, timeout=60)
        assert len(got) == 50
        assert sender.pending_fragments() == 0

    def test_a_full_send_buffer_drains_at_the_ack_that_halves_it(
            self, monkeypatch):
        """EFCP takes 8 SDUs here.  Once it has refused one, the backlog
        goes out inside the ACK that brings its buffer down to 4, half
        its limit: not at the first free slot, and not on a clock."""
        from repro.core.efcp import EfcpConnection
        from repro.core.qos import RELIABLE
        network, systems = two_hosts(efcp_overrides={"send_buffer_limit": 8})
        inbound = []
        systems["b"].register_app(ApplicationName("svc"), inbound.append)
        network.run(until=network.engine.now + 0.5)
        flow = systems["a"].allocate_flow(ApplicationName("cli"),
                                          ApplicationName("svc"), qos=RELIABLE)
        run_until(network, lambda: flow.state != PENDING, timeout=10)
        (efcp,) = [record.efcp for record in systems["a"].ipcp("net")
                   .flow_allocator.records().values() if record.flow is flow]

        def buffered():
            return efcp.queued_count() + efcp.outstanding_count()
        acks = []          # SDUs buffered as each ACK arrived
        in_ack = [False]
        handle = EfcpConnection.handle_control

        def acked(self, pdu):
            if self is not efcp:
                return handle(self, pdu)
            acks.append(buffered())
            in_ack[0] = True
            handle(self, pdu)
            in_ack[0] = False
        monkeypatch.setattr(EfcpConnection, "handle_control", acked)
        sends = []         # (accepted, buffered before, ACKs so far, in one)
        send = flow._send_fn

        def logged(payload, size):
            before = buffered()
            accepted = send(payload, size)
            sends.append((accepted, before, len(acks), in_ack[0]))
            return accepted
        flow._send_fn = logged
        sender = MessageFlow(flow)
        receiver = MessageFlow(inbound[0])
        got = []
        receiver.set_message_receiver(got.append)
        messages = [b"m%03d" % index for index in range(20)]
        for message in messages:
            sender.send_message(message)
        # 8 taken; the 9th and each later message tried the backlog again
        assert efcp.stats.send_rejected == 12
        assert sender.pending_fragments() == 12
        run_until(network, lambda: len(got) == 20, timeout=10)
        assert got == messages and sender.pending_fragments() == 0
        first_refused = [entry[0] for entry in sends].index(False)
        resumed = next(entry for entry in sends[first_refused:] if entry[0])
        # the fourth ACK took the buffer from 5 to 4 and drained the
        # backlog while it was being handled
        assert acks[:4] == [8, 7, 6, 5]
        assert resumed == (True, 4, 4, True)


class TestPendingFlow:
    """Messages sent while the flow is not allocated: still pending, or
    already failed or released."""

    def test_messages_leave_when_the_flow_is_allocated(self):
        network, systems = two_hosts()
        EchoServer(systems["b"])
        network.run(until=network.engine.now + 0.5)
        seen = []
        client = EchoClient(systems["a"])
        client.flow.when(ALLOCATED, lambda f: seen.append(
            ("before", client.message_flow.pending_fragments())))
        assert client.flow.state == PENDING
        client.ping(64)
        client.ping(3 * MAX_SDU_BYTES)
        client.flow.when(ALLOCATED, lambda f: seen.append(
            ("after", client.message_flow.pending_fragments())))
        assert client.message_flow.pending_fragments() == 1 + 3
        run_until(network, lambda: client.replies == 2, timeout=5)
        assert client.replies == 2 and client.ready
        # the backlog went out at the allocation, between the watcher
        # subscribed before the first ping and the one subscribed after
        assert seen == [("before", 4), ("after", 0)]
        assert client.message_flow.pending_fragments() == 0

    def test_messages_are_dropped_when_allocation_fails(self):
        network, systems = two_hosts()
        client = EchoClient(systems["a"], server_name="nobody-home")
        client.ping(64)
        assert client.message_flow.pending_fragments() == 1
        seen = []
        client.flow.when(FAILED, lambda f: seen.append(
            client.message_flow.pending_fragments()))
        run_until(network, lambda: client.flow.state != PENDING, timeout=30)
        assert client.flow.state == FAILED and not client.ready
        assert client.flow.failure_reason == "no-common-dif"
        assert client.message_flow.pending_fragments() == 0
        # the backlog was dropped before a later watcher heard of it
        assert seen == [0]

    def test_messages_sent_after_the_failure_queue_nothing(self):
        network, systems = two_hosts()
        client = EchoClient(systems["a"], server_name="nobody-home")
        run_until(network, lambda: client.flow.state != PENDING, timeout=30)
        assert client.flow.state == FAILED
        sent = client.message_flow.messages_sent
        for _ in range(3):
            client.ping(64)
        assert client.message_flow.send_message(b"late") is False
        network.run(until=network.engine.now + 5.0)
        assert client.message_flow.pending_fragments() == 0
        assert client.message_flow.messages_sent == sent

    def test_a_released_flow_drops_its_backlog(self):
        network, systems = two_hosts()
        EchoServer(systems["b"])
        client = EchoClient(systems["a"])
        run_until(network, lambda: client.ready, timeout=5)
        sender = client.message_flow
        client.flow._send_fn = lambda payload, size: False   # refuse all
        assert sender.send_message(b"held") is True
        assert sender.pending_fragments() == 1
        client.flow.deallocate()
        # dropped at the release, which runs the WRITABLE watchers
        assert sender.pending_fragments() == 0
        assert sender.send_message(b"late") is False


class TestEcho:
    def test_echo_roundtrip_and_rtt(self):
        network, systems = two_hosts()
        EchoServer(systems["b"])
        network.run(until=network.engine.now + 0.5)
        client = EchoClient(systems["a"])
        run_until(network, lambda: client.flow.state != PENDING, timeout=10)
        assert client.ready
        client.ping(64)
        client.ping(64)
        run_until(network, lambda: client.replies == 2, timeout=10)
        assert len(client.rtts) == 2
        assert all(rtt > 0 for rtt in client.rtts)


class TestFileTransfer:
    def test_transfer_completes_and_counts_bytes(self):
        network, systems = two_hosts()
        sink = FileSink(systems["b"])
        network.run(until=network.engine.now + 0.5)
        sender = FileSender(systems["a"], total_bytes=50_000)
        run_until(network, lambda: sink.transfers_completed >= 1, timeout=60)
        assert sink.bytes_received == 50_000
        assert sender.finished_submitting

    def test_a_released_transfer_counts_only_what_it_sent(self):
        """A flow released mid-transfer takes no more chunks, and the
        sender counts as submitted only the chunks its flow took."""
        network, systems = two_hosts()
        sink = FileSink(systems["b"])
        network.run(until=network.engine.now + 0.5)
        sender = FileSender(systems["a"], total_bytes=2_000_000)
        run_until(network, lambda: sink.bytes_received >= 200_000,
                  timeout=60)
        sender.flow.deallocate()
        network.run(until=network.engine.now + 1.0)
        assert sender.bytes_submitted == (sender.message_flow.messages_sent
                                          * sender.chunk_size)
        assert sender.bytes_submitted < sender.total_bytes
        assert not sender.finished_submitting
        assert sink.transfers_completed == 0


    def test_a_transfer_straight_over_a_shim_reaches_eof(self):
        """A shim whose link queues 4 frames refuses most of the mark's
        chunks.  Each tail drop is followed by WRITABLE when the link's
        frame in service ends, so the backlog leaves and the sender fills
        again until EOF."""
        network = Network(seed=1)
        network.add_node("a")
        network.add_node("b")
        link = network.connect("a", "b", capacity_bps=1e6, queue_limit=4)
        systems = make_systems(network)
        add_shims(systems, network)
        shim = shim_between(network, "a", "b")
        sink = FileSink(systems["b"], dif_names=[shim])
        network.run(until=network.engine.now + 0.5)
        sender = FileSender(systems["a"], total_bytes=200_000, dif_name=shim)
        assert run_until(network, lambda: sink.transfers_completed == 1,
                         timeout=30)
        assert sum(link.frames_dropped_queue) > 0
        assert sink.bytes_received == 200_000
        assert sender.finished_submitting
        assert sender.message_flow.pending_fragments() == 0


class TestRpc:
    def test_request_response_correlation(self):
        network, systems = two_hosts()
        server = RpcServer(systems["b"])
        server.register_method("add", lambda params: params["x"] + params["y"])
        network.run(until=network.engine.now + 0.5)
        client = RpcClient(systems["a"])
        run_until(network, lambda: client.ready, timeout=10)
        results = []
        client.call("add", {"x": 2, "y": 3},
                    lambda reply: results.append(reply["result"]))
        client.call("add", {"x": 10, "y": 20},
                    lambda reply: results.append(reply["result"]))
        run_until(network, lambda: len(results) == 2, timeout=10)
        assert results == [5, 30]
        assert server.requests_served == 2

    def test_unknown_method_errors(self):
        network, systems = two_hosts()
        server = RpcServer(systems["b"])
        network.run(until=network.engine.now + 0.5)
        client = RpcClient(systems["a"])
        run_until(network, lambda: client.ready, timeout=10)
        errors = []
        client.call("nope", {}, lambda reply: errors.append(reply.get("error")))
        run_until(network, lambda: errors, timeout=10)
        assert errors == ["no-such-method"]
        assert server.errors == 1


class TestMailRelay:
    @staticmethod
    def _plant():
        """a - relay host b - c: mail submitted at a, relayed at b,
        boxed at c."""
        network = Network(seed=4)
        for name in ("a", "b", "c"):
            network.add_node(name)
        network.connect("a", "b")
        network.connect("b", "c")
        systems = make_systems(network)
        add_shims(systems, network)
        dif = Dif("net", DifPolicies(keepalive_interval=5.0))
        orchestrator = Orchestrator(network)
        build_dif_over(orchestrator, dif, systems, adjacencies=[
            ("a", "b", shim_between(network, "a", "b")),
            ("b", "c", shim_between(network, "b", "c"))])
        orchestrator.run(timeout=30)
        mailbox = Mailbox(systems["c"], "mbox-c", users=["alice"])
        relay = MailRelay(systems["b"], "relay-b", routes={"alice": "mbox-c"})
        network.run(until=network.engine.now + 0.5)
        return network, systems, mailbox, relay

    def test_relay_forwards_to_mailbox(self):
        network, systems, mailbox, relay = self._plant()
        send_mail(systems["a"], "mua-a", "relay-b", "alice", "hi alice")
        run_until(network, lambda: mailbox.inbox("alice"), timeout=20)
        inbox = mailbox.inbox("alice")
        assert inbox[0]["body"] == "hi alice"
        assert relay.forwarded == 1

    def test_envelopes_submitted_while_the_next_hop_is_pending_all_arrive(self):
        network, _systems, mailbox, relay = self._plant()
        relay.submit({"to": "alice", "body": "one"})
        relay.submit({"to": "alice", "body": "two"})
        run_until(network, lambda: len(mailbox.inbox("alice")) == 2,
                  timeout=20)
        network.run(until=network.engine.now + 1.0)
        assert [m["body"] for m in mailbox.inbox("alice")] == ["one", "two"]
        assert relay.forwarded == 2

    def test_a_released_next_hop_is_allocated_again(self):
        network, _systems, mailbox, relay = self._plant()
        relay.submit({"to": "alice", "body": "one"})
        run_until(network, lambda: mailbox.inbox("alice"), timeout=20)
        first = relay._out_flows["mbox-c"]
        first.flow.deallocate()
        assert "mbox-c" not in relay._out_flows
        relay.submit({"to": "alice", "body": "two"})
        assert relay._out_flows["mbox-c"] is not first
        run_until(network, lambda: len(mailbox.inbox("alice")) == 2,
                  timeout=20)
        assert [m["body"] for m in mailbox.inbox("alice")] == ["one", "two"]
        assert relay.forwarded == 2

    def test_a_next_hop_that_does_not_exist_keeps_nothing(self):
        """Envelopes handed to a next-hop flow that fails are not
        counted as forwarded, its backlog goes with it, and the next
        envelope for that hop allocates a new flow."""
        network, _systems, _mailbox, relay = self._plant()
        relay.routes["bob"] = "no-such-mbox"
        for body in ("one", "two", "three"):
            relay.submit({"to": "bob", "body": body})
        first = relay._out_flows["no-such-mbox"]
        assert relay.forwarded == 3 and first.pending_fragments() == 3
        run_until(network, lambda: first.flow.state == FAILED, timeout=30)
        assert relay.forwarded == 0 and first.pending_fragments() == 0
        assert "no-such-mbox" not in relay._out_flows
        relay.submit({"to": "bob", "body": "four"})
        second = relay._out_flows["no-such-mbox"]
        assert second is not first and second.flow.state == PENDING
        run_until(network, lambda: second.flow.state == FAILED, timeout=30)
        assert relay.forwarded == 0 and not relay._out_flows

    def test_unroutable_mail_stays_queued(self):
        network, systems = two_hosts()
        relay = MailRelay(systems["b"], "relay", routes={})
        network.run(until=network.engine.now + 0.5)
        relay.submit({"to": "nobody", "body": "lost"})
        assert len(relay.queued) == 1
