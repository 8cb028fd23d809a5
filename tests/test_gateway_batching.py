"""One loop turn per read: the gateway's socket I/O batching contract.

A TCP channel queues what ``send`` accepts and writes it out once — at
the end of the read batch being processed, at ``close``, or one loop
turn later for frames sent from anywhere else.  The wire must not be
able to tell: same records, same per-connection order, only fewer
``send`` system calls.  Checked against a fake transport (exact write
grouping) and over real loopback sockets (ordering against the FIN, the
byte transcript of a whole session).
"""

import asyncio
import hashlib
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st
from test_codec import live_sha256

from repro.core.codec import WireError
from repro.core.delimiting import Fragment, Reassembler
from repro.gateway.driver import AsyncEngineDriver
from repro.gateway.server import GatewayServer
from repro.gateway.shim import SocketLink
from repro.gateway.transport import (READ_BUFFER_BYTES, StreamFrameProtocol,
                                     TcpFrameChannel, open_tcp_channel,
                                     start_tcp_server)
from repro.gateway.wire import (LENGTH_PREFIX, MAX_FRAME_BYTES,
                                StreamUnframer, decode_shim_frame,
                                frame_to_wire, stream_record)
from repro.sim.engine import Engine

#: SHA-256 of every byte the server sent during :func:`_scripted_session`.
#: Coalescing may regroup the writes; it may not change, drop or reorder
#: a byte.  First captured where each frame was its own
#: ``transport.write``; re-captured when the wire bytes themselves
#: changed (one-pass codec) — :data:`PARENT_SESSION_FRAMES_SHA256` is
#: the proof that only the spelling did — and again when a TCP flow
#: came to state the record ceiling as its SDU size: the 4,000 B reply
#: is one fragment, no longer three of at most 1,400 B.  Both values
#: are what the codec's ``encode`` makes of the hand-built frames.
PARENT_SESSION_SHA256 = (
    "3a3dea757d3f7d4a32834e011640bbf92f2d9d296533ed98475f2af7e2d23801")

#: The same session as the *decoded* frames the client read — kind, flow
#: id, payload fields, size, rendered by ``test_codec.live_fields`` —
#: captured at the commit before the one-pass codec and equal after it:
#: independent of the byte format, so a format change must not move it.
#: Re-captured with :data:`PARENT_SESSION_SHA256` when the 4,000 B reply
#: became one fragment; :data:`PARENT_SESSION_MESSAGES_SHA256`, which
#: did not move, is the proof that only the fragmenting did.
PARENT_SESSION_FRAMES_SHA256 = (
    "dc3c32db306ad52484966140e14a6adb75ce2341737ea4d94159b45e5fcfd05b")

#: The same session as the *messages* the client reassembled, in the
#: order it completed them: SHA-256 over each ``(flow id, message)`` as
#: a u32 flow id, a u32 length and the bytes.  Independent of how the
#: server cuts a reply into fragments, so no change to the fragment
#: size may move it.
PARENT_SESSION_MESSAGES_SHA256 = (
    "5d438d49e8c8d329e10e216d6ee849812501d506fe81a53bd457ed06b4aa2862")

MESSAGE_HEAD = struct.Struct(">II")


def run(coro, timeout=30.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(bounded())


def record(frame):
    return stream_record(frame_to_wire(frame))


def ping(flow_id, message_id, data):
    fragment = Fragment(message_id, 0, True, data)
    return record(("data", flow_id, fragment, fragment.wire_size()))


def messages_sha256(messages):
    digest = hashlib.sha256()
    for flow_id, message in messages:
        digest.update(MESSAGE_HEAD.pack(flow_id, len(message)) + message)
    return digest.hexdigest()


def frames_of(stream):
    return [decode_shim_frame(buf) for buf in StreamUnframer().feed(stream)]


class FakeTransport:
    """Records what a channel asks of its transport, in order."""

    def __init__(self):
        self.calls = []
        self._closing = False

    def write(self, data):
        assert not self._closing, "write after close"
        self.calls.append(("write", bytes(data)))

    def close(self):
        self._closing = True
        self.calls.append(("close",))

    def is_closing(self):
        return self._closing

    def get_extra_info(self, name, default=None):
        return ("fake", id(self)) if name == "peername" else default

    @property
    def writes(self):
        return [call[1] for call in self.calls if call[0] == "write"]


def fake_connection(server):
    """A connection to ``server`` whose socket is a FakeTransport."""
    transport = FakeTransport()
    protocol = StreamFrameProtocol(server._on_tcp_channel,
                                   on_error=server._on_wire_error)
    protocol.connection_made(transport)
    return protocol, transport


async def with_server(body):
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, ctx: unhandled.append(ctx))
    server = GatewayServer(apps=("echo",))
    await server.start()
    try:
        result = await body(server)
    finally:
        await server.stop()
        await asyncio.sleep(0.02)
    assert unhandled == [], unhandled
    return result


class TestChannelWrites:
    def test_sends_in_one_turn_are_one_write_in_order(self):
        async def main():
            transport = FakeTransport()
            channel = TcpFrameChannel(transport)
            bufs = [frame_to_wire(("data", 2, None, index))
                    for index in range(5)]
            for buf in bufs:
                assert channel.send(buf)
            assert transport.calls == []          # nothing before the turn ends
            await asyncio.sleep(0)
            assert transport.writes == [b"".join(map(stream_record, bufs))]
            assert (channel.frames_out, channel.writes_out) == (5, 1)
            # the next turn's frames are a write of their own
            assert channel.send(bufs[0])
            await asyncio.sleep(0)
            assert transport.writes[1:] == [stream_record(bufs[0])]
            assert (channel.frames_out, channel.writes_out) == (6, 2)
        run(main())

    def test_close_writes_what_send_accepted_before_the_fin(self):
        async def main():
            transport = FakeTransport()
            channel = TcpFrameChannel(transport)
            buf = frame_to_wire(("dealloc", 2, None, 0))
            assert channel.send(buf)
            channel.close()
            assert transport.calls == [("write", stream_record(buf)),
                                       ("close",)]
            await asyncio.sleep(0)                # the deferred flush: no-op
            assert transport.calls == [("write", stream_record(buf)),
                                       ("close",)]
        run(main())

    def test_send_after_close_is_refused_and_buffers_nothing(self):
        async def main():
            transport = FakeTransport()
            channel = TcpFrameChannel(transport)
            channel.close()
            assert channel.send(frame_to_wire(("data", 2, None, 0))) is False
            assert channel.frames_out == 0
            await asyncio.sleep(0)
            assert transport.calls == [("close",)]
        run(main())

    def test_oversize_frame_is_refused_before_anything_is_queued(self):
        async def main():
            transport = FakeTransport()
            channel = TcpFrameChannel(transport)
            with pytest.raises(WireError):
                channel.send(b"x" * (MAX_FRAME_BYTES + 1))
            await asyncio.sleep(0)
            assert transport.calls == [] and channel.frames_out == 0
        run(main())

    def test_loopback_record_arrives_before_the_fin(self):
        """``send(); close()`` in one turn over a real socket: the peer
        reads the record, then EOF."""
        async def main():
            got = asyncio.Queue()

            async def on_client(reader, writer):
                got.put_nowait(await reader.read())   # everything up to EOF
                writer.close()
            listener = await asyncio.start_server(on_client, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            channel = await open_tcp_channel("127.0.0.1", port)
            frames = [("dealloc", flow_id, None, 0) for flow_id in (2, 4, 6)]
            for frame in frames:
                assert channel.send(frame_to_wire(frame))
            channel.close()
            assert frames_of(await got.get()) == frames
            listener.close()
            await listener.wait_closed()
        run(main())


class TestServerBatches:
    def test_pipelined_requests_in_one_segment_return_in_one_segment(self):
        async def body(server):
            protocol, transport = fake_connection(server)
            flows = [2 * (index + 1) for index in range(8)]
            protocol.data_received(b"".join(
                record(("alloc", fid, (f"c{fid}", "echo-server"), 16))
                for fid in flows))
            # run to completion inside data_received: no await needed
            assert len(transport.writes) == 1
            assert frames_of(transport.writes[0]) == [
                ("alloc-ok", fid, None, 0) for fid in flows]
            protocol.data_received(b"".join(
                ping(fid, 0, b"req-%d" % fid) for fid in flows))
            assert len(transport.writes) == 2
            replies = frames_of(transport.writes[1])
            assert [(kind, fid, payload.data)
                    for kind, fid, payload, _size in replies] == [
                ("data", fid, b"req-%d" % fid) for fid in flows]
            stats = server.stats
            assert (stats["frames_out"], stats["writes_out"]) == (16, 2)
        run(with_server(body))

    def test_a_read_of_eight_requests_is_one_engine_event(self):
        async def body(server):
            protocol, transport = fake_connection(server)
            flows = [2 * (index + 1) for index in range(8)]
            protocol.data_received(b"".join(
                record(("alloc", fid, (f"c{fid}", "echo-server"), 16))
                for fid in flows))
            before = server.engine.events_processed
            protocol.data_received(b"".join(
                ping(fid, 0, b"req-%d" % fid) for fid in flows))
            assert server.engine.events_processed - before == 1
            assert len(frames_of(transport.writes[1])) == 8
        run(with_server(body))

    def test_segmentation_does_not_change_the_reply_stream(self):
        """The same request bytes cut at every third byte: more reads,
        more writes, the same reply bytes in the same order."""
        async def body(server):
            requests = b"".join(
                [record(("alloc", 2, ("c", "echo-server"), 16))]
                + [ping(2, mid, b"m%d" % mid) for mid in range(6)])
            whole_protocol, whole = fake_connection(server)
            whole_protocol.data_received(requests)
            cut_protocol, cut = fake_connection(server)
            for start in range(0, len(requests), 3):
                cut_protocol.data_received(requests[start:start + 3])
            assert len(whole.writes) == 1 and len(cut.writes) == 7
            assert b"".join(cut.writes) == whole.writes[0]
        run(with_server(body))

    def test_loopback_segment_of_eight_is_answered_with_one_write(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port)
            flows = [2 * (index + 1) for index in range(8)]
            writer.write(b"".join(
                record(("alloc", fid, (f"c{fid}", "echo-server"), 16))
                for fid in flows))
            unframer = StreamUnframer()
            got = []
            while len(got) < 8:
                got += unframer.feed(await reader.read(1 << 16))
            before = server.stats
            writer.write(b"".join(ping(fid, 0, b"x" * 64) for fid in flows))
            while len(got) < 16:
                got += unframer.feed(await reader.read(1 << 16))
            after = server.stats
            assert after["frames_out"] - before["frames_out"] == 8
            # one segment in, one write out (two if TCP split the segment)
            assert 1 <= after["writes_out"] - before["writes_out"] <= 2
            assert [decode_shim_frame(buf)[1] for buf in got[8:]] == flows
            writer.close()
        run(with_server(body))

    def test_frames_sent_outside_a_read_batch_take_the_deferred_flush(self):
        """No read of this channel is in progress, so nobody will flush
        it in this turn: one deferred write per channel per turn."""
        async def body(server):
            protocol, transport = fake_connection(server)
            protocol.data_received(
                record(("alloc", 2, ("c", "echo-server"), 16)))
            assert len(transport.writes) == 1
            channel = protocol.channel
            for index in range(3):
                assert channel.send(frame_to_wire(("data", 2, None, index)))
            assert len(transport.writes) == 1
            await asyncio.sleep(0)
            assert len(transport.writes) == 2
            assert len(frames_of(transport.writes[1])) == 3
        run(with_server(body))


class TestContainment:
    def test_frames_behind_a_garbage_frame_never_reach_the_stack(self):
        async def body(server):
            protocol, transport = fake_connection(server)
            protocol.data_received(
                record(("alloc", 2, ("c", "echo-server"), 16)))
            shim = next(iter(server._shims.values()))
            assert shim.flow_count == 1
            protocol.data_received(
                ping(2, 0, b"before")
                + stream_record(b"\xb8\x01 garbage")
                + record(("alloc", 4, ("late", "echo-server"), 16))
                + ping(2, 1, b"after"))
            # the reply accepted before the bad frame goes out, then the
            # close; the alloc and the ping behind it are not processed
            assert [call[0] for call in transport.calls] == [
                "write", "write", "close"]
            (reply,) = frames_of(transport.writes[1])
            assert (reply[0], reply[1], reply[2].data) == ("data", 2,
                                                           b"before")
            assert shim.flow_count == 1
            assert shim.wire_errors == 1
            assert server.stats["wire_errors"] == 1
            assert server.echo.messages_echoed == 1
        run(with_server(body))

    def test_a_frame_the_stack_rejects_mid_read_ends_the_read(self):
        """The middle frame of one segment decodes, but its payload is
        not a name pair: the frame ahead of it is answered, the frame
        behind it is never echoed, and the connection closes."""
        async def body(server):
            protocol, transport = fake_connection(server)
            protocol.data_received(
                record(("alloc", 2, ("c", "echo-server"), 16)))
            shim = next(iter(server._shims.values()))
            protocol.data_received(
                ping(2, 0, b"before")
                + record(("alloc", 4, 7, 16))
                + ping(2, 1, b"after"))
            assert [call[0] for call in transport.calls] == [
                "write", "write", "close"]
            (reply,) = frames_of(transport.writes[1])
            assert (reply[0], reply[1], reply[2].data) == ("data", 2,
                                                           b"before")
            assert shim.flow_count == 1
            assert shim.wire_errors == 1
            assert server.stats["wire_errors"] == 1
            assert server.echo.messages_echoed == 1
        run(with_server(body))

    def test_frames_before_a_bad_length_prefix_are_answered(self):
        """``record(A) + garbage`` in ONE segment delivers A, exactly as
        it does when the garbage arrives in a segment of its own."""
        async def body(server):
            bad = LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"tail"
            alloc = record(("alloc", 2, ("c", "echo-server"), 16))
            one_protocol, one = fake_connection(server)
            one_protocol.data_received(alloc + bad)
            two_protocol, two = fake_connection(server)
            two_protocol.data_received(alloc)
            two_protocol.data_received(bad)
            for transport in (one, two):
                assert transport.calls == [
                    ("write", record(("alloc-ok", 2, None, 0))), ("close",)]
            assert server.stats["wire_errors"] == 2
        run(with_server(body))

    def test_exception_in_a_drained_event_closes_only_that_connection(self):
        async def body(server):
            proto_a, transport_a = fake_connection(server)
            proto_b, transport_b = fake_connection(server)
            for protocol in (proto_a, proto_b):
                protocol.data_received(
                    record(("alloc", 2, ("c", "echo-server"), 16)))

            def boom():
                raise RuntimeError("callback bug")
            ran = []
            server.driver.enqueue(boom)
            server.driver.enqueue(ran.append, "behind the failure")
            proto_a.data_received(ping(2, 0, b"a"))
            # A, whose read ran the failing event, is closed (its ping,
            # queued behind the failure, is dropped with it); the rest
            # of the batch still ran to completion
            assert ran == ["behind the failure"]
            assert [call[0] for call in transport_a.calls] == [
                "write", "close"]
            assert server.stats["wire_errors"] == 1
            # B is served as if nothing had happened; nothing runs twice
            proto_b.data_received(ping(2, 0, b"b"))
            assert [call[0] for call in transport_b.calls] == [
                "write", "write"]
            assert frames_of(transport_b.writes[1])[0][2].data == b"b"
            assert ran == ["behind the failure"]
            assert server.echo.messages_echoed == 1
        run(with_server(body))


class TestReadBuffer:
    """Every connection reads into one module-wide buffer, so neither a
    read nor a connection allocates anything the size of a read
    (docs/ARCHITECTURE.md, "One read buffer for every connection")."""

    @staticmethod
    def _deliver(chunks, buffered):
        """(frames received, errors reported, closed) for one way of
        cutting a stream into reads, fed as ``asyncio`` feeds a
        ``BufferedProtocol`` or as one ``data_received`` per read."""
        async def main():
            frames, errors = [], []
            protocol = StreamFrameProtocol(
                lambda channel, _peer: channel.set_receiver(frames.append),
                on_error=errors.append, max_frame=32)
            transport = FakeTransport()
            protocol.connection_made(transport)
            for chunk in chunks:
                if transport.is_closing():
                    break   # a closed transport reads no more
                if buffered:
                    buf = protocol.get_buffer(len(chunk))
                    buf[:len(chunk)] = chunk
                    protocol.buffer_updated(len(chunk))
                else:
                    protocol.data_received(chunk)
            return frames, len(errors), transport.is_closing()
        return run(main())

    @given(st.lists(st.binary(min_size=2, max_size=24), max_size=5),
           st.binary(max_size=12),
           st.lists(st.integers(min_value=0, max_value=200), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_every_cut_through_the_buffer_delivers_what_data_received_does(
            self, payloads, tail, cuts):
        stream = b"".join(map(stream_record, payloads)) + tail
        bounds = sorted({min(cut, len(stream)) for cut in cuts}
                        | {0, len(stream)})
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        whole = self._deliver([stream], buffered=False)
        assert self._deliver(chunks, buffered=True) == whole
        assert whole[0][:len(payloads)] == payloads

    def test_a_loopback_read_allocates_no_read_sized_buffer(self):
        """Under ``asyncio.Protocol`` each read raised the peak by a
        whole ``READ_BUFFER_BYTES`` (257 KiB); the shared buffer raises
        it by about 2 KiB over 100 reads."""
        async def main():
            # debug mode (python -X dev) keeps a traceback per callback
            asyncio.get_running_loop().set_debug(False)
            got = []
            arrived = asyncio.Event()

            def on_frame(buf):
                got.append(buf)
                arrived.set()
            server = await start_tcp_server(
                "127.0.0.1", 0,
                lambda channel, _peer: channel.set_receiver(on_frame))
            port = server.sockets[0].getsockname()[1]
            client = await open_tcp_channel("127.0.0.1", port)
            frame = frame_to_wire(("data", 2, None, 0))

            async def reads(count):
                for _ in range(count):
                    arrived.clear()
                    client.send(frame)
                    await asyncio.wait_for(arrived.wait(), 5.0)
            tracemalloc.start()
            try:
                await reads(10)   # warm-up: the loop's own first allocations
                tracemalloc.reset_peak()
                base, _peak = tracemalloc.get_traced_memory()
                await reads(100)
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            client.close()
            server.close()
            await server.wait_closed()
            assert len(got) == 110
            return peak - base
        assert run(main()) < 16 * 1024 < READ_BUFFER_BYTES

    def test_connections_hold_no_read_buffer_of_their_own(self):
        """16 loopback connections, each read once at both ends, hold
        about 70 KiB between them; a buffer per connection would hold
        32 × ``READ_BUFFER_BYTES`` (8 MiB)."""
        async def main():
            asyncio.get_running_loop().set_debug(False)
            got = []
            server = await start_tcp_server(
                "127.0.0.1", 0,
                lambda channel, _peer: channel.set_receiver(got.append))
            port = server.sockets[0].getsockname()[1]
            frame = frame_to_wire(("data", 2, None, 0))
            tracemalloc.start()
            try:
                base, _peak = tracemalloc.get_traced_memory()
                clients = []
                for _ in range(16):
                    client = await open_tcp_channel("127.0.0.1", port)
                    client.send(frame)
                    clients.append(client)
                for _ in range(500):
                    if len(got) == 16:
                        break
                    await asyncio.sleep(0.01)
                held, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            for client in clients:
                client.close()
            server.close()
            await server.wait_closed()
            assert len(got) == 16
            return held - base
        assert run(main()) < READ_BUFFER_BYTES


class TestFastModeTracking:
    def test_inflight_counts_at_send_time_not_at_write_time(self):
        """A frame queued on the channel is already in flight: fast mode
        must not jump a timer over it while it waits for the flush."""
        async def main():
            engine = Engine()
            driver = AsyncEngineDriver(engine, mode="fast", idle_grace=0.005)
            accepted = []
            listener = await start_tcp_server(
                "127.0.0.1", 0, lambda channel, peer: accepted.append(channel))
            port = listener.sockets[0].getsockname()[1]
            client = await open_tcp_channel("127.0.0.1", port)
            while not accepted:
                await asyncio.sleep(0.005)
            near = SocketLink("near", client, 0, driver, tracked=True)
            far = SocketLink("far", accepted[0], 1, driver, tracked=True)
            order = []
            far.ends[1].attach(lambda frame, size: order.append(frame[0]))
            engine.call_later(1.0, order.append, "timer")

            assert near.ends[0].send(("data", 2, None, 0), 8)
            assert driver.inflight == 1 and client.writes_out == 0
            assert await driver.run_until(lambda: len(order) == 2)
            assert order == ["data", "timer"]
            assert driver.inflight == 0 and client.writes_out == 1
            client.close()
            listener.close()
            await listener.wait_closed()
        run(main())


class TestTranscript:
    """The bytes a client receives over loopback are the parent's."""

    @staticmethod
    async def _scripted_session(server):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.tcp_port)
        received = bytearray()
        unframer = StreamUnframer()
        frames = []
        # what the client has read so far: every frame that is not data,
        # and every message its data frames completed, however many
        # fragments the server cut it into
        messages = []
        reassemblers = {}
        events = 0

        async def read_until(count):
            nonlocal events
            while events < count:
                data = await asyncio.wait_for(reader.read(1 << 16), 10.0)
                assert data, "server hung up mid-session"
                received.extend(data)
                for buf in unframer.feed(data):
                    frame = decode_shim_frame(buf)
                    frames.append(frame)
                    kind, flow_id, payload, _size = frame
                    if kind != "data":
                        events += 1
                        continue
                    message = reassemblers.setdefault(
                        flow_id, Reassembler()).push(payload)
                    if message is not None:
                        messages.append((flow_id, message))
                        events += 1

        flows = (2, 4, 6)
        writer.write(b"".join(
            record(("alloc", fid, (f"client-{fid}", "echo-server"), 16))
            for fid in flows))
        await read_until(3)
        # three pipelined rounds of one message per flow, so one reply
        # batch mixes flows; the 4,000 B message is the one the server
        # may cut into more than one fragment
        sizes = {2: 48, 4: 4000, 6: 1}
        expected = 3
        for round_index in range(3):
            writer.write(b"".join(
                ping(fid, round_index,
                     bytes([fid + round_index]) * sizes[fid])
                for fid in flows))
            expected += len(flows)
            await read_until(expected)
        # an allocation the server refuses, pipelined with a ping
        writer.write(record(("alloc", 8, ("client-8", "nobody-home"), 16))
                     + ping(2, 3, b"last"))
        await read_until(expected + 2)
        writer.write(b"".join(record(("dealloc", fid, None, 0))
                              for fid in flows))
        writer.close()
        return bytes(received), frames, messages

    def test_session_bytes_equal_the_parents(self):
        received, frames, _messages = run(
            with_server(self._scripted_session))
        kinds = [(frame[0], frame[1]) for frame in frames]
        assert kinds[:3] == [("alloc-ok", 2), ("alloc-ok", 4),
                             ("alloc-ok", 6)]
        # one data frame per flow: over TCP a message is one fragment
        round_kinds = [("data", 2), ("data", 4), ("data", 6)]
        rounds_end = 3 + 3 * len(round_kinds)
        assert kinds[3:rounds_end] == round_kinds * 3
        assert kinds[rounds_end:] == [("alloc-err", 8), ("data", 2)]
        assert live_sha256(frames) == PARENT_SESSION_FRAMES_SHA256
        assert (hashlib.sha256(received).hexdigest()
                == PARENT_SESSION_SHA256)

    def test_session_messages_equal_the_parents(self):
        _received, _frames, messages = run(
            with_server(self._scripted_session))
        assert ([(flow_id, len(message)) for flow_id, message in messages]
                == [(2, 48), (4, 4000), (6, 1)] * 3 + [(2, 4)])
        assert messages_sha256(messages) == PARENT_SESSION_MESSAGES_SHA256
