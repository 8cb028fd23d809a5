"""Live-traffic gateway: real sockets in front of the simulated stack.

End-to-end sessions over loopback TCP and UDP (echo, RPC, pubsub —
flows allocated by application name through the shim handshake),
malformed-input containment at the socket boundary, the open-loop load
harness, and the socket-vs-simulated transcript conformance pin.
"""

import asyncio
import json

import pytest
from test_codec import live_sha256

from repro.core.codec import decode, encode
from repro.core.pdu import ManagementPdu
from repro.core.riep import RiepMessage
from repro.gateway.conformance import (SessionSpec, run_simulated_session,
                                       run_socket_session, strip_private,
                                       transcript_fingerprint)
from repro.gateway.load import run_load
from repro.gateway.server import GatewayServer
from repro.gateway.transport import open_tcp_channel, open_udp_channel
from repro.gateway.wire import (LENGTH_PREFIX, MAX_FRAME_BYTES,
                                decode_shim_frame, frame_to_wire,
                                stream_record)

#: Socket and simulated runs of the scripted echo/RPC session must
#: produce byte-identical protocol transcripts.  Captured from the
#: simulated reference (seed 0, quiet policies, SessionSpec defaults);
#: a deliberate protocol change re-captures via
#: ``python -m repro gateway conformance``.  Re-captured once when the
#: wire bytes changed (one-pass codec): the transcript hashes each
#: payload's encoding, and the encoding is what moved —
#: :data:`GOLDEN_SESSION_LIVE_SHA256` is the proof nothing else did.
GOLDEN_SESSION_FINGERPRINT = (
    "d8320038e3f89c661035b167bd2e5a84908a681a824670936a9bcdfe3a3a6c9c")

#: The same transcript with every payload decoded and rendered from its
#: live fields (``test_codec.live_fields``): independent of the byte
#: format, captured at the commit *before* the one-pass codec and equal
#: after it.  A wire-format change moves the fingerprint above and must
#: leave this one alone.
GOLDEN_SESSION_LIVE_SHA256 = (
    "4d4ea362c0952e5807e96be20dd92dcb97e94604af4b888635ecf239ca44facf")


def live_transcript_sha256(transcript):
    return live_sha256({
        direction: [(kind, flow_id, size, decode(payload))
                    for kind, flow_id, size, payload in frames]
        for direction, frames in sorted(transcript.items())})


def run(coro, timeout=60.0):
    async def bounded():
        return await asyncio.wait_for(coro, timeout)
    return asyncio.run(bounded())


async def _with_server(body, **kwargs):
    """Run ``body(server)`` against a started gateway, recording any
    unhandled loop exceptions (there must never be any)."""
    unhandled = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, ctx: unhandled.append(ctx))
    server = GatewayServer(**kwargs)
    await server.start()
    try:
        result = await body(server)
    finally:
        await server.stop()
        await asyncio.sleep(0.05)
    assert unhandled == [], unhandled
    return result


class _WireClient:
    """A minimal hand-rolled shim-protocol client for targeted tests."""

    def __init__(self, channel):
        self.channel = channel
        self.frames = []
        self.got_frame = asyncio.Event()
        channel.set_receiver(self._on_bytes)

    def _on_bytes(self, buf):
        self.frames.append(decode_shim_frame(buf))
        self.got_frame.set()

    def send(self, frame):
        assert self.channel.send(frame_to_wire(frame))

    async def expect(self, kind, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            for frame in self.frames:
                if frame[0] == kind:
                    return frame
            self.got_frame.clear()
            try:
                await asyncio.wait_for(self.got_frame.wait(),
                                       deadline -
                                       asyncio.get_running_loop().time())
            except asyncio.TimeoutError:
                break
        raise AssertionError(
            f"no {kind!r} frame arrived; got {self.frames!r}")


class TestSessions:
    @pytest.mark.parametrize("transport", ["tcp", "udp"])
    def test_echo_session(self, transport):
        async def body(server):
            port = server.tcp_port if transport == "tcp" else server.udp_port
            return await run_load("127.0.0.1", port, transport=transport,
                                  clients=5, pings=3, timeout=20.0)
        row = run(_with_server(body))
        assert row["complete"], row
        assert row["replies"] == 15
        assert row["wire_errors"] == 0

    @pytest.mark.parametrize("transport", ["tcp", "udp"])
    def test_rpc_session(self, transport):
        async def body(server):
            port = server.tcp_port if transport == "tcp" else server.udp_port
            return await run_load("127.0.0.1", port, transport=transport,
                                  clients=3, pings=2, workload="rpc",
                                  timeout=20.0)
        row = run(_with_server(body))
        assert row["complete"], row

    def test_pubsub_session(self):
        """Subscriber and publisher on separate TCP connections; the
        broker fans the publication out across sockets."""
        async def body(server):
            sub = _WireClient(await open_tcp_channel("127.0.0.1",
                                                     server.tcp_port))
            pub = _WireClient(await open_tcp_channel("127.0.0.1",
                                                     server.tcp_port))
            from repro.core.delimiting import Fragment

            def message(client, flow_id, obj, mid):
                data = json.dumps(obj).encode()
                fragment = Fragment(mid, 0, True, data)
                client.send(("data", flow_id, fragment,
                             fragment.wire_size()))

            sub.send(("alloc", 2, ("sub", "pubsub-broker"), 16))
            await sub.expect("alloc-ok")
            pub.send(("alloc", 2, ("pub", "pubsub-broker"), 16))
            await pub.expect("alloc-ok")
            message(sub, 2, {"op": "subscribe", "topic": "news"}, 0)
            await asyncio.sleep(0.1)
            message(pub, 2, {"op": "publish", "topic": "news",
                             "data": "hello"}, 0)
            frame = await sub.expect("data")
            event = json.loads(frame[2].data.decode())
            assert event == {"op": "event", "topic": "news", "data": "hello"}
            sub.channel.close()
            pub.channel.close()
        run(_with_server(body))

    def test_unknown_app_is_refused(self):
        async def body(server):
            client = _WireClient(await open_tcp_channel("127.0.0.1",
                                                        server.tcp_port))
            client.send(("alloc", 2, ("x", "no-such-service"), 16))
            frame = await client.expect("alloc-err")
            assert frame[2] == "no-such-app"
            client.channel.close()
        run(_with_server(body))

    def test_each_connection_is_one_facility(self):
        async def body(server):
            first = await open_tcp_channel("127.0.0.1", server.tcp_port)
            second = await open_tcp_channel("127.0.0.1", server.tcp_port)
            for _ in range(100):
                if server.active_connections == 2:
                    break
                await asyncio.sleep(0.01)
            assert server.active_connections == 2
            assert server.stats["tcp_connections"] == 2
            first.close()
            second.close()
            for _ in range(100):
                if server.active_connections == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.active_connections == 0
            assert server.stats["closed"] == 2
        run(_with_server(body))


    def test_stats_count_frames_and_socket_writes(self):
        """Eight flows on one connection ping in lock step: the server
        answers each read with one write, and ``stats`` shows it — for
        connections still open and for closed ones alike."""
        async def body(server):
            row = await run_load("127.0.0.1", server.tcp_port, clients=8,
                                 conns=1, pings=3, timeout=20.0)
            for _ in range(100):
                if server.stats["closed"] == 1:
                    break
                await asyncio.sleep(0.01)
            return row, server.stats
        row, stats = run(_with_server(body))
        assert row["complete"], row
        assert stats["frames_out"] == 8 + 24        # alloc-oks + replies
        assert stats["flows_lost"] == 0             # deallocs beat the FIN
        assert 0 < stats["writes_out"] < stats["frames_out"]


class TestServeCli:
    def test_banner_alone_on_stdout_stats_line_on_stderr(self, capsys):
        from repro.gateway.cli import gateway_main
        assert gateway_main(["serve", "--tcp-port", "0", "--udp-port", "0",
                             "--duration", "0.05"]) == 0
        out, err = capsys.readouterr()
        (banner,) = out.splitlines()
        assert "tcp=" in banner and "udp=" in banner
        stats = json.loads(err.splitlines()[-1])
        assert stats == {"tcp_connections": 0, "udp_peers": 0,
                         "wire_errors": 0, "closed": 0, "flows_lost": 0,
                         "frames_out": 0, "writes_out": 0}


class TestMalformedInput:
    """Garbage at the socket never hangs a coroutine or leaks an
    unhandled exception — it counts, and the connection closes."""

    def test_tcp_garbage_wire_frame_closes_connection(self):
        async def body(server):
            channel = await open_tcp_channel("127.0.0.1", server.tcp_port)
            closed = asyncio.Event()
            channel.on_close(closed.set)
            assert channel.send(b"\xb7 this is not a frame")
            await asyncio.wait_for(closed.wait(), 5.0)
            assert server.stats["wire_errors"] >= 1
        run(_with_server(body))

    def test_tcp_decodable_non_shim_frame_closes_connection(self):
        async def body(server):
            channel = await open_tcp_channel("127.0.0.1", server.tcp_port)
            closed = asyncio.Event()
            channel.on_close(closed.set)
            assert channel.send(encode(("not", "a", "frame")))
            await asyncio.wait_for(closed.wait(), 5.0)
            assert server.stats["wire_errors"] >= 1
        run(_with_server(body))

    def test_tcp_oversize_length_prefix_closes_connection(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port)
            writer.write(LENGTH_PREFIX.pack(MAX_FRAME_BYTES + 1) + b"x")
            await writer.drain()
            eof = await asyncio.wait_for(reader.read(), 5.0)
            assert eof == b""   # server hung up cleanly
            writer.close()
            assert server.stats["wire_errors"] >= 1
        run(_with_server(body))

    def test_tcp_truncated_stream_then_disconnect(self):
        """Half a record then FIN: buffered bytes are dropped with the
        connection, nothing raises."""
        async def body(server):
            record = stream_record(frame_to_wire(("alloc", 2, ("a", "b"),
                                                  16)))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port)
            writer.write(record[:len(record) // 2])
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(100):
                if server.stats["closed"] >= 1:
                    break
                await asyncio.sleep(0.01)
            assert server.stats["closed"] >= 1
        run(_with_server(body))

    def test_udp_garbage_datagram_counts_and_serving_continues(self):
        async def body(server):
            bad = await open_udp_channel("127.0.0.1", server.udp_port)
            assert bad.send(b"\x00garbage datagram")
            for _ in range(200):
                if server.stats["wire_errors"] >= 1:
                    break
                await asyncio.sleep(0.01)
            assert server.stats["wire_errors"] >= 1
            # a fresh well-behaved peer is unaffected
            row = await run_load("127.0.0.1", server.udp_port,
                                 transport="udp", clients=2, pings=2,
                                 timeout=15.0)
            assert row["complete"], row
        run(_with_server(body))

    def test_disconnect_mid_session_releases_flows(self):
        async def body(server):
            client = _WireClient(await open_tcp_channel("127.0.0.1",
                                                        server.tcp_port))
            client.send(("alloc", 2, ("c", "echo-server"), 16))
            await client.expect("alloc-ok")
            assert server.active_connections == 1
            assert server.active_flows == 1
            client.channel.close()
            for _ in range(100):
                if server.active_connections == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.active_connections == 0
            assert server.stats["flows_lost"] == 1
        run(_with_server(body))


class TestLoadHarness:
    def test_multiplexes_clients_over_bounded_connections(self):
        async def body(server):
            return await run_load("127.0.0.1", server.tcp_port,
                                  clients=40, conns=4, pings=2,
                                  timeout=20.0)
        row = run(_with_server(body))
        assert row["complete"], row
        assert row["conns"] == 4
        assert row["clients"] == 40

    def test_thousand_tcp_and_two_hundred_udp_clients(self):
        """The open-loop acceptance floor: 1,000 TCP clients (one shim
        flow each) over 64 connections, then 200 UDP RPC clients, against
        one gateway.  Open loop, so a slow server shows as missing
        replies, not as a slower test."""
        async def body(server):
            rows = [
                await run_load("127.0.0.1", server.tcp_port,
                               transport="tcp", clients=1_000, pings=3,
                               timeout=60.0),
                await run_load("127.0.0.1", server.udp_port,
                               transport="udp", clients=200, pings=3,
                               workload="rpc", timeout=60.0),
            ]
            # the clients' last frames and FINs are still in flight
            for _ in range(500):
                stats = server.stats
                if (not server.active_flows
                        and stats["closed"] >= stats["tcp_connections"]):
                    break
                await asyncio.sleep(0.01)
            return rows, server.active_flows, server
        rows, flows_left, server = run(_with_server(body), timeout=150.0)
        for row in rows:
            assert row["complete"], row
            assert row["wire_errors"] == 0, row
        stats = server.stats
        # every flow was released by its dealloc, none by connection loss
        assert flows_left == 0 and stats["flows_lost"] == 0, stats
        assert server.active_connections == 0
        assert stats["closed"] == stats["tcp_connections"] + stats["udp_peers"]
        assert stats["wire_errors"] == 0, stats

    def test_rejects_unknown_transport_and_workload(self):
        with pytest.raises(ValueError):
            run(run_load("127.0.0.1", 1, transport="sctp"))
        with pytest.raises(ValueError):
            run(run_load("127.0.0.1", 1, workload="ftp"))

    def test_reports_alloc_failures_against_missing_app(self):
        async def body(server):
            return await run_load("127.0.0.1", server.tcp_port,
                                  clients=2, pings=1,
                                  server_app="nobody-home", timeout=15.0)
        row = run(_with_server(body, apps=("echo",)))
        assert not row["complete"]
        assert row["alloc_failures"] == 2
        assert row["expected"] == 0


class TestConformance:
    """The tentpole pin: a socket-run session produces the *identical*
    protocol transcript — frame kinds, flow-allocation sequence, RIEP
    exchanges, payload encodings, per-direction order — as the
    simulated run of the same spec."""

    def test_socket_transcript_equals_simulated(self):
        spec = SessionSpec()
        simulated = strip_private(run_simulated_session(spec))
        socketed = strip_private(run_socket_session(spec))
        assert simulated == socketed
        assert (transcript_fingerprint(simulated)
                == transcript_fingerprint(socketed))

    def test_simulated_fingerprint_is_golden(self):
        transcript = strip_private(run_simulated_session())
        assert (transcript_fingerprint(transcript)
                == GOLDEN_SESSION_FINGERPRINT)
        assert (live_transcript_sha256(transcript)
                == GOLDEN_SESSION_LIVE_SHA256)

    def test_socket_fingerprint_is_golden(self):
        transcript = strip_private(run_socket_session())
        assert (transcript_fingerprint(transcript)
                == GOLDEN_SESSION_FINGERPRINT)
        assert (live_transcript_sha256(transcript)
                == GOLDEN_SESSION_LIVE_SHA256)

    def test_transcript_covers_the_protocol(self):
        """The pinned transcript actually exercises the protocol: both
        allocation handshakes, RIEP enrollment traffic, data both ways."""
        transcript = strip_private(run_simulated_session())
        kinds_c2s = [frame[0] for frame in transcript["c2s"]]
        kinds_s2c = [frame[0] for frame in transcript["s2c"]]
        assert "alloc" in kinds_c2s
        assert "alloc-ok" in kinds_s2c
        assert "data" in kinds_c2s and "data" in kinds_s2c
        # app-flow deallocation is DIF-internal (EFCP teardown rides in
        # data frames); the shim flow carrying the DIF stays up, so no
        # shim-level dealloc appears — RIEP enrollment does, inside
        # ManagementPdus
        payloads = [decode(frame[3]) for frames in transcript.values()
                    for frame in frames]
        assert any(isinstance(payload, ManagementPdu)
                   and isinstance(payload.message, RiepMessage)
                   for payload in payloads)
