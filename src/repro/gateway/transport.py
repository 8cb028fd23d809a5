"""Asyncio transports carrying gateway wire frames.

A :class:`FrameChannel` is the seam between asyncio and the shim layer:
one bidirectional, already-deframed byte channel — one TCP connection,
or one remote address on a UDP socket.  :class:`SocketLink` only ever
sees ``send(frame_bytes)`` / ``set_receiver`` / ``close``, so TCP's
length-prefixed stream and UDP's datagram-per-frame never leak upward.

Malformed *stream framing* (oversize or impossible length prefixes) is
caught here, counted, and answered with a clean ``transport.close()`` —
by the time bytes reach a receiver they are one well-delimited candidate
frame (whose *content* the shim layer still validates).

One read is one *batch*: the transport hands the receiver every frame
the read completed, then signals end-of-batch, and a TCP channel writes
whatever was sent meanwhile with a single ``transport.write`` — on a
byte stream the unit of cost is the system call, not the frame.  The
wire is the same records in the same order; only their grouping into
``send`` calls differs.  UDP is exempt: one frame per datagram *is* its
wire format.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.codec import WireError
from ..core.flow import MAX_SDU_BYTES
from .wire import (LENGTH_PREFIX, MAX_DATA_BYTES, MAX_FRAME_BYTES,
                   StreamFramingError, StreamUnframer)

Receiver = Callable[[bytes], None]


class FrameChannel:
    """One framed byte channel (base: bookkeeping + callbacks)."""

    def __init__(self) -> None:
        self._receiver: Optional[Receiver] = None
        self._on_batch_end: Optional[Callable[[], None]] = None
        self._close_cbs: List[Callable[[], None]] = []
        self._open = True
        self.frames_out = 0
        #: socket writes issued; ``frames_out / writes_out`` is the
        #: coalescing ratio (1.0 on UDP by construction)
        self.writes_out = 0

    @property
    def is_open(self) -> bool:
        return self._open

    def set_receiver(self, receiver: Receiver,
                     on_batch_end: Optional[Callable[[], None]] = None
                     ) -> None:
        """``receiver(buf)`` runs per frame; ``on_batch_end()`` once
        after the last frame of each read."""
        self._receiver = receiver
        self._on_batch_end = on_batch_end

    def on_close(self, cb: Callable[[], None]) -> None:
        self._close_cbs.append(cb)

    def send(self, buf: bytes) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- transport side -------------------------------------------------
    def _feed_batch(self, frames: Sequence[bytes]) -> None:
        """Hand the frames of one read to the receiver, then signal
        end-of-batch."""
        receiver = self._receiver
        if receiver is None:
            return
        for buf in frames:
            receiver(buf)
        if self._on_batch_end is not None:
            self._on_batch_end()

    def _mark_closed(self) -> None:
        if not self._open:
            return
        self._open = False
        cbs, self._close_cbs = self._close_cbs, []
        for cb in cbs:
            cb()


class TcpFrameChannel(FrameChannel):
    """Length-prefixed frames over one TCP connection.

    ``send`` only queues the record, prefix and frame apart.  The queue
    is joined once and written with one ``transport.write`` by whichever
    comes first: the end of the read batch being processed (same loop
    turn — the common case, a reply to what was just read), ``close``, or
    a flush deferred to the next turn for frames sent from anywhere else
    (timers, client coroutines).
    The flush at end-of-batch is a direct call, not a deferred callback:
    a ``call_soon`` costs the loop one more turn — one more ``epoll`` —
    per read, which is what a one-frame batch cannot amortise.
    """

    max_sdu = MAX_DATA_BYTES   # no packet size, only the record ceiling

    def __init__(self, transport: asyncio.Transport) -> None:
        super().__init__()
        self._transport = transport
        self._loop = asyncio.get_running_loop()
        self._pending: List[bytes] = []
        self._in_batch = False

    def send(self, buf: bytes) -> bool:
        if not self._open or self._transport.is_closing():
            return False
        if len(buf) > MAX_FRAME_BYTES:   # as stream_record refuses it
            raise WireError(f"frame of {len(buf)} bytes exceeds "
                            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
        if not self._pending and not self._in_batch:
            self._loop.call_soon(self.flush)
        self._pending += (LENGTH_PREFIX.pack(len(buf)), buf)
        self.frames_out += 1
        return True

    def flush(self) -> None:
        """Write every queued record, in order, as one ``write``."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        if not self._transport.is_closing():
            self._transport.write(b"".join(pending))
            self.writes_out += 1

    def close(self) -> None:
        if self._open and not self._transport.is_closing():
            self.flush()   # what send() accepted goes out before the FIN
            self._transport.close()
        # _mark_closed fires from connection_lost, so close() is safe to
        # call from either side without double-running callbacks

    def _feed_batch(self, frames: Sequence[bytes]) -> None:
        self._in_batch = True
        try:
            super()._feed_batch(frames)
        finally:
            self._in_batch = False
            self.flush()


READ_BUFFER_BYTES = 256 * 1024   # asyncio's own read size
# every connection reads into this one: asyncio fills it on the loop's
# thread, and the unframer copies each read out of it at once
_READ_BUF = memoryview(bytearray(READ_BUFFER_BYTES))


class StreamFrameProtocol(asyncio.BufferedProtocol):
    """The TCP side of the gateway wire: deframe, contain, hand off.

    ``on_channel(channel, peername)`` runs at connection time.  A
    framing violation closes the connection and (optionally) reports to
    ``on_error`` — it never propagates into the event loop.

    Every connection reads into one module-wide buffer, which the
    unframer copies out of at once (docs/ARCHITECTURE.md, "One read
    buffer for every connection").
    """

    def __init__(self, on_channel: Callable[[TcpFrameChannel, object], None],
                 on_error: Optional[Callable[[Exception], None]] = None,
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self._on_channel = on_channel
        self._on_error = on_error
        self._unframer = StreamUnframer(max_frame)
        self.channel: Optional[TcpFrameChannel] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.channel = TcpFrameChannel(transport)  # type: ignore[arg-type]
        self._on_channel(self.channel, transport.get_extra_info("peername"))

    def get_buffer(self, sizehint: int) -> memoryview:
        return _READ_BUF

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(_READ_BUF[:nbytes])

    def data_received(self, data: bytes) -> None:
        channel = self.channel
        if channel is None or not channel.is_open:
            return
        error = None
        try:
            frames = self._unframer.feed(data)
        except StreamFramingError as exc:
            # the frames ahead of the bad prefix are delivered first,
            # exactly as if they had arrived in a segment of their own
            frames, error = exc.frames, exc
        if frames:
            channel._feed_batch(frames)
        if error is not None:
            if self._on_error is not None:
                self._on_error(error)
            channel.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.channel is not None:
            self.channel._mark_closed()


class UdpFrameChannel(FrameChannel):
    """One remote address on a shared UDP socket (one frame/datagram)."""

    max_sdu = MAX_SDU_BYTES   # a datagram within the path MTU

    def __init__(self, transport: asyncio.DatagramTransport,
                 addr: Optional[Tuple[str, int]],
                 registry: Optional[Dict[Tuple[str, int], "UdpFrameChannel"]]
                 = None, owns_transport: bool = False) -> None:
        super().__init__()
        self._transport = transport
        self._addr = addr
        self._registry = registry
        self._owns_transport = owns_transport

    def send(self, buf: bytes) -> bool:
        if not self._open or self._transport.is_closing():
            return False
        if self._addr is not None:
            self._transport.sendto(buf, self._addr)
        else:
            self._transport.sendto(buf)   # connected client socket
        self.frames_out += 1
        self.writes_out += 1
        return True

    def close(self) -> None:
        if self._registry is not None and self._addr is not None:
            self._registry.pop(self._addr, None)
        if self._owns_transport and not self._transport.is_closing():
            self._transport.close()
        self._mark_closed()


class DatagramFrameRouter(asyncio.DatagramProtocol):
    """Server side of UDP: demultiplex datagrams into per-peer channels.

    UDP has no connections, so the first datagram from a new address
    *is* the connection event: ``on_channel(channel, addr)`` runs, then
    the datagram is delivered on the fresh channel.
    """

    def __init__(self, on_channel: Callable[[UdpFrameChannel, object], None],
                 max_frame: int = MAX_FRAME_BYTES) -> None:
        self._on_channel = on_channel
        self._max_frame = max_frame
        self.peers: Dict[Tuple[str, int], UdpFrameChannel] = {}
        self._transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if len(data) > self._max_frame or self._transport is None:
            return   # cannot even be a frame; drop, datagrams are cheap
        channel = self.peers.get(addr)
        if channel is None:
            channel = UdpFrameChannel(self._transport, addr,
                                      registry=self.peers)
            self.peers[addr] = channel
            self._on_channel(channel, addr)
        channel._feed_batch((data,))

    def error_received(self, exc: Exception) -> None:
        pass   # per-datagram ICMP errors: connectionless, nothing to tear down

    def connection_lost(self, exc: Optional[Exception]) -> None:
        peers, self.peers = self.peers, {}
        for channel in peers.values():
            channel._mark_closed()


class _DatagramClientProtocol(asyncio.DatagramProtocol):
    """Client side of UDP: one connected socket, one channel."""

    def __init__(self) -> None:
        self.channel: Optional[UdpFrameChannel] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.channel = UdpFrameChannel(
            transport, None, owns_transport=True)  # type: ignore[arg-type]

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        if self.channel is not None:
            self.channel._feed_batch((data,))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.channel is not None:
            self.channel._mark_closed()


# ----------------------------------------------------------------------
# Endpoint helpers
# ----------------------------------------------------------------------
async def open_tcp_channel(host: str, port: int) -> TcpFrameChannel:
    """Connect a TCP client channel."""
    loop = asyncio.get_running_loop()
    made: List[TcpFrameChannel] = []
    await loop.create_connection(
        lambda: StreamFrameProtocol(lambda ch, peer: made.append(ch)),
        host, port)
    return made[0]


#: Socket buffer size for UDP endpoints.  One server socket fans in
#: every peer's datagrams; the kernel default (~208 KB, a few hundred
#: skb-charged small datagrams) overflows under an open-loop burst from
#: hundreds of clients, and UDP drops are silent.  4 MB holds thousands.
UDP_SOCKET_BUFFER = 1 << 22


def _udp_socket(bufsize: int = UDP_SOCKET_BUFFER) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, bufsize)
        except OSError:
            pass   # best effort: the platform cap applies
    return sock


async def open_udp_channel(host: str, port: int) -> UdpFrameChannel:
    """Open a connected UDP client channel."""
    loop = asyncio.get_running_loop()
    sock = _udp_socket()
    sock.connect((host, port))
    sock.setblocking(False)
    _transport, protocol = await loop.create_datagram_endpoint(
        _DatagramClientProtocol, sock=sock)
    while protocol.channel is None:
        # connection_made is deferred via call_soon; let it run
        await asyncio.sleep(0)
    return protocol.channel


async def start_tcp_server(host: str, port: int,
                           on_channel: Callable[[TcpFrameChannel, object],
                                                None],
                           on_error: Optional[Callable[[Exception], None]]
                           = None) -> asyncio.AbstractServer:
    """Listen for TCP frame channels; returns the asyncio server."""
    loop = asyncio.get_running_loop()
    return await loop.create_server(
        lambda: StreamFrameProtocol(on_channel, on_error=on_error),
        host, port)


async def start_udp_server(host: str, port: int,
                           on_channel: Callable[[UdpFrameChannel, object],
                                                None]
                           ) -> Tuple[asyncio.DatagramTransport,
                                      DatagramFrameRouter]:
    """Bind the UDP frame router; returns (transport, router)."""
    loop = asyncio.get_running_loop()
    sock = _udp_socket()
    sock.bind((host, port))
    sock.setblocking(False)
    transport, router = await loop.create_datagram_endpoint(
        lambda: DatagramFrameRouter(on_channel), sock=sock)
    return transport, router
