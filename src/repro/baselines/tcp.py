"""A TCP-like transport bound to (address, port) pairs.

This is the paper's foil for §6.3/§6.4: the connection's identity *is*
``(local address, local port, remote address, remote port)``.  When the
interface holding that address dies, no routing can save the connection —
retransmissions back off and the connection aborts.  Contrast with EFCP
over a DIF, where the flow is bound to node addresses and PoA re-selection
happens below it.

Implemented machinery: three-way handshake, byte-sequence sliding window,
cumulative acks, RTO with exponential backoff (RFC 6298-style estimate),
slow-start/congestion-avoidance AIMD, FIN/RST teardown, abort after
``max_retries`` consecutive timeouts.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine, Timer
from .ipnet import PROTO_TCP, IpPacket, IpStack, ip_str

TCP_HEADER_BYTES = 20

SYN = "SYN"
SYNACK = "SYN+ACK"
ACKF = "ACK"
FIN = "FIN"
RST = "RST"

CLOSED = "closed"
LISTEN = "listen"
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
FIN_WAIT = "fin-wait"
CLOSE_WAIT = "close-wait"
ABORTED = "aborted"


class TcpSegment:
    """One TCP segment (payload bytes are synthetic: only length travels)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "length")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: str, window: int, length: int = 0) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.length = length

    def wire_size(self) -> int:
        return TCP_HEADER_BYTES + self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TcpSegment {self.flags} {self.src_port}->{self.dst_port} "
                f"seq={self.seq} ack={self.ack} len={self.length}>")


ConnKey = Tuple[int, int, int, int]  # local ip, local port, remote ip, remote port


class TcpConnection:
    """One endpoint of a TCP connection."""

    MSS = 1400

    def __init__(self, stack: "TcpStack", local_ip: int, local_port: int,
                 remote_ip: int, remote_port: int, passive: bool = False,
                 max_retries: int = 8, rto_initial: float = 0.5,
                 rto_max: float = 16.0) -> None:
        self._stack = stack
        self._engine: Engine = stack.engine
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = LISTEN if passive else CLOSED
        self.max_retries = max_retries
        # send side (byte sequence space)
        self.snd_una = 0
        self.snd_nxt = 0
        self._send_buffer = 0          # bytes accepted but not yet sent
        self._inflight: Dict[int, Tuple[int, float, bool]] = {}  # seq -> (len, t, retx)
        self.cwnd = float(self.MSS * 4)
        self.ssthresh = float(1 << 30)
        self._rto = rto_initial
        self._rto_initial = rto_initial
        self._rto_max = rto_max
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._retries = 0
        self._timer = Timer(self._engine, self._on_timeout, label="tcp.rto")
        # receive side
        self.rcv_nxt = 0
        self._reorder: Dict[int, int] = {}  # seq -> length
        # callbacks
        self.on_connected: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int], None]] = None  # bytes delivered
        self.on_aborted: Optional[Callable[[], None]] = None
        self.retransmissions = 0

    # ------------------------------------------------------------------
    @property
    def established(self) -> bool:
        """True while data may flow."""
        return self.state == ESTABLISHED

    @property
    def key(self) -> ConnKey:
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    # ------------------------------------------------------------------
    # Open/close
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Active open (client side)."""
        self.state = SYN_SENT
        self._send_segment(SYN, self.snd_nxt, 0)
        self._timer.start(self._rto)

    def close(self) -> None:
        """Graceful local close (simplified FIN, no TIME_WAIT modelling)."""
        if self.state == ESTABLISHED:
            self.state = FIN_WAIT
            self._send_segment(FIN, self.snd_nxt, self.rcv_nxt)

    def _die(self) -> None:
        self.state = ABORTED
        self._timer.cancel()
        self._inflight.clear()
        self._stack._forget(self)
        if self.on_aborted is not None:
            self.on_aborted()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, length: int) -> bool:
        """Submit ``length`` bytes of application data."""
        if self.state != ESTABLISHED:
            return False
        self._send_buffer += length
        self._pump()
        return True

    def _pump(self) -> None:
        while self._send_buffer > 0:
            inflight = self.snd_nxt - self.snd_una
            window = int(self.cwnd)
            if inflight >= window:
                return
            chunk = min(self.MSS, self._send_buffer, window - inflight)
            if chunk <= 0:
                return
            seq = self.snd_nxt
            self.snd_nxt += chunk
            self._send_buffer -= chunk
            self._inflight[seq] = (chunk, self._engine.now, False)
            self._send_segment(ACKF, seq, self.rcv_nxt, chunk)
            if not self._timer.running:
                self._timer.start(self._rto)

    def _send_segment(self, flags: str, seq: int, ack: int,
                      length: int = 0) -> None:
        segment = TcpSegment(self.local_port, self.remote_port, seq, ack,
                             flags, 65535, length)
        packet = IpPacket(self.local_ip, self.remote_ip, PROTO_TCP, segment,
                          segment.wire_size())
        self._stack.ip.send(packet)

    # ------------------------------------------------------------------
    # Timeout / congestion
    # ------------------------------------------------------------------
    def _on_timeout(self) -> None:
        if self.state == SYN_SENT:
            self._retries += 1
            if self._retries > self.max_retries:
                self._die()
                return
            self._rto = min(self._rto_max, self._rto * 2)
            self._send_segment(SYN, 0, 0)
            self._timer.start(self._rto)
            return
        if not self._inflight:
            return
        self._retries += 1
        if self._retries > self.max_retries:
            self._die()   # TCP gives up: the §6.3 failure mode
            return
        self.ssthresh = max(2.0 * self.MSS, self.cwnd / 2)
        self.cwnd = float(self.MSS)
        self._rto = min(self._rto_max, self._rto * 2)
        seq = min(self._inflight)
        length, _t, _r = self._inflight[seq]
        self._inflight[seq] = (length, self._engine.now, True)
        self.retransmissions += 1
        self._send_segment(ACKF, seq, self.rcv_nxt, length)
        self._timer.start(self._rto)

    def _rtt_sample(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = min(self._rto_max,
                        max(0.2, self._srtt + 4 * self._rttvar))

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------
    def handle(self, segment: TcpSegment) -> None:
        """Process one inbound segment addressed to this connection."""
        if segment.flags == RST:
            self._die()
            return
        if segment.flags == SYN and self.state in (LISTEN, SYN_RCVD):
            # a SYN again in SYN_RCVD means our SYN-ACK was lost: answer
            # it again, as Linux's tcp_check_req does
            self.rcv_nxt = segment.seq
            self.state = SYN_RCVD
            self._send_segment(SYNACK, self.snd_nxt, self.rcv_nxt)
            return
        if self.state == SYN_SENT and segment.flags == SYNACK:
            self.state = ESTABLISHED
            self._retries = 0
            self._timer.cancel()
            self._send_segment(ACKF, self.snd_nxt, self.rcv_nxt)
            if self.on_connected is not None:
                self.on_connected()
            return
        if self.state == SYN_RCVD and segment.flags == ACKF:
            self.state = ESTABLISHED
            if self.on_connected is not None:
                self.on_connected()
            # fall through: the ACK may carry data
        if segment.flags == FIN:
            self.state = CLOSE_WAIT
            self._send_segment(ACKF, self.snd_nxt, segment.seq)
            return
        if self.state not in (ESTABLISHED, FIN_WAIT, CLOSE_WAIT):
            return
        self._handle_ack(segment.ack)
        if segment.length > 0:
            self._handle_data(segment)

    def _handle_ack(self, ack: int) -> None:
        if ack <= self.snd_una:
            return
        now = self._engine.now
        for seq in sorted(self._inflight):
            length, sent_at, retransmitted = self._inflight[seq]
            if seq + length <= ack:
                del self._inflight[seq]
                if not retransmitted:
                    self._rtt_sample(now - sent_at)
                if self.cwnd < self.ssthresh:
                    self.cwnd += length              # slow start
                else:
                    self.cwnd += self.MSS * length / self.cwnd
        self.snd_una = ack
        self._retries = 0
        if self._inflight:
            self._timer.start(self._rto)
        else:
            self._timer.cancel()
        self._pump()

    def _handle_data(self, segment: TcpSegment) -> None:
        if segment.seq < self.rcv_nxt:
            self._send_segment(ACKF, self.snd_nxt, self.rcv_nxt)
            return
        self._reorder[segment.seq] = segment.length
        delivered = 0
        while self.rcv_nxt in self._reorder:
            length = self._reorder.pop(self.rcv_nxt)
            self.rcv_nxt += length
            delivered += length
        if delivered:
            if self.on_data is not None:
                self.on_data(delivered)
        self._send_segment(ACKF, self.snd_nxt, self.rcv_nxt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TcpConnection {ip_str(self.local_ip)}:{self.local_port}->"
                f"{ip_str(self.remote_ip)}:{self.remote_port} {self.state}>")


class TcpStack:
    """The TCP layer of one node: listeners and connection demux."""

    def __init__(self, ip_stack: IpStack) -> None:
        self.ip = ip_stack
        self.engine = ip_stack.engine
        self._ephemeral = itertools.count(49152)
        self._listeners: Dict[int, Callable[[TcpConnection], None]] = {}
        self._connections: Dict[ConnKey, TcpConnection] = {}
        ip_stack.register_protocol(PROTO_TCP, self._on_packet)

    def listen(self, port: int,
               on_accept: Callable[[TcpConnection], None]) -> None:
        """Register a passive listener on a well-known port — the very
        construct the paper's port IDs eliminate."""
        self._listeners[port] = on_accept

    def connect(self, local_ip: int, remote_ip: int,
                remote_port: int) -> TcpConnection:
        """Active open from ``local_ip`` (binds the connection to it)."""
        conn = TcpConnection(self, local_ip, next(self._ephemeral),
                             remote_ip, remote_port)
        self._connections[conn.key] = conn
        conn.connect()
        return conn

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.key, None)

    def _on_packet(self, packet: IpPacket, _stack: IpStack) -> None:
        segment: TcpSegment = packet.payload
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle(segment)
            return
        if segment.flags == SYN and segment.dst_port in self._listeners:
            conn = TcpConnection(self, packet.dst, segment.dst_port,
                                 packet.src, segment.src_port, passive=True)
            self._connections[conn.key] = conn
            conn.handle(segment)
            self._listeners[segment.dst_port](conn)
            return
        # no matching connection: RST (and a scanner learns the port is closed)
        if segment.flags != RST:
            rst = TcpSegment(segment.dst_port, segment.src_port, 0,
                             segment.seq, RST, 0)
            self.ip.send(IpPacket(packet.dst, packet.src, PROTO_TCP, rst,
                                  rst.wire_size()))
