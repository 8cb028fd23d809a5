"""An SCTP-like multihomed transport — the patch the paper critiques.

§6.3: "SCTP supports the ability to change the IP address without
disrupting the transport connection.  However, there is no easy way for
SCTP to know that a host interface has failed [...] as this requires SCTP
to do at least degenerate routing."

So this baseline does what real SCTP does: the association knows several
(local, remote) address pairs ("paths"), sends data on the primary,
heartbeats the alternates, counts per-path errors, and fails over only
after ``path_max_retrans`` consecutive losses — i.e. the transport layer
performs its own degenerate routing on end-to-end timeouts, paying a
detection latency of several RTOs.  Experiment E4 compares that recovery
time against the DIF's PoA re-selection.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine, PeriodicTask, Timer
from .ipnet import PROTO_SCTP, IpPacket, IpStack

SCTP_HEADER_BYTES = 12
CHUNK_HEADER_BYTES = 16

INIT = "INIT"
INIT_ACK = "INIT-ACK"
DATA = "DATA"
SACK = "SACK"
HEARTBEAT = "HEARTBEAT"
HEARTBEAT_ACK = "HEARTBEAT-ACK"


class SctpChunk:
    """One SCTP chunk (only the fields the simulation needs)."""

    __slots__ = ("kind", "tsn", "length", "cum_tsn", "addresses", "path_id")

    def __init__(self, kind: str, tsn: int = 0, length: int = 0,
                 cum_tsn: int = 0, addresses: Tuple[int, ...] = (),
                 path_id: int = 0) -> None:
        self.kind = kind
        self.tsn = tsn
        self.length = length
        self.cum_tsn = cum_tsn
        self.addresses = addresses
        self.path_id = path_id

    def wire_size(self) -> int:
        return CHUNK_HEADER_BYTES + self.length + 4 * len(self.addresses)


class SctpPacket:
    """SCTP common header + one chunk."""

    __slots__ = ("src_port", "dst_port", "chunk")

    def __init__(self, src_port: int, dst_port: int, chunk: SctpChunk) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.chunk = chunk

    def wire_size(self) -> int:
        return SCTP_HEADER_BYTES + self.chunk.wire_size()


class SctpPath:
    """One (local address, remote address) pair of an association."""

    __slots__ = ("local_ip", "remote_ip", "active", "error_count",
                 "heartbeat_outstanding")

    def __init__(self, local_ip: int, remote_ip: int) -> None:
        self.local_ip = local_ip
        self.remote_ip = remote_ip
        self.active = True
        self.error_count = 0
        self.heartbeat_outstanding = False


class SctpAssociation:
    """One endpoint of an SCTP-like association."""

    MSS = 1400

    def __init__(self, stack: "SctpStack", local_port: int, remote_port: int,
                 paths: List[Tuple[int, int]],
                 heartbeat_interval: float = 1.0,
                 path_max_retrans: int = 3,
                 rto_initial: float = 0.5, rto_max: float = 8.0) -> None:
        self._stack = stack
        self._engine: Engine = stack.engine
        self.local_port = local_port
        self.remote_port = remote_port
        self.paths = [SctpPath(l, r) for l, r in paths]
        self.primary_index = 0
        self.path_max_retrans = path_max_retrans
        self.established = False
        self._rto = rto_initial
        self._rto_initial = rto_initial
        self._rto_max = rto_max
        # data transfer
        self._next_tsn = 0
        self._inflight: Dict[int, Tuple[int, int]] = {}  # tsn -> (length, path)
        self._retx_timer = Timer(self._engine, self._on_data_timeout,
                                 label="sctp.rto")
        self._rcv_cum = 0
        self._rcv_buffer: Dict[int, int] = {}
        # heartbeats
        self._hb_task = PeriodicTask(self._engine, heartbeat_interval,
                                     self._heartbeat_tick, label="sctp.hb")
        # callbacks / stats
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int], None]] = None
        self.failover_events: List[Tuple[float, int, int]] = []  # (t, old, new)
        self.messages_delivered = 0

    # ------------------------------------------------------------------
    @property
    def primary(self) -> SctpPath:
        """The path data currently uses."""
        return self.paths[self.primary_index]

    def associate(self, attempts: int = 5) -> None:
        """Active open: INIT carrying our address list (retried on loss)."""
        if self.established or attempts <= 0:
            return
        addresses = tuple(p.local_ip for p in self.paths)
        self._send_chunk(self.primary, SctpChunk(INIT, addresses=addresses))
        self._engine.call_later(self._rto_initial * 2, self.associate,
                                attempts - 1)

    def start_heartbeats(self) -> None:
        """Begin path monitoring (called once established)."""
        self._hb_task.start()

    def send_message(self, length: int) -> bool:
        """Submit one message of ``length`` bytes."""
        if not self.established:
            return False
        tsn = self._next_tsn
        self._next_tsn += 1
        self._inflight[tsn] = (length, self.primary_index)
        self._send_chunk(self.primary, SctpChunk(DATA, tsn=tsn, length=length))
        if not self._retx_timer.running:
            self._retx_timer.start(self._rto)
        return True

    # ------------------------------------------------------------------
    # Path management
    # ------------------------------------------------------------------
    def _record_path_error(self, path: SctpPath) -> None:
        path.error_count += 1
        if path.active and path.error_count > self.path_max_retrans:
            path.active = False
            if path is self.primary:
                self._failover()

    def _failover(self) -> None:
        old = self.primary_index
        for index, path in enumerate(self.paths):
            if path.active:
                self.primary_index = index
                self.failover_events.append((self._engine.now, old, index))
                return
        # no active path: association is stuck until a heartbeat revives one

    def _path_alive(self, path: SctpPath) -> None:
        path.error_count = 0
        if not path.active:
            path.active = True
            if not self.primary.active:
                self._failover()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> None:
        for index, path in enumerate(self.paths):
            if path.heartbeat_outstanding:
                self._record_path_error(path)
            path.heartbeat_outstanding = True
            self._send_chunk(path, SctpChunk(HEARTBEAT, path_id=index))

    def _on_data_timeout(self) -> None:
        if not self._inflight:
            return
        self._record_path_error(self.primary)
        self._rto = min(self._rto_max, self._rto * 2)
        tsn = min(self._inflight)
        # SCTP retransmits on an alternate active path when there is one
        retx_path = self.primary
        retx_index = self.primary_index
        for index, path in enumerate(self.paths):
            if path.active and path is not self.primary:
                retx_path = path
                retx_index = index
                break
        length, _old_path = self._inflight[tsn]
        self._inflight[tsn] = (length, retx_index)
        self._send_chunk(retx_path, SctpChunk(DATA, tsn=tsn, length=length))
        self._retx_timer.start(self._rto)

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send_chunk(self, path: SctpPath, chunk: SctpChunk) -> None:
        packet_obj = SctpPacket(self.local_port, self.remote_port, chunk)
        self._stack.ip.send(IpPacket(path.local_ip, path.remote_ip,
                                     PROTO_SCTP, packet_obj,
                                     packet_obj.wire_size()))

    def handle(self, packet: IpPacket) -> None:
        """Process one inbound SCTP packet for this association."""
        sctp: SctpPacket = packet.payload
        chunk = sctp.chunk
        arrival_path = self._path_for(packet.dst, packet.src)
        if chunk.kind == INIT:
            self._learn_paths(packet, chunk.addresses)
            addresses = tuple(p.local_ip for p in self.paths)
            self._send_chunk(self.primary, SctpChunk(INIT_ACK,
                                                     addresses=addresses))
            self._establish()
        elif chunk.kind == INIT_ACK:
            self._learn_paths(packet, chunk.addresses)
            self._establish()
        elif chunk.kind == HEARTBEAT:
            reply_path = arrival_path or self.primary
            self._send_chunk(reply_path, SctpChunk(HEARTBEAT_ACK,
                                                   path_id=chunk.path_id))
        elif chunk.kind == HEARTBEAT_ACK:
            if 0 <= chunk.path_id < len(self.paths):
                path = self.paths[chunk.path_id]
                path.heartbeat_outstanding = False
                self._path_alive(path)
        elif chunk.kind == DATA:
            self._on_data_chunk(chunk, arrival_path)
        elif chunk.kind == SACK:
            self._on_sack(chunk)

    def _path_for(self, local_ip: int, remote_ip: int) -> Optional[SctpPath]:
        for path in self.paths:
            if path.local_ip == local_ip and path.remote_ip == remote_ip:
                return path
        return None

    def _learn_paths(self, packet: IpPacket, remote_addresses: tuple) -> None:
        if not self.paths:
            return
        local_addresses = [p.local_ip for p in self.paths]
        remotes = list(remote_addresses) or [packet.src]
        pairs = list(zip(local_addresses, remotes))
        # extend with cross pairs when counts differ
        if len(pairs) < len(local_addresses):
            for local in local_addresses[len(pairs):]:
                pairs.append((local, remotes[-1]))
        self.paths = [SctpPath(l, r) for l, r in pairs]
        if self.primary_index >= len(self.paths):
            self.primary_index = 0

    def _establish(self) -> None:
        if self.established:
            return
        self.established = True
        self._rto = self._rto_initial
        self.start_heartbeats()
        if self.on_established is not None:
            self.on_established()

    def _on_data_chunk(self, chunk: SctpChunk,
                       arrival_path: Optional[SctpPath]) -> None:
        if chunk.tsn >= self._rcv_cum:
            self._rcv_buffer.setdefault(chunk.tsn, chunk.length)
        delivered = 0
        while self._rcv_cum in self._rcv_buffer:
            delivered += self._rcv_buffer.pop(self._rcv_cum)
            self._rcv_cum += 1
            self.messages_delivered += 1
        if delivered and self.on_data is not None:
            self.on_data(delivered)
        reply_path = arrival_path or self.primary
        self._send_chunk(reply_path, SctpChunk(SACK, cum_tsn=self._rcv_cum))

    def _on_sack(self, chunk: SctpChunk) -> None:
        progressed = False
        acked_paths = set()
        for tsn in list(self._inflight):
            if tsn < chunk.cum_tsn:
                _length, path_index = self._inflight.pop(tsn)
                acked_paths.add(path_index)
                progressed = True
        if progressed:
            self._rto = self._rto_initial
            # credit only the paths whose transmissions were acknowledged;
            # a dead primary keeps accumulating errors toward failover
            for index in acked_paths:
                if 0 <= index < len(self.paths):
                    self.paths[index].error_count = 0
            if self._inflight:
                self._retx_timer.start(self._rto)
            else:
                self._retx_timer.cancel()


class SctpStack:
    """SCTP demux for one node."""

    def __init__(self, ip_stack: IpStack) -> None:
        self.ip = ip_stack
        self.engine = ip_stack.engine
        self._ephemeral = itertools.count(40000)
        self._listeners: Dict[int, Callable[[SctpAssociation], None]] = {}
        self._associations: Dict[Tuple[int, int], SctpAssociation] = {}
        ip_stack.register_protocol(PROTO_SCTP, self._on_packet)

    def listen(self, port: int, local_ips: List[int],
               on_accept: Callable[[SctpAssociation], None]) -> None:
        """Passive open on ``port`` with our address list."""
        self._listeners[port] = on_accept
        self._listener_ips = list(local_ips)

    def associate(self, local_ips: List[int], remote_ip: int,
                  remote_port: int) -> SctpAssociation:
        """Active open toward ``remote_ip:remote_port``."""
        local_port = next(self._ephemeral)
        paths = [(local, remote_ip) for local in local_ips]
        association = SctpAssociation(self, local_port, remote_port, paths)
        self._associations[(local_port, remote_port)] = association
        association.associate()
        return association

    def _on_packet(self, packet: IpPacket, _stack: IpStack) -> None:
        sctp: SctpPacket = packet.payload
        key = (sctp.dst_port, sctp.src_port)
        association = self._associations.get(key)
        if association is not None:
            association.handle(packet)
            return
        if sctp.chunk.kind == INIT and sctp.dst_port in self._listeners:
            paths = [(local, packet.src) for local in self._listener_ips]
            association = SctpAssociation(self, sctp.dst_port, sctp.src_port,
                                          paths)
            self._associations[key] = association
            self._listeners[sctp.dst_port](association)
            association.handle(packet)
