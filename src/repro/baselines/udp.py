"""A UDP-like datagram transport (used by RIP and Mobile-IP signalling)."""

from __future__ import annotations

import itertools
from typing import Callable, Dict

from .ipnet import PROTO_UDP, IpPacket, IpStack

UDP_HEADER_BYTES = 8


class UdpDatagram:
    """One UDP datagram with an opaque payload."""

    __slots__ = ("src_port", "dst_port", "payload", "payload_size")

    def __init__(self, src_port: int, dst_port: int, payload: object,
                 payload_size: int) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.payload_size = payload_size

    def wire_size(self) -> int:
        return UDP_HEADER_BYTES + self.payload_size


#: handler(payload, payload_size, src_ip, src_port)
DatagramHandler = Callable[[object, int, int, int], None]


class UdpStack:
    """The UDP layer of one node."""

    def __init__(self, ip_stack: IpStack) -> None:
        self.ip = ip_stack
        self._ephemeral = itertools.count(32768)
        self._bindings: Dict[int, DatagramHandler] = {}
        self.datagrams_dropped = 0
        ip_stack.register_protocol(PROTO_UDP, self._on_packet)

    def bind(self, port: int, handler: DatagramHandler) -> int:
        """Listen on a port (0 = pick an ephemeral port); returns the port."""
        if port == 0:
            port = next(self._ephemeral)
        if port in self._bindings:
            raise ValueError(f"UDP port {port} already bound")
        self._bindings[port] = handler
        return port

    def sendto(self, src_ip: int, src_port: int, dst_ip: int, dst_port: int,
               payload: object, payload_size: int) -> bool:
        """Transmit one datagram."""
        datagram = UdpDatagram(src_port, dst_port, payload, payload_size)
        packet = IpPacket(src_ip, dst_ip, PROTO_UDP, datagram,
                          datagram.wire_size())
        return self.ip.send(packet)

    def _on_packet(self, packet: IpPacket, _stack: IpStack) -> None:
        datagram: UdpDatagram = packet.payload
        handler = self._bindings.get(datagram.dst_port)
        if handler is None:
            self.datagrams_dropped += 1
            return
        handler(datagram.payload, datagram.payload_size, packet.src,
                datagram.src_port)
