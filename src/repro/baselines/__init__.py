"""The 'current Internet' baseline stack the paper argues against.

Every §6 comparison in the experiments pits the IPC architecture
against this package: IPv4-like forwarding with public interface
addresses, TCP and UDP bound to (address, port), RIP, NAT boxes,
Mobile-IP tunnelling, and SCTP-style multihoming.
All of it runs on the same simulated links as :mod:`repro.core`.
"""

from .ipnet import (IP_HEADER_BYTES, PROTO_IPIP, PROTO_SCTP, PROTO_TCP,
                    PROTO_UDP, IpInterface, IpPacket, IpRoutingDaemon, IpStack,
                    Route, ip, ip_str, prefix_of)
from .mobileip import HomeAgent, MobileNode
from .nat import NatBox
from .rip import RipDaemon, RipRoute, run_rip_network
from .sctp import SctpAssociation, SctpStack
from .sockets import Host, IpFabric
from .tcp import TcpConnection, TcpSegment, TcpStack
from .udp import UdpStack

__all__ = [
    "ip", "ip_str", "prefix_of", "IpPacket", "IpStack", "IpInterface",
    "IpRoutingDaemon", "Route", "IP_HEADER_BYTES",
    "PROTO_TCP", "PROTO_UDP", "PROTO_IPIP", "PROTO_SCTP",
    "TcpStack", "TcpConnection", "TcpSegment",
    "UdpStack",
    "NatBox", "HomeAgent", "MobileNode",
    "RipDaemon", "RipRoute", "run_rip_network",
    "SctpStack", "SctpAssociation",
    "Host", "IpFabric",
]
