"""A sockets-style convenience facade over the baseline stack.

This is the interface §3.1 criticizes: applications *see addresses* and
servers camp on *well-known ports*.  It exists so the baseline sides of
the experiments read like ordinary network programs, and so the contrast
with :mod:`repro.core.api` (names in, port ids out) is visible in code.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.network import Network
from ..sim.node import Node
from .ipnet import IpRoutingDaemon, IpStack, ip
from .sctp import SctpStack
from .tcp import TcpStack
from .udp import UdpStack


class Host:
    """One baseline host/router: IP + TCP + UDP + SCTP stacks bundled."""

    def __init__(self, node: Node, forwarding: bool = False) -> None:
        self.node = node
        self.name = node.name
        self.ip = IpStack(node, forwarding=forwarding)
        self.tcp = TcpStack(self.ip)
        self.udp = UdpStack(self.ip)
        self.sctp = SctpStack(self.ip)

    def addr(self, ifname: Optional[str] = None) -> int:
        """This host's (first, or named interface's) address."""
        if ifname is not None:
            return self.ip.interfaces[ifname].address
        try:
            return next(iter(self.ip.interfaces.values())).address
        except StopIteration:
            raise RuntimeError(
                f"{self.name} has no interfaces configured") from None


class IpFabric:
    """Builds the baseline stack over a :class:`~repro.sim.network.Network`.

    Assigns each link a /30-style point-to-point subnet from 10.0.0.0/8 and
    runs the global routing daemon — the baseline analogue of
    :mod:`repro.core.fabric`.
    """

    def __init__(self, network: Network,
                 routers: Optional[List[str]] = None) -> None:
        self.network = network
        router_set = set(routers or [])
        self.hosts: Dict[str, Host] = {}
        for name, node in network.nodes.items():
            self.hosts[name] = Host(node, forwarding=name in router_set)
        self._assign_addresses()
        self.daemon = IpRoutingDaemon(
            network, {name: host.ip for name, host in self.hosts.items()})
        self.daemon.converge()

    def _assign_addresses(self) -> None:
        subnet = 0
        for link in self.network.links.values():
            base = ip("10.0.0.0") + subnet * 4
            subnet += 1
            for offset, end in enumerate(link.ends):
                owner = self._owner_host(end)
                if owner is None:
                    continue
                ifname = self._ifname(owner, end)
                owner.ip.add_interface(ifname, base + 1 + offset, 30)

    def _owner_host(self, end) -> Optional[Host]:
        for name, host in self.hosts.items():
            for interface in self.network.node(name).interfaces():
                if interface.end is end:
                    return host
        return None

    def _ifname(self, host: Host, end) -> str:
        for interface in host.node.interfaces():
            if interface.end is end:
                return interface.name
        raise KeyError("interface not found")

    def host(self, name: str) -> Host:
        """Look up a host by node name."""
        return self.hosts[name]

    def reconverge(self, delay: float = 0.0) -> None:
        """Re-run routing (after failures the experiment wants healed)."""
        self.daemon.converge(delay)
