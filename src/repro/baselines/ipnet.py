"""An IPv4-like network layer — the architecture the paper argues against.

Deliberately faithful to the properties §6 criticises:

* addresses name **interfaces**, not nodes (§6.3/§6.4's root problem);
* addresses are **public**: any host can address any interface (§6.1);
* forwarding is longest-prefix match over one global address space;
* transport is a separate layer bound to (address, port) pairs.

The stack runs on the same simulated links as the IPC architecture, so
every comparison in the experiments is apples-to-apples.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Dict, List, Optional, Tuple

from ..sim.engine import Engine
from ..sim.link import CorruptedFrame
from ..sim.network import Network
from ..sim.node import Interface, Node

IP_HEADER_BYTES = 20

#: protocol numbers (the real ones, for flavour)
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_IPIP = 4
PROTO_SCTP = 132


def ip(text: str) -> int:
    """Parse dotted-quad text into the integer form used throughout."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 literal {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 literal {text!r}")
        value = (value << 8) | octet
    return value


def ip_str(value: int) -> str:
    """Dotted-quad rendering of an integer address."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_of(address: int, plen: int) -> int:
    """The network prefix of ``address`` at length ``plen``."""
    if plen == 0:
        return 0
    mask = ((1 << plen) - 1) << (32 - plen)
    return address & mask


class IpPacket:
    """One IP datagram (payload is opaque; size explicit)."""

    __slots__ = ("src", "dst", "proto", "ttl", "payload", "payload_size")

    def __init__(self, src: int, dst: int, proto: int, payload: object,
                 payload_size: int, ttl: int = 64) -> None:
        self.src = src
        self.dst = dst
        self.proto = proto
        self.ttl = ttl
        self.payload = payload
        self.payload_size = payload_size

    def wire_size(self) -> int:
        return IP_HEADER_BYTES + self.payload_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<IpPacket {ip_str(self.src)}->{ip_str(self.dst)} "
                f"proto={self.proto} {self.payload_size}B>")


class IpInterface:
    """An addressed attachment of a stack to a link."""

    def __init__(self, interface: Interface, address: int, plen: int) -> None:
        self.interface = interface
        self.address = address
        self.plen = plen
        self.up = True

    @property
    def network(self) -> Tuple[int, int]:
        """(prefix, plen) of the attached subnet."""
        return (prefix_of(self.address, self.plen), self.plen)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IpInterface {ip_str(self.address)}/{self.plen}>"


class Route:
    """One forwarding entry: prefix → (next hop | direct) out an interface."""

    __slots__ = ("prefix", "plen", "next_hop", "ifname")

    def __init__(self, prefix: int, plen: int, next_hop: Optional[int],
                 ifname: str) -> None:
        self.prefix = prefix
        self.plen = plen
        self.next_hop = next_hop  # None = directly attached
        self.ifname = ifname


ProtocolHandler = Callable[[IpPacket, "IpStack"], None]

#: node → neighbour → ends, where ends maps both nodes to their ifnames
Graph = Dict[str, Dict[str, Dict[str, str]]]


def shortest_paths(graph: Graph, source: str,
                   transit: Collection[str]) -> Dict[str, List[str]]:
    """Fewest-hop path from ``source`` to every node it reaches, where
    only ``source`` and the ``transit`` nodes forward.  Breadth first in
    ``graph``'s neighbour order, a node keeps the first path to reach
    it: that order alone breaks ties between equal-length paths."""
    paths = {source: [source]}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node != source and node not in transit:
            continue
        path = paths[node]
        for peer in graph[node]:
            if peer not in paths:
                paths[peer] = path + [peer]
                queue.append(peer)
    return paths


class IpStack:
    """The IP layer of one node."""

    def __init__(self, node: Node, forwarding: bool = False) -> None:
        self.node = node
        self.engine: Engine = node.engine
        self.name = node.name
        self.forwarding = forwarding
        self.interfaces: Dict[str, IpInterface] = {}
        self.routes: List[Route] = []
        self.protocols: Dict[int, ProtocolHandler] = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0
        #: middlebox hook: packet arriving on an interface may be rewritten
        #: (return a packet) or consumed (return None).  NAT and Mobile-IP
        #: home agents — the in-network functions §6 calls kludges — attach
        #: here in the baseline.
        self.receive_hook: Optional[Callable[[IpPacket, str], Optional[IpPacket]]] = None
        #: middlebox hook applied to locally originated packets.
        self.send_hook: Optional[Callable[[IpPacket], Optional[IpPacket]]] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(self, ifname: str, address: int, plen: int) -> IpInterface:
        """Address a physical interface and start receiving on it.

        The interface tracks the link's carrier: it goes down when the link
        fails — which is what kills a TCP connection bound to its address.
        """
        interface = self.node.interface(ifname)
        ip_if = IpInterface(interface, address, plen)
        self.interfaces[ifname] = ip_if
        interface.end.attach(
            lambda packet, size: self._on_receive(packet, ifname))
        ip_if.up = interface.link.up

        def carrier(_link, up: bool) -> None:
            ip_if.up = up
        interface.link.observe(carrier)
        return ip_if

    def register_protocol(self, proto: int, handler: ProtocolHandler) -> None:
        """Bind a transport protocol (TCP/UDP/...) to its number."""
        self.protocols[proto] = handler

    def add_route(self, prefix: int, plen: int, next_hop: Optional[int],
                  ifname: str) -> None:
        """Install a forwarding entry."""
        self.routes.append(Route(prefix, plen, next_hop, ifname))

    def clear_routes(self) -> None:
        """Flush the forwarding table (before daemon reinstall)."""
        self.routes = []

    def addresses(self) -> List[int]:
        """All interface addresses (the stack's public identity set)."""
        return [ip_if.address for ip_if in self.interfaces.values()]

    def has_address(self, address: int) -> bool:
        """True when ``address`` belongs to an *up* local interface."""
        return any(ip_if.address == address and ip_if.up
                   for ip_if in self.interfaces.values())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: IpPacket) -> bool:
        """Originate a packet from this stack."""
        if self.send_hook is not None:
            hooked = self.send_hook(packet)
            if hooked is None:
                return False
            packet = hooked
        return self._route_out(packet)

    def table_size(self) -> int:
        """Number of installed routes (E6 baseline metric)."""
        return len(self.routes)

    def _lookup(self, dst: int) -> Optional[Route]:
        best: Optional[Route] = None
        for route in self.routes:
            if prefix_of(dst, route.plen) == route.prefix:
                if best is None or route.plen > best.plen:
                    best = route
        return best

    def _route_out(self, packet: IpPacket) -> bool:
        # local delivery short-circuit
        if self.has_address(packet.dst):
            self._deliver(packet)
            return True
        route = self._lookup(packet.dst)
        if route is None:
            self.packets_dropped += 1
            return False
        ip_if = self.interfaces.get(route.ifname)
        if ip_if is None or not ip_if.up:
            self.packets_dropped += 1
            return False
        return ip_if.interface.end.send(packet, packet.wire_size())

    def _on_receive(self, packet: IpPacket, ifname: str) -> None:
        if isinstance(packet, CorruptedFrame):
            # link-layer FCS failure: the NIC drops the frame
            return
        ip_if = self.interfaces.get(ifname)
        if ip_if is None or not ip_if.up:
            return
        if self.receive_hook is not None:
            hooked = self.receive_hook(packet, ifname)
            if hooked is None:
                return
            packet = hooked
        if self.has_address(packet.dst):
            self._deliver(packet)
            return
        if not self.forwarding:
            self.packets_dropped += 1
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.packets_dropped += 1
            return
        self.packets_forwarded += 1
        self._route_out(packet)

    def _deliver(self, packet: IpPacket) -> None:
        handler = self.protocols.get(packet.proto)
        if handler is None:
            self.packets_dropped += 1
            return
        handler(packet, self)


class IpRoutingDaemon:
    """Global shortest-path route computation for a set of IP stacks.

    Stands in for an IGP: :meth:`converge` recomputes all forwarding
    tables from the *current* topology (links that are up, interfaces that
    are up), optionally after a convergence delay.  Experiments call it at
    build time and again after failures they want routing to react to.
    """

    def __init__(self, network: Network, stacks: Dict[str, IpStack]) -> None:
        self._network = network
        self._stacks = stacks

    def converge(self, delay: float = 0.0) -> None:
        """(Re)install routes, after ``delay`` simulated seconds."""
        if delay > 0:
            self._network.engine.call_later(delay, self._install,
                                            label="ip.converge")
        else:
            self._install()

    def _install(self) -> None:
        graph = self._usable_graph()
        routers = {name for name, stack in self._stacks.items()
                   if stack.forwarding}
        for name, stack in self._stacks.items():
            stack.clear_routes()
            self._install_for(name, stack, graph, routers)

    def _usable_graph(self) -> Graph:
        """The up links between stacks, every stack a node; parallel
        links keep the first one's place and the last one's ends.

        Each node lists its neighbours in the order route ties break in,
        pinned by the golden ip traces: those earlier in stack order
        first, in stack order, then the later ones in link order.
        """
        graph: Graph = {name: {} for name in self._stacks}
        for link in self._network.links.values():
            if not link.up:
                continue
            a, b = self._network.endpoints_of(link)
            if a in self._stacks and b in self._stacks:
                a_if = self._ifname_for_end(a, link.ends[0])
                b_if = self._ifname_for_end(b, link.ends[1])
                if a_if and b_if:
                    graph[a][b] = graph[b][a] = {a: a_if, b: b_if}
        rank = {name: index for index, name in enumerate(graph)}
        # sorted() is stable and all later neighbours share one key
        return {name: {peer: neighbours[peer] for peer in sorted(
                    neighbours, key=lambda peer: min(rank[peer], rank[name]))}
                for name, neighbours in graph.items()}

    def _ifname_for_end(self, node_name: str, end) -> Optional[str]:
        stack = self._stacks[node_name]
        for ifname, ip_if in stack.interfaces.items():
            if ip_if.interface.end is end and ip_if.up:
                return ifname
        return None

    def _install_for(self, name: str, stack: IpStack, graph: Graph,
                     routers: Collection[str]) -> None:
        # connected subnets first
        connected = set()
        for ifname, ip_if in stack.interfaces.items():
            if ip_if.up:
                prefix, plen = ip_if.network
                stack.add_route(prefix, plen, None, ifname)
                connected.add((prefix, plen))
        paths = shortest_paths(graph, name, routers)
        # routes are to *subnets* (as an IGP advertises prefixes), via the
        # nearest node attached to each subnet — never to hosts.
        for (prefix, plen), owners in self._subnet_owners().items():
            if (prefix, plen) in connected:
                continue
            best = None
            for owner in owners:
                if owner in paths and owner != name:
                    if best is None or len(paths[owner]) < len(paths[best]):
                        best = owner
            if best is None:
                continue
            neighbor = paths[best][1]
            ends = graph[name][neighbor]
            peer = self._stacks[neighbor].interfaces[ends[neighbor]]
            stack.add_route(prefix, plen, peer.address, ends[name])

    def _subnet_owners(self) -> Dict[Tuple[int, int], List[str]]:
        """Which nodes advertise each subnet into the IGP.

        Hosts do not run the IGP: when a subnet has any router attached,
        only the routers advertise it (otherwise traffic would be drawn
        toward a non-forwarding endpoint).
        """
        owners: Dict[Tuple[int, int], List[str]] = {}
        for name, stack in self._stacks.items():
            for ip_if in stack.interfaces.values():
                if ip_if.up:
                    owners.setdefault(ip_if.network, []).append(name)
        for subnet, names in owners.items():
            routers = [n for n in names if self._stacks[n].forwarding]
            if routers:
                owners[subnet] = routers
        return owners
