"""Mobile-IP (RFC 3344 style) — the baseline for the mobility experiment.

The paper (§6.4): "in the Mobile-IP solution, the IP address of the mobile
is treated as a 'special' case by the home and foreign routers which
themselves constitute two single points of failure."  The mechanics
reproduced here:

* the mobile keeps its **home address**; correspondents always send there;
* a **home agent** on the home router intercepts those packets and tunnels
  them (IP-in-IP) to the mobile's current **care-of address**;
* on every move the mobile must register its new care-of address with the
  (possibly distant) home agent before traffic resumes — the handoff
  outage E5 measures — and all traffic takes the triangle route
  correspondent → home agent → mobile regardless of where the endpoints
  actually are (the path-stretch E5 measures).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.engine import Engine, Timer
from .ipnet import PROTO_IPIP, IpPacket, IpStack
from .udp import UdpStack

MOBILE_IP_PORT = 434

_REGISTER = "register"
_REGISTER_ACK = "register-ack"


class HomeAgent:
    """The home-network router function intercepting a mobile's traffic."""

    def __init__(self, stack: IpStack, udp: UdpStack, agent_ip: int) -> None:
        self._stack = stack
        self._udp = udp
        self.agent_ip = agent_ip
        self._bindings: Dict[int, int] = {}  # home address -> care-of address
        self.packets_tunneled = 0
        udp.bind(MOBILE_IP_PORT, self._on_registration)
        stack.receive_hook = self._hook

    def binding_for(self, home_address: int) -> Optional[int]:
        """Current care-of address of a mobile (None when at home)."""
        return self._bindings.get(home_address)

    def _on_registration(self, payload: object, _size: int, src_ip: int,
                         src_port: int) -> None:
        kind, home_address, care_of = payload
        if kind != _REGISTER:
            return
        if care_of == 0:
            self._bindings.pop(home_address, None)  # deregistration: at home
        else:
            self._bindings[home_address] = care_of
        self._udp.sendto(self.agent_ip, MOBILE_IP_PORT, src_ip, src_port,
                         (_REGISTER_ACK, home_address, care_of), 24)

    def _hook(self, packet: IpPacket, _ifname: str) -> Optional[IpPacket]:
        care_of = self._bindings.get(packet.dst)
        if care_of is None:
            return packet
        # intercept and tunnel: outer header to the care-of address
        self.packets_tunneled += 1
        return IpPacket(self.agent_ip, care_of, PROTO_IPIP, packet,
                        packet.wire_size())


class MobileNode:
    """The mobile host's Mobile-IP client: registration + decapsulation."""

    def __init__(self, engine: Engine, stack: IpStack, udp: UdpStack,
                 home_address: int, home_agent_ip: int,
                 registration_timeout: float = 1.0,
                 max_retries: int = 5) -> None:
        self._engine = engine
        self._stack = stack
        self._udp = udp
        self.home_address = home_address
        self.home_agent_ip = home_agent_ip
        self._timeout = registration_timeout
        self._max_retries = max_retries
        self.care_of: Optional[int] = None
        self.registered = False
        self.registrations_sent = 0
        self.registration_rtts: list = []
        self._pending_started: Optional[float] = None
        self._retries = 0
        self._timer = Timer(engine, self._on_timeout, label="mip.reg")
        self._port = udp.bind(0, self._on_datagram)
        self.on_registered: Optional[Callable[[], None]] = None
        stack.register_protocol(PROTO_IPIP, self._on_tunneled)
        #: inner packets delivered after decapsulation go here
        self.tunnel_deliveries = 0

    # ------------------------------------------------------------------
    def move_to(self, care_of_address: int) -> None:
        """Attach at a foreign network: adopt the care-of address and
        (re)register with the home agent.  Until the ACK arrives the mobile
        is unreachable — the Mobile-IP handoff outage."""
        self.care_of = care_of_address
        self.registered = False
        self._retries = 0
        self._pending_started = self._engine.now
        self._send_registration()

    def return_home(self) -> None:
        """Deregister (binding removed at the home agent)."""
        self.care_of = None
        self.registered = False
        self._udp.sendto(self.current_address(), self._port,
                         self.home_agent_ip, MOBILE_IP_PORT,
                         (_REGISTER, self.home_address, 0), 24)

    def current_address(self) -> int:
        """The address the mobile can actually transmit from."""
        return self.care_of if self.care_of is not None else self.home_address

    def _send_registration(self) -> None:
        assert self.care_of is not None
        self.registrations_sent += 1
        self._udp.sendto(self.care_of, self._port, self.home_agent_ip,
                         MOBILE_IP_PORT,
                         (_REGISTER, self.home_address, self.care_of), 24)
        self._timer.start(self._timeout)

    def _on_timeout(self) -> None:
        if self.registered or self.care_of is None:
            return
        self._retries += 1
        if self._retries > self._max_retries:
            return  # unreachable home agent: the single point of failure
        self._send_registration()

    def _on_datagram(self, payload: object, _size: int, _src: int,
                     _sport: int) -> None:
        kind, home_address, care_of = payload
        if kind != _REGISTER_ACK or home_address != self.home_address:
            return
        if care_of == self.care_of or care_of == 0:
            self.registered = True
            self._timer.cancel()
            if self._pending_started is not None:
                self.registration_rtts.append(
                    self._engine.now - self._pending_started)
                self._pending_started = None
            if self.on_registered is not None:
                self.on_registered()

    def _on_tunneled(self, packet: IpPacket, stack: IpStack) -> None:
        """Decapsulate IP-in-IP and deliver the inner packet locally."""
        inner: IpPacket = packet.payload
        self.tunnel_deliveries += 1
        handler = stack.protocols.get(inner.proto)
        if handler is not None and inner.proto != PROTO_IPIP:
            handler(inner, stack)
