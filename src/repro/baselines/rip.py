"""A RIP-style distance-vector IGP, running as a real protocol.

The global :class:`~repro.baselines.ipnet.IpRoutingDaemon` computes routes
omnisciently — fine for most baselines, but it hides the *cost* of routing
in the current Internet.  This module runs an actual distributed protocol
over UDP (port 520, like RIP): periodic full-table advertisements,
split-horizon, hop-count metric, route timeout, and count-to-infinity
bounded at 16 — so experiments can count the baseline's update messages
and convergence time against the DIF's scoped link-state flooding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.engine import Engine, PeriodicTask
from .ipnet import IpStack, prefix_of
from .udp import UdpStack

RIP_PORT = 520
INFINITY_METRIC = 16


class RipRoute:
    """One distance-vector entry."""

    __slots__ = ("prefix", "plen", "metric", "next_hop", "ifname",
                 "last_heard")

    def __init__(self, prefix: int, plen: int, metric: int,
                 next_hop: Optional[int], ifname: str,
                 last_heard: float) -> None:
        self.prefix = prefix
        self.plen = plen
        self.metric = metric
        self.next_hop = next_hop
        self.ifname = ifname
        self.last_heard = last_heard


class RipDaemon:
    """The RIP process of one router/host.

    Parameters
    ----------
    update_interval:
        Period of full-table advertisements (RIP uses 30 s; experiments
        shrink it).
    route_timeout:
        A learned route not refreshed within this window is expired.
    """

    def __init__(self, stack: IpStack, udp: UdpStack,
                 update_interval: float = 5.0,
                 route_timeout: Optional[float] = None) -> None:
        self.stack = stack
        self.udp = udp
        self.engine: Engine = stack.engine
        self.update_interval = update_interval
        self.route_timeout = (route_timeout if route_timeout is not None
                              else 3.5 * update_interval)
        self._routes: Dict[Tuple[int, int], RipRoute] = {}
        self.updates_sent = 0
        self.updates_received = 0
        self.routes_expired = 0
        udp.bind(RIP_PORT, self._on_update)
        self._seed_connected()
        self._task = PeriodicTask(self.engine, update_interval, self._tick,
                                  label=f"rip.{stack.name}")
        self._task.start(initial_delay=update_interval / 4)

    # ------------------------------------------------------------------
    def table_size(self) -> int:
        """Live routes held by this RIP process."""
        return sum(1 for route in self._routes.values()
                   if route.metric < INFINITY_METRIC)

    def route_to(self, address: int) -> Optional[RipRoute]:
        """Longest-prefix live route for ``address``."""
        best: Optional[RipRoute] = None
        for route in self._routes.values():
            if route.metric >= INFINITY_METRIC:
                continue
            if prefix_of(address, route.plen) == route.prefix:
                if best is None or route.plen > best.plen:
                    best = route
        return best

    # ------------------------------------------------------------------
    def _seed_connected(self) -> None:
        for ifname, ip_if in self.stack.interfaces.items():
            if ip_if.up:
                prefix, plen = ip_if.network
                current = self._routes.get((prefix, plen))
                if current is None or current.next_hop is not None:
                    self._routes[(prefix, plen)] = RipRoute(
                        prefix, plen, 0, None, ifname, float("inf"))

    def _tick(self) -> None:
        self._seed_connected()   # interfaces may have come (back) up
        self._expire()
        self._install()
        self._advertise()

    def _expire(self) -> None:
        now = self.engine.now
        for key, route in list(self._routes.items()):
            # connected routes follow interface state, not timers
            if route.next_hop is None:
                ip_if = self.stack.interfaces.get(route.ifname)
                if ip_if is None or not ip_if.up:
                    del self._routes[key]
                    self.routes_expired += 1
                continue
            if now - route.last_heard > self.route_timeout \
                    and route.metric < INFINITY_METRIC:
                route.metric = INFINITY_METRIC   # poisoned, advertised once
                self.routes_expired += 1

    def _install(self) -> None:
        """Copy the live RIP table into the stack's forwarding table."""
        self.stack.clear_routes()
        for route in self._routes.values():
            if route.metric < INFINITY_METRIC:
                self.stack.add_route(route.prefix, route.plen,
                                     route.next_hop, route.ifname)

    def _advertise(self) -> None:
        for ifname, ip_if in self.stack.interfaces.items():
            if not ip_if.up:
                continue
            entries = []
            for route in self._routes.values():
                # split horizon: never advertise back out the learning iface
                if route.next_hop is not None and route.ifname == ifname:
                    continue
                entries.append((route.prefix, route.plen,
                                min(route.metric + 1, INFINITY_METRIC)))
            if not entries:
                continue
            self.updates_sent += 1
            # RIP v2 multicasts; on a p2p link that is the subnet peer
            peer = self._subnet_peer(ip_if.address, ip_if.plen)
            self.udp.sendto(ip_if.address, RIP_PORT, peer, RIP_PORT,
                            ("rip-update", tuple(entries)),
                            8 + 12 * len(entries))

    @staticmethod
    def _subnet_peer(address: int, plen: int) -> int:
        base = prefix_of(address, plen)
        offset = address - base
        return base + (2 if offset == 1 else 1)

    def _on_update(self, payload, _size: int, src_ip: int,
                   _src_port: int) -> None:
        kind, entries = payload
        if kind != "rip-update":
            return
        self.updates_received += 1
        ifname = self._iface_toward(src_ip)
        if ifname is None:
            return
        now = self.engine.now
        changed = False
        for prefix, plen, metric in entries:
            key = (prefix, plen)
            current = self._routes.get(key)
            if current is not None and current.next_hop is None:
                continue   # connected beats anything learned
            if current is None or metric < current.metric \
                    or (current.next_hop == src_ip
                        and current.ifname == ifname):
                if metric >= INFINITY_METRIC and (
                        current is None or current.metric >= INFINITY_METRIC):
                    continue
                self._routes[key] = RipRoute(prefix, plen, metric, src_ip,
                                             ifname, now)
                changed = True
            elif current.next_hop == src_ip:
                current.last_heard = now
        if changed:
            self._install()

    def _iface_toward(self, src_ip: int) -> Optional[str]:
        for ifname, ip_if in self.stack.interfaces.items():
            if prefix_of(src_ip, ip_if.plen) == prefix_of(ip_if.address,
                                                          ip_if.plen):
                return ifname
        return None


def run_rip_network(fabric, update_interval: float = 1.0) -> Dict[str, RipDaemon]:
    """Attach a RIP daemon to every host of an :class:`IpFabric` (replacing
    the omniscient daemon's routes as the periodic updates take over)."""
    daemons = {}
    for name, host in fabric.hosts.items():
        daemons[name] = RipDaemon(host.ip, host.udp,
                                  update_interval=update_interval)
    return daemons
