"""The gateway server: existing apps served to real clients.

One :class:`~repro.core.system.System` hosts the ordinary ``apps/``
services (echo, RPC, pubsub) exactly as in the simulator.  Each accepted
TCP connection — and each new UDP peer — becomes one
:class:`~repro.gateway.shim.SocketShim` attached to that system via the
:meth:`~repro.core.system.System.attach_provider` seam, which re-registers
every application listener on the new facility.  From there the normal
machinery runs: the client allocates a flow *by application name* over
the shim handshake, the listener fires, messages flow.  No app knows it
is talking to a socket.

The server side is ``side=1`` of every shim (odd flow ids), mirroring
how an accepting link end sits on ``ends[1]`` of a simulated link, so
client-chosen even flow ids can never collide with locally initiated
ones.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional, Sequence

from ..apps.echo import EchoServer
from ..apps.pubsub import Broker
from ..apps.rpc import RpcServer
from ..core.system import System
from ..sim.engine import Engine
from ..sim.node import Node
from .driver import AsyncEngineDriver
from .shim import GATEWAY_CAPACITY_BPS, SocketShim
from .transport import (FrameChannel, start_tcp_server, start_udp_server)


def _rpc_add(params: dict) -> dict:
    return {"sum": sum(params.get("values", []))}


def _rpc_echo(params: dict) -> dict:
    return params


class GatewayServer:
    """Serve the apps/ suite over loopback-or-beyond UDP and TCP."""

    def __init__(self, host: str = "127.0.0.1", tcp_port: int = 0,
                 udp_port: int = 0,
                 apps: Sequence[str] = ("echo", "rpc", "pubsub"),
                 engine: Optional[Engine] = None,
                 driver: Optional[AsyncEngineDriver] = None,
                 system_name: str = "gateway",
                 capacity_bps: float = GATEWAY_CAPACITY_BPS) -> None:
        self.host = host
        self.engine = engine if engine is not None else Engine()
        self.driver = (driver if driver is not None
                       else AsyncEngineDriver(self.engine, mode="wall"))
        self.system = System(Node(self.engine, system_name))
        self.capacity_bps = capacity_bps
        #: counters of connections already closed; :attr:`stats` adds
        #: the live ones' frame and write counts on top
        self._stats: Dict[str, int] = {"tcp_connections": 0, "udp_peers": 0,
                                       "wire_errors": 0, "closed": 0,
                                       "flows_lost": 0,
                                       "frames_out": 0, "writes_out": 0}
        self._shim_seq = itertools.count()
        self._shims: Dict[str, SocketShim] = {}
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._udp_transport: Optional[asyncio.DatagramTransport] = None
        self.tcp_port = tcp_port
        self.udp_port = udp_port
        self.echo = EchoServer(self.system) if "echo" in apps else None
        self.rpc = RpcServer(self.system) if "rpc" in apps else None
        if self.rpc is not None:
            self.rpc.register_method("add", _rpc_add)
            self.rpc.register_method("echo", _rpc_echo)
        if "pubsub" in apps:
            # the system's listener table holds the broker (its bound
            # flow handler) for as long as the app stays registered
            Broker(self.system)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind both listeners (resolving ephemeral ports) and start the
        wall-clock engine pump."""
        self._tcp_server = await start_tcp_server(
            self.host, self.tcp_port, self._on_tcp_channel,
            on_error=self._on_wire_error)
        self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]
        self._udp_transport, _router = await start_udp_server(
            self.host, self.udp_port, self._on_udp_channel)
        self.udp_port = self._udp_transport.get_extra_info("sockname")[1]
        self.driver.start()

    async def stop(self) -> None:
        """Stop serving: engine pump, listeners, open channels."""
        await self.driver.stop()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        for shim in list(self._shims.values()):
            shim.link.channel.close()

    @property
    def active_connections(self) -> int:
        return len(self._shims)

    @property
    def active_flows(self) -> int:
        """Shim flows held over the live connections."""
        return sum(shim.flow_count for shim in self._shims.values())

    @property
    def stats(self) -> Dict[str, int]:
        """The server's counters, live connections included.
        ``frames_out / writes_out`` is how many frames left per socket
        write — the coalescing ratio, readable without a profiler."""
        stats = dict(self._stats)
        for shim in self._shims.values():
            self._add_io(stats, shim)
        return stats

    @staticmethod
    def _add_io(stats: Dict[str, int], shim: SocketShim) -> None:
        channel = shim.link.channel
        stats["frames_out"] += channel.frames_out
        stats["writes_out"] += channel.writes_out

    # ------------------------------------------------------------------
    def _on_tcp_channel(self, channel: FrameChannel, peer: object) -> None:
        self._stats["tcp_connections"] += 1
        self._adopt(channel, f"tcp:{peer}")

    def _on_udp_channel(self, channel: FrameChannel, peer: object) -> None:
        self._stats["udp_peers"] += 1
        self._adopt(channel, f"udp:{peer}")

    def _adopt(self, channel: FrameChannel, label: str) -> None:
        """One connection, one shim facility (runs in loop context; the
        shim is built inline — construction only wires callbacks — and
        attached in engine context via inject)."""
        name = f"gw:{label}#{next(self._shim_seq)}"
        shim = SocketShim(self.engine, name, self.system.name, channel,
                          side=1, driver=self.driver,
                          port_ids=self.system.port_id_counter,
                          capacity_bps=self.capacity_bps,
                          on_wire_error=self._on_wire_error)
        self._shims[name] = shim
        self.driver.inject(self.system.attach_provider, shim,
                           label="gw.attach")
        channel.on_close(lambda: self._on_channel_closed(name))

    def _on_channel_closed(self, name: str) -> None:
        self._stats["closed"] += 1
        shim = self._shims.pop(name, None)
        if shim is not None:
            # flows the peer never deallocated: connection_lost (queued
            # by the shim, not yet run) is about to clean them up
            self._stats["flows_lost"] += shim.flow_count
            self._add_io(self._stats, shim)
        self.driver.inject(self.system.detach_provider, name,
                           label="gw.detach")

    def _on_wire_error(self, exc: Exception) -> None:
        self._stats["wire_errors"] += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GatewayServer {self.host} tcp={self.tcp_port} "
                f"udp={self.udp_port} active={self.active_connections}>")
