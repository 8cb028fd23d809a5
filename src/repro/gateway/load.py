"""Open-loop load client for the gateway.

Drives N *logical clients* against a :class:`GatewayServer` without any
engine of its own — it speaks the shim wire protocol directly (alloc
handshake, data frames carrying delimited fragments), which doubles as
an independent check that the protocol is what the docs say it is.

Open-loop means the send schedule is fixed in advance: every client
sends ``pings`` messages at ``interval`` spacing whether or not replies
have arrived, so a slow server shows up as missing replies, not as a
slower test.  Logical clients are multiplexed over a bounded number of
connections (``conns``) because file descriptors, not protocol state,
are the scarce resource at four digits of concurrency — each client is
one shim *flow*, which is the unit the paper's flow allocation actually
names.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from typing import Any, Dict, List, Optional

from ..core.codec import WireError
from ..core.delimiting import Fragment, Reassembler
from .transport import FrameChannel, open_tcp_channel, open_udp_channel
from .wire import decode_shim_frame, frame_to_wire

_ALLOC_RETRY_S = 0.5
_ALLOC_ATTEMPTS = 5


class _LoadFlow:
    """One logical client: one shim flow on one connection."""

    __slots__ = ("conn", "flow_id", "name", "ready", "failed", "sent",
                 "replies", "_reassembler", "_message_ids", "_pending_rpc")

    def __init__(self, conn: "_LoadConn", flow_id: int, name: str) -> None:
        self.conn = conn
        self.flow_id = flow_id
        self.name = name
        self.ready = asyncio.Event()
        self.failed: Optional[str] = None
        self.sent = 0
        self.replies = 0
        self._reassembler = Reassembler()
        self._message_ids = itertools.count()
        self._pending_rpc: set = set()

    def send_alloc(self, dst: str) -> None:
        self.conn.send_frame(("alloc", self.flow_id, (self.name, dst), 16))

    def send_message(self, data: bytes) -> None:
        fragment = Fragment(next(self._message_ids), 0, True, data)
        self.conn.send_frame(("data", self.flow_id, fragment,
                              fragment.wire_size()))
        self.sent += 1

    def send_ping(self, payload: int, workload: str) -> None:
        if workload == "rpc":
            request_id = self.sent + 1
            self._pending_rpc.add(request_id)
            self.send_message(json.dumps(
                {"id": request_id, "method": "echo",
                 "params": {"pad": "x" * payload}}).encode())
        else:
            self.send_message(b"x" * payload)

    def on_data(self, fragment: Any) -> None:
        if not isinstance(fragment, Fragment):
            return
        message = self._reassembler.push(fragment)
        if message is None:
            return
        if self._pending_rpc:
            try:
                reply = json.loads(message.decode())
            except ValueError:
                return
            self._pending_rpc.discard(reply.get("id"))
        self.replies += 1


class _LoadConn:
    """One socket connection multiplexing a batch of logical clients."""

    def __init__(self, channel: FrameChannel) -> None:
        self.channel = channel
        self.flows: Dict[int, _LoadFlow] = {}
        self.wire_errors = 0
        self.closed = asyncio.Event()
        channel.set_receiver(self._on_wire_bytes)
        channel.on_close(self.closed.set)

    def add_flow(self, flow_id: int, name: str) -> _LoadFlow:
        flow = _LoadFlow(self, flow_id, name)
        self.flows[flow_id] = flow
        return flow

    def send_frame(self, frame: Any) -> bool:
        return self.channel.send(frame_to_wire(frame))

    def _on_wire_bytes(self, buf: bytes) -> None:
        try:
            kind, flow_id, payload, _size = decode_shim_frame(buf)
        except WireError:
            self.wire_errors += 1
            self.channel.close()
            return
        flow = self.flows.get(flow_id)
        if flow is None:
            return
        if kind == "data":
            flow.on_data(payload)
        elif kind == "alloc-ok":
            flow.ready.set()
        elif kind == "alloc-err":
            flow.failed = str(payload)
            flow.ready.set()
        elif kind == "dealloc":
            flow.failed = flow.failed or "deallocated"


async def run_load(host: str, port: int, transport: str = "tcp",
                   clients: int = 100, conns: Optional[int] = None,
                   pings: int = 5, payload: int = 64,
                   interval: float = 0.002, workload: str = "echo",
                   timeout: float = 60.0,
                   server_app: Optional[str] = None) -> Dict[str, Any]:
    """Run one open-loop load session; returns a result row.

    ``clients`` logical clients spread over ``conns`` connections
    (default: ≤64, fd-bounded), each sending ``pings`` messages of
    ``payload`` bytes at ``interval`` spacing, then waiting out
    ``timeout`` wall seconds for the reply tail.
    """
    if transport not in ("tcp", "udp"):
        raise ValueError(f"unknown transport {transport!r}")
    if workload not in ("echo", "rpc"):
        raise ValueError(f"unknown workload {workload!r}")
    if server_app is None:
        server_app = "rpc-server" if workload == "rpc" else "echo-server"
    if conns is None:
        conns = min(clients, 64)
    conns = max(1, min(conns, clients))
    started = time.monotonic()
    deadline = started + timeout

    connections: List[_LoadConn] = []
    for _ in range(conns):
        if transport == "tcp":
            channel: FrameChannel = await open_tcp_channel(host, port)
        else:
            channel = await open_udp_channel(host, port)
        connections.append(_LoadConn(channel))

    # one flow per logical client, round-robin over connections; flow
    # ids are the client side's even series (side 0 of the shim)
    flows: List[_LoadFlow] = []
    per_conn_ids = [itertools.count(2, 2) for _ in connections]
    for index in range(clients):
        conn = connections[index % len(connections)]
        flow_id = next(per_conn_ids[index % len(connections)])
        flows.append(conn.add_flow(flow_id, f"load-{index}"))

    async def allocate(flow: _LoadFlow) -> bool:
        for _attempt in range(_ALLOC_ATTEMPTS):
            flow.send_alloc(server_app)
            try:
                await asyncio.wait_for(flow.ready.wait(), _ALLOC_RETRY_S)
            except asyncio.TimeoutError:
                continue   # datagram (or its answer) lost: resend
            return flow.failed is None
        return False

    alloc_ok = await asyncio.gather(*(allocate(flow) for flow in flows))
    ready_flows = [flow for flow, ok in zip(flows, alloc_ok) if ok]
    alloc_failures = clients - len(ready_flows)

    async def drive(conn: _LoadConn) -> None:
        mine = [flow for flow in conn.flows.values() if flow.failed is None
                and flow.ready.is_set()]
        for _round in range(pings):
            for flow in mine:
                flow.send_ping(payload, workload)
            await asyncio.sleep(interval)

    await asyncio.gather(*(drive(conn) for conn in connections))

    expected = len(ready_flows) * pings

    def replies_done() -> bool:
        return sum(flow.replies for flow in ready_flows) >= expected

    while not replies_done() and time.monotonic() < deadline:
        await asyncio.sleep(0.01)

    for conn in connections:
        for flow in conn.flows.values():
            conn.send_frame(("dealloc", flow.flow_id, None, 0))
        conn.channel.close()

    wall = time.monotonic() - started
    replies = sum(flow.replies for flow in ready_flows)
    sent = sum(flow.sent for flow in flows)
    return {
        "transport": transport,
        "workload": workload,
        "clients": clients,
        "conns": len(connections),
        "alloc_failures": alloc_failures,
        "sent": sent,
        "expected": expected,
        "replies": replies,
        "wire_errors": sum(conn.wire_errors for conn in connections),
        "wall_s": round(wall, 3),
        "replies_per_s": round(replies / wall, 1) if wall > 0 else 0.0,
        "complete": alloc_failures == 0 and replies >= expected,
    }
