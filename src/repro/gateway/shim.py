"""The socket shim: a real connection presented as a shim DIF.

"The IPC layers repeat until the IPC facility is tailored to the
physical medium" (§4) — here the medium is an operating-system socket.
:class:`SocketShim` *is* :class:`~repro.core.shim.ShimIpcp`: same frame
kinds, same allocation handshake, same flow-id parity, same provider
interface.  The only substitution is the link: a :class:`SocketLink`
duck-types the simulated :class:`~repro.sim.link.Link` (two ends, a
capacity, attach/send) over one framed byte channel, so the inherited
shim logic cannot tell it left the simulator.

The medium sets its flows' SDU size: TCP the record ceiling, so a message
is one frame; UDP 1,400 B, since IP would split a larger datagram at the
path MTU and lose all of it with any one piece.

One socket read is one engine event.  Its frames are decoded and
shape-checked at the engine boundary, in order; a malformed frame counts
against :attr:`SocketLink.wire_errors` and closes the connection — it
never raises into the asyncio loop and never reaches the stack above,
and neither does any frame behind it.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from ..core.names import DifName
from ..core.shim import ShimIpcp
from ..sim.engine import Engine
from .driver import AsyncEngineDriver
from .wire import decode_shim_frame, frame_to_wire

#: Nominal capacity a socket shim reports to the stack above.  Loopback
#: and LAN paths are far faster than the simulated links; what matters
#: is that EFCP pacing treats the medium as effectively unconstrained.
GATEWAY_CAPACITY_BPS = 1e9


class SocketLinkEnd:
    """One nominal end of a :class:`SocketLink` (LinkEnd duck type)."""

    __slots__ = ("link", "index", "name", "_receiver")

    def __init__(self, link: "SocketLink", index: int) -> None:
        self.link = link
        self.index = index
        self.name = f"{link.name}[{index}]"
        self._receiver: Optional[Callable[[Any, int], None]] = None

    def attach(self, receiver: Callable[[Any, int], None]) -> None:
        self._receiver = receiver

    def send(self, payload: Any, size: int) -> bool:
        link = self.link
        if self is not link._local:
            raise RuntimeError(f"{link.name}: only the local end "
                               f"[{link._local.index}] can send")
        ok = link._channel.send(frame_to_wire(payload))
        if ok and link._tracked:
            link._driver.io_begin()
        return ok

    @property
    def peer(self) -> "SocketLinkEnd":
        return self.link.ends[1 - self.index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SocketLinkEnd {self.name}>"


class SocketLink:
    """A Link duck type whose wire is one framed byte channel.

    Only the *local* end (the one this process's shim drives) is
    functional; the far end object exists so the inherited side
    detection (``link_end is link.ends[0]``) and flow-id parity work
    exactly as over a simulated link.

    ``tracked`` channels report each frame to the driver's inflight
    accounting — the conformance harness runs both endpoints in one
    process and needs fast-forward gating; a serving gateway (remote
    peer, untracked) must not, or the counter would never drain.
    """

    __slots__ = ("name", "capacity_bps", "ends", "_local", "_channel",
                 "_driver", "_tracked", "_on_wire_error", "wire_errors",
                 "_condemned", "_read")

    def __init__(self, name: str, channel: Any, local_side: int,
                 driver: AsyncEngineDriver,
                 capacity_bps: float = GATEWAY_CAPACITY_BPS,
                 tracked: bool = False,
                 on_wire_error: Optional[Callable[[Exception], None]] = None
                 ) -> None:
        if local_side not in (0, 1):
            raise ValueError(f"local_side must be 0 or 1, got {local_side!r}")
        self.name = name
        self.capacity_bps = capacity_bps
        self.ends = (SocketLinkEnd(self, 0), SocketLinkEnd(self, 1))
        self._local = self.ends[local_side]
        self._channel = channel
        self._driver = driver
        self._tracked = tracked
        self._on_wire_error = on_wire_error
        self.wire_errors = 0
        self._condemned = False
        self._read: List[bytes] = []
        channel.set_receiver(self._on_wire_bytes, self._on_batch_end)

    @property
    def channel(self) -> Any:
        return self._channel

    # -- loop context ---------------------------------------------------
    def _on_wire_bytes(self, buf: bytes) -> None:
        if self._tracked:
            self._driver.io_end()
        self._read.append(buf)

    def _on_batch_end(self) -> None:
        # the read is one engine event; its replies are still queued on
        # the channel when drain returns, and go out in one write after
        read, self._read = self._read, []
        self._driver.enqueue(self._deliver, read, label="gw.rx")
        self._driver.drain(self._contain)

    # -- engine context -------------------------------------------------
    def _deliver(self, read: List[bytes]) -> None:
        if self._condemned:
            return   # containment is final: not decoded, not delivered
        receiver = self._local._receiver
        for buf in read:
            try:
                frame = decode_shim_frame(buf)
                if receiver is not None:
                    receiver(frame, len(buf))
            except Exception as exc:   # undecodable, or the stack refused
                self._contain(exc)     # it: close, drop the rest of the read
                return

    def _contain(self, exc: Exception) -> None:
        self.wire_errors += 1
        self._condemned = True
        self._channel.close()   # replies accepted so far go out first
        if self._on_wire_error is not None:
            self._on_wire_error(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SocketLink {self.name} errors={self.wire_errors}>"


class SocketShim(ShimIpcp):
    """A shim IPC process whose link end is a real socket channel."""

    def __init__(self, engine: Engine, dif_name: "DifName | str",
                 system_name: str, channel: Any, side: int,
                 driver: AsyncEngineDriver,
                 port_ids: Optional[itertools.count] = None,
                 capacity_bps: float = GATEWAY_CAPACITY_BPS,
                 tracked: bool = False,
                 on_wire_error: Optional[Callable[[Exception], None]] = None
                 ) -> None:
        if not isinstance(dif_name, DifName):
            dif_name = DifName(dif_name)
        link = SocketLink(f"gw:{dif_name}", channel, side, driver,
                          capacity_bps=capacity_bps, tracked=tracked,
                          on_wire_error=on_wire_error)
        super().__init__(engine, dif_name, system_name, link.ends[side],
                         port_ids=port_ids, max_sdu=channel.max_sdu)
        self.link = link
        self.driver = driver
        # channel teardown (loop context) -> flow teardown (engine context)
        channel.on_close(
            lambda: driver.inject(self.connection_lost, label="gw.closed"))

    @property
    def wire_errors(self) -> int:
        return self.link.wire_errors

    @property
    def flow_count(self) -> int:
        """Flows this facility holds, allocated or awaiting alloc-ok."""
        return len(self._flows) + len(self._pending)

    def connection_lost(self) -> None:
        """Fail pending and release active flows after the socket died.
        Idempotent — close notifications can race deallocation."""
        pending = list(self._pending.values())
        self._pending.clear()
        for flow in pending:
            flow.provider_failed("connection-lost")
        active = list(self._flows.values())
        self._flows.clear()
        for flow in active:
            flow.provider_released()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SocketShim {self.dif_name} on {self.system_name} "
                f"flows={len(self._flows)}>")
