"""Shim DIFs: the degenerate IPC facility over one physical link.

"The IPC layers repeat until the IPC facility is tailored to the physical
medium" (§4).  At the very bottom a DIF degenerates to two IPC processes,
one per link end, whose only job is to present the wire through the same
flow-allocation interface every other DIF presents.  No routing, no
enrollment, no EFCP — the medium *is* the facility.

Frames carry a tiny header (flow id + kind); applications of the shim are
the level-1 IPC processes of the DIF above, registered by name exactly as
at any other layer boundary.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from ..sim.engine import Engine
from ..sim.link import CorruptedFrame, LinkEnd
from .flow import Flow
from .names import ApplicationName, DifName, PortId
from .qos import BEST_EFFORT, QosCube

#: Shim framing overhead in bytes (flow id, kind, length).
SHIM_HEADER_BYTES = 8

_KIND_DATA = "data"
_KIND_ALLOC = "alloc"
_KIND_ALLOC_OK = "alloc-ok"
_KIND_ALLOC_ERR = "alloc-err"
_KIND_DEALLOC = "dealloc"

InboundListener = Callable[[Flow], None]


class ShimIpcp:
    """One end of a point-to-point shim DIF.

    Parameters
    ----------
    engine:
        Simulation engine.
    dif_name:
        Name of this shim DIF (one per link, by convention).
    system_name:
        The hosting system's name (diagnostics only).
    link_end:
        The physical attachment this shim drives.
    port_ids:
        System-wide port-id counter shared with other providers.
    """

    def __init__(self, engine: Engine, dif_name: DifName, system_name: str,
                 link_end: LinkEnd,
                 port_ids: Optional[itertools.count] = None) -> None:
        self._engine = engine
        self.dif_name = dif_name
        self.system_name = system_name
        self._end = link_end
        self._end.attach(self._on_frame)
        #: frames the wire damaged in flight, detected and dropped here,
        #: at the DIF boundary
        self.frames_corrupted = 0
        self._port_ids = port_ids if port_ids is not None else itertools.count(1)
        # even/odd flow-id split avoids initiator collisions
        self._side = 0 if link_end is link_end.link.ends[0] else 1
        self._flow_ids = itertools.count(2 + self._side, 2)
        self._registered: Dict[ApplicationName, InboundListener] = {}
        self._flows: Dict[int, Flow] = {}          # shim flow id -> Flow
        self._pending: Dict[int, Flow] = {}        # awaiting alloc-ok

    # ------------------------------------------------------------------
    # FlowProvider interface
    # ------------------------------------------------------------------
    @property
    def name(self) -> DifName:
        """The shim DIF's name."""
        return self.dif_name

    @property
    def link_capacity_bps(self) -> float:
        """Raw capacity of the underlying medium."""
        return self._end.link.capacity_bps

    def register_app(self, app: ApplicationName, listener: InboundListener) -> None:
        """Expose ``app`` to flow requests arriving from the peer end."""
        self._registered[app] = listener

    def unregister_app(self, app: ApplicationName) -> None:
        """Remove a registration (pending flows are unaffected)."""
        self._registered.pop(app, None)

    def registered_apps(self) -> Tuple[ApplicationName, ...]:
        """Currently registered application names."""
        return tuple(sorted(self._registered, key=str))

    def allocate_flow(self, src_app: ApplicationName, dst_app: ApplicationName,
                      qos: Optional[QosCube] = None) -> Flow:
        """Request a flow to ``dst_app`` on the peer system.

        The shim offers only best-effort (the wire's native service); any
        requested cube is accepted but EFCP-grade guarantees are the upper
        DIF's job.  The two-frame allocation handshake is retried against
        frame loss on the raw medium.
        """
        flow_id = next(self._flow_ids)
        flow = Flow(PortId(next(self._port_ids)), src_app, dst_app,
                    qos or BEST_EFFORT, self.dif_name)
        flow.provider_bind(
            send_fn=lambda payload, size: self._send_data(flow_id, payload, size),
            dealloc_fn=lambda: self._deallocate(flow_id),
            nominal_bps=self.link_capacity_bps)
        self._pending[flow_id] = flow
        self._alloc_attempt(flow_id, str(src_app), str(dst_app),
                            self.ALLOC_ATTEMPTS)
        return flow

    #: allocation handshake retry policy (raw medium: no delivery guarantee)
    ALLOC_ATTEMPTS = 5
    ALLOC_TIMEOUT = 0.5

    def _alloc_attempt(self, flow_id: int, src_text: str, dst_text: str,
                       attempts_left: int) -> None:
        flow = self._pending.get(flow_id)
        if flow is None:
            return  # answered (ok or err) meanwhile
        if attempts_left <= 0:
            self._pending.pop(flow_id, None)
            flow.provider_failed("alloc-timeout")
            return
        self._send_frame(_KIND_ALLOC, flow_id, (src_text, dst_text), 16)
        self._engine.call_later(
            self.ALLOC_TIMEOUT, self._alloc_attempt, flow_id, src_text,
            dst_text, attempts_left - 1, label="shim.alloc-retry")

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send_frame(self, kind: str, flow_id: int, payload: Any,
                    size: int) -> bool:
        return self._end.send((kind, flow_id, payload, size),
                              SHIM_HEADER_BYTES + size)

    def _send_data(self, flow_id: int, payload: Any, size: int) -> bool:
        if flow_id not in self._flows:
            return False
        return self._send_frame(_KIND_DATA, flow_id, payload, size)

    def _deallocate(self, flow_id: int) -> None:
        self._flows.pop(flow_id, None)
        self._pending.pop(flow_id, None)
        self._send_frame(_KIND_DEALLOC, flow_id, None, 0)

    def _on_frame(self, frame: Any, frame_size: int) -> None:
        if isinstance(frame, CorruptedFrame):
            # integrity check fails at the DIF boundary: count and drop,
            # never unpack — whatever rode the frame is simply lost and
            # the layer above recovers by its own policy (EFCP resends)
            self.frames_corrupted += 1
            return
        kind, flow_id, payload, size = frame
        if kind == _KIND_DATA:
            flow = self._flows.get(flow_id)
            if flow is not None:
                flow.provider_deliver(payload, size)
        elif kind == _KIND_ALLOC:
            self._on_alloc(flow_id, payload)
        elif kind == _KIND_ALLOC_OK:
            flow = self._pending.pop(flow_id, None)
            if flow is not None:
                self._flows[flow_id] = flow
                flow.provider_allocated()
        elif kind == _KIND_ALLOC_ERR:
            flow = self._pending.pop(flow_id, None)
            if flow is not None:
                flow.provider_failed(str(payload))
        elif kind == _KIND_DEALLOC:
            flow = self._flows.pop(flow_id, None)
            if flow is not None:
                flow.provider_released()

    def _on_alloc(self, flow_id: int, payload: Tuple[str, str]) -> None:
        if flow_id in self._flows:
            # duplicate ALLOC (our OK was lost): replay the acceptance
            self._send_frame(_KIND_ALLOC_OK, flow_id, None, 0)
            return
        src_text, dst_text = payload
        dst_app = ApplicationName.parse(dst_text)
        listener = self._registered.get(dst_app)
        if listener is None:
            self._send_frame(_KIND_ALLOC_ERR, flow_id, "no-such-app", 12)
            return
        src_app = ApplicationName.parse(src_text)
        flow = Flow(PortId(next(self._port_ids)), dst_app, src_app,
                    BEST_EFFORT, self.dif_name)
        flow.provider_bind(
            send_fn=lambda p, s: self._send_data(flow_id, p, s),
            dealloc_fn=lambda: self._deallocate(flow_id),
            nominal_bps=self.link_capacity_bps)
        self._flows[flow_id] = flow
        self._send_frame(_KIND_ALLOC_OK, flow_id, None, 0)
        flow.provider_allocated()
        listener(flow)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShimIpcp {self.dif_name} on {self.system_name} flows={len(self._flows)}>"
