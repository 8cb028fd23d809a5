"""Constant-bit-rate streaming with one-way latency measurement.

The delay-sensitive workload of the utilization experiments (E8/A3): a
:class:`CbrSource` emits fixed-size messages on a period, stamping each
with its send time; a :class:`LatencySink` records per-source one-way
delays.  Both are ordinary applications of the IPC API.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.api import MessageFlow
from ..core.flow import Flow
from ..core.names import ApplicationName
from ..core.qos import QosCube
from ..core.system import System


class CbrSource:
    """Constant-bit-rate sender stamping each message with its send time."""

    def __init__(self, system: System, name: str, sink_name: str,
                 qos: QosCube, message_bytes: int, period: float,
                 dif_name: Optional[str] = None) -> None:
        self.system = system
        self.engine = system.engine
        self.message_bytes = message_bytes
        self.period = period
        self.sent = 0
        self.flow = system.allocate_flow(ApplicationName(name),
                                         ApplicationName(sink_name),
                                         qos=qos, dif_name=dif_name)
        self.message_flow = MessageFlow(self.flow)
        self._running = False

    def start(self) -> None:
        """Begin emitting."""
        self._running = True
        self._tick()

    def stop(self) -> None:
        """Cease emitting."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        if self.flow.allocated:
            header = repr(self.engine.now).encode()
            padding = b"p" * max(0, self.message_bytes - len(header) - 1)
            self.message_flow.send_message(header + b"|" + padding)
            self.sent += 1
        self.engine.call_later(self.period, self._tick, label="cbr.tick")


class LatencySink:
    """Receives stamped messages and records one-way delays per source."""

    def __init__(self, system: System, name: str,
                 dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.engine = system.engine
        self.delays: Dict[str, List[float]] = {}
        self.received = 0
        self._flows: List[MessageFlow] = []
        system.register_app(ApplicationName(name), self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)
        source = str(flow.remote_app)

        def on_message(data: bytes) -> None:
            self.received += 1
            stamp = float(data.split(b"|", 1)[0])
            self.delays.setdefault(source, []).append(self.engine.now - stamp)
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)

    def delays_for(self, source: str) -> List[float]:
        """One-way delays recorded for ``source`` (copy)."""
        return list(self.delays.get(source, ()))
