"""Bulk file transfer over a reliable flow — the goodput workload.

Used by the wireless-scoping (E3) and utilization (E8) experiments: the
sender pushes a fixed number of bytes as fast as backpressure allows; the
receiver records completion time, from which goodput follows.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.api import MessageFlow
from ..core.flow import ALLOCATED, WRITABLE, Flow
from ..core.names import ApplicationName
from ..core.qos import BULK, QosCube
from ..core.system import System

_CHUNK = 8 * 1024


class FileSink:
    """Receives a transfer and signals completion."""

    def __init__(self, system: System, name: str = "file-sink",
                 dif_names: Optional[List[str]] = None,
                 on_chunk: Optional[Callable[[float, int], None]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self.on_chunk = on_chunk
        self.bytes_received = 0
        self.transfers_completed = 0
        self.completion_times: List[float] = []
        self._flows: List[MessageFlow] = []
        system.register_app(self.app_name, self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            if data.startswith(b"EOF:"):
                self.transfers_completed += 1
                self.completion_times.append(self.system.engine.now)
            else:
                self.bytes_received += len(data)
                if self.on_chunk is not None:
                    self.on_chunk(self.system.engine.now, len(data))
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)


class FileSender:
    """Pushes ``total_bytes`` then an EOF marker."""

    def __init__(self, system: System, total_bytes: int,
                 sink_name: str = "file-sink",
                 sender_name: str = "file-sender",
                 qos: QosCube = BULK, dif_name: Optional[str] = None,
                 chunk_size: int = _CHUNK) -> None:
        self.system = system
        self.total_bytes = total_bytes
        self.chunk_size = chunk_size
        self.bytes_submitted = 0
        self.started_at: Optional[float] = None
        self.flow = system.allocate_flow(ApplicationName(sender_name),
                                         ApplicationName(sink_name),
                                         qos=qos, dif_name=dif_name)
        self.message_flow = MessageFlow(self.flow)
        self.flow.when(ALLOCATED, self._push)

    def _push(self, _flow: Flow) -> None:
        if self.started_at is None:
            self.started_at = self.system.engine.now
        # keep the message-flow backlog shallow so memory stays bounded;
        # backpressure propagates from EFCP through MessageFlow to here.
        while (self.bytes_submitted < self.total_bytes
               and self.message_flow.pending_fragments() < 64):
            chunk = min(self.chunk_size, self.total_bytes - self.bytes_submitted)
            if not self.message_flow.send_message(b"d" * chunk):
                return   # the flow failed or was released
            self.bytes_submitted += chunk
        if self.bytes_submitted >= self.total_bytes:
            self.message_flow.send_message(b"EOF:done")
            return
        # the MessageFlow waits on the flow's next WRITABLE; subscribed
        # after it, this refills the backlog right after it drains
        self.flow.when(WRITABLE, self._push)

    @property
    def finished_submitting(self) -> bool:
        """True once every byte (and the EOF) has been queued."""
        return self.bytes_submitted >= self.total_bytes
