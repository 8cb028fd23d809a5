"""Echo: the smallest application pair over the IPC API.

The server registers a *name*; the client allocates a flow *to that name*.
Neither ever sees an address — the API discipline of §3.1.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from ..core.api import MessageFlow
from ..core.flow import Flow
from ..core.names import ApplicationName
from ..core.qos import QosCube, RELIABLE
from ..core.system import System


class EchoServer:
    """Echoes every message back on the same flow."""

    def __init__(self, system: System, name: str = "echo-server",
                 dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self._flows: List[MessageFlow] = []
        self.messages_echoed = 0
        system.register_app(self.app_name, self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            self.messages_echoed += 1
            message_flow.send_message(data)
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)

    def active_flows(self) -> int:
        """Flows currently served."""
        return sum(1 for mf in self._flows if mf.flow.allocated)


class EchoClient:
    """Sends messages and records round-trip times."""

    def __init__(self, system: System, server_name: str = "echo-server",
                 client_name: str = "echo-client",
                 qos: QosCube = RELIABLE,
                 dif_name: Optional[str] = None,
                 on_reply: Optional[Callable[[bytes], None]] = None) -> None:
        self.system = system
        self.on_reply = on_reply
        self.app_name = ApplicationName(client_name)
        self.flow = system.allocate_flow(self.app_name,
                                         ApplicationName(server_name),
                                         qos=qos, dif_name=dif_name)
        self.message_flow = MessageFlow(self.flow)
        self.message_flow.set_message_receiver(self._on_reply)
        self.rtts: List[float] = []
        self._sent_at: Deque[float] = deque()
        self.replies = 0

    @property
    def ready(self) -> bool:
        """True once the flow was allocated, also after its release."""
        return self.flow.granted

    def ping(self, size: int = 64) -> None:
        """Send one message of ``size`` bytes."""
        self._sent_at.append(self.system.engine.now)
        self.message_flow.send_message(b"x" * size)

    def _on_reply(self, data: bytes) -> None:
        if self._sent_at:
            self.rtts.append(self.system.engine.now - self._sent_at.popleft())
        self.replies += 1
        if self.on_reply is not None:
            self.on_reply(data)
