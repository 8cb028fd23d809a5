"""Request/response RPC over the IPC API.

Demonstrates "transaction processing" as an IPC service (§6.6): the same
facility that moves packets also hosts what is traditionally a host-side
middleware service.  Requests and responses are correlated by an id the
*application* chooses — the facility contributes naming, access control,
and the QoS cube.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from ..core.api import MessageFlow
from ..core.flow import Flow
from ..core.names import ApplicationName
from ..core.qos import QosCube, RELIABLE
from ..core.system import System

Handler = Callable[[dict], dict]


class RpcServer:
    """Serves named methods over reliable flows."""

    def __init__(self, system: System, name: str = "rpc-server",
                 dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self._methods: Dict[str, Handler] = {}
        self.requests_served = 0
        self.errors = 0
        self._flows: List[MessageFlow] = []
        system.register_app(self.app_name, self._on_flow, dif_names)

    def register_method(self, method: str, handler: Handler) -> None:
        """Expose ``handler`` under ``method``."""
        self._methods[method] = handler

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            request = json.loads(data.decode())
            handler = self._methods.get(request.get("method", ""))
            if handler is None:
                self.errors += 1
                reply = {"id": request.get("id"), "error": "no-such-method"}
            else:
                self.requests_served += 1
                reply = {"id": request.get("id"),
                         "result": handler(request.get("params", {}))}
            message_flow.send_message(json.dumps(reply).encode())
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)


class RpcClient:
    """Issues requests and correlates responses by id."""

    def __init__(self, system: System, server_name: str = "rpc-server",
                 client_name: str = "rpc-client", qos: QosCube = RELIABLE,
                 dif_name: Optional[str] = None) -> None:
        self.system = system
        self.flow = system.allocate_flow(ApplicationName(client_name),
                                         ApplicationName(server_name),
                                         qos=qos, dif_name=dif_name)
        self.message_flow = MessageFlow(self.flow)
        self.message_flow.set_message_receiver(self._on_message)
        self._next_id = 1
        self._pending: Dict[int, Callable[[dict], None]] = {}
        self.responses = 0

    @property
    def ready(self) -> bool:
        """True once the flow was allocated, also after its release."""
        return self.flow.granted

    def call(self, method: str, params: dict,
             on_reply: Callable[[dict], None]) -> int:
        """Issue one request; returns its correlation id."""
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = on_reply
        payload = json.dumps({"id": request_id, "method": method,
                              "params": params}).encode()
        self.message_flow.send_message(payload)
        return request_id

    def _on_message(self, data: bytes) -> None:
        reply = json.loads(data.decode())
        handler = self._pending.pop(reply.get("id"), None)
        if handler is not None:
            self.responses += 1
            handler(reply)
