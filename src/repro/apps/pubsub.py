"""Publish/subscribe over the IPC API — the paper's "peer-to-peer" service
class (§6.6).

A :class:`Broker` is an application of a DIF: subscribers allocate flows
to it and send SUBSCRIBE messages; publishers send PUBLISH messages; the
broker fans each publication out over the subscribers' flows.  Like the
mail relay, it shows a traditionally host-side service living naturally
inside an IPC facility — same naming, same flows, same QoS cubes.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Set

from ..core.api import MessageFlow
from ..core.flow import Flow
from ..core.names import ApplicationName
from ..core.qos import RELIABLE, QosCube
from ..core.system import System


class Broker:
    """Topic-based fan-out broker."""

    def __init__(self, system: System, name: str = "pubsub-broker",
                 dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self._flows: List[MessageFlow] = []
        # topic -> set of MessageFlow indexes subscribed
        self._topics: Dict[str, Set[int]] = {}
        self.deliveries = 0
        system.register_app(self.app_name, self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)
        index = len(self._flows)
        self._flows.append(message_flow)

        def on_message(data: bytes) -> None:
            request = json.loads(data.decode())
            kind = request.get("op")
            if kind == "subscribe":
                self._topics.setdefault(request["topic"], set()).add(index)
            elif kind == "unsubscribe":
                self._topics.get(request["topic"], set()).discard(index)
            elif kind == "publish":
                self._fan_out(request["topic"], request.get("data", ""),
                              exclude=index)
        message_flow.set_message_receiver(on_message)

    def _fan_out(self, topic: str, data: str, exclude: int) -> None:
        payload = json.dumps({"op": "event", "topic": topic,
                              "data": data}).encode()
        for index in sorted(self._topics.get(topic, ())):
            if index == exclude:
                continue
            message_flow = self._flows[index]
            if message_flow.flow.allocated:
                message_flow.send_message(payload)
                self.deliveries += 1

    def subscriber_count(self, topic: str) -> int:
        """Current subscriptions for ``topic``."""
        return len(self._topics.get(topic, ()))


class PubSubClient:
    """A publisher/subscriber endpoint talking to a :class:`Broker`."""

    def __init__(self, system: System, client_name: str,
                 broker_name: str = "pubsub-broker",
                 qos: QosCube = RELIABLE,
                 dif_name: Optional[str] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(client_name)
        self.flow = system.allocate_flow(self.app_name,
                                         ApplicationName(broker_name),
                                         qos=qos, dif_name=dif_name)
        self.message_flow = MessageFlow(self.flow)
        self.message_flow.set_message_receiver(self._on_message)
        self.events: List[dict] = []
        self.on_event: Optional[Callable[[dict], None]] = None

    @property
    def ready(self) -> bool:
        """True once the broker flow was allocated, also after its release."""
        return self.flow.granted

    def subscribe(self, topic: str) -> None:
        """Express interest in ``topic``."""
        self._send({"op": "subscribe", "topic": topic})

    def unsubscribe(self, topic: str) -> None:
        """Withdraw interest in ``topic``."""
        self._send({"op": "unsubscribe", "topic": topic})

    def publish(self, topic: str, data: str) -> None:
        """Publish ``data`` on ``topic``."""
        self._send({"op": "publish", "topic": topic, "data": data})

    def _send(self, request: dict) -> None:
        self.message_flow.send_message(json.dumps(request).encode())

    def _on_message(self, data: bytes) -> None:
        event = json.loads(data.decode())
        if event.get("op") == "event":
            self.events.append(event)
            if self.on_event is not None:
                self.on_event(event)
