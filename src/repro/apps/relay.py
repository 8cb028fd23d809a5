"""Store-and-forward application relaying — mail as an IPC service.

§6.6: "the same functions appear in what are now called application
relaying (e.g., email) [...] This allows ISPs to expand into what has
traditionally been a purely host service."  A :class:`MailRelay` is an
application of an upper DIF that accepts messages addressed to *user
names*, queues them, and forwards toward the relay or mailbox responsible
— the DIF structure (naming, flows, QoS) is reused one level up, with the
relay playing exactly the role a router plays below it.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from ..core.api import MessageFlow
from ..core.flow import DEALLOCATED, FAILED, Flow
from ..core.names import ApplicationName
from ..core.qos import RELIABLE
from ..core.system import System


class Mailbox:
    """Terminal delivery point for a set of local users."""

    def __init__(self, system: System, name: str,
                 users: List[str], dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self.users = set(users)
        self.delivered: Dict[str, List[dict]] = {user: [] for user in users}
        self._flows: List[MessageFlow] = []
        system.register_app(self.app_name, self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            envelope = json.loads(data.decode())
            user = envelope.get("to", "")
            if user in self.users:
                self.delivered[user].append(envelope)
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)

    def inbox(self, user: str) -> List[dict]:
        """Messages delivered for ``user``."""
        return list(self.delivered.get(user, []))


class MailRelay:
    """Queues and forwards envelopes toward the responsible next hop.

    ``routes`` maps user → next-hop application name (a further relay or a
    mailbox).  Unroutable envelopes stay queued — visible backlog, like a
    real MTA.  ``forwarded`` counts envelopes on next-hop flows that did
    not fail.
    """

    def __init__(self, system: System, name: str,
                 routes: Dict[str, str],
                 dif_names: Optional[List[str]] = None) -> None:
        self.system = system
        self.app_name = ApplicationName(name)
        self.routes = dict(routes)
        self.queued: List[dict] = []
        self.forwarded = 0
        self._out_flows: Dict[str, MessageFlow] = {}
        self._flows: List[MessageFlow] = []
        system.register_app(self.app_name, self._on_flow, dif_names)

    def _on_flow(self, flow: Flow) -> None:
        message_flow = MessageFlow(flow)

        def on_message(data: bytes) -> None:
            self.submit(json.loads(data.decode()))
        message_flow.set_message_receiver(on_message)
        self._flows.append(message_flow)

    def submit(self, envelope: dict) -> None:
        """Accept an envelope for forwarding (from a flow or locally)."""
        self.queued.append(envelope)
        self._drain()

    def _drain(self) -> None:
        remaining = []
        for envelope in self.queued:
            next_hop = self.routes.get(envelope.get("to", ""))
            if next_hop is None:
                remaining.append(envelope)
                continue
            if next_hop not in self._out_flows:
                self._open_hop(next_hop)
            # a pending flow's MessageFlow queues the envelope until allocation
            self._out_flows[next_hop].send_message(
                json.dumps(envelope).encode())
            self.forwarded += 1
        self.queued = remaining

    def _open_hop(self, next_hop: str) -> None:
        flow = self.system.allocate_flow(
            self.app_name, ApplicationName(next_hop), qos=RELIABLE)
        self._out_flows[next_hop] = MessageFlow(flow)
        # the next envelope for a hop whose flow failed or was released
        # allocates a new one
        flow.when(FAILED, lambda _flow: self._close_hop(next_hop))
        flow.when(DEALLOCATED, lambda _flow: self._close_hop(next_hop))

    def _close_hop(self, next_hop: str) -> None:
        message_flow = self._out_flows.pop(next_hop)
        if message_flow.flow.state == FAILED:
            # nothing handed to a flow that never came up left
            self.forwarded -= message_flow.messages_sent


def send_mail(system: System, sender_app: str, first_relay: str,
              to_user: str, body: str) -> Flow:
    """Submit one message into the relay mesh from an end system."""
    flow = system.allocate_flow(ApplicationName(sender_app),
                                ApplicationName(first_relay), qos=RELIABLE)
    MessageFlow(flow).send_message(
        json.dumps({"to": to_user, "from": sender_app,
                    "body": body}).encode())
    return flow
