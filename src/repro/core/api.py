"""The application-facing IPC API (§3.1).

What the paper demands of the interface: the source names the destination
application and the desired properties; the facility locates the
application, enforces access, allocates, and returns *port IDs* — never
addresses, never well-known ports.

:class:`~repro.core.system.System` provides exactly that
(``register_app`` / ``allocate_flow``).  This module adds what real
applications want on top of raw SDUs: :class:`MessageFlow`, messages of
any size over a flow, cut by the delimiting module, with a backlog that
waits out backpressure on the flow's WRITABLE notification.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .delimiting import Delimiter, Fragment, Reassembler
from .flow import ALLOCATED, DEALLOCATED, FAILED, PENDING, WRITABLE, Flow

MessageReceiver = Callable[[bytes], None]


class MessageFlow:
    """Message framing over a flow: send/receive whole byte messages.

    Cut to the flow's ``max_sdu``; fragments the flow refuses (backpressure)
    are queued, in order, and leave at the flow's next WRITABLE or at the
    next :meth:`send_message`, whichever comes first.
    """

    def __init__(self, flow: Flow) -> None:
        self.flow = flow
        self._delimiter = Delimiter(flow.max_sdu)
        self._reassembler = Reassembler()
        self._receiver: Optional[MessageReceiver] = None
        self._backlog: Deque[Fragment] = deque()
        self._waiting = False   # subscribed to the flow's next WRITABLE
        self.messages_sent = 0
        self.messages_received = 0
        flow.set_receiver(self._on_sdu)

    def set_message_receiver(self, receiver: MessageReceiver) -> None:
        """Callback invoked with each completely reassembled message."""
        self._receiver = receiver

    def send_message(self, data: bytes) -> bool:
        """Send one message, queueing what the flow cannot take yet; False
        once the flow has failed or been released."""
        flow = self.flow
        if flow.state == FAILED or flow.state == DEALLOCATED:
            return False
        fragments = self._delimiter.delimit(data)
        self.messages_sent += 1
        if self._backlog or len(fragments) > 1 or flow.state != ALLOCATED:
            if flow.state == PENDING and not self._backlog:
                # the backlog leaves when the flow is allocated, and is
                # dropped if it fails
                flow.when(ALLOCATED, self._drain)
                flow.when(FAILED, self._drain)
            self._backlog.extend(fragments)
            self._drain()
        elif not flow.send(fragments[0], fragments[0].wire_size()):
            self._backlog.append(fragments[0])
            self._wait()
        return True

    def pending_fragments(self) -> int:
        """Fragments queued locally awaiting flow capacity."""
        return len(self._backlog)

    def _wait(self) -> None:
        """Drain at the flow's next WRITABLE: one subscription per
        refusal, however often the backlog is refused meanwhile."""
        if not self._waiting:
            self._waiting = True
            self.flow.when(WRITABLE, self._drain)

    def _drain(self, flow: Optional[Flow] = None) -> None:
        if flow is not None:   # the flow called: a subscription is spent
            self._waiting = False
        if self.flow.state != ALLOCATED:
            if self.flow.state != PENDING:   # failed or released: drop it
                self._backlog.clear()
            return
        while self._backlog:
            fragment = self._backlog[0]
            if not self.flow.send(fragment, fragment.wire_size()):
                self._wait()
                return
            self._backlog.popleft()

    def _on_sdu(self, payload: Any, size: int) -> None:
        if not isinstance(payload, Fragment):
            return
        message = self._reassembler.push(payload)
        if message is not None:
            self.messages_received += 1
            if self._receiver is not None:
                self._receiver(message)
