"""The flow: what an IPC facility hands its user.

Allocation returns a :class:`Flow` — a port id plus send/receive on an
agreed QoS — and nothing else.  The user (an application, or the IPC
process of a higher DIF, which is the same thing) never sees addresses,
routes, or the facility's internals (§3.1).

A Flow is provider-agnostic: shim DIFs over raw links and full DIFs with
EFCP both hand out the same object, which is what lets DIFs stack
uniformly.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .names import ApplicationName, DifName, PortId
from .qos import QosCube

ReceiverFn = Callable[[Any, int], None]
Watcher = Callable[["Flow"], None]

#: Data per SDU on a packet medium: with its headers, within a 1,500 B MTU.
MAX_SDU_BYTES = 1400

PENDING = "pending"
ALLOCATED = "allocated"
FAILED = "failed"
DEALLOCATED = "deallocated"
#: Not a state: the provider takes sends again after refusing one.
WRITABLE = "writable"


class FlowError(RuntimeError):
    """Raised on operations against a flow in the wrong state."""


class Flow:
    """One end of an allocated communication channel at a layer boundary.

    Created by a provider (shim or DIF flow allocator); the provider wires
    ``_send_fn`` and ``_dealloc_fn`` when allocation completes.  The flow
    owns its lifecycle, PENDING → ALLOCATED | FAILED and ALLOCATED →
    DEALLOCATED; whoever needs a transition subscribes with :meth:`when`.

    A send the provider refuses (backpressure) is followed by WRITABLE
    when it takes sends again, or by the flow leaving ALLOCATED, which
    runs the WRITABLE watchers too.  EFCP raises it when its buffer has
    drained to half; a shim over a simulated link when its link takes a
    frame again, after a tail drop or at the repair of a down link.
    """

    __slots__ = ("port_id", "local_app", "remote_app", "qos",
                 "provider_name", "state", "nominal_bps", "max_sdu",
                 "_receiver", "_send_fn", "_dealloc_fn", "_watchers",
                 "failure_reason", "sdus_sent", "sdus_received",
                 "bytes_sent")

    def __init__(self, port_id: PortId, local_app: ApplicationName,
                 remote_app: ApplicationName, qos: QosCube,
                 provider_name: DifName) -> None:
        self.port_id = port_id
        self.local_app = local_app
        self.remote_app = remote_app
        self.qos = qos
        self.provider_name = provider_name
        self.state = PENDING
        self.nominal_bps: Optional[float] = None
        self.max_sdu = MAX_SDU_BYTES
        self._receiver: Optional[ReceiverFn] = None
        self._send_fn: Optional[Callable[[Any, int], bool]] = None
        self._dealloc_fn: Optional[Callable[[], None]] = None
        self._watchers: Optional[List[Tuple[str, Watcher]]] = None
        self.failure_reason: Optional[str] = None
        self.sdus_sent = 0
        self.sdus_received = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # User side
    # ------------------------------------------------------------------
    def set_receiver(self, receiver: ReceiverFn) -> None:
        """Install the callback invoked for every delivered SDU."""
        self._receiver = receiver

    def send(self, payload: Any, size: int) -> bool:
        """Send one SDU; False on backpressure.  Raises on unallocated flow."""
        if self.state != ALLOCATED:
            raise FlowError(f"cannot send on {self.state} flow {self.port_id!r}")
        assert self._send_fn is not None
        accepted = self._send_fn(payload, size)
        if accepted:
            self.sdus_sent += 1
            self.bytes_sent += size
        return accepted

    def deallocate(self) -> None:
        """Release the flow; idempotent.  Withdrawing a pending request
        fails it with ``"deallocated"``: no flow ever existed."""
        # set first, so the provider's teardown cannot release it again
        if self.state == ALLOCATED:
            self.state = DEALLOCATED
        elif self.state == PENDING:
            self.state, self.failure_reason = FAILED, "deallocated"
        else:
            return
        if self._dealloc_fn is not None:
            self._dealloc_fn()
        if self._watchers:
            self._notify(self.state)

    def when(self, state: str, watcher: Watcher) -> None:
        """Call ``watcher(flow)`` when the flow enters ``state`` (once, at
        the next WRITABLE).  The watchers of one state run in the order
        they subscribed (docs/ARCHITECTURE.md, determinism contract 5)."""
        if self._watchers is None:
            self._watchers = []
        self._watchers.append((state, watcher))

    @property
    def allocated(self) -> bool:
        """True while the flow is usable."""
        return self.state == ALLOCATED

    @property
    def granted(self) -> bool:
        """True once the flow was allocated, also after its release."""
        return self.state == ALLOCATED or self.state == DEALLOCATED

    # ------------------------------------------------------------------
    # Provider side
    # ------------------------------------------------------------------
    def provider_bind(self, send_fn: Callable[[Any, int], bool],
                      dealloc_fn: Optional[Callable[[], None]] = None,
                      nominal_bps: Optional[float] = None,
                      max_sdu: int = MAX_SDU_BYTES) -> None:
        """Wire the provider's data path into the flow."""
        self._send_fn = send_fn
        self._dealloc_fn = dealloc_fn
        self.nominal_bps = nominal_bps
        self.max_sdu = max_sdu

    def provider_allocated(self) -> None:
        """Mark allocation complete and notify the user."""
        if self.state != PENDING:
            return
        if self._send_fn is None:
            raise FlowError("provider_bind must precede provider_allocated")
        self.state = ALLOCATED
        if self._watchers:
            self._notify(self.state)

    def provider_failed(self, reason: str) -> None:
        """Mark allocation failed and notify the user."""
        if self.state != PENDING:
            return
        self.state = FAILED
        self.failure_reason = reason
        if self._watchers:
            self._notify(self.state)

    def provider_deliver(self, payload: Any, size: int) -> None:
        """Hand one inbound SDU to the user."""
        self.sdus_received += 1
        if self._receiver is not None:
            self._receiver(payload, size)

    def provider_writable(self) -> None:
        """The provider takes sends again after refusing one: run each
        WRITABLE watcher once (one subscribed meanwhile waits)."""
        if self._watchers:
            self._notify(WRITABLE)

    def provider_released(self) -> None:
        """Provider-initiated teardown (peer deallocated / facility lost)."""
        if self.state != ALLOCATED:
            return
        self.state = DEALLOCATED
        if self._watchers:
            self._notify(self.state)

    def _notify(self, event: str) -> None:
        """Run the watchers of ``event``, the state just entered or
        WRITABLE.  Only DEALLOCATED and WRITABLE can follow ALLOCATED, so
        the other watchers are dropped; a flow that fails or is released
        runs its WRITABLE watchers too."""
        watchers = self._watchers
        ended = event == FAILED or event == DEALLOCATED
        self._watchers = None if ended else [
            entry for entry in watchers if entry[0] == DEALLOCATED
            or (entry[0] == WRITABLE and event == ALLOCATED)]
        for wanted, watcher in watchers:
            if wanted == event or (ended and wanted == WRITABLE):
                watcher(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Flow {self.port_id!r} {self.local_app}->{self.remote_app} "
                f"{self.state} via {self.provider_name}>")
