"""PDU formats of the IPC architecture.

One DIF moves exactly three kinds of protocol data units:

* :class:`DataPdu` — EFCP data transfer (the DTP half of EFCP): carries one
  SDU (or fragment) between connection endpoints.
* :class:`ControlPdu` — EFCP transfer control (the DTCP half): acks and
  flow-control credit, decoupled from data as the paper's "different
  timescales" separation requires.
* :class:`ManagementPdu` — RIEP messages for the management task set
  (enrollment, directory, routing, flow allocation).

All PDUs carry DIF-internal ``src_addr``/``dst_addr`` — addresses never
appear above or below this layer boundary.  When an (N)-PDU travels through
an (N-1)-DIF it rides as an opaque SDU; its :meth:`wire_size` becomes the
(N-1) payload size, so per-layer header overhead accumulates realistically.
"""

from __future__ import annotations

from typing import Any, Optional

from .names import Address
from .riep import RiepMessage

#: Header overhead in bytes, per PDU kind (address pair, CEP-ids, sequence
#: numbers, flags).  Chosen to match a compact binary encoding.
DATA_HEADER_BYTES = 20
CONTROL_HEADER_BYTES = 20
MGMT_HEADER_BYTES = 24


class Pdu:
    """Base class: everything the RMT needs to relay a PDU.

    Each subclass's constructor sets these four fields itself: a PDU is
    built per SDU per rank, and a base-class constructor call was a
    measured share of that cost.
    """

    __slots__ = ("src_addr", "dst_addr", "ttl", "priority")

    def wire_size(self) -> int:
        """Size of this PDU on the wire, in bytes."""
        raise NotImplementedError


class DataPdu(Pdu):
    """A DTP PDU: one SDU between EFCP connection endpoints.

    ``drf`` (data run flag) marks the first PDU of a run, letting the
    receiver synchronize its expected sequence number on a new connection.
    ``followed`` says more SDUs were queued behind this one, so the
    receiver may hold its ACK for the next (RFC 7053's I-bit, inverted).
    """

    __slots__ = ("src_cep", "dst_cep", "seq", "payload", "payload_size", "drf",
                 "followed")

    def __init__(self, src_addr: Address, dst_addr: Address, src_cep: int,
                 dst_cep: int, seq: int, payload: Any, payload_size: int,
                 drf: bool = False, ttl: int = 64, priority: int = 8,
                 followed: bool = False) -> None:
        if payload_size < 0:
            raise ValueError("payload size must be non-negative")
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.ttl = ttl
        self.priority = priority
        self.src_cep = src_cep
        self.dst_cep = dst_cep
        self.seq = seq
        self.payload = payload
        self.payload_size = payload_size
        self.drf = drf
        self.followed = followed

    def wire_size(self) -> int:
        return DATA_HEADER_BYTES + self.payload_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<DataPdu {self.src_addr}->{self.dst_addr} cep={self.dst_cep} "
                f"seq={self.seq} {self.payload_size}B>")


#: ControlPdu kinds.
ACK = "ack"
NACK = "nack"
CREDIT = "credit"
KEEPALIVE = "keepalive"


class ControlPdu(Pdu):
    """A DTCP PDU: acknowledgement / credit update / keepalive.

    ``ack_seq`` is cumulative (next expected sequence number); ``sack`` is an
    optional tuple of selectively acknowledged sequence numbers beyond the
    cumulative point; ``credit`` is the right edge of the send window the
    receiver grants.
    """

    __slots__ = ("kind", "src_cep", "dst_cep", "ack_seq", "credit", "sack")

    def __init__(self, src_addr: Address, dst_addr: Address, kind: str,
                 src_cep: int, dst_cep: int, ack_seq: int = 0,
                 credit: int = 0, sack: tuple = (), ttl: int = 64,
                 priority: int = 0) -> None:
        if kind not in (ACK, NACK, CREDIT, KEEPALIVE):
            raise ValueError(f"unknown control PDU kind {kind!r}")
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.ttl = ttl
        self.priority = priority
        self.kind = kind
        self.src_cep = src_cep
        self.dst_cep = dst_cep
        self.ack_seq = ack_seq
        self.credit = credit
        self.sack = tuple(sack)

    def wire_size(self) -> int:
        return CONTROL_HEADER_BYTES + 4 * len(self.sack)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ControlPdu {self.kind} {self.src_addr}->{self.dst_addr} "
                f"ack={self.ack_seq} credit={self.credit}>")


class ManagementPdu(Pdu):
    """A RIEP message in flight.

    ``dst_addr`` of ``None`` means hop-scoped: the PDU is consumed by the
    adjacent IPCP on the (N-1) port it arrived on, which is how enrollment
    talks to a neighbor before any address exists (§5.2).
    """

    __slots__ = ("message",)

    def __init__(self, src_addr: Optional[Address], dst_addr: Optional[Address],
                 message: Any, ttl: int = 64, priority: int = 1) -> None:
        self.src_addr = src_addr
        self.dst_addr = dst_addr
        self.ttl = ttl
        self.priority = priority
        self.message = message

    def wire_size(self) -> int:
        message = self.message
        if isinstance(message, RiepMessage):
            return MGMT_HEADER_BYTES + message.estimate_size()
        estimate = getattr(message, "estimate_size", None)
        body = estimate() if callable(estimate) else 64
        return MGMT_HEADER_BYTES + body

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MgmtPdu {self.src_addr}->{self.dst_addr} {self.message!r}>"
