"""RIEP — the Resource Information Exchange Protocol.

The paper (§3.1) requires "a protocol for managing distributed IPC (routing,
security and other management tasks)" that populates the RIB.  RIEP here is
a CDAP-style object protocol: six operations on named RIB objects plus a
connect/authenticate exchange used by enrollment.  Every management
conversation in the architecture — enrollment, directory dissemination,
link-state flooding, flow allocation — is a sequence of RIEP messages, so
the wire vocabulary of the whole management plane lives in this module.

:class:`RiepMessage` is the unit carried by a
:class:`~repro.core.pdu.ManagementPdu`.  :class:`InvokeTable` provides
request/response matching with timeouts for the handful of RPC-like
exchanges (enrollment, flow allocation); :class:`DeadlineFifo` times out
flooded copies, one per neighbour.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.engine import Engine
from .names import Address

# Operation codes (the CDAP verbs the paper's reference model uses).
M_CONNECT = "M_CONNECT"      # start an application/management connection
M_CONNECT_R = "M_CONNECT_R"  # response (carries auth result)
M_RELEASE = "M_RELEASE"      # end a management connection
M_CREATE = "M_CREATE"        # create a RIB object at the peer
M_CREATE_R = "M_CREATE_R"
M_DELETE = "M_DELETE"
M_DELETE_R = "M_DELETE_R"
M_READ = "M_READ"
M_READ_R = "M_READ_R"
M_WRITE = "M_WRITE"
M_WRITE_R = "M_WRITE_R"
M_START = "M_START"          # start a task/flow at the peer
M_START_R = "M_START_R"
M_STOP = "M_STOP"
M_STOP_R = "M_STOP_R"

FLOOD_ACK_OBJ = "/flood/ack"  # an M_WRITE_R listing flooded copies' ids
HEADER_BYTES = 12             # a message's size estimate past its two names

RESULT_OK = 0
RESULT_ERROR = 1
RESULT_DENIED = 2
RESULT_NOT_FOUND = 3

_RESPONSES = {
    M_CONNECT: M_CONNECT_R, M_CREATE: M_CREATE_R, M_DELETE: M_DELETE_R,
    M_READ: M_READ_R, M_WRITE: M_WRITE_R, M_START: M_START_R, M_STOP: M_STOP_R,
}


def response_opcode(opcode: str) -> str:
    """The reply opcode paired with a request opcode."""
    try:
        return _RESPONSES[opcode]
    except KeyError:
        raise ValueError(f"{opcode} has no response form")


class RiepMessage:
    """One RIEP message.

    Attributes
    ----------
    opcode:
        One of the ``M_*`` constants.
    obj:
        RIB object path the operation applies to (e.g. ``/routing/lsa/3``).
    value:
        Payload for the operation (dict/str/numbers; kept JSON-like).
    invoke_id:
        Correlates a response with its request; 0 = unsolicited.
    result:
        ``RESULT_*`` code, meaningful on ``*_R`` messages.
    """

    __slots__ = ("opcode", "obj", "value", "invoke_id", "result",
                 "_size_cache")

    def __init__(self, opcode: str, obj: str = "", value: Any = None,
                 invoke_id: int = 0, result: int = RESULT_OK) -> None:
        self.opcode = opcode
        self.obj = obj
        self.value = value
        self.invoke_id = invoke_id
        self.result = result
        self._size_cache: Optional[int] = None

    def reply(self, value: Any = None, result: int = RESULT_OK) -> "RiepMessage":
        """Build the response message for this request."""
        return RiepMessage(response_opcode(self.opcode), obj=self.obj,
                           value=value, invoke_id=self.invoke_id, result=result)

    def estimate_size(self) -> int:
        """Approximate encoded size in bytes (for link serialization).

        The estimate is cached: a message's payload must not be mutated
        after it is first handed to a PDU (flooding re-reads the size at
        every hop, and the recursive walk over a large LSA value was a
        measured hot spot at thousand-member scale).
        """
        if self._size_cache is None:
            body = len(self.opcode) + len(self.obj) + HEADER_BYTES
            if self.value is not None:
                body += estimate_value_size(self.value)
            self._size_cache = body
        return self._size_cache

    @property
    def ok(self) -> bool:
        """True for successful responses."""
        return self.result == RESULT_OK

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RIEP {self.opcode} {self.obj} id={self.invoke_id} r={self.result}>"


def flood_ack(invoke_ids: List[int]) -> RiepMessage:
    """The ``M_WRITE_R`` acking flooded copies by invoke-id, sized as
    :func:`estimate_value_size` charges an int list, without the walk."""
    ack = RiepMessage(M_WRITE_R, obj=FLOOD_ACK_OBJ, value=invoke_ids)
    ack._size_cache = (len(M_WRITE_R) + len(FLOOD_ACK_OBJ) + HEADER_BYTES
                       + 2 + 8 * len(invoke_ids))
    return ack


def estimate_value_size(value: Any) -> int:
    """Rough, deterministic encoded-size estimate for JSON-like values."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, Address):
        # a live address is charged as any opaque object is, not as
        # the plain tuple of components a RIEP value carries
        return 32
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(estimate_value_size(v) for v in value)
    if isinstance(value, dict):
        return 2 + sum(estimate_value_size(k) + estimate_value_size(v)
                       for k, v in value.items())
    # arbitrary objects: charge a flat record
    return 32


ResponseHandler = Callable[[Optional[RiepMessage]], None]


class InvokeTable:
    """Pending-request table: allocates invoke-ids, matches responses,
    and times out requests (handler receives ``None`` on timeout)."""

    def __init__(self, engine: Engine, default_timeout: float = 5.0) -> None:
        self._engine = engine
        self._default_timeout = default_timeout
        self._ids = itertools.count(1)
        self._pending: Dict[int, tuple] = {}

    def new_request(self, message: RiepMessage, handler: ResponseHandler,
                    timeout: Optional[float] = None) -> RiepMessage:
        """Assign an invoke-id to ``message`` and register ``handler``."""
        invoke_id = next(self._ids)
        message.invoke_id = invoke_id
        delay = self._default_timeout if timeout is None else timeout
        # a raw engine event, which the answer cancels
        event = self._engine.call_later(delay, self._timeout, invoke_id,
                                        label="riep.invoke")
        self._pending[invoke_id] = (handler, event)
        return message

    def dispatch_response(self, message: RiepMessage) -> bool:
        """Route a ``*_R`` message to its waiting handler; False if stale."""
        entry = self._pending.pop(message.invoke_id, None)
        if entry is None:
            return False
        handler, event = entry
        event.cancel()
        handler(message)
        return True

    def pending_count(self) -> int:
        """Number of requests still awaiting a response."""
        return len(self._pending)

    def _timeout(self, invoke_id: int) -> None:
        entry = self._pending.pop(invoke_id, None)
        if entry is None:
            return
        handler, _timer = entry
        handler(None)


class DeadlineFifo:
    """Keys that expire ``delay`` seconds after they are added, timed by
    one engine event at a time, not one per key.  :attr:`pending` maps
    each key to ``(deadline, value)`` in the order added; the delay is
    shared, so that is deadline order.  The owner settles a key by
    popping it from :attr:`pending`; the armed event still fires at the
    deadline it was armed for and re-arms at the first key left.
    Expired keys go to ``on_expire(key, value)`` in the order added.
    """

    __slots__ = ("pending", "_engine", "_delay", "_on_expire", "_label",
                 "_armed")

    def __init__(self, engine: Engine, delay: float,
                 on_expire: Callable[[Any, Any], None], label: str) -> None:
        self.pending: Dict[Any, Tuple[float, Any]] = {}
        self._engine, self._delay = engine, delay
        self._on_expire, self._label = on_expire, label
        # one event out at a time; it stays out when pops empty the dict,
        # so a key added meanwhile waits for it instead of arming another
        self._armed = False

    def setdefault(self, key: Any, value: Any) -> Any:
        """The value pending under ``key``; an absent key is added with
        ``value`` and expires one delay from now."""
        entry = self.pending.get(key)
        if entry is not None:
            return entry[1]
        deadline = self._engine.now + self._delay
        self.pending[key] = (deadline, value)
        if not self._armed:
            self._armed = True
            self._engine.call_at(deadline, self._fire, label=self._label)
        return value

    def _fire(self) -> None:
        pending, now = self.pending, self._engine.now
        expired = []
        for key, (deadline, value) in pending.items():
            if deadline > now:
                self._engine.call_at(deadline, self._fire, label=self._label)
                break
            expired.append((key, value))
        else:
            self._armed = False
        for key, _value in expired:
            del pending[key]
        for key, value in expired:
            self._on_expire(key, value)
